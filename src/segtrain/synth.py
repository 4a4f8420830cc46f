"""Synthetic test collections with planted gold segments.

Each topic has one relevant document whose query terms are written
into a single sentence inside a known training segment, plus hard
negatives: one negative document per topic leaks a fraction of the
query terms into a random segment.  Query vocabularies are disjoint
from the background distribution and from each other, so a brute-force
term-overlap oracle recovers the planted segment exactly when no noise
is applied.

Background tokens are drawn by inverting the cumulative distribution
of their weights (`InverseCdf`).  Each draw equals
`rng.choice(ids, size, p=weights)` and consumes the generator as that
call does, but the distribution is checked and its CDF built once per
corpus rather than once per call, and a guide table replaces most of
the binary search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Document, Query, SegmentationPolicy
from .evaluation import GoldSegments, Qrels
from .formats import SynthConfig


@dataclass
class SynthCorpus:
    queries: list[Query]
    documents: list[Document]
    qrels: Qrels
    gold: GoldSegments
    candidates: dict[str, list[str]]


# Entries in the guide table of an `InverseCdf`.  A power of two, so
# `u * GUIDE_SIZE` and `b / GUIDE_SIZE` are exact for every double u in
# [0, 1) and bucket b.  A bucket narrower than every outcome's
# probability holds at most one step of the CDF, so `draw` walks at
# most one step: true of the synthetic background up to about 8,000
# terms.
GUIDE_SIZE = 1 << 16


class InverseCdf:
    """Draws outcome i with probability p[i] / sum(p), as `Generator.choice` does.

    The CDF is built with the arithmetic of `Generator.choice`:
    `p.cumsum()` divided by its last entry.  `guide[b]` is the number
    of CDF entries at or below b / GUIDE_SIZE, which never exceeds the
    answer for a uniform u in bucket b = floor(u * GUIDE_SIZE).
    """

    def __init__(self, p: np.ndarray):
        p = np.asarray(p, dtype=np.float64)
        cdf = p.cumsum()
        if not (p.ndim == 1 and p.size and (p >= 0).all() and 0 < cdf[-1] < np.inf):
            raise ValueError("probabilities must be a 1-D array of finite, "
                             "non-negative values with a positive sum")
        cdf /= cdf[-1]
        self.cdf = cdf
        self.guide = cdf.searchsorted(np.arange(GUIDE_SIZE) / GUIDE_SIZE, side="right")

    def draw(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        """Outcomes of shape `size`, those of `rng.choice(len(p), size, p=p)`.

        For any p that `choice` accepts, the outcomes are equal and `rng`
        is left in the same state.  Like that call, this takes
        `u = rng.random(size)` and returns
        `cdf.searchsorted(u, side="right")`, the first i with
        cdf[i] > u.  The guide table gives a start at or below it, and
        each pass steps every entry whose CDF is still at or below its
        u.  `cdf[-1]` is 1.0 and u < 1, so no entry steps past the end.
        """
        u = rng.random(size)
        idx = self.guide[(u * GUIDE_SIZE).astype(np.intp)]
        behind = self.cdf[idx] <= u
        while behind.any():
            idx += behind
            behind = self.cdf[idx] <= u
        return idx


def _training_spans(doc: Document, policy: SegmentationPolicy) -> list[tuple[int, int]]:
    return [(seg.start, seg.end) for seg in policy.segments(doc)]


def generate_corpus(cfg: SynthConfig) -> SynthCorpus:
    """Deterministic corpus with one planted relevant document per query.

    Background sentences are drawn from a mildly skewed unigram
    distribution over the non-query vocabulary: each title and body
    draw equals `rng.choice(background, size, p=bg_probs)` on the same
    generator, through one `InverseCdf` built for the corpus.  The
    planted sentence replaces the leading tokens of one sentence inside
    the gold training segment, each query term surviving with
    probability 1 - noise.  One negative per topic receives
    round(overlap * terms) query terms in a random training segment.
    `cfg.seed` seeds the draws, and the segments are those of
    `cfg.policy()`.
    """
    rng = np.random.default_rng(cfg.seed)
    policy = cfg.policy()
    reserved = cfg.num_queries * cfg.query_terms
    vocab = np.array([f"w{i:05d}" for i in range(cfg.vocab_size)], dtype=object)
    background = vocab[reserved:]
    bg_probs = 1.0 / (np.arange(len(background)) + 3.0)
    bg_probs /= bg_probs.sum()
    sampler = InverseCdf(bg_probs)

    queries: list[Query] = []
    documents: list[Document] = []
    qrels: Qrels = {}
    gold: GoldSegments = {}
    candidates: dict[str, list[str]] = {}

    for t in range(cfg.num_queries):
        qid = f"q{t:04d}"
        q_tokens = [vocab[t * cfg.query_terms + i] for i in range(cfg.query_terms)]
        queries.append(Query(qid, " ".join(q_tokens), list(q_tokens)))

        pool_ids = [f"d{t * cfg.docs_per_query + j:05d}"
                    for j in range(cfg.docs_per_query)]
        pos_slot = int(rng.integers(cfg.docs_per_query))
        pool_docs: list[Document] = []
        for doc_id in pool_ids:
            title = background[sampler.draw(rng, cfg.title_token_count)]
            body = background[sampler.draw(
                rng, (cfg.sentences_per_doc, cfg.tokens_per_sentence))]
            pool_docs.append(Document(doc_id, " ".join(title), body.tolist()))

        pos_doc = pool_docs[pos_slot]
        spans = _training_spans(pos_doc, policy)
        if cfg.plant_hi > len(spans):
            raise ValueError(
                f"plant range [{cfg.plant_lo}, {cfg.plant_hi}) exceeds the "
                f"{len(spans)} training segments of {pos_doc.id}")
        g = int(rng.integers(cfg.plant_lo, cfg.plant_hi))
        start, end = spans[g]
        sent_idx = int(rng.integers(start, end)) if end > start else start
        sentence = pos_doc.sentences[sent_idx]
        for i, term in enumerate(q_tokens):
            if rng.random() >= cfg.noise:
                sentence[i] = term

        leak_count = int(round(cfg.distractor_overlap * cfg.query_terms))
        negatives = [d for d in pool_docs if d.id != pos_doc.id]
        if leak_count > 0 and negatives:
            leak_doc = negatives[int(rng.integers(len(negatives)))]
            leak_spans = _training_spans(leak_doc, policy)
            ls, le = leak_spans[int(rng.integers(len(leak_spans)))]
            leak_sent = leak_doc.sentences[int(rng.integers(ls, le))]
            picked = sorted(rng.choice(cfg.query_terms, size=leak_count,
                                       replace=False).tolist())
            for i, q_pos in enumerate(picked):
                leak_sent[i] = q_tokens[q_pos]

        documents.extend(pool_docs)
        qrels[(qid, pos_doc.id)] = 1
        gold[(qid, pos_doc.id)] = g
        candidates[qid] = pool_ids

    return SynthCorpus(queries, documents, qrels, gold, candidates)
