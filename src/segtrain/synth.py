"""Synthetic test collections with planted gold segments.

Each topic has one relevant document whose query terms are written
into a single sentence inside a known training segment, plus hard
negatives: one negative document per topic leaks a fraction of the
query terms into a random segment.  Query vocabularies are disjoint
from the background distribution and from each other, so a brute-force
term-overlap oracle recovers the planted segment exactly when no noise
is applied.

A collection is one array of vocabulary ids, a row per document: its
title tokens, then its body, sentence after sentence.  Every vocabulary
entry `w%05d` is one token, so each document's segments are cut from a
`DocView` of its lengths alone, and query terms are planted by writing
their ids.  `write_corpus` renders the corpus file from the ids, a few
documents at a time, through a table of each entry's JSON-escaped
bytes; no token string is built per document.

Background tokens are drawn by inverting the cumulative distribution
of their weights (`InverseCdf`).  Each draw equals
`rng.choice(ids, size, p=weights)` and consumes the generator as that
call does, but the distribution is checked and its CDF built once per
corpus rather than once per call, and a guide table replaces most of
the binary search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from .corpus import DocView, Query, SegmentationPolicy
from .evaluation import GoldSegments, Qrels
from .config import SynthConfig
from .formats import SORTED_JSON


@dataclass(eq=False)
class SynthCorpus:
    """A generated collection.

    `tokens[i]` holds the vocabulary ids (indices into `vocab`) of
    document `doc_ids[i]`: its `title_length` title tokens, then its
    body, `sentence_length` tokens per sentence.  `generate_corpus`
    stores them in the smallest integer type that holds every id.
    Corpora compare by identity, since an array has no one truth value.
    """

    queries: list[Query]
    doc_ids: list[str]
    vocab: list[str]
    tokens: np.ndarray
    title_length: int
    sentence_length: int
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


def _training_spans(doc_id: str, title_length: int, lengths: list[int],
                    policy: SegmentationPolicy) -> list[tuple[int, int]]:
    return [(seg.start, seg.end)
            for seg in policy.segments(DocView(doc_id, title_length, lengths, []))]


def generate_corpus(cfg: SynthConfig) -> SynthCorpus:
    """Deterministic corpus with one planted relevant document per query.

    Background tokens are drawn from a mildly skewed unigram
    distribution over the non-query vocabulary, one draw per topic:
    `rng.choice(background, (docs_per_query, row length), p=bg_probs)`
    on the corpus's generator, through one `InverseCdf` built for the
    corpus.  `Generator.random` fills an array in C order, so the rows
    take the doubles that a title draw and then a body draw per document
    would take.  The planted sentence replaces the leading tokens of one
    sentence inside the gold training segment, each query term surviving
    with probability 1 - noise.  One negative per topic receives
    round(overlap * terms) query terms in a random training segment.
    `cfg.seed` seeds the draws, and the segments are those of
    `cfg.policy()`.
    """
    rng = np.random.default_rng(cfg.seed)
    policy = cfg.policy()
    reserved = cfg.num_queries * cfg.query_terms
    vocab = [f"w{i:05d}" for i in range(cfg.vocab_size)]
    bg_probs = 1.0 / (np.arange(cfg.vocab_size - reserved) + 3.0)
    bg_probs /= bg_probs.sum()
    sampler = InverseCdf(bg_probs)
    title, width = cfg.title_token_count, cfg.tokens_per_sentence
    lengths = [width] * cfg.sentences_per_doc
    doc_ids = [f"d{i:05d}" for i in range(cfg.num_queries * cfg.docs_per_query)]
    tokens = np.empty((len(doc_ids), title + cfg.sentences_per_doc * width),
                      dtype=np.min_scalar_type(cfg.vocab_size - 1))

    queries: list[Query] = []
    qrels: Qrels = {}
    gold: GoldSegments = {}
    candidates: dict[str, list[str]] = {}

    for t in range(cfg.num_queries):
        qid = f"q{t:04d}"
        q_ids = range(t * cfg.query_terms, (t + 1) * cfg.query_terms)
        q_tokens = [vocab[i] for i in q_ids]
        queries.append(Query(qid, " ".join(q_tokens), q_tokens))

        first = t * cfg.docs_per_query
        pool_ids = doc_ids[first:first + cfg.docs_per_query]
        pool = tokens[first:first + cfg.docs_per_query]
        pos_slot = int(rng.integers(cfg.docs_per_query))
        pool[...] = sampler.draw(rng, pool.shape) + reserved

        pos_id = pool_ids[pos_slot]
        spans = _training_spans(pos_id, title, lengths, policy)
        if cfg.plant_hi > len(spans):
            raise ValueError(
                f"plant range [{cfg.plant_lo}, {cfg.plant_hi}) exceeds the "
                f"{len(spans)} training segments of {pos_id}")
        g = int(rng.integers(cfg.plant_lo, cfg.plant_hi))
        start, end = spans[g]
        sent_idx = int(rng.integers(start, end)) if end > start else start
        planted = pool[pos_slot, title + sent_idx * width:]
        for i, term in enumerate(q_ids):
            if rng.random() >= cfg.noise:
                planted[i] = term

        leak_count = int(round(cfg.distractor_overlap * cfg.query_terms))
        negatives = [j for j in range(cfg.docs_per_query) if j != pos_slot]
        if leak_count > 0 and negatives:
            leak_slot = negatives[int(rng.integers(len(negatives)))]
            leak_spans = _training_spans(pool_ids[leak_slot], title, lengths, policy)
            ls, le = leak_spans[int(rng.integers(len(leak_spans)))]
            leaked = pool[leak_slot, title + int(rng.integers(ls, le)) * width:]
            picked = sorted(rng.choice(cfg.query_terms, size=leak_count,
                                       replace=False).tolist())
            for i, q_pos in enumerate(picked):
                leaked[i] = q_ids[q_pos]

        qrels[(qid, pos_id)] = 1
        gold[(qid, pos_id)] = g
        candidates[qid] = pool_ids

    return SynthCorpus(queries, doc_ids, vocab, tokens, title, width, qrels, gold,
                       candidates)


# The documents `write_corpus` renders at a time: its peak memory is
# that of this many rows, whatever the size of the corpus.
WRITE_ROWS = 16

# What follows a token in a corpus line: nothing after a title's last
# token, " " inside a sentence, ". " after a sentence and "." after the
# body's last sentence.
_SEPARATORS = (b"", b" ", b". ", b".")


def _escaped(text: str) -> bytes:
    """The characters of `text` as `SORTED_JSON` writes them inside a
    JSON string: ASCII, each character escaped on its own."""
    return SORTED_JSON.encode(text)[1:-1].encode("ascii")


def write_corpus(corpus: SynthCorpus, stream: IO[str]) -> None:
    """Write each document as the line `SORTED_JSON.encode({"doc_id",
    "title", "body"}) + "\\n"`, byte for byte.

    The title is the title tokens joined by " ".  The body is the
    sentences, each its tokens joined by " ", joined by ". " and ended
    by ".", so a sentence reads back as one.  `WRITE_ROWS` documents at
    a time, each token's escaped bytes and its separator are gathered
    from a table holding every vocabulary entry followed by each of the
    four separators, padded with NUL bytes to one width.  An escaped
    entry holds no NUL (JSON writes it as "\\u0000"), so deleting every
    NUL drops the padding, and each line is framed around the title and
    body bytes that remain.
    """
    title = corpus.title_length
    row_length = corpus.tokens.shape[1]
    kinds = np.ones(row_length, dtype=np.intp)
    kinds[title + corpus.sentence_length - 1::corpus.sentence_length] = 2
    if row_length > title:
        kinds[-1] = 3
    if title:
        kinds[title - 1] = 0
    offsets = kinds * len(corpus.vocab)
    escaped = list(map(_escaped, corpus.vocab))
    cells = [entry + separator for separator in _SEPARATORS for entry in escaped]
    width = max(map(len, cells))
    table = np.frombuffer(b"".join(cell.ljust(width, b"\0") for cell in cells),
                          dtype=f"V{width}")
    sizes = np.array(list(map(len, cells)))
    for lo in range(0, len(corpus.doc_ids), WRITE_ROWS):
        index = corpus.tokens[lo:lo + WRITE_ROWS] + offsets
        used = sizes[index]
        text = memoryview(table[index].tobytes().translate(None, b"\0"))
        lines = []
        at = 0
        for doc_id, title_size, size in zip(corpus.doc_ids[lo:lo + WRITE_ROWS],
                                            used[:, :title].sum(axis=1).tolist(),
                                            used.sum(axis=1).tolist()):
            lines += [b'{"body": "', text[at + title_size:at + size],
                      b'", "doc_id": "', _escaped(doc_id), b'", "title": "',
                      text[at:at + title_size], b'"}\n']
            at += size
        stream.write(b"".join(lines).decode("ascii"))
