"""Synthetic-collection assembly shared by integration and acceptance
tests, read back into views as the commands read a corpus."""

from __future__ import annotations

import dataclasses
import io
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from document_oracle import Document, synth_documents, write_corpus
from segtrain import formats
from segtrain.cache import Store
from segtrain.corpus import (
    DEFAULT_MAX_SEGMENTS,
    DEFAULT_MAX_TOKENS,
    CorpusStats,
    DocView,
    Query,
    SegmentationPolicy,
    inference_windows,
)
from segtrain.evaluation import GoldSegments, Qrels
from segtrain.synth import SynthConfig, SynthCorpus, generate_corpus
from segtrain.training import TrainConfig, TrainingSet, build_training_set


def scored_terms(queries: list[Query],
                 candidates: dict[str, list[str]]) -> dict[str, set[str]]:
    """Each candidate's scored terms, the tokens of every query that
    lists it, as `train` gathers them."""
    doc_terms: dict[str, set[str]] = {}
    for query in queries:
        for doc_id in candidates.get(query.id, []):
            doc_terms.setdefault(doc_id, set()).update(query.tokens)
    return doc_terms


def judged(store: Store, queries: list[Query], candidates: dict[str, list[str]],
           qrels: Qrels, max_segments: int = DEFAULT_MAX_SEGMENTS,
           mrr_cutoff: int = 10) -> TrainingSet:
    """The judged subset of `store` that holds every one of `queries`,
    the queries that lay the store out."""
    return TrainingSet.subset(store, queries, candidates, [q.id for q in queries], qrels,
                              max_segments, mrr_cutoff)


def pair_rows(store: TrainingSet, query_id: str, doc_id: str) -> np.ndarray:
    """The feature rows of one (query, document) pair of a store: a view
    of its matrix."""
    span = store.rows[(query_id, doc_id)]
    return store.matrix[span.start:span.stop]


def read_views(documents: Iterable[Document], queries: list[Query],
               candidates: dict[str, list[str]], max_tokens: int = DEFAULT_MAX_TOKENS
               ) -> tuple[dict[str, DocView], CorpusStats]:
    """The views and stats `train` builds its stores from: `documents`
    written by `write_corpus`, read back by `parse_corpus` with the
    candidates' query terms, and the stats of `CorpusStats.from_windows`."""
    text = io.StringIO()
    write_corpus(documents, text)
    text.seek(0)
    views, df = formats.parse_corpus(text, scored_terms(queries, candidates))
    return views, CorpusStats.from_windows(inference_windows(views, max_tokens), df)


def config_e(seed: int, noise: float = 0.1) -> SynthConfig:
    """The end-to-end recovery configuration: 250 topics (200 train +
    50 dev), pools of 1 relevant + 5 negatives, 6 inference segments
    per document, planted segment uniform on [0, 4)."""
    return SynthConfig(
        num_queries=250,
        docs_per_query=6,
        sentences_per_doc=18,
        tokens_per_sentence=128,
        vocab_size=5000,
        query_terms=5,
        plant_lo=0,
        plant_hi=4,
        distractor_overlap=0.3,
        noise=noise,
        seed=seed,
    )


@dataclass
class Collection:
    corpus: SynthCorpus
    train_set: TrainingSet
    dev_bundle: TrainingSet       # dev topics over inference windows, for dev MRR
    dev_set: TrainingSet          # dev topics with training segments, for P@1
    dev_gold: GoldSegments
    train_gold: GoldSegments
    train_cfg: TrainConfig
    synth_cfg: SynthConfig
    views: dict[str, DocView]
    stats: CorpusStats


def assemble(synth_cfg: SynthConfig, n_train: int,
             train_cfg: TrainConfig | None = None) -> Collection:
    """Generate a corpus, read it back as `train` does, and split the
    leading topics into the train side."""
    corpus = generate_corpus(synth_cfg)
    views, stats = read_views(synth_documents(corpus), corpus.queries,
                              corpus.candidates, synth_cfg.max_tokens)
    policy = synth_cfg.policy()
    inference = dataclasses.replace(policy, mode="inference")
    n_segments = policy.max_segments
    train_queries, dev_queries = corpus.queries[:n_train], corpus.queries[n_train:]
    train_ids, dev_ids = [q.id for q in train_queries], [q.id for q in dev_queries]
    dev_id_set = set(dev_ids)

    def restrict(mapping: dict, ids: set[str]) -> dict:
        return {key: value for key, value in mapping.items() if key[0] in ids}

    def store(queries: list[Query], cut: SegmentationPolicy) -> Store:
        return build_training_set(queries, corpus.candidates, views, cut, stats)

    train_set = judged(store(train_queries, policy), train_queries, corpus.candidates,
                       corpus.qrels, n_segments)
    dev_set = judged(store(dev_queries, policy), dev_queries, corpus.candidates,
                     corpus.qrels, n_segments)
    dev_bundle = judged(store(dev_queries, inference), dev_queries, corpus.candidates,
                        corpus.qrels, n_segments)
    cfg = train_cfg or TrainConfig(seed=synth_cfg.seed)
    return Collection(
        corpus=corpus,
        train_set=train_set,
        dev_bundle=dev_bundle,
        dev_set=dev_set,
        dev_gold=restrict(corpus.gold, dev_id_set),
        train_gold=restrict(corpus.gold, set(train_ids)),
        train_cfg=cfg,
        synth_cfg=synth_cfg,
        views=views,
        stats=stats,
    )
