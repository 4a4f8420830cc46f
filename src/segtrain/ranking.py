"""Document-level scoring from segment scores plus top-k re-ranking."""

from __future__ import annotations

import enum

import numpy as np

from .corpus import (
    DEFAULT_MAX_SEGMENTS,
    DEFAULT_MAX_TOKENS,
    CorpusStats,
    DocView,
    Document,
    Query,
    segment_for_inference,
)
from .evaluation import RankedList, RankEntry
from .scorer import ScorerParams, score_batch, segment_features


class Aggregation(enum.Enum):
    FIRST_P = "firstp"
    MAX_P = "maxp"


def aggregate(seg_scores: np.ndarray, agg: Aggregation) -> float:
    if agg == Aggregation.FIRST_P:
        return float(seg_scores[0])
    if agg == Aggregation.MAX_P:
        return float(seg_scores.max())
    raise ValueError(f"unknown aggregation: {agg!r}")


def score_document(params: ScorerParams, query: Query, doc: Document | DocView,
                   agg: Aggregation, stats: CorpusStats,
                   max_tokens: int = DEFAULT_MAX_TOKENS,
                   max_segments: int = DEFAULT_MAX_SEGMENTS) -> float:
    """First-segment or max-over-segments score of a whole document's
    inference windows."""
    feats = segment_features(query, doc, segment_for_inference(doc, max_tokens),
                             stats, max_tokens, max_segments)
    return aggregate(score_batch(params, feats), agg)


def rank_by_scores(query_id: str, scores: dict[str, float]) -> RankedList:
    """Ranked list sorted by score descending, ties by doc id ascending."""
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    entries = [RankEntry(doc_id, s, i + 1) for i, (doc_id, s) in enumerate(ordered)]
    return RankedList(query_id, entries)


def rerank(params: ScorerParams, query: Query,
           candidates: list[Document] | list[DocView],
           agg: Aggregation, stats: CorpusStats,
           max_tokens: int = DEFAULT_MAX_TOKENS,
           max_segments: int = DEFAULT_MAX_SEGMENTS) -> RankedList:
    """Re-score a fixed candidate pool; every candidate is retained."""
    if not candidates:
        raise ValueError("empty candidate pool")
    scores: dict[str, float] = {}
    for doc in candidates:
        if doc.id in scores:
            raise ValueError(f"duplicate candidate doc id: {doc.id}")
        scores[doc.id] = score_document(params, query, doc, agg, stats,
                                        max_tokens, max_segments)
    return rank_by_scores(query.id, scores)
