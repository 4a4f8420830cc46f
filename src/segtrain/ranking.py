"""Document scores from segment scores (FirstP or MaxP), and ranked lists
from document scores."""

from __future__ import annotations

import enum

import numpy as np

from .evaluation import RankedList, RankEntry


class Aggregation(enum.Enum):
    FIRST_P = "firstp"
    MAX_P = "maxp"


def aggregate(seg_scores: np.ndarray, agg: Aggregation) -> float:
    if agg == Aggregation.FIRST_P:
        return float(seg_scores[0])
    if agg == Aggregation.MAX_P:
        return float(seg_scores.max())
    raise ValueError(f"unknown aggregation: {agg!r}")


def rank_by_scores(query_id: str, scores: dict[str, float]) -> RankedList:
    """Ranked list sorted by score descending, ties by doc id ascending."""
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    entries = [RankEntry(doc_id, s, i + 1) for i, (doc_id, s) in enumerate(ordered)]
    return RankedList(query_id, entries)
