"""Document scores from segment scores (FirstP or MaxP), and ranked lists
from document scores."""

from __future__ import annotations

import enum
import math

import numpy as np

from .evaluation import RankedList, RankEntry


class Aggregation(enum.Enum):
    FIRST_P = "firstp"
    MAX_P = "maxp"


def aggregate(scores: np.ndarray, starts: np.ndarray, agg: Aggregation) -> np.ndarray:
    """The document score of each run of segment scores.

    `scores` holds the runs back to back, and `starts` the index of each
    run's first score, ascending; no run is empty.  FirstP takes a run's
    first score, MaxP its largest (NaN if it holds a NaN), in one numpy
    call over all runs.
    """
    if agg == Aggregation.FIRST_P:
        return scores[starts]
    if agg == Aggregation.MAX_P:
        return np.maximum.reduceat(scores, starts)
    raise ValueError(f"unknown aggregation: {agg!r}")


def _rank_key(item: tuple[str, float]) -> tuple[bool, float, str]:
    doc_id, score = item
    if math.isnan(score):
        return True, 0.0, doc_id
    return False, -score, doc_id


def rank_by_scores(query_id: str, scores: dict[str, float]) -> RankedList:
    """Ranked list sorted by score descending, ties by doc id ascending.

    A NaN score ranks after every number, -inf included, and NaNs rank
    among themselves by doc id; so a diverged model ranks its candidates
    by doc id, whatever order `scores` lists them in.
    """
    ordered = sorted(scores.items(), key=_rank_key)
    entries = [RankEntry(doc_id, s, i + 1) for i, (doc_id, s) in enumerate(ordered)]
    return RankedList(query_id, entries)
