"""The numpy reductions that `ranking.document_scores` and
`ranking.best_segments` replaced, kept as their oracles: given the same
scores, the two must give the same bits.

Both read the scores of each (query, document) pair back to back, and
`starts`, the index of each pair's first score, ascending.
"""

from __future__ import annotations

import numpy as np

from segtrain.ranking import Aggregation


def numpy_aggregate(scores: np.ndarray, starts: np.ndarray, agg: Aggregation) -> np.ndarray:
    """FirstP takes a run's first score, MaxP its largest (NaN if it holds
    a NaN), in one numpy call over all runs."""
    if agg == Aggregation.FIRST_P:
        return scores[starts]
    if agg == Aggregation.MAX_P:
        return np.maximum.reduceat(scores, starts)
    raise ValueError(f"unknown aggregation: {agg!r}")


def numpy_best_segments(scores: np.ndarray, starts: np.ndarray,
                        max_segments: int) -> tuple[np.ndarray, np.ndarray]:
    """The argmax index of each run among its leading `max_segments`
    scores, the smallest on ties, and its score."""
    lengths = np.diff(starts, append=len(scores))
    local = np.arange(len(scores)) - np.repeat(starts, lengths)
    if len(scores) and local.max() >= max_segments:
        scores = np.where(local < max_segments, scores, -np.inf)
    best = np.repeat(np.maximum.reduceat(scores, starts), lengths)
    index = np.minimum.reduceat(np.where(scores == best, local, len(scores)), starts)
    return index, scores[starts + index]


def starts_of(counts: list[int]) -> np.ndarray:
    """The index of each run's first score, given each run's length."""
    return np.cumsum([0, *counts[:-1]], dtype=np.intp) if counts else np.zeros(0, np.intp)
