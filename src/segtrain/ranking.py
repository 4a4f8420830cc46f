"""The inference layer, without numpy: a model's scores of a feature
store's rows, each (query, document) pair's document score (FirstP or
MaxP) and best segment, and ranked lists from document scores.

`select` and `rerank` score the rows of the stores they load
(`cache.Store`) with `row_scores`, from the model file as
`formats.parse_model` reads it.  `training` scores its stores with
numpy (`scorer.score_batch`) and reduces the scores here too, through
`document_scores` and `best_segments`, so `rerank` ranks a pool as the
dev set that stopped training is ranked, and `select` picks the
segments `training.select_segments` picks.

A linear model scores a row in plain Python as `b + x[0] * w[0] + ...
+ x[6] * w[6]`, rounded after each step, which is the order in which
`scorer._affine` sums it; so each score has the bits `score_batch`
gives it, and no numpy loads.  The model file's `kind` chooses the one
fork: an mlp scores through `scorer`, and so numpy, since `math.tanh`
and `np.tanh` differ in the last bit on many inputs.  Either way a
score that is not finite is a ValueError, and nothing warns.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable

from .evaluation import RankedList, RankEntry, Run
from .formats import NUM_FEATURES


class Aggregation(enum.Enum):
    FIRST_P = "firstp"
    MAX_P = "maxp"


def row_scores(model: tuple[str, int, list[float]], rows) -> list[float]:
    """The score of each row of `rows`, a C-contiguous buffer of native
    float64 rows of `NUM_FEATURES` values, under `model`: a scorer kind,
    its hidden units and its parameters in model-file order, as
    `formats.parse_model` gives them.  A score that is not finite raises
    ValueError("non-finite scores")."""
    kind, hidden, values = model
    view = memoryview(rows)
    if not view.nbytes:  # a view with no rows cannot be cast
        return []
    flat = view.cast("B").cast("d")
    if kind != "linear":
        import numpy as np

        from .scorer import ScorerParams, _finite_scores

        matrix = np.frombuffer(flat, dtype=np.float64).reshape(-1, NUM_FEATURES)
        return _finite_scores(ScorerParams(kind, hidden, np.array(values)), matrix).tolist()
    w0, w1, w2, w3, w4, w5, w6, b = values
    x = iter(flat.tolist())
    scores = [b + x0 * w0 + x1 * w1 + x2 * w2 + x3 * w3 + x4 * w4 + x5 * w5 + x6 * w6
              for x0, x1, x2, x3, x4, x5, x6 in zip(x, x, x, x, x, x, x)]
    if not all(map(math.isfinite, scores)):
        raise ValueError("non-finite scores")
    return scores


def _runs(scores: list[float], counts: Iterable[int]) -> Iterable[list[float]]:
    """Each pair's run of `scores`, the runs of `counts` back to back."""
    start = 0
    for count in counts:
        yield scores[start:start + count]
        start += count


def document_scores(scores: list[float], counts: Iterable[int],
                    agg: Aggregation) -> list[float]:
    """The document score of each pair, from its run of scores: FirstP
    takes the run's first, MaxP its largest, the last of equal ones, so
    that of 0.0 and -0.0 it takes the later.  `np.maximum.reduceat`
    gives the same bits on runs of up to 8 scores; on longer ones the
    sign of a zero maximum depends on how numpy splits the run across
    its vector lanes.

    `scores` holds the runs back to back, and `counts` the length of
    each, in pair order; no run is empty, and no score is NaN.
    """
    if agg == Aggregation.FIRST_P:
        return [run[0] for run in _runs(scores, counts)]
    if agg == Aggregation.MAX_P:
        return [max(reversed(run)) for run in _runs(scores, counts)]
    raise ValueError(f"unknown aggregation: {agg!r}")


def best_segments(scores: list[float], counts: Iterable[int],
                  max_segments: int) -> tuple[list[int], list[float]]:
    """Each pair's best segment among its leading `max_segments`: the
    index of the largest score, the smallest on ties as `np.argmax`
    gives it, and that segment's score; laid out as `document_scores`
    reads them."""
    index, best = [], []
    for run in _runs(scores, counts):
        head = run[:max_segments]
        i = head.index(max(head))
        index.append(i)
        best.append(head[i])
    return index, best


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


def rank_pairs(pairs: Iterable[tuple[str, str]], scores: Iterable[float]) -> Run:
    """Each query's documents ranked by their scores (`rank_by_scores`),
    given the (query id, doc id) pairs and each pair's document score,
    in the same order."""
    by_query: dict[str, dict[str, float]] = {}
    for (qid, doc_id), score in zip(pairs, scores):
        by_query.setdefault(qid, {})[doc_id] = score
    return {qid: rank_by_scores(qid, doc_scores) for qid, doc_scores in by_query.items()}
