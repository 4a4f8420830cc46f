"""Ranking metrics, segment-selection precision, significance, splits.

Qrels map (query_id, doc_id) to an integer relevance grade; a missing
pair means grade 0, and `Judgments` hold the same grades by query.
Runs map query ids to RankedLists.  `mrr` is the dev metric that stops
training.  `judged_metrics` is the per-query primitive of `eval`: over
judgments by query, as `formats.parse_qrels` gives them, it gives every
judged query's reciprocal rank and NDCG@k from the top of its ranking
held as two columns, document ids and ranks (`Top`), and `table_means`
their means.  Each query's ideal DCG@k is computed once
(`ideal_dcgs`) and shared by every run scored against the same
judgments.  `mrr` reads the same reciprocal-rank function through a
RankedList's columns.  The paired t-test is self-contained: the t
distribution CDF goes through the regularized incomplete beta function
evaluated by continued fraction.

Every command loads this module, since `formats` builds its types.
It imports only `math`, `random` and `typing` (`RankEntry` and
`RankedList` are named tuples), so `eval-selection`, which loads it
with `cli` and `formats` alone, loads neither `dataclasses` nor numpy.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple


class RankEntry(NamedTuple):
    doc_id: str
    score: float
    rank: int


class RankedList(NamedTuple):
    query_id: str
    entries: list[RankEntry]


Qrels = dict[tuple[str, str], int]
Run = dict[str, RankedList]
# The first entries of each ranking as columns: {qid: (doc_ids, ranks)}.
Top = dict[str, tuple[list[str], list[int]]]
GoldSegments = dict[tuple[str, str], int]
SegmentIndexMap = dict[tuple[str, str], int]
Judgments = dict[str, dict[str, int]]


def group_qrels(qrels: Qrels) -> Judgments:
    """{qid: {doc_id: grade}} in qid order; a negative grade is rejected."""
    out: Judgments = {}
    for (qid, doc_id), grade in qrels.items():
        if grade < 0:
            raise ValueError(f"negative relevance grade for {(qid, doc_id)}")
        out.setdefault(qid, {})[doc_id] = grade
    return dict(sorted(out.items()))


def _reciprocal_rank(docs: list[str], ranks: list[int], judged: dict[str, int],
                     cutoff: int) -> float:
    for doc_id, rank in zip(docs[:cutoff], ranks):
        if judged.get(doc_id, 0) > 0:
            return 1.0 / rank
    return 0.0


def _ndcg(docs: list[str], ranks: list[int], judged: dict[str, int], k: int,
          idcg: float) -> float:
    """NDCG@k over the ideal DCG@k `idcg`, summing only the terms of
    positive grades: a zero grade's term is +0.0, which leaves a float
    sum, compensated or not, as it was, so it costs no `log2`."""
    if idcg == 0:
        return 0.0
    dcg = sum(g / math.log2(r + 1) for d, r in zip(docs[:k], ranks)
              if (g := judged.get(d, 0)))
    return dcg / idcg


def _check_overlap(run: Run | Top, judgments: Judgments) -> None:
    if not any(qid in run for qid in judgments):
        raise ValueError("run and qrels share no queries")


def _check_depth(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


def _mean(values, count: int) -> float:
    """Sum of `values` left to right, divided by `count`.

    Not `sum`, which compensates float rounding from Python 3.12 on.
    """
    total = 0.0
    for value in values:
        total += value
    return total / count


def mrr(run: Run, qrels: Qrels, cutoff: int = 10) -> float:
    """Mean reciprocal rank of the first relevant document within cutoff.

    Summed in qid order and averaged over the queries present in the
    qrels; a query with no run entries or no relevant document in the
    top `cutoff` scores 0.
    """
    _check_depth("cutoff", cutoff)
    judgments = group_qrels(qrels)
    _check_overlap(run, judgments)
    return _mean((_reciprocal_rank([e.doc_id for e in run[qid].entries],
                                   [e.rank for e in run[qid].entries], judged, cutoff)
                  for qid, judged in judgments.items() if qid in run), len(judgments))


def ideal_dcgs(judgments: Judgments, k: int) -> dict[str, float]:
    """{qid: ideal DCG@k} of every judged query: its judged grades sorted
    in descending order, with linear gain and a log2(rank + 1) discount,
    summing only the terms of positive grades."""
    _check_depth("k", k)
    ideals = {}
    for qid, judged in judgments.items():
        ideal = sorted(judged.values(), reverse=True)[:k]
        ideals[qid] = sum(g / math.log2(i + 2) for i, g in enumerate(ideal) if g)
    return ideals


def judged_metrics(top: Top, judgments: Judgments, ideals: dict[str, float],
                   cutoff: int, k: int) -> dict[str, tuple[float, float]]:
    """{qid: (reciprocal rank within cutoff, NDCG@k)} of every judged
    query that `top` ranks, in qid order.

    `top` holds each ranking as columns, `(doc_ids, ranks)` in (rank,
    doc_id) order, as `formats.read_run` gives them; `judgments` are
    the qrels by query, as `formats.parse_qrels` gives them, and
    `ideals` their ideal DCGs@k, as `ideal_dcgs(judgments, k)` gives
    them, so that every run scored against the same judgments shares
    them.  NDCG@k has linear gain and a log2(rank + 1) discount; a query
    without any relevant document scores 0.
    """
    _check_depth("cutoff", cutoff)
    _check_depth("k", k)
    _check_overlap(top, judgments)
    table = {}
    for qid, judged in judgments.items():
        if qid in top:
            docs, ranks = top[qid]
            table[qid] = (_reciprocal_rank(docs, ranks, judged, cutoff),
                          _ndcg(docs, ranks, judged, k, ideals[qid]))
    return table


def table_means(table: dict[str, tuple[float, float]],
                judgments: Judgments) -> tuple[float, float]:
    """(MRR, NDCG@k) of a `judged_metrics` table over `judgments`: each
    column summed in qid order and divided by the number of judged
    queries, so a judged query missing from the run adds 0.  The MRR is
    bit-identical to `mrr` of the same run.
    """
    return (_mean((rr for rr, _ in table.values()), len(judgments)),
            _mean((nd for _, nd in table.values()), len(judgments)))


def segment_p_at_1(selection: SegmentIndexMap, gold: GoldSegments) -> float:
    """Fraction of gold pairs whose selected segment index is the gold one."""
    if not gold:
        raise ValueError("empty gold segment map")
    hits = 0
    for key, gold_index in gold.items():
        if key not in selection:
            raise ValueError(f"selection missing entry for {key}")
        hits += int(selection[key] == gold_index)
    return hits / len(gold)


def _betacf(a: float, b: float, x: float, tol: float = 1e-10,
            max_iter: int = 500) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf_two_sided(t: float, df: int) -> float:
    """Two-sided tail probability P(|T_df| >= |t|)."""
    if df < 1:
        raise ValueError("df must be >= 1")
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def paired_t_test(a: list[float], b: list[float]) -> float:
    """Two-sided paired t-test p-value with n - 1 degrees of freedom.

    Degenerate zero-variance differences decide directly: p = 1 when
    the mean difference is 0, else p = 0.
    """
    if len(a) != len(b):
        raise ValueError("paired t-test needs equal-length sequences")
    n = len(a)
    if n < 2:
        raise ValueError("paired t-test needs at least 2 pairs")
    diffs = [x - y for x, y in zip(a, b)]
    mean = math.fsum(diffs) / n
    var = math.fsum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        return 1.0 if mean == 0.0 else 0.0
    t = mean / math.sqrt(var / n)
    return min(1.0, max(0.0, student_t_sf_two_sided(t, n - 1)))


def kfold_split(query_ids: list[str], k: int,
                seed: int) -> list[tuple[list[str], list[str]]]:
    """Seeded shuffle then contiguous near-equal folds.

    Returns k (train_ids, test_ids) pairs; the test folds partition the
    query set, with the first len(query_ids) % k folds one query larger.
    """
    n = len(query_ids)
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > n:
        raise ValueError("more folds than queries")
    shuffled = list(query_ids)
    random.Random(seed).shuffle(shuffled)
    base, extra = divmod(n, k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        test = shuffled[start:start + size]
        train = shuffled[:start] + shuffled[start + size:]
        folds.append((train, test))
        start += size
    return folds


def holdout_split(query_ids: list[str], dev_fraction: float,
                  seed: int) -> tuple[list[str], list[str]]:
    """Seeded shuffle into (train_ids, dev_ids); dev gets the tail fraction."""
    if not 0.0 < dev_fraction < 1.0:
        raise ValueError("dev_fraction must be in (0, 1)")
    shuffled = list(query_ids)
    random.Random(seed).shuffle(shuffled)
    n_dev = max(1, int(round(len(shuffled) * dev_fraction)))
    if n_dev >= len(shuffled):
        raise ValueError("dev split would consume every query")
    return shuffled[:-n_dev], shuffled[-n_dev:]
