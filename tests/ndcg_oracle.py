"""The per-query metrics of `evaluation` as they were computed over
`RankedList`s, the oracles of `evaluation.judged_metrics`, which reads
rankings as columns and must keep their bits.

`ndcg` is NDCG@k as it stood before unjudged documents were skipped: a
`log2` for every one of the first k entries, judged or not.
`ranked_list_metrics` is the per-query table as it stood before the
columns: each query's reciprocal rank and NDCG@k from its entries, with
its ideal DCG computed for each ranking scored."""

from __future__ import annotations

import math

from segtrain.evaluation import RankedList


def ndcg(ranked: RankedList, judged: dict[str, int], k: int) -> float:
    """Linear gain, a log2(rank + 1) discount, and the ideal DCG of the
    judged grades sorted in descending order; 0 without a relevant
    document."""
    ideal = sorted(judged.values(), reverse=True)[:k]
    idcg = sum(g / math.log2(i + 2) for i, g in enumerate(ideal))
    if idcg == 0:
        return 0.0
    dcg = sum(
        judged.get(e.doc_id, 0) / math.log2(e.rank + 1)
        for e in ranked.entries[:k])
    return dcg / idcg


def _reciprocal_rank(ranked: RankedList, judged: dict[str, int], cutoff: int) -> float:
    for entry in ranked.entries[:cutoff]:
        if judged.get(entry.doc_id, 0) > 0:
            return 1.0 / entry.rank
    return 0.0


def _ndcg(ranked: RankedList, judged: dict[str, int], k: int) -> float:
    ideal = sorted(judged.values(), reverse=True)[:k]
    idcg = sum(g / math.log2(i + 2) for i, g in enumerate(ideal) if g)
    if idcg == 0:
        return 0.0
    dcg = sum(g / math.log2(e.rank + 1) for e in ranked.entries[:k]
              if (g := judged.get(e.doc_id, 0)))
    return dcg / idcg


def ranked_list_metrics(run: dict[str, RankedList], judgments: dict[str, dict[str, int]],
                        cutoff: int, k: int) -> dict[str, tuple[float, float]]:
    """{qid: (reciprocal rank within cutoff, NDCG@k)} of every judged
    query in `run`, in the order of `judgments`."""
    return {qid: (_reciprocal_rank(run[qid], judged, cutoff), _ndcg(run[qid], judged, k))
            for qid, judged in judgments.items() if qid in run}
