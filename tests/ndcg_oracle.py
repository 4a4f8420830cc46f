"""NDCG@k of one ranking as `evaluation` computed it before it skipped
unjudged documents: a `log2` for every one of the first k entries,
judged or not.  The oracle of `evaluation.judged_metrics`' NDCG, which
must keep its bits."""

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
