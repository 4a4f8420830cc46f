"""TREC-style inputs for the eval_trec workload, and reference metrics.

    python3 bench/trecgen.py --seed 13 --out DIR [--queries N --depth K]

writes DIR/qrels.txt (graded, JUDGED documents per query, at least one
relevant), DIR/run.txt (the system run) and DIR/baseline.txt, each
ranking DEPTH documents per query.  The baseline is a second system of
equal quality, so the paired t-test p-values are moderate and checking
them says something.  The same seed gives byte-identical files.

The reference functions below recompute MRR, NDCG@k and the per-query
table from the files, independently of segtrain, to check `eval`.
"""

from __future__ import annotations

import argparse
import math
import random
from pathlib import Path

JUDGED = 10
COLLECTION_SIZE = 50_000


def generate(seed: int, out: Path, queries: int = 1500, depth: int = 100) -> None:
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    qrels_lines, run_lines, base_lines = [], [], []
    for q in range(queries):
        qid = f"t{q:05d}"
        docs = [f"D{d:06d}" for d in rng.sample(range(COLLECTION_SIZE), depth + 2)]
        retrieved = docs[:depth]
        # Most judged documents are retrieved; two lie outside the run.
        judged = rng.sample(retrieved, JUDGED - 2) + docs[depth:]
        grades = [rng.choice((0, 0, 1, 2, 3)) for _ in judged]
        grades[0] = max(grades[0], 1)
        grade_of = dict(zip(judged, grades))
        qrels_lines += [f"{qid} 0 {d} {g}\n" for d, g in zip(judged, grades)]
        for lines, tag in ((run_lines, "system"), (base_lines, "baseline")):
            scored = sorted(((grade_of.get(d, 0) + rng.gauss(0.0, 1.0), d)
                             for d in retrieved), reverse=True)
            lines += [f"{qid} Q0 {d} {rank} {score:.6f} {tag}\n"
                      for rank, (score, d) in enumerate(scored, start=1)]
    for name, lines in (("qrels.txt", qrels_lines), ("run.txt", run_lines),
                        ("baseline.txt", base_lines)):
        (out / name).write_text("".join(lines))


def read_run(path: Path) -> dict[str, list[tuple[int, str]]]:
    """qid -> [(rank, doc_id)] in rank order."""
    run: dict[str, list[tuple[int, str]]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            qid, _, doc_id, rank, _, _ = line.split()
            run.setdefault(qid, []).append((int(rank), doc_id))
    for entries in run.values():
        entries.sort()
    return run


def read_qrels(path: Path) -> dict[str, dict[str, int]]:
    qrels: dict[str, dict[str, int]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            qid, _, doc_id, grade = line.split()
            qrels.setdefault(qid, {})[doc_id] = int(grade)
    return qrels


def query_metrics(ranked: list[tuple[int, str]], judged: dict[str, int],
                  cutoff: int = 10, k: int = 10) -> tuple[float, float]:
    """(reciprocal rank within cutoff, NDCG@k) of one ranked list."""
    rr = next((1.0 / rank for rank, d in ranked[:cutoff] if judged.get(d, 0) > 0), 0.0)
    ideal = sorted(judged.values(), reverse=True)[:k]
    idcg = sum(g / math.log2(i + 2) for i, g in enumerate(ideal))
    dcg = sum(judged.get(d, 0) / math.log2(rank + 1) for rank, d in ranked[:k])
    return rr, (dcg / idcg if idcg > 0 else 0.0)


def reference_metrics(run, qrels, cutoff: int = 10, k: int = 10):
    """(MRR, NDCG@k, {qid: (rr, ndcg)}) averaged over the judged queries."""
    per_query = {qid: query_metrics(run[qid], judged, cutoff, k)
                 for qid, judged in qrels.items() if qid in run}
    n = len(qrels)
    return (sum(rr for rr, _ in per_query.values()) / n,
            sum(nd for _, nd in per_query.values()) / n,
            per_query)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--queries", type=int, default=1500)
    parser.add_argument("--depth", type=int, default=100)
    args = parser.parse_args()
    generate(args.seed, args.out, args.queries, args.depth)


if __name__ == "__main__":
    main()
