"""Run the benchmark on several seeds and summarise its spread.

    python3 bench/stability.py [--seeds 1-10] [--workloads a,b] [--traced]
                               [--baseline bench/baseline.json]

For each workload it runs `bench/run.py` once per seed with the run
length of BENCHMARK.json and prints, per end-to-end metric, the median,
the quartiles (`statistics.quantiles(n=4)`) and the quartile spread as
a share of the median next to the metric's bound.  The same summary of
every figure in the runs' reports (per-command times, quality) goes
into the baseline file.  --traced adds one
traced run per workload.  --baseline writes all of it, with the
machine and the commit, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

# The end-to-end metric each per-layer metric should move, and where.
LAYER_MOVES = {
    "formats.parse_corpus_s": ("train_s select_s rerank_s total_s", "pipeline_late"),
    "formats.parse_corpus_calls": ("train_s select_s rerank_s total_s", "pipeline_late"),
    "formats.parse_corpus_peak_mb": ("peak_rss_mb", "pipeline_late"),
    "formats.parse_run_s": ("eval_s", "eval_trec"),
    "formats.parse_other_s": ("total_s", "all"),
    "formats.write_s": ("setup_s rerank_s", "pipeline_late"),
    "synth.generate_s": ("setup_s", "pipeline_late"),
    "corpus.stats_s": ("train_s select_s rerank_s", "pipeline_late"),
    "corpus.segment_s": ("select_s rerank_s", "pipeline_late"),
    "corpus.segments": ("select_s rerank_s", "pipeline_late"),
    "scorer.features_s": ("select_s rerank_s", "pipeline_late"),
    "scorer.features_calls": ("select_s rerank_s", "pipeline_late"),
    "scorer.features_us_per_call": ("select_s rerank_s", "pipeline_late"),
    "scorer.score_s": ("train_s", "pipeline_late"),
    "scorer.score_calls": ("train_s", "pipeline_late"),
    "scorer.sgd_s": ("train_s", "pipeline_late"),
    "scorer.sgd_batches": ("train_s", "pipeline_late"),
    "training.build_s": ("train_s", "pipeline_late"),
    "training.examples_s": ("train_s", "pipeline_late"),
    "training.dev_eval_s": ("train_s", "pipeline_late"),
    "training.dev_evals": ("train_s", "pipeline_late"),
    "training.select_s": ("train_s", "pipeline_late"),
    "training.rounds": ("train_s", "pipeline_late"),
    "training.feature_cache_hit_ratio": ("train_s", "pipeline_late"),
    "ranking.rerank_s": ("rerank_s", "pipeline_late"),
    "ranking.docs_scored": ("rerank_s", "pipeline_late"),
    "evaluation.metrics_s": ("eval_s", "eval_trec"),
    "evaluation.metric_calls": ("eval_s", "eval_trec"),
    "evaluation.t_test_s": ("eval_s", "eval_trec"),
    "cli.import_s": ("total_s", "all"),
    "cli.<command>.self_s": ("that command's *_s", "eval_trec for cli.eval.self_s"),
    "trace.overhead_s": ("none", "all"),
}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """One benchmark run: its JSON result and its report lines."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarise(values: list[float], bound: float | None) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else None
    return {"median": q2, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seeds = seed_range(args.seeds)
    result = {"end_to_end": {}, "report_metrics": {}, "per_layer": {}, "reports": {}}
    steady = True
    for workload in names:
        runs = [bench_run(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        if not all(r["correct"] for r, _ in runs):
            steady = False
            print(f"{workload}: a run reported incorrect outputs")
        result["reports"][workload] = runs[0][1]
        printed = [dict(line.split()[1:3] for line in lines if line.startswith("  metric "))
                   for _, lines in runs]
        result["report_metrics"][workload] = {
            key: summarise([float(p[key]) for p in printed], None) for key in printed[0]}
        rows = result["end_to_end"][workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = rows[name] = summarise(
                [r["metrics"][name]["value"] for r, _ in runs], metric["bound"])
            ok = name == "setup_s" or (row["spread"] is not None
                                       and row["spread"] <= metric["bound"])
            steady &= ok
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
            print(f"{workload:14s} {name:12s} median {row['median']:.6g} "
                  f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {spread} "
                  f"bound {metric['bound']}{'' if ok else '  TOO WIDE'} "
                  f"values {' '.join(f'{v:.4g}' for v in row['values'])}", flush=True)
        if args.traced:
            traced, _ = bench_run(workload, seeds[0], spec["run_seconds"], 1)
            result["per_layer"][workload] = {
                k: v["value"] for k, v in traced["metrics"].items()}
            for key, value in result["per_layer"][workload].items():
                print(f"{workload:14s} {key:36s} {value:.6g}")
    if args.baseline:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True).stdout.strip() or "unknown"
        result.update({
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "numpy": numpy.__version__, "platform": platform.platform()},
            "commit": commit, "seeds": seeds, "run_seconds": spec["run_seconds"],
            "workloads": {w["name"]: w["why"] for w in spec["workloads"]},
            "layer_moves": {k: {"moves": m, "on": on} for k, (m, on) in LAYER_MOVES.items()},
        })
        args.baseline.write_text(json.dumps(result, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
