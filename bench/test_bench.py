"""Self-tests of the benchmark: python3 -m pytest bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
import trecgen

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def test_trec_generator_is_deterministic(tmp_path):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        trecgen.generate(seed, tmp_path / name, queries=30, depth=15)
    for file in ("qrels.txt", "run.txt", "baseline.txt"):
        assert (tmp_path / "a" / file).read_bytes() == (tmp_path / "b" / file).read_bytes()
    assert (tmp_path / "a" / "run.txt").read_bytes() != (tmp_path / "c" / "run.txt").read_bytes()
    qrels = trecgen.read_qrels(tmp_path / "a" / "qrels.txt")
    assert len(qrels) == 30
    assert all(len(j) == trecgen.JUDGED and max(j.values()) > 0 for j in qrels.values())


def test_reference_metrics_by_hand():
    run = {"q1": [(1, "a"), (2, "b"), (3, "c")], "q2": [(1, "x")]}
    qrels = {"q1": {"b": 2, "c": 1, "z": 0}, "q2": {"y": 1}, "q3": {"w": 1}}
    mrr, ndcg, per_query = trecgen.reference_metrics(run, qrels)
    assert per_query["q1"][0] == 0.5 and per_query["q2"] == (0.0, 0.0)
    idcg = 2 + 1 / 1.584962500721156
    dcg = 2 / 1.584962500721156 + 1 / 2
    assert per_query["q1"][1] == pytest.approx(dcg / idcg)
    assert mrr == pytest.approx(0.5 / 3)  # q3 is judged but not in the run
    assert ndcg == pytest.approx(dcg / idcg / 3)


def test_self_times_on_a_hand_made_tree():
    spans = [
        (0, 0.0, 10.0, -1),   # root
        (1, 1.0, 4.0, 0),     # child a
        (2, 2.0, 3.0, 1),     # grandchild, under a
        (1, 3.0, 6.0, 0),     # child b overlaps a: covered once
        (3, 9.0, 12.0, 0),    # child c, clipped at the root's end
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])
    trace = {"names": ["cli.eval", "corpus.compute_corpus_stats",
                       "corpus.segment_for_inference", "evaluation.mrr"],
             "spans": spans, "counters": {}, "import_s": 0.25}
    totals = tracer.span_totals([trace, trace])
    assert totals["corpus.compute_corpus_stats"] == pytest.approx([4, 12.0, 10.0])
    metrics = tracer.layer_metrics([trace])
    assert metrics["corpus.stats_s"] == pytest.approx(5.0)
    assert metrics["corpus.segment_s"] == pytest.approx(1.0)
    assert metrics["evaluation.metric_calls"] == 1
    assert metrics["cli.eval.self_s"] == pytest.approx(4.0)
    assert metrics["cli.import_s"] == 0.25


def _launch(*args, cwd=REPO):
    subprocess.run([sys.executable, str(REPO / "bench" / "launch.py"), *map(str, args)],
                   cwd=cwd, check=True, capture_output=True)


def test_tracing_only_observes(tmp_path):
    config = tmp_path / "config.txt"
    config.write_text("num_queries=12\nepochs=3\nmax_iterations=2\nseed=4\n")
    _launch("synth", "--config", config, "--out", tmp_path / "data")
    data = tmp_path / "data"
    inputs = ["--corpus", data / "corpus.jsonl", "--queries", data / "queries.tsv",
              "--candidates", data / "candidates.tsv"]
    for kind in ("plain", "traced"):
        out = tmp_path / kind
        out.mkdir()
        trace = ["--trace", out / "trace.json"] if kind == "traced" else []
        _launch(*trace, "train", "--config", config, "--mode", "best", *inputs,
                "--qrels", data / "qrels.txt", "--out", out / "model.txt")
        _launch("rerank", "--config", config, "--model", out / "model.txt", *inputs,
                "--out", out / "run.txt")
    for name in ("model.txt", "run.txt"):
        assert (tmp_path / "plain" / name).read_bytes() == \
            (tmp_path / "traced" / name).read_bytes()
    metrics = tracer.layer_metrics([tracer.load(str(tmp_path / "traced" / "trace.json"))])
    assert metrics["formats.parse_corpus_calls"] == 1
    assert metrics["training.rounds"] >= 2
    assert metrics["scorer.sgd_batches"] > 0
    assert 0 < metrics["training.feature_cache_hit_ratio"] < 1


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_of_each_workload(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=REPO, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert all(m["unit"] == result["metrics"][m["name"]]["unit"] for m in wanted)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eval_trec", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
