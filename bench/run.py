"""Benchmark of the segtrain command-line pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds the workload's inputs
from the seed (set-up), then repeats the workload's segtrain commands
for about S seconds, one process at a time with the default
`--threads 1`.  Set-up runs SETUPS times, the later copies spread over
the run between repetitions, and setup_s is their mean.  Each command
is timed as the wall time of its process, interpreter start-up
included, and its peak memory is that child's own max RSS from
`os.wait4`.  Every output is
checked; each failed command or check counts in `failed`.  Work files
live under `.bench_work/` in the checkout and are removed at the end.

The last line of standard output is one JSON object.  With --trace 0
its metrics are the end-to-end metrics of BENCHMARK.json; total_s is
the sum of each command's mean over the repetitions.  With --trace 1
they are the per-layer metrics: repetitions run alternately untraced
and through `launch.py --trace`, the per-layer numbers are medians over
the traced ones, and trace.overhead_s is the traced minus the untraced
total.  The lines before it report every command time and quality
figure and the sha256 of each output file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import trecgen

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUPS = 5
COMMAND_TIMEOUT_S = 150
TOLERANCE = 2e-6  # metrics are printed with 6 decimals

# config_e shape with evidence planted late: first-segment training
# fails here, so the quality figures are off their ceiling.
SYNTH_LATE = {"num_queries": 250, "docs_per_query": 6, "sentences_per_doc": 18,
              "tokens_per_sentence": 128, "vocab_size": 5000, "query_terms": 5,
              "plant_lo": 1, "plant_hi": 4, "distractor_overlap": 0.3,
              "noise": 0.3}
TINY = {"num_queries": 20, "epochs": 3, "patience_epochs": 3,
        "max_iterations": 2, "iteration_patience": 2}
TREC_FULL = {"queries": 1500, "depth": 100}
TREC_TINY = {"queries": 40, "depth": 20}
REPORT_UNITS = {"peak_rss_mb": "MB", "error_rate": "share", "ok_rate": "share",
                "dev_mrr": "score", "mrr": "score", "ndcg_10": "score",
                "segment_p_at_1": "score"}


@dataclass
class Workload:
    commands: tuple[str, ...]
    config: dict | None  # pipeline config; None: TREC files from trecgen


# Each workload stresses other layers; BENCHMARK.json gives the reasons.
WORKLOADS = {
    "pipeline_late": Workload(("train", "select", "rerank", "eval", "eval-selection"),
                              SYNTH_LATE),
    "eval_trec": Workload(("eval",), None),
}


@dataclass
class Process:
    seconds: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def run_process(argv: list[str], log: Path) -> Process:
    """Run one child to completion; its own rusage gives the max RSS."""
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(seconds, usage.ru_maxrss / 1024.0, proc.returncode,
                   out_path.read_text(), err_path.read_text())


def printed_values(stdout: str) -> dict[str, float]:
    """The last `key=value` of each key in a command's output."""
    values = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.startswith("#") and " " not in key:
            try:
                values[key] = float(value)
            except ValueError:
                pass
    return values


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def close(a: float | None, b: float | None) -> bool:
    return a is not None and b is not None and abs(a - b) <= TOLERANCE


def median(values):
    return statistics.median(values) if values else 0.0


@dataclass
class Rep:
    traced: bool
    processes: dict[str, Process] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    traces: list[dict] = field(default_factory=list)


def mean(values):
    return statistics.fmean(values) if values else 0.0


def command_means(reps: list[Rep], commands) -> dict[str, float]:
    """Mean wall time of each command over the repetitions that ran it.

    The host's speed alternates between states that last 10 to 60
    seconds; a median over repetitions jumps between them, a mean
    averages them over the run.
    """
    return {c: mean([r.processes[c].seconds for r in reps if c in r.processes])
            for c in commands}


class Bench:
    def __init__(self, name: str, seed: int, tiny: bool, work: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.tiny = tiny
        self.work = work
        self.data = work / "setup0"
        self.config = work / "config.txt"
        self.attempted = 0
        self.failed = 0
        self.setup_times: list[float] = []
        self.setup_traces: list[dict] = []
        self.setup_digest: dict[str, str] = {}

    # -- accounting --------------------------------------------------------

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {self.name}: {what} {detail}".rstrip(), file=sys.stderr)
        return ok

    def launch(self, args: list[str], log: Path, trace: Path | None = None) -> Process:
        argv = [sys.executable, str(BENCH / "launch.py")]
        if trace is not None:
            argv += ["--trace", str(trace)]
        proc = run_process(argv + [str(a) for a in args], log)
        self.check(f"{args[0]} exits 0", proc.code == 0,
                   f"(exit {proc.code}): {proc.stderr.strip()[-500:]}")
        return proc

    # -- set-up ------------------------------------------------------------

    def setup(self, trace: bool) -> None:
        """Build one more copy of the inputs; every copy must equal the first.

        The first copy is the workload's data.  Later copies are only timed,
        and are made between repetitions so that setup_s samples the whole
        run, not one moment of the host's drifting speed.
        """
        i = len(self.setup_times)
        if i == 0 and self.workload.config is not None:
            config = {**self.workload.config, **(TINY if self.tiny else {}),
                      "seed": self.seed}
            self.config.write_text("".join(f"{k}={v}\n" for k, v in config.items()))
        out = self.work / f"setup{i}"
        trace_path = self.work / f"setup{i}.trace.json" if trace else None
        if self.workload.config is None:
            scale = TREC_TINY if self.tiny else TREC_FULL
            argv = [sys.executable, str(BENCH / "trecgen.py"), "--seed",
                    str(self.seed), "--out", str(out),
                    "--queries", str(scale["queries"]), "--depth", str(scale["depth"])]
            proc = run_process(argv, out)
            self.check("trecgen exits 0", proc.code == 0, proc.stderr[-500:])
        else:
            proc = self.launch(["synth", "--config", self.config, "--out", out],
                               out, trace_path)
            if trace_path is not None and trace_path.exists():
                self.setup_traces.append(tracer.load(str(trace_path)))
        self.setup_times.append(proc.seconds)
        digest = {p.name: sha256(p) for p in sorted(out.glob("*"))}
        if i == 0:
            self.setup_digest = digest
        else:
            self.check("set-up is deterministic", digest == self.setup_digest)
            shutil.rmtree(out)

    def load_inputs(self) -> None:
        from segtrain import formats

        if self.workload.config is None:
            self.qrels = trecgen.read_qrels(self.data / "qrels.txt")
            system = trecgen.read_run(self.data / "run.txt")
            baseline = trecgen.read_run(self.data / "baseline.txt")
            self.reference = trecgen.reference_metrics(system, self.qrels)
            self.baseline_reference = trecgen.reference_metrics(baseline, self.qrels)
            return
        with open(self.data / "candidates.tsv") as stream:
            self.candidates = formats.parse_candidates(stream)
        with open(self.data / "gold.jsonl") as stream:
            self.gold = formats.parse_gold(stream)
        self.qrels = trecgen.read_qrels(self.data / "qrels.txt")
        with open(self.config) as stream:
            self.max_segments = formats.parse_config(stream).max_segments

    # -- one repetition ----------------------------------------------------

    def command_args(self, command: str, out: Path) -> list:
        data, config = self.data, self.config
        inputs = ["--corpus", data / "corpus.jsonl", "--queries", data / "queries.tsv",
                  "--candidates", data / "candidates.tsv"]
        if command == "train":
            return ["train", "--config", config, "--mode", "best", *inputs,
                    "--qrels", data / "qrels.txt", "--out", out / "model.txt"]
        if command == "select":
            return ["select", "--config", config, "--model", out / "model.txt",
                    *inputs, "--out", out / "selection.jsonl"]
        if command == "rerank":
            return ["rerank", "--config", config, "--mode", "maxp",
                    "--model", out / "model.txt", *inputs, "--out", out / "run.txt"]
        if command == "eval" and self.workload.config is None:
            return ["eval", "--run", data / "run.txt", "--qrels", data / "qrels.txt",
                    "--baseline-run", data / "baseline.txt",
                    "--per-query", out / "per_query.tsv"]
        if command == "eval":
            return ["eval", "--config", config, "--run", out / "run.txt",
                    "--qrels", data / "qrels.txt", "--per-query", out / "per_query.tsv"]
        if command == "eval-selection":
            return ["eval-selection", "--selection", out / "selection.jsonl",
                    "--gold", data / "gold.jsonl"]
        raise ValueError(f"unknown command {command!r}")

    def run_rep(self, out: Path, traced: bool) -> Rep:
        out.mkdir()
        rep = Rep(traced)
        for command in self.workload.commands:
            trace_path = out / f"{command}.trace.json" if traced else None
            proc = self.launch(self.command_args(command, out), out / command, trace_path)
            rep.processes[command] = proc
            if proc.code != 0:
                return rep
            if trace_path is not None:
                rep.traces.append(tracer.load(str(trace_path)))
            self.check_output(command, proc, out, rep)
        for name in ("model.txt", "selection.jsonl", "run.txt", "per_query.tsv"):
            if (out / name).exists():
                rep.digests[name] = sha256(out / name)
        return rep

    def check_output(self, command: str, proc: Process, out: Path, rep: Rep) -> None:
        try:
            self._check_output(command, proc, out, rep)
        except (ValueError, OSError, KeyError) as exc:
            self.check(f"{command} outputs parse", False, f"({exc})")

    def _check_output(self, command: str, proc: Process, out: Path, rep: Rep) -> None:
        from segtrain import formats, scorer

        printed = printed_values(proc.stdout)
        if command == "train":
            with open(out / "model.txt") as stream:
                scorer.read_params(stream)
            if self.check("train prints dev_mrr", "dev_mrr" in printed):
                rep.values["dev_mrr"] = printed["dev_mrr"]
        elif command == "select":
            with open(out / "selection.jsonl") as stream:
                selection, _ = formats.parse_selection(stream)
            pairs = {(q, d) for q, pool in self.candidates.items() for d in pool}
            self.check("selection covers every (query, doc) pair once",
                       set(selection) == pairs)
            self.check("selected indices are below max_segments",
                       all(0 <= i < self.max_segments for i in selection.values()))
        elif command == "rerank":
            with open(out / "run.txt") as stream:
                run = formats.parse_run(stream)
            self.check("run ranks every candidate of every query exactly once",
                       set(run) == set(self.candidates) and all(
                           sorted(e.doc_id for e in run[q].entries) == sorted(pool)
                           and [e.rank for e in run[q].entries]
                           == list(range(1, len(pool) + 1))
                           for q, pool in self.candidates.items()))
        elif command == "eval":
            self.check_eval(printed, out, rep)
        elif command == "eval-selection":
            with open(out / "selection.jsonl") as stream:
                selection, _ = formats.parse_selection(stream)
            hits = sum(selection.get(key) == index for key, index in self.gold.items())
            expected = hits / len(self.gold)
            value = printed.get("segment_p_at_1")
            if self.check("segment_p_at_1 matches the selection", close(value, expected),
                          f"{value} != {expected}"):
                rep.values["segment_p_at_1"] = value

    def check_eval(self, printed: dict, out: Path, rep: Rep) -> None:
        if self.workload.config is None:
            ref_mrr, ref_ndcg, per_query = self.reference
        else:
            run = trecgen.read_run(out / "run.txt")
            ref_mrr, ref_ndcg, per_query = trecgen.reference_metrics(run, self.qrels)
        if self.check("eval mrr matches the reference", close(printed.get("mrr"), ref_mrr),
                      f"{printed.get('mrr')} != {ref_mrr}"):
            rep.values["mrr"] = printed["mrr"]
        if self.check("eval ndcg@10 matches the reference",
                      close(printed.get("ndcg@10"), ref_ndcg),
                      f"{printed.get('ndcg@10')} != {ref_ndcg}"):
            rep.values["ndcg_10"] = printed["ndcg@10"]
        lines = (out / "per_query.tsv").read_text().splitlines()
        rows = {}
        for line in lines[1:]:
            qid, rr, nd = line.split("\t")
            rows[qid] = (float(rr), float(nd))
        self.check("per-query table matches the reference",
                   lines[:1] == ["qid\tmrr\tndcg@10"] and rows.keys() == per_query.keys()
                   and all(close(rows[q][0], per_query[q][0])
                           and close(rows[q][1], per_query[q][1]) for q in rows))
        if self.workload.config is not None:
            return
        try:
            from scipy.stats import ttest_rel
        except ImportError:
            print("note: scipy missing, t-test p-values not checked")
            return
        base = self.baseline_reference[2]
        shared = sorted(per_query.keys() & base.keys())
        for i, key in enumerate(("t_test_mrr_p", "t_test_ndcg_p")):
            expected = float(ttest_rel([per_query[q][i] for q in shared],
                                       [base[q][i] for q in shared]).pvalue)
            self.check(f"{key} matches scipy", close(printed.get(key), expected),
                       f"{printed.get(key)} != {expected}")

    def repeat(self, seconds: float, traced_too: bool) -> list[Rep]:
        """Repetitions (alternately untraced and traced) for about `seconds`.

        Untraced, the timed set-up copies are spread evenly over the run.
        """
        reps: list[Rep] = []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            order = [False, True] if len(reps) % 4 == 0 else [True, False]
            for traced in (order if traced_too else [False]):
                kind = "traced" if traced else "rep"
                reps.append(self.run_rep(self.work / f"{kind}{len(reps)}", traced))
            copies = len(self.setup_times)
            if (not traced_too and copies < SETUPS
                    and time.perf_counter() - start >= copies * seconds / SETUPS):
                self.setup(False)
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds or self.failed:
                break
        while not traced_too and len(self.setup_times) < SETUPS and not self.failed:
            self.setup(False)
        return reps


def parse_peak_mb(corpus: Path) -> float:
    """tracemalloc peak of formats.parse_corpus on the workload's corpus."""
    from segtrain import formats

    tracemalloc.start()
    try:
        with open(corpus) as stream:
            formats.parse_corpus(stream)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def report(bench: Bench, setup_times: list[float], reps: list[Rep]) -> dict[str, float]:
    """Print every command time and quality figure; return end-to-end values."""
    plain = [r for r in reps if not r.traced]
    print(f"workload {bench.name} seed {bench.seed} reps {len(plain)}"
          f"{' tiny' if bench.tiny else ''}")
    print(f"  setup runs (s): {' '.join(f'{t:.4f}' for t in setup_times)}")
    figures = {"setup_s": mean(setup_times)}
    means = command_means(plain, bench.workload.commands)
    for command, seconds in means.items():
        times = [r.processes[command].seconds for r in plain if command in r.processes]
        print(f"  {command} runs (s): {' '.join(f'{t:.4f}' for t in times)}")
        figures[command.replace("-", "_") + "_s"] = seconds
    figures["total_s"] = sum(means.values())
    figures["peak_rss_mb"] = max((p.rss_mb for r in plain for p in r.processes.values()),
                                 default=0.0)
    for key in ("dev_mrr", "mrr", "ndcg_10", "segment_p_at_1"):
        values = [r.values[key] for r in plain if key in r.values]
        if values:
            figures[key] = median(values)
    figures["error_rate"] = bench.failed / max(bench.attempted, 1)
    figures["ok_rate"] = 1.0 - figures["error_rate"]
    for key, value in figures.items():
        print(f"  metric {key} {value:.6g} {REPORT_UNITS.get(key, 's')}")
    for name, digest in (reps[0].digests.items() if reps else ()):
        print(f"  sha256 {name} {digest}")
    return figures


def run(args: argparse.Namespace) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import segtrain

    if not Path(segtrain.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"segtrain was imported from outside {SRC}")
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, args.tiny, work)
    try:
        bench.setup(bool(args.trace))
        reps = []
        if not bench.failed:
            bench.load_inputs()
            reps = bench.repeat(args.seconds, bool(args.trace))
        for rep in reps[1:]:
            bench.check(f"{'traced ' if rep.traced else ''}outputs equal the first run's",
                        rep.digests == reps[0].digests)
        figures = report(bench, bench.setup_times, reps)
        if args.trace:
            traced = [r for r in reps if r.traced]
            layers = [tracer.layer_metrics(bench.setup_traces + r.traces) for r in traced]
            metrics = {key: median([m[key] for m in layers]) for key in layers[0]} if layers else {}
            corpus = bench.data / "corpus.jsonl"
            metrics["formats.parse_corpus_peak_mb"] = (
                parse_peak_mb(corpus) if corpus.exists() else 0.0)
            metrics["trace.overhead_s"] = (
                sum(command_means(traced, bench.workload.commands).values())
                - figures["total_s"])
            wanted = spec["per_layer"]
        else:
            metrics = figures
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only once no other run is using it
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]] if bench.failed == 0
                                    else metrics.get(m["name"], 0.0), "unit": m["unit"]}
                        for m in wanted}}


def main() -> int:
    parser = argparse.ArgumentParser(description="segtrain benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args()
    # Exit through the cleanup paths, which stop and reap the running command.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "segtrain" / "__init__.py").is_file():
        print(f"bench: no segtrain sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
