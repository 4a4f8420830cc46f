"""Spans around segtrain's public functions, and the per-layer metrics
they add up to.

`Tracer.install` replaces every public function of each layer module,
and each `cli._cmd_*` subcommand, with a wrapper that records a span
(name, start, end, parent) in memory.  The wrapper is bound at every
module-level name that refers to the function, so calls made through
`from .corpus import segment_for_training` are seen too.  `dump`
writes the spans once, when the command ends.  The wrappers keep a
single span stack, which is right for the default `--threads 1`.

`self_times`, `span_totals` and `layer_metrics` turn dumped traces
into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import base64
import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("synth", "formats", "corpus", "scorer", "training", "ranking",
          "evaluation", "cli")
COMMANDS = ("synth", "train", "select", "rerank", "eval", "eval-selection")

# Spans whose return value is a list: its length is added to a counter.
_RESULT_COUNTERS = {
    "corpus.segment_for_training": "corpus.segments",
    "corpus.segment_for_inference": "corpus.segments",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        # One column per span field.  Arrays hold no Python objects, so
        # recording spans adds no work for the garbage collector.
        self.columns = {"name": array("i"), "start": array("d"),
                        "end": array("d"), "parent": array("i")}
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        stack, counters = self._stack, self.counters
        name_ids, starts, ends, parents = self.columns.values()
        result_counter = _RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = time.perf_counter()
                stack.pop()
            if result_counter:
                counters[result_counter] += len(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer functions and count feature-cache hits."""
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"segtrain.{layer}")
            for attr, value in vars(module).items():
                if not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                if attr.startswith("_cmd_"):
                    name = "cli." + attr[len("_cmd_"):].replace("_", "-")
                elif attr.startswith("_"):
                    continue
                else:
                    name = f"{layer}.{attr}"
                replacements[value] = self.wrap(value, name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "segtrain" and not mod_name.startswith("segtrain."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacements:
                    setattr(module, attr, replacements[value])
        training = sys.modules["segtrain.training"]
        self._count_cache(getattr(training, "TrainingSet", None), "features",
                          lambda query, doc_id: (query.id, doc_id))
        self._count_cache(getattr(training, "EvalBundle", None), "doc_features",
                          lambda query, doc: (query.id, doc.id))

    def _count_cache(self, cls, method: str, key) -> None:
        """Count calls of a feature-cache method and those already cached.

        The caches keep their entries in a `_features` dict; a cache
        without one counts no hits.
        """
        original = getattr(cls, method, None)
        if original is None:
            return
        counters = self.counters

        @functools.wraps(original)
        def counted(obj, *args):
            counters["training.feature_cache_calls"] += 1
            if key(*args) in getattr(obj, "_features", ()):
                counters["training.feature_cache_hits"] += 1
            return original(obj, *args)

        setattr(cls, method, counted)

    def dump(self, path: str, import_s: float) -> None:
        """Write the trace as JSON; span columns are base64 machine arrays."""
        record = {"import_s": import_s, "names": self.names,
                  "counters": dict(self.counters),
                  "columns": {key: [column.typecode, base64.b64encode(column).decode()]
                              for key, column in self.columns.items()}}
        with open(path, "w") as stream:
            stream.write(json.dumps(record))


def load(path: str) -> dict:
    """A dumped trace, with its spans as (name index, start, end, parent)."""
    with open(path) as stream:
        record = json.load(stream)
    columns = [array(code, base64.b64decode(data))
               for code, data in record.pop("columns").values()]
    record["spans"] = list(zip(*columns))
    return record


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
            cursor = max(cursor, hi)
        out.append(end - start - covered)
    return out


def span_totals(traces: list[dict]) -> dict[str, list]:
    """name -> [calls, inclusive seconds, self seconds] over all traces."""
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for trace in traces:
        names = trace["names"]
        spans = trace["spans"]
        for span, own in zip(spans, self_times(spans)):
            entry = totals[names[span[0]]]
            entry[0] += 1
            entry[1] += span[2] - span[1]
            entry[2] += own
    return totals


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one repetition: every command's trace summed."""
    totals = span_totals(traces)
    counters = Counter()
    for trace in traces:
        counters.update(trace["counters"])

    def calls(*names):
        return sum(totals[n][0] for n in names if n in totals)

    def incl(*names):
        return sum(totals[n][1] for n in names if n in totals)

    def own(*names):
        return sum(totals[n][2] for n in names if n in totals)

    other_parsers = [n for n in totals if n.startswith("formats.parse_")
                     and n not in ("formats.parse_corpus", "formats.parse_run")]
    writers = [n for n in totals if n.startswith("formats.write_")]
    features_calls = calls("scorer.extract_features")
    cache_calls = counters["training.feature_cache_calls"]
    metrics = {
        "formats.parse_corpus_s": incl("formats.parse_corpus"),
        "formats.parse_corpus_calls": calls("formats.parse_corpus"),
        "formats.parse_run_s": incl("formats.parse_run"),
        "formats.parse_other_s": incl(*other_parsers, "scorer.read_params"),
        "formats.write_s": incl(*writers, "scorer.write_params"),
        "synth.generate_s": incl("synth.generate_corpus"),
        "corpus.stats_s": own("corpus.compute_corpus_stats"),
        "corpus.segment_s": incl("corpus.segment_for_training",
                                 "corpus.segment_for_inference"),
        "corpus.segments": counters["corpus.segments"],
        "scorer.features_s": incl("scorer.extract_features"),
        "scorer.features_calls": features_calls,
        "scorer.features_us_per_call": (
            incl("scorer.extract_features") / features_calls * 1e6
            if features_calls else 0.0),
        "scorer.score_s": incl("scorer.score_batch"),
        "scorer.score_calls": calls("scorer.score_batch"),
        "scorer.sgd_s": incl("scorer.batch_loss_and_gradient", "scorer.sgd_step"),
        "scorer.sgd_batches": calls("scorer.batch_loss_and_gradient"),
        "training.build_s": own("training.build_training_set",
                                "training.build_eval_bundle"),
        "training.examples_s": own("training.train_single"),
        "training.dev_eval_s": own("training.evaluate_bundle"),
        "training.dev_evals": calls("training.evaluate_bundle"),
        "training.select_s": incl("training.select_segments"),
        "training.rounds": calls("training.train_single"),
        "training.feature_cache_hit_ratio": (
            counters["training.feature_cache_hits"] / cache_calls
            if cache_calls else 0.0),
        "ranking.rerank_s": own("ranking.rerank"),
        "ranking.docs_scored": calls("ranking.score_document"),
        "evaluation.metrics_s": incl("evaluation.mrr", "evaluation.ndcg_at_k"),
        "evaluation.metric_calls": calls("evaluation.mrr", "evaluation.ndcg_at_k"),
        "evaluation.t_test_s": incl("evaluation.paired_t_test"),
        "cli.import_s": sum(trace["import_s"] for trace in traces),
    }
    for command in COMMANDS:
        metrics[f"cli.{command}.self_s"] = own(f"cli.{command}")
    return metrics
