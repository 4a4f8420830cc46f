"""Command-line surface tying the pipeline together.

Subcommands: synth, segment, train, select, rerank, eval,
eval-selection.  Exit codes: 0 success, 1 usage error, 2 data error.

This module imports only `argparse` and `sys` at load time, and each
subcommand imports the layers it runs itself, since each process
compiles every module it loads.  Every command loads `formats` and
`evaluation`; `eval-selection` loads nothing more.  `eval` adds
`config`, and `cache` for a run of 1 MiB or more; `select` and
`rerank` add `config`, `cache`, `corpus` and `ranking` (and, on a
stores miss, `training`, `scorer` and numpy; an mlp model loads
`scorer` and numpy too); `train` loads them all; `synth` and `segment`
load `config`, `corpus` and, for `synth`, `synth`.  So `eval` and
`eval-selection` never load numpy, nor `dataclasses`.

`train`, `select` and `rerank` resolve the paths of their output and
of every input first (`--qrels` and, for `--mode gold`, `--gold`;
`--model`), then read the queries, candidates and stores
(`_read_stores`), so a missing path is reported before the corpus is
read.  Numpy loads only once the corpus has parsed and every candidate
was found in it, so a malformed corpus, query or candidate file, or a
candidate the corpus lacks, is reported before numpy loads.  `synth`
holds the collection as vocabulary ids and writes nothing until the
whole of it is generated; `synth.write_corpus` renders the corpus file.

`train`, `select` and `rerank` share one path to two feature stores
(`cache.Store`) over every listed query's candidates: one of training
windows cut by the configured policy, one of inference windows at
`max_tokens`.  `_read_stores` gets both from `formats.read_stores`.
On a corpus of 8 MiB or more, the first of the commands to run leaves
`<corpus>.stores` beside it, and the others, given the same corpus,
queries, candidates and policy, load both stores from it without
parsing the corpus, segmenting or computing a feature.  A miss parses
the corpus into views (`formats.parse_corpus`), which `segment` reads
too, and builds the stores with numpy (`training.build_stores`).
`train` takes its training set from the first store and its dev set
from the second, each a judged subset (`TrainingSet.subset`).
`select` and `rerank` score the stores' rows through the numpy-free
inference layer (`ranking`) with the model as `formats.parse_model`
reads it: `select` picks the best leading segment of each pair in the
first, and `rerank` ranks the second by FirstP or MaxP, with the
reductions that rank the dev set, so it ranks a pool as training
ranked its dev set.  A linear model's scores take no numpy; an mlp's
take numpy's tanh.  A `rerank --tag` must be one word without
whitespace, since it is the last field of each run line.

`eval` reads only the first `max(mrr_cutoff, ndcg_k)` entries of each
ranking, as document ids and ranks, and reads each run through
`formats.read_run`: a run file of 1 MiB or more keeps that top of each
ranking in `<run>.top` beside it once the same bytes have been
evaluated twice at the same depth, so a baseline compared against
system after system, or a run evaluated again, is not parsed a third
time.  A miss parses the whole run, with every check; a malformed run
is never cached, and a run evaluated once costs only a checksum more
than its parse.  The qrels parse straight into judgments by query.
With `--baseline-run`, the baseline is read the same way, after the
run's figures are written, and scored against the judgments the run
was scored against and their ideal DCGs, so the qrels are parsed, and
each query's ideal DCG computed, once.  Neither `eval` nor
`eval-selection` loads the corpus code either: `formats` imports it
only to read a corpus or queries.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # each command imports the layers it runs
    from .cache import Store
    from .config import PipelineConfig
    from .corpus import Query
    from .evaluation import Top


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with status 1 on usage errors."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    from . import formats
    from .config import PipelineConfig

    if getattr(args, "config", None):
        config = _read(formats.parse_config, args.config)
    else:
        config = PipelineConfig()
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    if getattr(args, "out", None):
        config.out = args.out
    return config


def _path(args: argparse.Namespace, config: PipelineConfig, name: str) -> str:
    value = getattr(args, name, None) or getattr(config, name, "")
    if not value:
        from .formats import ParseError

        kind = "output path" if name == "out" else "input"
        raise ParseError(f"missing required {kind}: --{name}")
    return value


def _read(parser_fn, path: str):
    """Parse the file at `path` with the cyclic garbage collector off.

    Parsed inputs hold no reference cycles and live until the command
    ends, so they are frozen out of every later collection too.
    """
    import gc

    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path) as stream:
            parsed = parser_fn(stream)
        gc.freeze()
        return parsed
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# subcommands

def _cmd_synth(args: argparse.Namespace) -> int:
    from pathlib import Path

    from . import formats
    from .synth import generate_corpus, write_corpus

    config = _load_config(args)
    corpus = generate_corpus(config)
    out_dir = Path(config.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "corpus.jsonl", "w") as stream:
        write_corpus(corpus, stream)
    with open(out_dir / "queries.tsv", "w") as stream:
        formats.write_queries(corpus.queries, stream)
    with open(out_dir / "qrels.txt", "w") as stream:
        formats.write_qrels(corpus.qrels, stream)
    with open(out_dir / "candidates.tsv", "w") as stream:
        formats.write_candidates(corpus.candidates, stream)
    with open(out_dir / "gold.jsonl", "w") as stream:
        formats.write_gold(corpus.gold, stream)
    print(f"wrote {len(corpus.queries)} topics, {len(corpus.doc_ids)} documents "
          f"to {out_dir}")
    return 0


def _cmd_segment(args: argparse.Namespace) -> int:
    import dataclasses

    from . import formats

    config = _load_config(args)
    documents, _ = _read(formats.parse_corpus, _path(args, config, "corpus"))
    policy = dataclasses.replace(config.policy(), mode=args.mode)
    rows = []
    for doc_id in sorted(documents):
        rows.extend(
            {"doc_id": seg.doc_id, "index": seg.index, "start": seg.start,
             "end": seg.end, "token_count": seg.token_count}
            for seg in policy.segments(documents[doc_id]))
    out = open(config.out, "w") if config.out else sys.stdout
    try:
        for row in rows:
            out.write(formats.SORTED_JSON.encode(row) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _read_stores(args: argparse.Namespace, config: PipelineConfig
                 ) -> tuple[list[Query], dict[str, list[str]], list[Store]]:
    """The queries, their candidates, and the training-window and
    inference-window stores of every listed query's candidates, from
    `formats.read_stores`: the cached ones, or else those built from
    the corpus and cached.  Numpy loads only to build them, once every
    input has parsed, so a malformed input is reported before it loads."""
    from . import formats

    queries = _read(formats.parse_queries, _path(args, config, "queries"))
    candidates = _read(formats.parse_candidates, _path(args, config, "candidates"))
    policy = config.policy()
    stores = _read(lambda stream: formats.read_stores(stream, queries, candidates, policy),
                   _path(args, config, "corpus"))
    return queries, candidates, stores


def _pairs(queries: list[Query], candidates: dict[str, list[str]]) -> list[tuple[str, str]]:
    """Every (query, candidate) pair of the listed queries, in store order."""
    return [(q.id, d) for q in queries for d in candidates.get(q.id, ())]


def _cmd_train(args: argparse.Namespace) -> int:
    from . import formats
    from .evaluation import holdout_split

    config = _load_config(args)
    out_path = config.out or config.model
    if not out_path:
        raise formats.ParseError("missing required output path: --out")
    qrels_path = _path(args, config, "qrels")
    gold_path = _path(args, config, "gold") if args.mode == "gold" else None
    queries, candidates, (training, inference) = _read_stores(args, config)
    from .scorer import write_params
    from .training import TrainingSet, best_train, train_baseline, train_single

    judgments = _read(formats.parse_qrels, qrels_path)
    qrels = {(qid, doc_id): grade for qid, judged in judgments.items()
             for doc_id, grade in judged.items()}
    train_ids, dev_ids = holdout_split([q.id for q in queries],
                                       config.dev_fraction, config.seed)
    tset = TrainingSet.subset(training, queries, candidates, train_ids, qrels,
                              config.max_segments)
    dev = TrainingSet.subset(inference, queries, candidates, dev_ids, qrels,
                             config.max_segments, config.mrr_cutoff)
    print(f"mode={args.mode} topics={len(tset.topics)} dev_queries={len(dev_ids)}")
    if args.mode == "best":
        result = best_train(tset, dev, config)
        for state in result.history:
            print(f"iteration={state.n} dev_mrr={state.validation_metric:.6f}")
        print(f"best_iteration={result.best_iteration}")
        params = result.best_state.params
        dev_mrr = result.best_state.validation_metric
    elif args.mode == "theta0":
        params, dev_mrr = train_single(tset, dev, None, config, config.seed)
    elif args.mode == "first":
        params, dev_mrr = train_baseline(tset, dev, config)
    elif args.mode == "gold":
        gold = _read(formats.parse_gold, gold_path)
        params, dev_mrr = train_baseline(tset, dev, config, gold)
    else:  # pragma: no cover - argparse restricts choices
        raise formats.ParseError(f"unknown training mode {args.mode!r}")
    print(f"dev_mrr={dev_mrr:.6f}")
    with open(out_path, "w") as stream:
        write_params(params, stream)
    print(f"model written to {out_path}")
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    from . import formats

    config = _load_config(args)
    out_path = _path(args, config, "out")
    model_path = _path(args, config, "model")
    queries, candidates, (store, _) = _read_stores(args, config)
    pairs = _pairs(queries, candidates)
    from .ranking import best_segments, row_scores

    model = _read(formats.parse_model, model_path)
    index, scores = best_segments(row_scores(model, store.rows), store.counts,
                                  config.max_segments)
    with open(out_path, "w") as stream:
        formats.write_selection(dict(zip(pairs, index)), stream, dict(zip(pairs, scores)))
    print(f"selected segments for {len(pairs)} pairs")
    return 0


def _cmd_rerank(args: argparse.Namespace) -> int:
    from . import formats

    config = _load_config(args)
    out_path = _path(args, config, "out")
    model_path = _path(args, config, "model")
    queries, candidates, (_, store) = _read_stores(args, config)
    from .ranking import Aggregation, document_scores, rank_pairs, row_scores

    model = _read(formats.parse_model, model_path)
    scores = document_scores(row_scores(model, store.rows), store.counts,
                             Aggregation(args.mode))
    run = rank_pairs(_pairs(queries, candidates), scores)
    with open(out_path, "w") as stream:
        formats.write_run(run, args.tag, stream)
    print(f"wrote rankings for {len(run)} queries")
    return 0


def _read_top(path: str, depth: int) -> Top:
    """The first `depth` entries of each ranking of the run at `path`, as
    document ids and ranks (`formats.read_run`)."""
    from . import formats

    return _read(lambda stream: formats.read_run(stream, depth), path)


def _cmd_eval(args: argparse.Namespace) -> int:
    """Metrics of a run, and a paired t-test against `--baseline-run`.

    Each run is read through `formats.read_run` at the depth that
    `judged_metrics` reads, the first `max(mrr_cutoff, ndcg_k)` entries
    of each ranking, as document ids and ranks, from the cache beside
    the run or from its parse.  The qrels parse straight into judgments
    by query.  The run and the qrels are read first, so that a malformed
    one is reported before any figure is printed.  The baseline is read,
    and scored against the run's judgments and their ideal DCGs, once
    the run's means and its per-query table are out.
    """
    from . import formats
    from .evaluation import ideal_dcgs, judged_metrics, paired_t_test, table_means

    config = _load_config(args)
    depth = max(config.mrr_cutoff, config.ndcg_k)
    run = _read_top(_path(args, config, "run"), depth)
    judgments = _read(formats.parse_qrels, _path(args, config, "qrels"))
    print(f"# mrr_cutoff={config.mrr_cutoff}")
    print(f"# ndcg_k={config.ndcg_k}")
    ideals = ideal_dcgs(judgments, config.ndcg_k)
    per_query = judged_metrics(run, judgments, ideals, config.mrr_cutoff, config.ndcg_k)
    mean_rr, mean_ndcg = table_means(per_query, judgments)
    print(f"mrr={mean_rr:.6f}")
    print(f"ndcg@{config.ndcg_k}={mean_ndcg:.6f}")
    if args.per_query:
        with open(args.per_query, "w") as stream:
            stream.write(f"qid\tmrr\tndcg@{config.ndcg_k}\n")
            for qid, (rr, nd) in sorted(per_query.items()):
                stream.write(f"{qid}\t{rr:.6f}\t{nd:.6f}\n")
    if args.baseline_run:
        base_metrics = judged_metrics(_read_top(args.baseline_run, depth), judgments,
                                      ideals, config.mrr_cutoff, config.ndcg_k)
        shared = sorted(set(per_query) & set(base_metrics))
        if len(shared) < 2:
            raise formats.ParseError("need at least 2 shared queries for the t-test")
        p_mrr = paired_t_test([per_query[q][0] for q in shared],
                              [base_metrics[q][0] for q in shared])
        p_ndcg = paired_t_test([per_query[q][1] for q in shared],
                               [base_metrics[q][1] for q in shared])
        print(f"t_test_mrr_p={p_mrr:.6f}")
        print(f"t_test_ndcg_p={p_ndcg:.6f}")
    return 0


def _cmd_eval_selection(args: argparse.Namespace) -> int:
    from . import formats
    from .evaluation import segment_p_at_1

    selection, _ = _read(formats.parse_selection, args.selection)
    gold = _read(formats.parse_gold, args.gold)
    print(f"pairs={len(gold)}")
    print(f"segment_p_at_1={segment_p_at_1(selection, gold):.6f}")
    return 0


# ---------------------------------------------------------------------------

def _seed(text: str) -> int:
    """A --seed value, range-checked as a configured seed is."""
    from .config import PipelineConfig

    try:
        return PipelineConfig(seed=int(text)).seed
    except ValueError as exc:  # not an integer, or out of range
        raise argparse.ArgumentTypeError(str(exc)) from None


def _tag(text: str) -> str:
    """A --tag value: one nonempty word, so that each line of the run
    keeps the six fields `formats.parse_run` reads."""
    if text.split() != [text]:
        raise argparse.ArgumentTypeError(
            f"a run tag must be one word without whitespace, got {text!r}")
    return text


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_config(parser)
    parser.add_argument("--seed", type=_seed, help="override the configured seed")
    parser.add_argument("--out", help="output path")


def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="pipeline configuration file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="segtrain",
                     description="Segment-selection training pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic collection")
    _add_common(p)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("segment", help="emit document segments")
    _add_common(p)
    p.add_argument("--corpus")
    p.add_argument("--mode", choices=["training", "inference"], required=True)
    p.set_defaults(fn=_cmd_segment)

    p = sub.add_parser("train", help="train a scorer")
    _add_common(p)
    p.add_argument("--mode", choices=["first", "gold", "best", "theta0"],
                   required=True)
    p.add_argument("--corpus")
    p.add_argument("--queries")
    p.add_argument("--qrels")
    p.add_argument("--candidates")
    p.add_argument("--gold")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("select", help="emit selected segment indices")
    _add_common(p)
    p.add_argument("--model")
    p.add_argument("--corpus")
    p.add_argument("--queries")
    p.add_argument("--candidates")
    p.set_defaults(fn=_cmd_select)

    p = sub.add_parser("rerank", help="re-rank candidate documents")
    _add_common(p)
    p.add_argument("--model")
    p.add_argument("--corpus")
    p.add_argument("--queries")
    p.add_argument("--candidates")
    p.add_argument("--mode", choices=["firstp", "maxp"], default="maxp")
    p.add_argument("--tag", type=_tag, default="segtrain")
    p.set_defaults(fn=_cmd_rerank)

    p = sub.add_parser("eval", help="extrinsic ranking metrics")
    _add_config(p)
    p.add_argument("--run")
    p.add_argument("--qrels")
    p.add_argument("--baseline-run", dest="baseline_run",
                   help="second run for the paired t-test")
    p.add_argument("--per-query", dest="per_query",
                   help="write per-query metrics TSV here")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("eval-selection", help="segment selection precision")
    p.add_argument("--selection", required=True)
    p.add_argument("--gold", required=True)
    p.set_defaults(fn=_cmd_eval_selection)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as exc:  # ParseError, ConfigError among them
        print(f"segtrain: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
