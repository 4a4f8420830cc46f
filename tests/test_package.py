"""The package's exported names, resolved on first access, the function
names the benchmark's tracer reads, and the imports of its modules."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import segtrain

# Every name the package exports, by the submodule it comes from.
EXPORTED = {
    "corpus": ["CorpusStats", "Query", "Segment", "SegmentationPolicy",
               "segment_for_inference", "segment_for_training", "split_sentences",
               "tokenize"],
    "evaluation": ["kfold_split", "mrr", "paired_t_test", "segment_p_at_1"],
    "ranking": ["Aggregation", "RankedList"],
    "scorer": ["LossKind", "ScorerParams", "batch_loss_and_gradient", "init_params",
               "read_params", "segment_features", "sgd_step", "write_params"],
    "synth": ["SynthConfig", "SynthCorpus", "generate_corpus"],
    "training": ["BestTrainResult", "TrainConfig", "TrainingSet", "TrainingTopic",
                 "best_train", "build_stores", "build_training_set", "evaluate_bundle",
                 "rank_store", "select_segments", "train_baseline", "train_single"],
}

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
# Traced names whose functions are gone: `extract_features` was folded
# into `segment_features`, `build_eval_bundle` into `build_training_set`,
# and `rerank` and `score_document` into `training.rank_store`;
# `compute_corpus_stats` moved into the tests' document oracle, since
# the commands take their stats from views (`CorpusStats.from_windows`);
# `ndcg_at_k` gave way to `judged_metrics` and `table_means`, which
# `eval` reads.
RETIRED = {"scorer.extract_features", "training.build_eval_bundle",
           "ranking.rerank", "ranking.score_document", "corpus.compute_corpus_stats",
           "evaluation.ndcg_at_k"}


def test_exported_names_are_the_submodule_attributes():
    for module, names in EXPORTED.items():
        submodule = importlib.import_module(f"segtrain.{module}")
        assert getattr(segtrain, module) is submodule
        for name in names:
            assert getattr(segtrain, name) is getattr(submodule, name), name
            assert name in dir(segtrain) and name in segtrain.__all__, name


def test_version_and_unknown_names():
    assert segtrain.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        segtrain.no_such_name  # noqa: B018


def traced_names() -> set[str]:
    """The "layer.function" names `layer_metrics` in the tracer reads."""
    tree = ast.parse(TRACER.read_text())
    [metrics] = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics"]
    return {arg.value for node in ast.walk(metrics)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("calls", "incl", "own")
            for arg in node.args
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str)}


def test_traced_names_are_public_functions():
    names = traced_names()
    assert {"scorer.score_batch", "training.select_segments", "ranking.rerank"} <= names
    for name in sorted(names - RETIRED):
        layer, attr = name.split(".")
        module = importlib.import_module(f"segtrain.{layer}")
        value = getattr(module, attr, None)
        assert inspect.isfunction(value) and value.__module__ == module.__name__, name
        assert not attr.startswith("_"), name


def test_traced_commands_are_cli_subcommands():
    # `layer_metrics` reads "cli.<command>", the span of `cli._cmd_<command>`
    tree = ast.parse(TRACER.read_text())
    [commands] = [node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["COMMANDS"]]
    cli = importlib.import_module("segtrain.cli")
    for command in ast.literal_eval(commands):
        assert inspect.isfunction(getattr(cli, "_cmd_" + command.replace("-", "_"))), \
            command


def annotation_names(tree: ast.AST) -> set[str]:
    """The names read by the string annotations in `tree`, such as
    `-> "Query"`, which the module's `ast` holds as constants."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations.append(node.returns)
            annotations += [arg.annotation for arg in (*args.posonlyargs, *args.args,
                                                       *args.kwonlyargs, args.vararg,
                                                       args.kwarg) if arg is not None]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    return {name.id for annotation in annotations if annotation is not None
            for text in ast.walk(annotation)
            if isinstance(text, ast.Constant) and isinstance(text.value, str)
            for name in ast.walk(ast.parse(text.value, mode="eval"))
            if isinstance(name, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, `__future__` imports
    aside, as "line: name"."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.partition(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= annotation_names(tree)
    return [f"{line}: {name}" for line, name in sorted(imported) if name not in used]


def test_every_import_is_used():
    # the package has no linter; a deletion must not leave its imports behind
    sources = sorted(Path(segtrain.__file__).parent.glob("*.py"))
    unused = {path.name: unused_imports(path.read_text()) for path in sources}
    assert "corpus.py" in unused
    assert {name: found for name, found in unused.items() if found} == {}
    assert unused_imports("from collections import Counter\nimport os.path\n") == \
        ["1: Counter", "2: os"]
    assert unused_imports("from a import B, C\ndef f(x: 'list[B]') -> 'C': pass\n") == []


def unused_private_names(source: str) -> list[str]:
    """The module-level private names (`_name`: functions, classes and
    constants) that a module defines and never reads, as "line: name"."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(node.lineno, target.id) for target in targets
                        if isinstance(target, ast.Name)]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= annotation_names(tree)
    return [f"{line}: {name}" for line, name in sorted(defined)
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_every_private_name_is_read():
    # a private name only its own module may read; once nothing does, the
    # code that replaced it must not leave it behind
    sources = sorted(Path(segtrain.__file__).parent.glob("*.py"))
    unused = {path.name: unused_private_names(path.read_text()) for path in sources}
    assert "cli.py" in unused
    assert {name: found for name, found in unused.items() if found} == {}
    assert unused_private_names("def _f(): pass\nclass _C: pass\n_K = 1\n_A: int = 2\n"
                                "__all__ = []\ndef g(): return h\n") == \
        ["1: _f", "2: _C", "3: _K", "4: _A"]
    assert unused_private_names("def _f(): return _K\n_K = 1\nx = _f\n"
                                "def g(c: '_C'): pass\nclass _C: pass\n") == []


def cache_suffixes() -> set[str]:
    """The suffixes `formats` writes caches under: the constant second
    argument of each `_write_cache` call."""
    tree = ast.parse((Path(segtrain.__file__).parent / "formats.py").read_text())
    return {node.args[1].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_write_cache"}


def test_every_cache_file_is_ignored():
    # a cache and its temporary file, `<input><suffix>.<hex>.tmp`, sit
    # beside an input and must never be committed with it
    suffixes = cache_suffixes()
    assert suffixes == {".stores", ".top"}
    ignored = set((Path(__file__).resolve().parents[1] / ".gitignore").read_text()
                  .splitlines())
    for suffix in sorted(suffixes):
        assert {f"*{suffix}", f"*{suffix}.*.tmp"} <= ignored, suffix
