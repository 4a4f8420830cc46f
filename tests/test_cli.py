"""The command-line pipeline end to end on a tiny synthetic collection."""

from pathlib import Path

import pytest

from segtrain.cli import main

TINY_CONFIG = {
    "num_queries": 10, "docs_per_query": 3, "sentences_per_doc": 12,
    "tokens_per_sentence": 16, "vocab_size": 300, "max_tokens": 64,
    "min_tokens": 32, "epochs": 3, "max_iterations": 2, "seed": 5,
}


@pytest.fixture(scope="module")
def data(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.txt"
    config.write_text("".join(f"{k}={v}\n" for k, v in TINY_CONFIG.items()))
    assert main(["synth", "--config", str(config), "--out", str(root)]) == 0
    return root


def inputs(data: Path, **overrides) -> list[str]:
    files = {"config": "config.txt", "corpus": "corpus.jsonl",
             "queries": "queries.tsv", "candidates": "candidates.tsv"}
    files.update(overrides)
    args = []
    for flag, name in files.items():
        args += [f"--{flag}", str(data / name)]
    return args


@pytest.fixture(scope="module")
def model(data) -> Path:
    out = data / "model.txt"
    assert main(["train", "--mode", "best", *inputs(data),
                 "--qrels", str(data / "qrels.txt"), "--out", str(out)]) == 0
    return out


def select(data: Path, model: Path, out: Path, threads: int) -> int:
    return main(["select", *inputs(data), "--model", str(model), "--out", str(out),
                 "--threads", str(threads)])


def rerank(data: Path, model: Path, out: Path, threads: int = 1) -> int:
    return main(["rerank", *inputs(data), "--model", str(model), "--mode", "maxp",
                 "--out", str(out), "--threads", str(threads)])


def test_pipeline_runs_end_to_end(data, model, tmp_path):
    selection = tmp_path / "selection.jsonl"
    run = tmp_path / "run.txt"
    per_query = tmp_path / "per_query.tsv"
    assert select(data, model, selection, 1) == 0
    assert rerank(data, model, run) == 0
    assert main(["eval", "--config", str(data / "config.txt"), "--run", str(run),
                 "--qrels", str(data / "qrels.txt"),
                 "--per-query", str(per_query)]) == 0
    assert main(["eval-selection", "--selection", str(selection),
                 "--gold", str(data / "gold.jsonl")]) == 0
    assert len(selection.read_text().splitlines()) == 10 * 3
    assert len(run.read_text().splitlines()) == 10 * 3
    assert len(per_query.read_text().splitlines()) == 1 + 10


def test_outputs_identical_across_thread_counts(data, model, tmp_path):
    for threads in (1, 2):
        assert select(data, model, tmp_path / f"selection{threads}.jsonl", threads) == 0
        assert rerank(data, model, tmp_path / f"run{threads}.txt", threads) == 0
    for name in ("selection{}.jsonl", "run{}.txt"):
        one = (tmp_path / name.format(1)).read_bytes()
        assert one and one == (tmp_path / name.format(2)).read_bytes()


def test_usage_error_exits_1(data, capsys):
    with pytest.raises(SystemExit) as info:
        main(["rerank", *inputs(data), "--mode", "bogus"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["train", *inputs(data)])  # --mode is required
    assert info.value.code == 1


def write_corpus_with(data: Path, tmp_path: Path, line: str) -> Path:
    """The tiny corpus with `line` inserted as its second line."""
    lines = (data / "corpus.jsonl").read_text().splitlines()
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join([lines[0], line, *lines[1:]]) + "\n")
    return path


@pytest.mark.parametrize("line, message", [
    ("5", "expected a JSON object"),
    ('{"doc_id": "x", "title": null, "body": "a."}', "field 'title' is not a string"),
    ('{"doc_id": "x", "title": "t", "body": ["a"]}', "field 'body' is not a string"),
    ('{"doc_id": "x", "title": "t"', "bad JSON"),
])
def test_malformed_corpus_exits_2_with_line(data, model, tmp_path, capsys, line, message):
    corpus = write_corpus_with(data, tmp_path, line)
    code = main(["rerank", *inputs(data, corpus=corpus), "--model", str(model),
                 "--out", str(tmp_path / "run.txt")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"line 2: {message}" in err


@pytest.mark.parametrize("command", ["train", "select", "rerank"])
def test_candidate_missing_from_corpus_names_query_and_doc(data, model, tmp_path,
                                                           capsys, command):
    candidates = tmp_path / "candidates.tsv"
    lines = (data / "candidates.tsv").read_text().splitlines()
    qid = lines[-1].split("\t")[0]
    candidates.write_text("\n".join(lines + [f"{qid}\tnot-a-doc"]) + "\n")
    extra = {"train": ["--mode", "best", "--qrels", str(data / "qrels.txt")],
             "select": ["--model", str(model)],
             "rerank": ["--model", str(model)]}[command]
    code = main([command, *inputs(data, candidates=candidates), *extra,
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"candidate 'not-a-doc' of query '{qid}' is not in the corpus" in err

