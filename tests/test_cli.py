"""The command-line pipeline end to end on a tiny synthetic collection,
and `eval` on a hand-written TREC set."""

import gc
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import segtrain
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


def select(data: Path, model: Path, out: Path) -> int:
    return main(["select", *inputs(data), "--model", str(model), "--out", str(out)])


def rerank(data: Path, model: Path, out: Path) -> int:
    return main(["rerank", *inputs(data), "--model", str(model), "--mode", "maxp",
                 "--out", str(out)])


def test_pipeline_runs_end_to_end(data, model, tmp_path):
    selection = tmp_path / "selection.jsonl"
    run = tmp_path / "run.txt"
    per_query = tmp_path / "per_query.tsv"
    assert select(data, model, selection) == 0
    assert rerank(data, model, run) == 0
    assert main(["eval", "--config", str(data / "config.txt"), "--run", str(run),
                 "--qrels", str(data / "qrels.txt"),
                 "--per-query", str(per_query)]) == 0
    assert main(["eval-selection", "--selection", str(selection),
                 "--gold", str(data / "gold.jsonl")]) == 0
    assert len(selection.read_text().splitlines()) == 10 * 3
    assert len(run.read_text().splitlines()) == 10 * 3
    assert len(per_query.read_text().splitlines()) == 1 + 10


def test_outputs_identical_across_runs(data, model, tmp_path):
    for run in (1, 2):
        assert select(data, model, tmp_path / f"selection{run}.jsonl") == 0
        assert rerank(data, model, tmp_path / f"run{run}.txt") == 0
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



@pytest.mark.parametrize("line, message", [
    ("loss=bogus", "loss must be one of"),
    ("batch_size=0", "batch_size must be positive"),
    ("max_tokens=100", "min_tokens=128 exceeds max_tokens=100"),
    ("noise=2", "noise must be in [0, 1]"),
])
@pytest.mark.parametrize("command", ["synth", "train"])
def test_bad_config_value_exits_2_with_line(data, tmp_path, capsys, command, line,
                                            message):
    config = tmp_path / "config.txt"
    config.write_text(f"seed=5\n{line}\n")
    args = {"synth": ["synth", "--config", str(config), "--out", str(tmp_path / "out")],
            "train": ["train", "--mode", "best",
                      *inputs(data, config=config), "--qrels", str(data / "qrels.txt"),
                      "--out", str(tmp_path / "model.txt")]}[command]
    assert main(args) == 2
    assert f"segtrain: error: line 2: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "model.txt").exists()



# ---------------------------------------------------------------------------
# eval on a small hand-written TREC set

QRELS = """\
q1 0 d1 2
q1 0 d2 0
q1 0 d3 1
q2 0 d4 1
q2 0 d5 3
q3 0 d6 0
q3 0 d7 0
q4 0 d8 1
"""
# q4 is judged but not ranked; q5 is ranked but not judged.
RUN = """\
q1 Q0 d2 1 3.0 sys
q1 Q0 d1 2 2.0 sys
q1 Q0 d3 3 1.0 sys

q2 Q0 d5 1 3.0 sys
q2 Q0 d9 2 2.0 sys
q2 Q0 d4 3 1.0 sys
q3 Q0 d6 1 2.0 sys
q3 Q0 d7 2 1.0 sys
q5 Q0 d1 1 1.0 sys
"""
BASELINE = """\
q1 Q0 d1 1 3.0 base
q1 Q0 d2 2 2.0 base
q1 Q0 d3 3 1.0 base
q2 Q0 d9 1 3.0 base
q2 Q0 d10 2 2.0 base
q2 Q0 d4 3 1.0 base
q3 Q0 d7 1 2.0 base
q3 Q0 d6 2 1.0 base
"""


def by_rank(text: str) -> dict[str, list[str]]:
    ranked: dict[str, list[str]] = {}
    for line in text.splitlines():
        if line:
            qid, _, doc, _rank, _, _ = line.split()
            ranked.setdefault(qid, []).append(doc)
    return ranked


def expected_table(run_text: str) -> dict[str, tuple[float, float]]:
    """Reciprocal rank and NDCG@10 per judged, ranked query, from scratch."""
    grades: dict[str, dict[str, int]] = {}
    for line in QRELS.splitlines():
        qid, _, doc, grade = line.split()
        grades.setdefault(qid, {})[doc] = int(grade)
    table = {}
    for qid, docs in by_rank(run_text).items():
        if qid not in grades:
            continue
        g = grades[qid]
        hits = [i for i, doc in enumerate(docs, 1) if g.get(doc, 0) > 0]
        rr = 1 / hits[0] if hits else 0.0
        dcg = sum(g.get(doc, 0) / math.log2(i + 1) for i, doc in enumerate(docs, 1))
        ideal = sorted(g.values(), reverse=True)
        idcg = sum(x / math.log2(i + 1) for i, x in enumerate(ideal, 1))
        table[qid] = (rr, dcg / idcg if idcg else 0.0)
    return table


def t_test_p_df2(a: list[float], b: list[float]) -> float:
    """Two-sided paired t-test p-value for three pairs: with 2 degrees of
    freedom the t distribution has the closed form P(|T| >= t) = 1 - t/sqrt(t^2 + 2)."""
    assert len(a) == len(b) == 3
    d = [x - y for x, y in zip(a, b)]
    mean = sum(d) / 3
    sd = math.sqrt(sum((x - mean) ** 2 for x in d) / 2)
    t = abs(mean) / (sd / math.sqrt(3))
    return 1 - t / math.sqrt(t * t + 2)


@pytest.fixture
def trec(tmp_path) -> Path:
    for name, text in (("qrels.txt", QRELS), ("run.txt", RUN),
                       ("baseline.txt", BASELINE)):
        (tmp_path / name).write_text(text)
    return tmp_path


def eval_trec(trec: Path, run: str = "run.txt", baseline: str = "baseline.txt") -> int:
    return main(["eval", "--run", str(trec / run), "--qrels", str(trec / "qrels.txt"),
                 "--baseline-run", str(trec / baseline),
                 "--per-query", str(trec / "per_query.tsv")])


def test_eval_table_and_t_test_match_recomputation(trec, capsys):
    assert eval_trec(trec) == 0
    printed = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    table, base = expected_table(RUN), expected_table(BASELINE)
    assert list(table) == ["q1", "q2", "q3"] and list(base) == list(table)
    rows = (trec / "per_query.tsv").read_text().splitlines()
    assert rows[0] == "qid\tmrr\tndcg@10"
    assert [row.split("\t")[0] for row in rows[1:]] == list(table)
    for row in rows[1:]:
        qid, rr, nd = row.split("\t")
        assert (float(rr), float(nd)) == pytest.approx(table[qid], abs=1e-6)
    judged = 4  # q4 counts, with 0, in both means
    assert float(printed["mrr"]) == pytest.approx(
        sum(rr for rr, _ in table.values()) / judged, abs=1e-6)
    assert float(printed["ndcg@10"]) == pytest.approx(
        sum(nd for _, nd in table.values()) / judged, abs=1e-6)
    for i, name in enumerate(("t_test_mrr_p", "t_test_ndcg_p")):
        expected = t_test_p_df2([table[q][i] for q in table], [base[q][i] for q in table])
        assert 0.0 < expected < 1.0
        assert float(printed[name]) == pytest.approx(expected, abs=1e-6)
    assert gc.isenabled()


@pytest.mark.parametrize("run, line_no, message", [
    (RUN.replace("q2 Q0 d9 2 2.0 sys", "q2 Q0 d9 2 2.0"), 6,
     "expected 6 fields, got 5"),
    (RUN.replace("q2 Q0 d9 2", "q2 Q0 d5 2"), 6, "duplicate doc_id 'd5' for query 'q2'"),
    (RUN.replace("q2 Q0 d9 2", "q2 Q0 d9 0"), 6, "rank 0 is below 1"),
])
def test_eval_bad_run_exits_2_with_line(trec, capsys, run, line_no, message):
    (trec / "bad.txt").write_text(run)
    for args in (("bad.txt", "baseline.txt"), ("run.txt", "bad.txt")):
        assert eval_trec(trec, *args) == 2
        assert f"line {line_no}: {message}" in capsys.readouterr().err
        assert gc.isenabled()


def test_eval_too_few_shared_queries_exits_2(trec, capsys):
    (trec / "other.txt").write_text("q9 Q0 d1 1 1.0 sys\n")
    (trec / "one.txt").write_text("q1 Q0 d1 1 1.0 sys\nq9 Q0 d1 1 1.0 sys\n")
    assert eval_trec(trec, run="other.txt") == 2
    assert "run and qrels share no queries" in capsys.readouterr().err
    assert eval_trec(trec, baseline="one.txt") == 2
    assert "need at least 2 shared queries" in capsys.readouterr().err


def test_read_keeps_a_disabled_collector_disabled(trec):
    gc.disable()
    try:
        assert eval_trec(trec) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


SELECTION = '{"doc_id": "d1", "qid": "q1", "score": 0.5, "segment_index": 1}\n'
GOLD = '{"doc_id": "d1", "gold_segment_index": 1, "qid": "q1"}\n'


def test_eval_commands_do_not_import_numpy(trec):
    (trec / "selection.jsonl").write_text(SELECTION)
    (trec / "gold.jsonl").write_text(GOLD)
    eval_args = ["eval", "--run", str(trec / "run.txt"),
                 "--qrels", str(trec / "qrels.txt"),
                 "--baseline-run", str(trec / "baseline.txt"),
                 "--per-query", str(trec / "per_query.tsv")]
    selection_args = ["eval-selection", "--selection", str(trec / "selection.jsonl"),
                      "--gold", str(trec / "gold.jsonl")]
    script = ("import sys\n"
              "from segtrain.cli import main\n"
              f"assert main({eval_args!r}) == 0\n"
              f"assert main({selection_args!r}) == 0\n"
              "assert 'numpy' not in sys.modules\n")
    src = str(Path(segtrain.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert "segment_p_at_1=1.000000" in result.stdout


@pytest.mark.parametrize("line", [
    '{"qid": "q1", "doc_id": "d1", "segment_index": Infinity}',
    '{"qid": "q1", "doc_id": "d1", "segment_index": 1, "score": 1' + "0" * 400 + "}",
    "[" * 100000 + "]" * 100000,
], ids=["infinity", "long", "deep"])
def test_eval_selection_bad_record_exits_2_with_line(trec, capsys, line):
    (trec / "selection.jsonl").write_text(SELECTION + line + "\n")
    (trec / "gold.jsonl").write_text(GOLD)
    assert main(["eval-selection", "--selection", str(trec / "selection.jsonl"),
                 "--gold", str(trec / "gold.jsonl")]) == 2
    assert "segtrain: error: line 2: " in capsys.readouterr().err
