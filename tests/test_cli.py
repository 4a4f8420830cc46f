"""The command-line pipeline end to end on a tiny synthetic collection,
and `eval` on a hand-written TREC set."""

import ast
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import segtrain
from segtrain import cache, formats
from segtrain.cli import main
from segtrain.evaluation import ideal_dcgs, judged_metrics, paired_t_test, table_means

TINY_CONFIG = {
    "num_queries": 10, "docs_per_query": 3, "sentences_per_doc": 12,
    "tokens_per_sentence": 16, "vocab_size": 300, "max_tokens": 64,
    "min_tokens": 32, "epochs": 3, "max_iterations": 2, "seed": 5,
}


@pytest.fixture(autouse=True)
def no_child_left():
    """No command leaves a child process behind, on any path."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def synth(config: dict, out: Path) -> int:
    """Run `synth` into `out`, with `config` written to `out/config.txt`."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text("".join(f"{k}={v}\n" for k, v in config.items()))
    return main(["synth", "--config", str(out / "config.txt"), "--out", str(out)])


@pytest.fixture(scope="module")
def data(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("cli")
    assert synth(TINY_CONFIG, root) == 0
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


# A tiny collection with late, noisy evidence, so that the dev metric
# moves between epochs and rounds.
LATE_CONFIG = {**TINY_CONFIG, "num_queries": 20, "plant_lo": 1, "noise": 0.3,
               "distractor_overlap": 0.6, "epochs": 5, "patience_epochs": 2}

# sha256 of every model, selection and run file the late collection
# gives.  A change that alters any of these outputs must say why and
# update the digests.
PINNED_DIGESTS = {
    "linear-first.txt":
        "0903e88af03735ac104061ac86c9d7d47fa014722e4dd215e13b2b504cbd666d",
    "linear-gold.txt":
        "9f8032873d92236f7e4ed83eccd80b6e63072a01aad145fae0ebd07baed1d352",
    "linear-theta0.txt":
        "dec08f915d29041769cb4032b357ba8411bfe791f19fcc20e6e25f8dc4e6e2b8",
    "linear-best.txt":
        "c6813a7a4fcd53e3b0416c80d27eef3a190fff5dab12f133a30a905955fba885",
    "mlp-first.txt":
        "953fd90d9d7ef189f883b945d7e7f7506147d7eee4d3c3dbdd62389a92b2841f",
    "mlp-gold.txt":
        "c411598a79811e912d0f88323658bb18ed37b4cf9f760208e852377049aac415",
    "mlp-theta0.txt":
        "163041fffeed813f1239004db8b1f6f84b9630321f4fefe4a1cad1e36cf1903d",
    "mlp-best.txt":
        "30901aa73e125efc211049d040ff91165996b80dba0d1d6669ee95acb13fb8f0",
    "selection.jsonl":
        "ed399e8af25df1490200ce6d980e6231a226bcd5a06bcb279eb359f18de37af2",
    "run-maxp.txt":
        "738e1e73bb26f8046a8c92a4881d568ff1c832c173af2dbb458c72e01b6ddbe7",
    "run-firstp.txt":
        "53d79ae84b2a33f03e309048f940bd5470477ac06358441ea147d6263611a574",
    "mlp-selection.jsonl":
        "c67b043f45e590b5bea6931260e0a5d485b2b8398777b5df5b6eaf6337e65c66",
    "mlp-run-maxp.txt":
        "a9c2c56f47012794326d081ebc8ea0de7a28e60e7156cdb2c578a1499dc5388d",
}


def pinned_outputs(tmp_path_factory, tmp_path, prepare=None) -> dict[str, str]:
    """The sha256 of each file that `PINNED_DIGESTS` pins, made anew;
    `prepare`, if given, is called with the collection's directory
    before the first command reads it."""
    data = tmp_path_factory.mktemp("late")
    assert synth(LATE_CONFIG, data) == 0
    if prepare is not None:
        prepare(data)
    digests = {}
    for loss, kind in (("pairwise_hinge", "linear"), ("pointwise_cross_entropy", "mlp")):
        config = tmp_path / f"{kind}.txt"
        config.write_text((data / "config.txt").read_text()
                          + f"loss={loss}\nscorer_kind={kind}\n")
        for mode in ("first", "gold", "theta0", "best"):
            out = tmp_path / f"{kind}-{mode}.txt"
            assert main(["train", "--mode", mode, *inputs(data, config=config),
                         "--qrels", str(data / "qrels.txt"),
                         "--gold", str(data / "gold.jsonl"), "--out", str(out)]) == 0
            digests[out.name] = out
    # the linear model's selection and runs, then the mlp's selection and
    # MaxP run, which score through numpy's tanh
    for kind, modes in (("linear", ("maxp", "firstp")), ("mlp", ("maxp",))):
        model = tmp_path / f"{kind}-best.txt"
        prefix = "" if kind == "linear" else "mlp-"
        digests[f"{prefix}selection.jsonl"] = out = tmp_path / f"{prefix}selection.jsonl"
        assert select(data, model, out) == 0
        for mode in modes:
            digests[f"{prefix}run-{mode}.txt"] = out = tmp_path / f"{prefix}run-{mode}.txt"
            assert main(["rerank", *inputs(data), "--model", str(model), "--mode", mode,
                         "--out", str(out)]) == 0
    return {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in digests.items()}


def test_outputs_match_pinned_digests(tmp_path_factory, tmp_path):
    assert pinned_outputs(tmp_path_factory, tmp_path) == PINNED_DIGESTS


def test_outputs_match_pinned_digests_with_cached_stores(tmp_path_factory, tmp_path,
                                                         monkeypatch):
    # the first training parses the corpus, builds both feature stores and
    # caches them; the twelve later commands load them, and neither parse,
    # segment nor compute a feature
    from segtrain import corpus, training

    built = {}
    parsed = mock.Mock(wraps=formats.parse_corpus)
    loaded, calls = [], []

    def load_stores(*args):
        loaded.append(load_stores.real(*args))
        calls.append([m.call_count for m in (parsed, *built.values())])
        return loaded[-1]

    def watch_builders(data: Path) -> None:
        # from after `synth`, which segments its documents too
        for module, name in ((corpus, "segment_for_training"),
                             (corpus, "segment_for_inference"),
                             (training, "segment_features")):
            built[name] = mock.Mock(wraps=getattr(module, name))
            monkeypatch.setattr(module, name, built[name])

    load_stores.real = cache._load_stores
    monkeypatch.setattr(cache, "MIN_CACHED_BYTES", 1)
    monkeypatch.setattr(cache, "_load_stores", load_stores)
    monkeypatch.setattr(formats, "parse_corpus", parsed)
    assert pinned_outputs(tmp_path_factory, tmp_path, watch_builders) == PINNED_DIGESTS
    assert len(loaded) == 13 and loaded[0] is None and None not in loaded[1:]
    final = [m.call_count for m in (parsed, *built.values())]
    assert calls[0] == [0, 0, 0, 0] and final[0] == 1 and all(final)
    assert calls[1:] == [final] * 12


def test_outputs_ignore_a_leftover_views_file(tmp_path_factory, tmp_path, monkeypatch):
    # older versions cached each corpus parse in `<corpus>.views`; such a
    # file is neither read, replaced nor written again
    garbage = b'{"format": 1}\n["d00000", 2, [16], []]\nnot JSON\n'
    planted = []

    def plant(data: Path) -> None:
        views = data / "corpus.jsonl.views"
        views.write_bytes(garbage)
        planted.append((views, views.stat()))

    monkeypatch.setattr(cache, "MIN_CACHED_BYTES", 1)
    assert pinned_outputs(tmp_path_factory, tmp_path, plant) == PINNED_DIGESTS
    [(views, before)] = planted
    data = views.parent
    assert main(["segment", "--config", str(data / "config.txt"), "--corpus",
                 str(data / "corpus.jsonl"), "--mode", "training",
                 "--out", str(tmp_path / "segments.jsonl")]) == 0
    after = views.stat()
    assert views.read_bytes() == garbage
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert (data / "corpus.jsonl.stores").exists()
    assert [p.name for p in data.glob("*.views*")] == [views.name]
    assert not list(tmp_path.glob("*.views*"))


# Each change of an input the stores depend on, which may change the
# outputs, and each change of the code or the cache file, which may not.
INPUT_CHANGES = ["policy", "seed", "queries", "candidates", "corpus"]
STORES_MISSES = INPUT_CHANGES + ["format version", "stores source", "damaged",
                                 "truncated", "foreign-owned", "symlinked"]


@pytest.mark.parametrize("change", STORES_MISSES)
def test_a_changed_input_or_a_bad_stores_cache_is_a_miss(data, model, tmp_path,
                                                        monkeypatch, change):
    for name in ("config.txt", "corpus.jsonl", "queries.tsv", "candidates.tsv"):
        (tmp_path / name).write_bytes((data / name).read_bytes())
    hits, seed = [], []
    keys = mock.Mock(wraps=cache._corpus_key)

    def load_stores(*args):
        stores = load_stores.real(*args)
        hits.append(stores is not None)
        return stores

    def select_bytes(min_cached_bytes: int = 1) -> bytes:
        out, calls = tmp_path / "selection.jsonl", keys.call_count
        with mock.patch.object(cache, "MIN_CACHED_BYTES", min_cached_bytes):
            assert main(["select", *inputs(tmp_path), *seed, "--model", str(model),
                         "--out", str(out)]) == 0
        assert keys.call_count == calls + 1  # one key per command, hit or miss
        return out.read_bytes()

    load_stores.real = cache._load_stores
    monkeypatch.setattr(cache, "_load_stores", load_stores)
    monkeypatch.setattr(cache, "_corpus_key", keys)
    before = select_bytes()
    assert select_bytes() == before and hits == [False, True]
    stores = tmp_path / "corpus.jsonl.stores"
    kept = None
    if change == "policy":
        with open(tmp_path / "config.txt", "a") as stream:
            stream.write("query_token_budget=8\n")
    elif change == "seed":
        seed = ["--seed", "6"]
    elif change in ("queries", "candidates", "corpus"):
        path = tmp_path / f"{change}.{'jsonl' if change == 'corpus' else 'tsv'}"
        lines = path.read_text().splitlines(keepends=True)
        if change == "queries":
            lines[0] = lines[0].split("\t")[0] + "\tother words\n"
        elif change == "candidates":
            lines.pop()
        else:
            lines.append(json.dumps({"doc_id": "extra", "title": "t", "body": "b."})
                         + "\n")
        path.write_text("".join(lines))
    elif change == "format version":
        monkeypatch.setattr(cache, "STORES_FORMAT", cache.STORES_FORMAT + 1)
    elif change == "stores source":
        monkeypatch.setattr(cache, "_sources_crc",
                            lambda sources, real=cache._sources_crc:
                            real(sources) ^ 1)
    elif change == "damaged":
        damaged = bytearray(stores.read_bytes())
        damaged[-100] ^= 1
        stores.write_bytes(damaged)
    elif change == "truncated":
        stores.write_bytes(stores.read_bytes()[:-8])
    elif change == "foreign-owned":
        monkeypatch.setattr(os, "geteuid", lambda uid=os.geteuid(): uid + 1)
    else:
        kept = stores.read_bytes()
        stores.rename(tmp_path / "elsewhere")
        stores.symlink_to(tmp_path / "elsewhere")
    after = select_bytes()
    assert hits[2] is False
    assert after == select_bytes(1 << 62)  # as no cache gives
    if change not in INPUT_CHANGES:
        assert after == before
    assert select_bytes() == after
    assert hits[3] is (change != "foreign-owned")  # rewritten
    if kept is not None:
        assert not stores.is_symlink() and (tmp_path / "elsewhere").read_bytes() == kept


# The benchmark's late-evidence collection (config_e with the plant in
# segments 1-3), at 20 topics instead of 250.
SYNTH_LATE = {"num_queries": 20, "docs_per_query": 6, "sentences_per_doc": 18,
              "tokens_per_sentence": 128, "vocab_size": 5000, "query_terms": 5,
              "plant_lo": 1, "plant_hi": 4, "distractor_overlap": 0.3, "noise": 0.3}

# sha256 of the five files `synth` writes.  They pin the background
# draws, which must stay those of `Generator.choice` with `p=`, and
# every later draw of the generator.
SYNTH_DIGESTS = {
    "late": (LATE_CONFIG, {
        "corpus.jsonl": "420e0e6d7f369eb1d25841d89fb35a74ebf9d19571f7da30f8fae1fd3554c1c4",
        "queries.tsv": "8ad175ee2c19c981ecb70aea4ad87a834ff0a93cd660e6503a38a78e3419d385",
        "qrels.txt": "2c10bf15d5dd7816b2fb555f606bff50721774ed59e91050ef6ab0107c84617f",
        "candidates.tsv": "f4759ec43b3f42b2becfab478921184ae78a5b058ab1685974bbd0b94378e547",
        "gold.jsonl": "3d14d7aab41a2cbf564d88b0bb28ae688b48b690e5ae4195761e5566c0fd1c92",
    }),
    "synth_late-1": ({**SYNTH_LATE, "seed": 1}, {
        "corpus.jsonl": "d9a131d40baab74cbba4fa5ea4cf38dc7f5e17bbd3a81cf6abf36277348b60e2",
        "queries.tsv": "8ad175ee2c19c981ecb70aea4ad87a834ff0a93cd660e6503a38a78e3419d385",
        "qrels.txt": "5764c2dd81c30ca47d69bb667ef5fadf253d1e8f3e2443c47f61c1347173e470",
        "candidates.tsv": "f4f82b6d491aec49f4dc54790cf50dec21b951c7d610084f3cf7079e91a8499d",
        "gold.jsonl": "1e05eeab7e03e5ce886a3880fe1289e128ed2cea43a71672dc6f7121b7222ee8",
    }),
    "synth_late-2": ({**SYNTH_LATE, "seed": 2}, {
        "corpus.jsonl": "97d4a9d5f9100c6c059f206f561631e2c4537509986bb35595490491369dd3a0",
        "queries.tsv": "8ad175ee2c19c981ecb70aea4ad87a834ff0a93cd660e6503a38a78e3419d385",
        "qrels.txt": "bddb057910c6fbad598a1ef9210ff189ce8146fc145d0e9d175330cee6065732",
        "candidates.tsv": "f4f82b6d491aec49f4dc54790cf50dec21b951c7d610084f3cf7079e91a8499d",
        "gold.jsonl": "18320f8a836d5ac220058b67dbe3f14bfc5203b9e5ad32706d459d56a1326d26",
    }),
}

# sha256 of `segment` on the late collection, per mode.
SEGMENT_DIGESTS = {
    "training": "aeb29ef15274798c84072f8db0dfd73081416ccb58264734f3dfc246275d8b48",
    "inference": "830a65073d12e726780d6727af045cf49ae93c4885847042ea4712b4af4fd6c1",
}


@pytest.mark.parametrize("name", SYNTH_DIGESTS)
def test_synth_outputs_match_pinned_digests(tmp_path, name):
    config, digests = SYNTH_DIGESTS[name]
    assert synth(config, tmp_path) == 0
    assert {file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
            for file in digests} == digests


@pytest.mark.parametrize("mode", SEGMENT_DIGESTS)
def test_segment_outputs_match_pinned_digests(tmp_path, mode):
    assert synth(LATE_CONFIG, tmp_path) == 0
    out = tmp_path / "segments.jsonl"
    assert main(["segment", "--config", str(tmp_path / "config.txt"), "--corpus",
                 str(tmp_path / "corpus.jsonl"), "--mode", mode, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SEGMENT_DIGESTS[mode]


def test_synth_that_fails_to_generate_writes_nothing(tmp_path, capsys):
    # the configuration passes its checks, but a two-sentence document
    # has fewer training segments than the plant range needs
    config = tmp_path / "config.txt"
    config.write_text("".join(f"{k}={v}\n" for k, v in {
        **TINY_CONFIG, "sentences_per_doc": 2, "plant_lo": 1, "plant_hi": 4}.items()))
    out = tmp_path / "out" / "data"
    assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("segtrain: error: plant range [1, 4) exceeds "
                                       "the 2 training segments of d00002\n")
    assert not (tmp_path / "out").exists()


def test_usage_error_exits_1(data, capsys):
    with pytest.raises(SystemExit) as info:
        main(["rerank", *inputs(data), "--mode", "bogus"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["train", *inputs(data)])  # --mode is required
    assert info.value.code == 1


@pytest.mark.parametrize("tag", ["", "my tag", " ", "tab\tin", "line\nbreak", "nbsp\xa0"])
def test_a_tag_that_is_not_one_word_is_a_usage_error(data, model, tmp_path, capsys, tag):
    # such a tag would write a run that `eval` rejects; no input is read
    out = tmp_path / "run.txt"
    with mock.patch.object(formats, "parse_queries") as parse_queries:
        with pytest.raises(SystemExit) as info:
            main(["rerank", *inputs(data), "--model", str(model), "--tag", tag,
                  "--out", str(out)])
    assert info.value.code == 1 and not parse_queries.called
    assert capsys.readouterr().err.splitlines()[-1] == (
        "segtrain rerank: error: argument --tag: a run tag must be one word "
        f"without whitespace, got {tag!r}")
    assert not out.exists()


def test_a_one_word_tag_ends_each_run_line(data, model, tmp_path):
    out = tmp_path / "run.txt"
    assert main(["rerank", *inputs(data), "--model", str(model), "--tag", "run-1",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines and all(line.split()[5:] == ["run-1"] for line in lines)
    with open(out) as stream:
        assert len(formats.parse_run(stream)) == 10


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


@pytest.mark.parametrize("command", ["train", "select", "rerank", "segment"])
def test_undecodable_corpus_exits_2_with_line(data, model, tmp_path, capsys, command):
    lines = (data / "corpus.jsonl").read_bytes().splitlines(keepends=True)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(lines[0] + lines[1].replace(b'"body": "', b'"body": "\xff') +
                       b"".join(lines[2:]))
    args = {"train": ["--mode", "best", *inputs(data, corpus=corpus),
                      "--qrels", str(data / "qrels.txt")],
            "select": [*inputs(data, corpus=corpus), "--model", str(model)],
            "rerank": [*inputs(data, corpus=corpus), "--model", str(model)],
            "segment": ["--mode", "inference", "--corpus", str(corpus)]}[command]
    code = main([command, *args, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "segtrain: error: line 2: utf-8 cannot decode 0xff (invalid start byte)\n"
    assert not (tmp_path / "out").exists()


def test_undecodable_model_exits_2_with_line(data, model, tmp_path, capsys):
    lines = model.read_bytes().splitlines()
    lines[2] = b"0.5\xff"
    bad = tmp_path / "model.txt"
    bad.write_bytes(b"\n".join(lines) + b"\n")
    for command in (select, rerank):
        assert command(data, bad, tmp_path / "out") == 2
        assert capsys.readouterr().err == \
            "segtrain: error: line 3: utf-8 cannot decode 0xff (invalid start byte)\n"
    assert not (tmp_path / "out").exists()


def test_wrong_parameter_count_exits_2_with_line(data, model, tmp_path, capsys):
    header, *values = model.read_text().splitlines()
    assert header.split()[2] == "kind=linear" and len(values) == 8
    bad = tmp_path / "model.txt"
    for kept, line_no, got in ((values[:7], 8, "7"), ([*values, "0.5"], 10, "more")):
        bad.write_text("\n".join([header, *kept]) + "\n")
        assert rerank(data, bad, tmp_path / "out") == 2
        assert capsys.readouterr().err == (f"segtrain: error: line {line_no}: expected 8 "
                                           f"parameters for a linear scorer, got {got}\n")
    assert not (tmp_path / "out").exists()


def test_duplicate_candidate_exits_2_with_line(data, model, tmp_path, capsys):
    candidates = tmp_path / "candidates.tsv"
    first = (data / "candidates.tsv").read_text().splitlines()[0]
    candidates.write_text(f"{first}\n{first}\n")
    code = main(["rerank", *inputs(data, candidates=candidates), "--model", str(model),
                 "--out", str(tmp_path / "run.txt")])
    assert code == 2
    assert "line 2: duplicate candidate" in capsys.readouterr().err


def test_malformed_corpus_exits_before_numpy_is_imported(data, model, tmp_path):
    # the numpy-backed layers load only once the inputs have parsed and
    # every listed candidate is in the corpus, and no stores are cached
    # for a corpus that fails either check, even one that gets a cache
    bad_json = write_corpus_with(data, tmp_path, '{"doc_id": "x", "title": "t"')
    with open(data / "queries.tsv") as stream:
        queries = formats.parse_queries(stream)
    with open(data / "candidates.tsv") as stream:
        candidates = formats.parse_candidates(stream)
    doc_id = candidates[queries[-1].id][-1]
    qid = next(q.id for q in queries if doc_id in candidates.get(q.id, ()))
    lacking = tmp_path / "lacking" / "corpus.jsonl"
    lacking.parent.mkdir()
    lacking.write_text("".join(line for line in (data / "corpus.jsonl").open()
                               if json.loads(line)["doc_id"] != doc_id))
    runs = [[*args, *inputs(data, corpus=corpus), "--out", str(tmp_path / "out")]
            for corpus in (bad_json, lacking)
            for args in (["train", "--mode", "best", "--qrels", str(data / "qrels.txt")],
                         ["select", "--model", str(model)],
                         ["rerank", "--model", str(model)])]
    script = ("import sys\n"
              "from segtrain import cache\n"
              "from segtrain.cli import main\n"
              "cache.MIN_CACHED_BYTES = 1\n"
              f"for args in {runs!r}:\n"
              "    assert main(args) == 2\n"
              "    assert 'numpy' not in sys.modules\n")
    src = str(Path(segtrain.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    missing = f"segtrain: error: candidate {doc_id!r} of query {qid!r} is not in the corpus\n"
    assert result.stderr.count("segtrain: error: line 2: bad JSON") == 3
    assert result.stderr.endswith(missing * 3) and result.stderr.count("\n") == 6
    assert not list(tmp_path.rglob("*.stores*")) and not (tmp_path / "out").exists()


def test_malformed_corpus_exits_2_with_line_despite_its_cache(data, model, tmp_path,
                                                              capsys, monkeypatch):
    monkeypatch.setattr(cache, "MIN_CACHED_BYTES", 1)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes((data / "corpus.jsonl").read_bytes())
    qrels = ["--qrels", str(data / "qrels.txt")]
    assert main(["train", "--mode", "best", *inputs(data, corpus=corpus), *qrels,
                 "--out", str(tmp_path / "model.txt")]) == 0
    assert (tmp_path / "corpus.jsonl.stores").exists()
    write_corpus_with(data, tmp_path, '{"doc_id": "x", "title": "t"')
    for args in (["train", "--mode", "best", *qrels], ["select", "--model", str(model)],
                 ["rerank", "--model", str(model)]):
        capsys.readouterr()
        assert main([*args, *inputs(data, corpus=corpus),
                     "--out", str(tmp_path / "out")]) == 2
        assert "line 2: bad JSON" in capsys.readouterr().err


def scoring_args(command: str, data: Path, model: Path) -> list[str]:
    """What `train`, `select` or `rerank` reads besides the inputs."""
    return {"train": ["--mode", "best", "--qrels", str(data / "qrels.txt")],
            "select": ["--model", str(model)],
            "rerank": ["--model", str(model)]}[command]


@pytest.mark.parametrize("cacheable", [False, True], ids=["small", "cacheable"])
@pytest.mark.parametrize("command", ["train", "select", "rerank"])
def test_candidate_missing_from_corpus_names_query_and_doc(data, model, tmp_path,
                                                           capsys, monkeypatch,
                                                           command, cacheable):
    # no stores are cached for a corpus that lacks a candidate
    if cacheable:
        monkeypatch.setattr(cache, "MIN_CACHED_BYTES", 1)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes((data / "corpus.jsonl").read_bytes())
    candidates = tmp_path / "candidates.tsv"
    lines = (data / "candidates.tsv").read_text().splitlines()
    qid = lines[-1].split("\t")[0]
    candidates.write_text("\n".join(lines + [f"{qid}\tnot-a-doc"]) + "\n")
    code = main([command, *inputs(data, corpus=corpus, candidates=candidates),
                 *scoring_args(command, data, model), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (f"segtrain: error: candidate 'not-a-doc' of query '{qid}' "
                   f"is not in the corpus\n")
    assert not list(tmp_path.glob("*.stores*")) and not (tmp_path / "out").exists()
    assert main([command, *inputs(data, corpus=corpus),
                 *scoring_args(command, data, model), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "corpus.jsonl.stores").exists() is cacheable


@pytest.mark.parametrize("command", ["train", "select", "rerank"])
def test_a_missing_output_path_exits_2_before_any_work(data, model, capsys,
                                                       monkeypatch, command):
    from segtrain import training

    read_stores = mock.Mock(wraps=formats.read_stores)
    best_train = mock.Mock(wraps=training.best_train)
    monkeypatch.setattr(formats, "read_stores", read_stores)
    monkeypatch.setattr(training, "best_train", best_train)
    assert main([command, *inputs(data), *scoring_args(command, data, model)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "segtrain: error: missing required output path: --out\n"
    assert read_stores.call_count == best_train.call_count == 0


def test_a_missing_input_path_exits_2_before_any_work(data, tmp_path):
    # on a corpus it would cache stores for, a command that lacks --qrels,
    # --gold or --model neither parses the corpus, writes its stores nor
    # loads numpy
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes((data / "corpus.jsonl").read_bytes())
    qrels = ["--qrels", str(data / "qrels.txt")]
    runs = [(["train", "--mode", "best"], "--qrels"),
            (["train", "--mode", "gold", *qrels], "--gold"),
            (["select"], "--model"), (["rerank"], "--model")]
    script = ("import sys\n"
              "from segtrain import cache, formats\n"
              "from segtrain.cli import main\n"
              "cache.MIN_CACHED_BYTES = 1\n"
              "parsed, parse = [], formats.parse_corpus\n"
              "formats.parse_corpus = lambda *args: parsed.append(args) or parse(*args)\n"
              f"for args, _ in {runs!r}:\n"
              f"    args += {inputs(data, corpus=corpus)!r}\n"
              f"    assert main([*args, '--out', {str(tmp_path / 'out')!r}]) == 2\n"
              "    assert 'numpy' not in sys.modules and not parsed\n")
    src = str(Path(segtrain.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert result.stderr == "".join(f"segtrain: error: missing required input: {flag}\n"
                                    for _, flag in runs)
    assert not list(tmp_path.glob("*.stores*")) and not (tmp_path / "out").exists()


def test_a_cold_train_cuts_each_documents_inference_windows_once(data, tmp_path,
                                                                  monkeypatch):
    # the stats and the inference-window store share one cut of each
    # document, on a stores miss
    from segtrain import corpus as corpus_module

    spans = mock.Mock(wraps=corpus_module._inference_spans)
    monkeypatch.setattr(corpus_module, "_inference_spans", spans)
    monkeypatch.setattr(cache, "MIN_CACHED_BYTES", 1)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes((data / "corpus.jsonl").read_bytes())
    assert main(["train", "--mode", "best", *inputs(data, corpus=corpus),
                 "--qrels", str(data / "qrels.txt"),
                 "--out", str(tmp_path / "model.txt")]) == 0
    doc_ids = [json.loads(line)["doc_id"] for line in corpus.read_text().splitlines()]
    assert sorted(call.args[0].id for call in spans.call_args_list) == sorted(doc_ids)
    assert (tmp_path / "corpus.jsonl.stores").exists()


@pytest.mark.parametrize("cacheable", [False, True], ids=["small", "cacheable"])
def test_queries_without_candidates_give_empty_outputs(data, model, tmp_path,
                                                       monkeypatch, cacheable):
    # stores of no pairs are cached, and loaded, like any others
    if cacheable:
        monkeypatch.setattr(cache, "MIN_CACHED_BYTES", 1)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes((data / "corpus.jsonl").read_bytes())
    candidates = tmp_path / "candidates.tsv"
    candidates.write_text("")
    for _ in range(2):
        for command in ("select", "rerank"):
            out = tmp_path / f"{command}.out"
            assert main([command, *inputs(data, corpus=corpus, candidates=candidates),
                         "--model", str(model), "--out", str(out)]) == 0
            assert out.read_bytes() == b""
    assert (tmp_path / "corpus.jsonl.stores").exists() is cacheable


@pytest.mark.parametrize("command", ["synth", "segment", "train", "select", "rerank"])
def test_negative_seed_flag_is_a_usage_error(tmp_path, capsys, command):
    # every input path is missing: the flag must fail before any is read
    missing = [str(tmp_path / "missing")]
    args = {"synth": [], "segment": ["--mode", "training", "--corpus", *missing],
            "train": ["--mode", "best", "--qrels", *missing],
            "select": ["--model", *missing], "rerank": ["--model", *missing]}[command]
    if command in ("train", "select", "rerank"):
        args += ["--corpus", *missing, "--queries", *missing, "--candidates", *missing]
    with pytest.raises(SystemExit) as info:
        main([command, "--config", *missing, "--seed", "-1", *args,
              "--out", str(tmp_path / "out")])
    assert info.value.code == 1
    assert "argument --seed: seed must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gold_index_past_the_segments_exits_2(data, tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    with open(gold, "w") as stream:
        for line in (data / "gold.jsonl").read_text().splitlines():
            stream.write(json.dumps({**json.loads(line), "gold_segment_index": 99}) + "\n")
    assert main(["train", "--mode", "gold", *inputs(data), "--qrels",
                 str(data / "qrels.txt"), "--gold", str(gold),
                 "--out", str(tmp_path / "model.txt")]) == 2
    assert "selected segment 99 of ('q" in capsys.readouterr().err
    assert not (tmp_path / "model.txt").exists()


@pytest.mark.parametrize("line, message", [
    ("loss=bogus", "loss must be one of"),
    ("batch_size=0", "batch_size must be positive"),
    ("max_tokens=100", "min_tokens=128 exceeds max_tokens=100"),
    ("noise=2", "noise must be in [0, 1]"),
    ("hidden_dim=0", "hidden_dim must be positive"),
    ("seed=-1", "seed must be non-negative"),
    ("docs_per_query=1", "docs_per_query must be at least 2"),
    ("query_terms=200", "query_terms=200 exceeds tokens_per_sentence=128"),
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


def columns(run) -> dict[str, tuple[list[str], list[int]]]:
    """Each ranking of a parsed run as `formats.read_run` gives it: its
    document ids and its ranks."""
    return {qid: ([e.doc_id for e in ranked.entries], [e.rank for e in ranked.entries])
            for qid, ranked in run.items()}


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


def test_negative_grade_exits_2_with_line(trec, data, tmp_path, capsys):
    (trec / "qrels.txt").write_text(QRELS.replace("q1 0 d2 0", "q1 0 d2 -1"))
    assert eval_trec(trec) == 2
    out, err = capsys.readouterr()
    assert out == ""  # refused before any figure is printed
    assert err == "segtrain: error: line 2: negative relevance grade for ('q1', 'd2')\n"
    lines = (data / "qrels.txt").read_text().splitlines()
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("\n".join([*lines, "q1 0 d2 -1"]) + "\n")
    assert main(["train", "--mode", "first", *inputs(data), "--qrels", str(qrels),
                 "--out", str(tmp_path / "model.txt")]) == 2
    assert capsys.readouterr().err == (f"segtrain: error: line {len(lines) + 1}: "
                                       f"negative relevance grade for ('q1', 'd2')\n")
    assert not (tmp_path / "model.txt").exists()


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


# ---------------------------------------------------------------------------
# eval scores --baseline-run against the run's judgments, once the run's
# figures are out

def eval_outputs(trec: Path, capsys, **files) -> tuple[int, str, str, str | None]:
    """Exit code, stdout, stderr and per-query table of `eval_trec`."""
    table = trec / "per_query.tsv"
    table.unlink(missing_ok=True)
    code = eval_trec(trec, **files)
    out, err = capsys.readouterr()
    return code, out, err, table.read_text() if table.exists() else None


def test_eval_forks_nothing_and_parses_the_qrels_once(trec, capsys, monkeypatch):
    forks = mock.Mock(wraps=os.fork)
    parses = mock.Mock(wraps=formats.parse_qrels)
    monkeypatch.setattr(os, "fork", forks)
    monkeypatch.setattr(formats, "parse_qrels", parses)
    assert eval_trec(trec) == 0
    assert "t_test_mrr_p=" in capsys.readouterr().out
    assert (forks.call_count, parses.call_count) == (0, 1)


def test_eval_baseline_that_shares_no_query_exits_2_after_the_means(trec, capsys):
    _, out, _, table = eval_outputs(trec, capsys)
    (trec / "other.txt").write_text("q9 Q0 d1 1 1.0 base\n")
    means = "".join(line for line in out.splitlines(keepends=True)
                    if not line.startswith("t_test_"))
    assert eval_outputs(trec, capsys, baseline="other.txt") == (
        2, means, "segtrain: error: run and qrels share no queries\n", table)


# Each query's first relevant document is at rank 2.
DEEP_BASELINE = """\
q1 Q0 d2 1 3.0 base
q1 Q0 d1 2 2.0 base
q1 Q0 d3 3 1.0 base
q2 Q0 d9 1 3.0 base
q2 Q0 d4 2 2.0 base
q2 Q0 d5 3 1.0 base
q3 Q0 d7 1 2.0 base
q3 Q0 d6 2 1.0 base
"""


@pytest.mark.parametrize("cutoff, k", [(2, 1), (1, 2)])
def test_eval_t_test_reads_the_whole_baseline_within_the_depths(trec, capsys,
                                                                 cutoff, k):
    """The first max(mrr_cutoff, ndcg_k) entries of each baseline
    ranking, which are all that is read, give the p-values of the full
    rankings."""
    (trec / "deep.txt").write_text(DEEP_BASELINE)
    (trec / "config.txt").write_text(f"mrr_cutoff={cutoff}\nndcg_k={k}\n")
    assert main(["eval", "--config", str(trec / "config.txt"),
                 "--run", str(trec / "run.txt"), "--qrels", str(trec / "qrels.txt"),
                 "--baseline-run", str(trec / "deep.txt")]) == 0
    printed = dict(line.split("=") for line in capsys.readouterr().out.splitlines()
                   if not line.startswith("#"))
    with open(trec / "qrels.txt") as stream:
        judgments = formats.parse_qrels(stream)
    tables = []
    for name in ("run.txt", "deep.txt"):
        with open(trec / name) as stream:
            tables.append(judged_metrics(columns(formats.parse_run(stream)), judgments,
                                         ideal_dcgs(judgments, k), cutoff, k))
    table, base = tables
    assert any(base[q][cutoff < k] > 0 for q in base)  # read at rank 2
    for i, name in enumerate(("t_test_mrr_p", "t_test_ndcg_p")):
        expected = paired_t_test([table[q][i] for q in table], [base[q][i] for q in table])
        assert printed[name] == f"{expected:.6f}"


BAD_BASELINE = BASELINE.replace("q1 Q0 d2 2 2.0 base", "q1 Q0 d2 2 2.0")


def test_eval_bad_baseline_exits_2_with_its_line_after_the_means(trec, capsys):
    _, out, _, table = eval_outputs(trec, capsys)
    (trec / "bad.txt").write_text(BAD_BASELINE)
    means = "".join(line for line in out.splitlines(keepends=True)
                    if not line.startswith("t_test_"))
    assert means.endswith("\nndcg@10=0.408403\n")
    assert eval_outputs(trec, capsys, baseline="bad.txt") == (
        2, means, "segtrain: error: line 2: expected 6 fields, got 5\n", table)


@pytest.mark.parametrize("bad", ["run", "qrels"])
def test_eval_bad_run_or_qrels_wins_over_a_bad_baseline(trec, capsys, bad):
    (trec / "bad.txt").write_text(BAD_BASELINE)
    if bad == "run":
        (trec / "run.txt").write_text(RUN.replace("q2 Q0 d9 2", "q2 Q0 d9 0"))
        message = "line 6: rank 0 is below 1"
    else:
        (trec / "qrels.txt").write_text(QRELS.replace("q2 0 d4 1", "q2 0 d4 x"))
        message = "line 4: "
    code, out, err, table = eval_outputs(trec, capsys, baseline="bad.txt")
    assert code == 2 and out == "" and table is None
    assert err.startswith(f"segtrain: error: {message}")


def test_eval_missing_baseline_exits_2_after_the_means(trec, capsys):
    _, out, _, table = eval_outputs(trec, capsys)
    means = "".join(line for line in out.splitlines(keepends=True)
                    if not line.startswith("t_test_"))
    assert eval_outputs(trec, capsys, baseline="missing.txt") == (
        2, means, "segtrain: error: [Errno 2] No such file or directory: "
                  f"{str(trec / 'missing.txt')!r}\n", table)


# ---------------------------------------------------------------------------
# eval reads the top of each ranking through a cache beside each run

def python(script: str) -> subprocess.CompletedProcess:
    """`script` run by a new interpreter that imports this package."""
    src = str(Path(segtrain.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})


def eval_cached(trec: Path, *extra: str, prelude: str = "") -> tuple:
    """Exit code, stdout, stderr and per-query table of `eval` on the
    files in `trec`, in a new process that caches the top of a run of
    any size and runs `prelude` first."""
    table = trec / "per_query.tsv"
    table.unlink(missing_ok=True)
    args = ["eval", "--run", str(trec / "run.txt"), "--qrels", str(trec / "qrels.txt"),
            "--per-query", str(table), *extra]
    result = python("import sys\n"
                    "from segtrain import cache, formats\n"
                    "from segtrain.cli import main\n"
                    "formats.MIN_CACHED_RUN_BYTES = 1\n"
                    f"{prelude}"
                    f"sys.exit(main({args!r}))\n")
    return (result.returncode, result.stdout, result.stderr,
            table.read_text() if table.exists() else None)


# A prelude under which parsing a run file, not a cache's body, fails.
NO_FILE_PARSE = ("import io\n"
                 "def parse_run(stream, parse=formats.parse_run):\n"
                 "    assert not isinstance(stream, io.TextIOWrapper), 'parsed a file'\n"
                 "    return parse(stream)\n"
                 "formats.parse_run = parse_run\n")


def full_parse_outputs(trec: Path, baseline: bool) -> tuple:
    """What `eval_cached` should give: the figures of `judged_metrics`
    over a full `parse_run` of the run and of the baseline."""
    with open(trec / "qrels.txt") as stream:
        judgments = formats.parse_qrels(stream)
    tables = []
    for name in ("run.txt", "baseline.txt")[:1 + baseline]:
        with open(trec / name) as stream:
            tables.append(judged_metrics(columns(formats.parse_run(stream)), judgments,
                                         ideal_dcgs(judgments, 10), 10, 10))
    table = tables[0]
    mean_rr, mean_ndcg = table_means(table, judgments)
    out = f"# mrr_cutoff=10\n# ndcg_k=10\nmrr={mean_rr:.6f}\nndcg@10={mean_ndcg:.6f}\n"
    if baseline:
        shared = sorted(table.keys() & tables[1].keys())
        for i, name in enumerate(("t_test_mrr_p", "t_test_ndcg_p")):
            p = paired_t_test([table[q][i] for q in shared], [tables[1][q][i] for q in shared])
            out += f"{name}={p:.6f}\n"
    rows = "".join(f"{qid}\t{rr:.6f}\t{nd:.6f}\n" for qid, (rr, nd) in sorted(table.items()))
    return 0, out, "", "qid\tmrr\tndcg@10\n" + rows


@pytest.mark.parametrize("baseline", [False, True], ids=["run", "with baseline"])
def test_eval_outputs_equal_on_a_miss_a_hit_and_a_full_parse(trec, baseline):
    extra = ["--baseline-run", str(trec / "baseline.txt")] if baseline else []
    expected = full_parse_outputs(trec, baseline)
    assert eval_cached(trec, *extra, prelude=NO_FILE_PARSE)[0] == 1  # a miss parses
    assert eval_cached(trec, *extra) == expected  # a first read keeps the keys
    assert (trec / "run.txt.top").exists()
    assert (trec / "baseline.txt.top").exists() == baseline
    assert eval_cached(trec, *extra, prelude=NO_FILE_PARSE)[0] == 1
    assert eval_cached(trec, *extra) == expected  # a second read writes the bodies
    assert eval_cached(trec, *extra, prelude=NO_FILE_PARSE) == expected  # a hit


def test_eval_writes_every_cache_in_its_own_process(trec):
    log = ("import os\n"
           "def _write_cache(key, suffix, body, write=cache._write_cache):\n"
           "    os.write(2, f'{os.getpid()} {key.path}{suffix}\\n'.encode())\n"
           "    write(key, suffix, body)\n"
           "cache._write_cache = _write_cache\n"
           "os.write(2, f'{os.getpid()} eval\\n'.encode())\n")
    for _ in range(2):  # the keys, then the bodies
        code, _, err, _ = eval_cached(trec, "--baseline-run", str(trec / "baseline.txt"),
                                      prelude=log)
        writes = [line.split(" ", 1) for line in err.splitlines()]
        pid = writes[0][0]
        assert code == 0 and writes == [[pid, "eval"], [pid, f"{trec / 'run.txt'}.top"],
                                        [pid, f"{trec / 'baseline.txt'}.top"]]
    assert eval_cached(trec, "--baseline-run", str(trec / "baseline.txt"),
                       prelude=NO_FILE_PARSE)[0] == 0  # both bodies were written


@pytest.mark.parametrize("bad, line_no", [("run", 7), ("baseline", 6)])
def test_eval_malformed_run_is_never_cached(trec, bad, line_no):
    text = (trec / f"{bad}.txt").read_text()
    (trec / f"{bad}.txt").write_text(text.replace("q2 Q0 d9 ", "q2 Q0 d4 ", 1))
    first = eval_cached(trec, "--baseline-run", str(trec / "baseline.txt"))
    assert first[0] == 2
    assert first[2] == (f"segtrain: error: line {line_no}: "
                        f"duplicate doc_id 'd4' for query 'q2'\n")
    assert eval_cached(trec, "--baseline-run", str(trec / "baseline.txt")) == first
    assert not (trec / f"{bad}.txt.top").exists()


def overflowing(args: list[str], out: Path) -> None:
    """`args` run in a new process exit 2 with the one line that names a
    non-finite score, no warning, and no file at `out`."""
    result = python(f"import sys\nfrom segtrain.cli import main\nsys.exit(main({args!r}))\n")
    assert (result.returncode, result.stderr) == (
        2, "segtrain: error: non-finite scores\n")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_train_whose_step_overflows_exits_2_without_a_warning(tmp_path, kind):
    # the linear scores overflow in a step's batch, the mlp's in the dev
    # ranking after a step leaves weights near 1e306
    config = {"num_queries": 20, "epochs": 3, "max_iterations": 2,
              "learning_rate": "1e308", "scorer_kind": kind}
    assert synth(config, tmp_path) == 0
    overflowing(["train", "--mode", "best", *inputs(tmp_path),
                 "--qrels", str(tmp_path / "qrels.txt"),
                 "--out", str(tmp_path / "model.txt")], tmp_path / "model.txt")


@pytest.mark.parametrize("command", ["select", "rerank"])
def test_a_model_whose_scores_overflow_exits_2_without_a_warning(tmp_path, command):
    assert synth({"num_queries": 20}, tmp_path) == 0
    model = tmp_path / "model.txt"
    model.write_text("segtrain-model v1 kind=linear dim=7 hidden=0\n"
                     + "1e308\n" * 7 + "0\n")
    overflowing([command, *inputs(tmp_path), "--model", str(model),
                 "--out", str(tmp_path / "out")], tmp_path / "out")


SELECTION = '{"doc_id": "d1", "qid": "q1", "score": 0.5, "segment_index": 1}\n'
GOLD = '{"doc_id": "d1", "gold_segment_index": 1, "qid": "q1"}\n'


def test_eval_commands_do_not_import_numpy(trec):
    # nor the corpus code: `formats` loads `corpus` only to read a corpus
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
              "assert 'numpy' not in sys.modules\n"
              "assert 'segtrain.corpus' not in sys.modules\n")
    src = str(Path(segtrain.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert "segment_p_at_1=1.000000" in result.stdout


def test_a_linear_select_and_rerank_on_a_stores_hit_do_not_import_numpy(tmp_path,
                                                                         monkeypatch):
    # a linear model scores the cached rows in plain Python; an mlp scores
    # through numpy, and either gives the same bytes on a hit as on a miss
    data = tmp_path / "data"
    assert synth(TINY_CONFIG, data) == 0
    (tmp_path / "mlp.txt").write_text((data / "config.txt").read_text()
                                      + "scorer_kind=mlp\n")
    lowered = ("import sys\n"
               "from segtrain import cache\n"
               "from segtrain.cli import main\n"
               "cache.MIN_CACHED_BYTES = 1\n")
    train = ["train", "--mode", "theta0", *inputs(data), "--qrels", str(data / "qrels.txt")]
    result = python(lowered + f"assert main({[*train, '--out', str(tmp_path / 'linear')]!r})"
                    " == 0\n")
    assert result.returncode == 0, result.stderr
    assert (data / "corpus.jsonl.stores").exists()
    assert main([*train, "--config", str(tmp_path / "mlp.txt"),
                 "--out", str(tmp_path / "mlp")]) == 0

    def commands(kind: str, out: Path) -> list[list[str]]:
        model = ["--model", str(tmp_path / kind)]
        return [["select", *inputs(data), *model, "--out", str(out / "selection.jsonl")],
                *(["rerank", *inputs(data), *model, "--mode", mode,
                   "--out", str(out / f"run-{mode}.txt")] for mode in ("maxp", "firstp"))]

    outputs = {}
    for kind in ("linear", "mlp"):
        for source in ("hit", "miss"):
            out = tmp_path / f"{kind}-{source}"
            out.mkdir()
            if source == "miss":
                for args in commands(kind, out):
                    assert main(args) == 0
            else:
                script = lowered + (f"for args in {commands(kind, out)!r}:\n"
                                    "    assert main(args) == 0\n"
                                    "print('numpy' in sys.modules)\n")
                result = python(script)
                assert result.returncode == 0, result.stderr
                assert result.stdout.splitlines()[-1] == str(kind == "mlp")
            outputs[kind, source] = {path.name: path.read_bytes()
                                     for path in sorted(out.iterdir())}
        assert len(outputs[kind, "hit"]) == 3
        assert outputs[kind, "hit"] == outputs[kind, "miss"], kind
    assert outputs["linear", "hit"] != outputs["mlp", "hit"]


# The submodules each command loads; every command loads `READS`.
# `select` and `rerank` score a linear model on a stores hit, and `eval`
# reads a run under `formats.MIN_CACHED_RUN_BYTES`, without `cache`.
READS = {"cli", "formats", "evaluation"}
COMMAND_MODULES = {
    "train": READS | {"config", "cache", "corpus", "ranking", "scorer", "training"},
    "select": READS | {"config", "cache", "corpus", "ranking"},
    "rerank": READS | {"config", "cache", "corpus", "ranking"},
    "eval": READS | {"config"},
    "eval-selection": READS,
}


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # each command runs in a new interpreter; one that reads a corpus
    # imports `cache` first to lower its floor, as it would load it anyway
    data = tmp_path / "data"
    assert synth(TINY_CONFIG, data) == 0
    model, out = tmp_path / "model.txt", tmp_path / "out"
    commands = {
        "train": ["train", "--mode", "theta0", *inputs(data),
                  "--qrels", str(data / "qrels.txt"), "--out", str(model)],
        "select": ["select", *inputs(data), "--model", str(model),
                   "--out", str(out / "selection.jsonl")],
        "rerank": ["rerank", *inputs(data), "--model", str(model),
                   "--out", str(out / "run.txt")],
        "eval": ["eval", "--config", str(data / "config.txt"), "--run", str(out / "run.txt"),
                 "--qrels", str(data / "qrels.txt")],
        "eval-selection": ["eval-selection", "--selection", str(out / "selection.jsonl"),
                           "--gold", str(data / "gold.jsonl")],
    }
    out.mkdir()
    for command, args in commands.items():
        lowered = ("from segtrain import cache\ncache.MIN_CACHED_BYTES = 1\n"
                   if "--corpus" in args else "")
        result = python("import sys\n" + lowered
                        + "from segtrain.cli import main\n"
                        f"assert main({args!r}) == 0\n"
                        "print(sorted(name for name in sys.modules\n"
                        "             if name.startswith('segtrain.')))\n"
                        "print(sorted({'numpy', 'dataclasses'} & set(sys.modules)))\n")
        assert result.returncode == 0, result.stderr
        modules, loaded = map(ast.literal_eval, result.stdout.splitlines()[-2:])
        assert modules == sorted(f"segtrain.{name}" for name in COMMAND_MODULES[command]), \
            command
        assert loaded == {"train": ["dataclasses", "numpy"], "select": ["dataclasses"],
                          "rerank": ["dataclasses"]}.get(command, []), command
    assert (data / "corpus.jsonl.stores").exists()


@pytest.mark.parametrize("command, flag", [
    ("eval", "--seed"), ("eval", "--out"),
    ("eval-selection", "--seed"), ("eval-selection", "--out"),
    ("eval-selection", "--config"),
])
def test_eval_commands_take_only_the_flags_they_read(trec, capsys, command, flag):
    (trec / "selection.jsonl").write_text(SELECTION)
    (trec / "gold.jsonl").write_text(GOLD)
    out = trec / "out"
    args = {"eval": ["--run", str(trec / "run.txt"), "--qrels", str(trec / "qrels.txt")],
            "eval-selection": ["--selection", str(trec / "selection.jsonl"),
                               "--gold", str(trec / "gold.jsonl")]}[command]
    with pytest.raises(SystemExit) as info:
        main([command, flag, "5" if flag == "--seed" else str(out), *args])
    assert info.value.code == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", [
    '{"qid": "q1", "doc_id": "d1", "segment_index": Infinity}',
    '{"qid": "q1", "doc_id": "d1", "segment_index": 1, "score": 1' + "0" * 400 + "}",
    "[" * 100000 + "]" * 100000,
    '{"qid": "q1", "doc_id": "d1", "segment_index": 1.7}',
    '{"qid": "q1", "doc_id": "d1", "segment_index": true}',
    '{"qid": "q1", "doc_id": "d1", "segment_index": "2"}',
    '{"qid": 1, "doc_id": "d1", "segment_index": 1}',
    '{"qid": "q1", "doc_id": null, "segment_index": 1}',
    '{"qid": "q1", "doc_id": "d1", "segment_index": 1, "score": "1.5"}',
    '{"qid": "q1", "doc_id": "d1", "segment_index": 1, "score": true}',
], ids=["infinity", "long", "deep", "float", "bool", "string", "qid number", "doc_id null",
        "score string", "score bool"])
def test_eval_selection_bad_record_exits_2_with_line(trec, capsys, line):
    (trec / "selection.jsonl").write_text(SELECTION + line + "\n")
    (trec / "gold.jsonl").write_text(GOLD)
    assert main(["eval-selection", "--selection", str(trec / "selection.jsonl"),
                 "--gold", str(trec / "gold.jsonl")]) == 2
    assert "segtrain: error: line 2: " in capsys.readouterr().err
