import array
import ast
import codecs
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import signal
import struct
import sys
import tempfile
import time
import zlib
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from document_oracle import (
    Document,
    compute_corpus_stats,
    document_view,
    parse_documents,
    synth_documents,
    write_corpus,
)
from e2e_utils import scored_terms
from segtrain.corpus import CorpusStats, Query, SegmentationPolicy, inference_windows
from segtrain import cache, formats, scorer, synth, training
from segtrain.evaluation import group_qrels
from segtrain.config import (
    SCORER_KINDS,
    ConfigError,
    LossKind,
    PipelineConfig,
    SynthConfig,
    TrainConfig,
)
from segtrain.formats import (
    ParseError,
    _lines,
    parse_candidates,
    parse_config,
    parse_corpus,
    parse_gold,
    parse_queries,
    parse_qrels,
    parse_run,
    parse_selection,
    write_candidates,
    write_config,
    write_gold,
    write_qrels,
    write_queries,
    write_run,
    write_selection,
)
from segtrain.ranking import RankedList, RankEntry
from segtrain.scorer import init_params
from segtrain.synth import generate_corpus


tokens = st.text("abz09", min_size=1, max_size=4)
sentences = st.lists(st.lists(tokens, max_size=5), max_size=5)


@st.composite
def corpora(draw):
    ids = draw(st.lists(st.text(min_size=1, max_size=6), unique=True, max_size=4))
    return [Document(doc_id, draw(st.text(max_size=8)), draw(sentences))
            for doc_id in ids]


def round_trip(documents: list[Document]) -> tuple[str, dict[str, Document]]:
    out = io.StringIO()
    write_corpus(documents, out)
    return out.getvalue(), parse_documents(io.StringIO(out.getvalue()))


class TestCorpusRoundTrip:
    @settings(max_examples=80)
    @given(corpora())
    @example([Document("d", "", [[]])])
    @example([Document("d", "", [[], []])])
    @example([Document("d", "Title: Ünïcode\t", [[], ["a"], []])])
    @example([Document("d", "", [])])
    def test_parse_inverts_write(self, documents):
        text, parsed = round_trip(documents)
        assert list(parsed.values()) == documents
        rewritten = io.StringIO()
        write_corpus(parsed.values(), rewritten)
        assert rewritten.getvalue() == text

    def test_synthetic_corpus(self):
        cfg = SynthConfig(num_queries=3, docs_per_query=2, sentences_per_doc=6,
                          tokens_per_sentence=20, vocab_size=100,
                          max_tokens=64, min_tokens=32)
        corpus = generate_corpus(cfg)
        documents = synth_documents(corpus)
        text, parsed = round_trip(documents)
        assert list(parsed.values()) == documents
        written = io.StringIO()
        synth.write_corpus(corpus, written)
        assert written.getvalue() == text
        rewritten = io.StringIO()
        write_corpus(parsed.values(), rewritten)
        assert rewritten.getvalue() == text


query_terms = st.sampled_from(["a", "b", "z", "a0", "9"])
view_tokens = query_terms | tokens


@st.composite
def scored_corpora(draw):
    """Documents over a vocabulary that holds query terms, and for each
    document the tokens of the queries that list it as a candidate."""
    queries = draw(st.lists(st.lists(query_terms, max_size=4), min_size=1, max_size=3))
    n_docs = draw(st.integers(1, 4))
    documents, doc_terms = [], {}
    for i in range(n_docs):
        title = " ".join(draw(st.lists(view_tokens, max_size=3)))
        sentences = draw(st.lists(st.lists(view_tokens, max_size=5), max_size=5))
        documents.append(Document(f"d{i}", title, sentences))
        listed_by = draw(st.sets(st.integers(0, len(queries) - 1)))
        if listed_by:
            doc_terms[f"d{i}"] = set().union(*(queries[k] for k in listed_by))
    return documents, doc_terms


class TestCorpusViews:
    """The parse straight into views equals the oracle's parse into
    documents, projected to views, and gives the statistics the oracle
    counts over the documents."""

    @settings(max_examples=150)
    @given(scored_corpora(), st.integers(1, 30))
    @example(([Document("d0", "a", [["b", "a"], [], ["a0", "a"]]),
               Document("d1", "Z, b!", [[], ["9"]])],
              {"d0": {"a", "b", "z"}, "d1": {"a", "b", "9"}}), 3)
    @example(([Document("d0", "", [])], {}), 1)
    def test_parse_equals_document_projection(self, corpus, max_tokens):
        documents, doc_terms = corpus
        text, _ = round_trip(documents)
        views, df = parse_corpus(io.StringIO(text), doc_terms)
        assert list(views) == [doc.id for doc in documents]
        for doc in documents:
            assert views[doc.id] == document_view(doc, doc_terms.get(doc.id, ()))
        terms = set().union(*doc_terms.values())
        expected = compute_corpus_stats(documents, max_tokens, terms)
        stats = CorpusStats.from_windows(inference_windows(views, max_tokens), df)
        assert stats == expected and stats.document_frequency is df
        assert stats.avg_segment_length.hex() == expected.avg_segment_length.hex()

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.text("aZz09.!? \t\n,#-éİß\xa0", max_size=30),
                              st.text("aZz09 .é", max_size=6)), min_size=1, max_size=3),
           st.sets(st.sampled_from(["a", "z", "az", "0", "9", "a0"])))
    @example([("Az. z0!  a.\n", "z"), ("İZ. Kß.\xa0x é az", "A.Z")], {"a", "z", "az"})
    def test_ascii_and_non_ascii_bodies(self, records, terms):
        text = "".join(json.dumps({"doc_id": f"d{i}", "title": title, "body": body}) + "\n"
                       for i, (body, title) in enumerate(records))
        doc_terms = {"d0": terms}
        views, df = parse_corpus(io.StringIO(text), doc_terms)
        documents = parse_documents(io.StringIO(text))
        for doc_id, doc in documents.items():
            assert views[doc_id] == document_view(doc, doc_terms.get(doc_id, ()))
        assert df == compute_corpus_stats(list(documents.values()), 512,
                                          terms).document_frequency


CORPUS_WORDS = ["alpha", "Beta", "γάμμα", "ß", "naïve", "9", "\u2028", ".", "!"]
BAD_LINES = ['{"doc_id": "x", "title": "t"', "5", '{"doc_id": "d0", "title": "", "body": ""}']


@st.composite
def corpus_files(draw) -> bytes:
    """A corpus file whose lines end in "\n" or "\r\n".  Bodies may be
    non-ASCII, some lines are blank, and some examples hold a malformed
    line or repeat doc_id d0."""
    records = draw(st.lists(st.tuples(st.lists(st.sampled_from(CORPUS_WORDS), max_size=12),
                                      st.sampled_from(CORPUS_WORDS), st.booleans()),
                            min_size=1, max_size=8))
    lines = [json.dumps({"doc_id": f"d{i}", "title": title, "body": " ".join(body)},
                        ensure_ascii=ascii_only)
             for i, (body, title, ascii_only) in enumerate(records)]
    extra = draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=3))
    extra += draw(st.lists(st.sampled_from(BAD_LINES), max_size=2))
    for line in extra:
        lines.insert(draw(st.integers(0, len(lines))), line)
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                            max_size=len(lines)))
    if draw(st.booleans()):
        endings[-1] = ""  # no newline at the end of the file
    return "".join(line + end for line, end in zip(lines, endings)).encode()


@st.composite
def query_pools(draw) -> tuple[list[Query], dict[str, list[str]]]:
    """Queries over the words of `corpus_files`, and candidate pools of
    doc ids that such a file may or may not hold."""
    words = st.lists(st.sampled_from(["alpha", "beta", "γάμμα", "ß", "9"]), max_size=3)
    queries = [Query.from_text(f"q{i}", " ".join(draw(words)))
               for i in range(draw(st.integers(0, 3)))]
    doc_ids = st.lists(st.sampled_from(["d0", "d1", "d2", "d5"]), unique=True, max_size=3)
    return queries, {query.id: draw(doc_ids) for query in queries}


def parse_file(path: Path, queries: list[Query], candidates: dict[str, list[str]]):
    """parse_corpus of the file at `path` with the scored terms of
    `queries` and `candidates`, or its error text."""
    with open(path) as stream:
        try:
            views, df = parse_corpus(stream, scored_terms(queries, candidates))
            return list(views.items()), list(df.items())
        except ParseError as exc:
            return str(exc)


def missing_candidate(queries: list[Query], candidates: dict[str, list[str]],
                      doc_ids: list[str]) -> str | None:
    """The error `read_stores` raises for the first candidate of a listed
    query that is not among `doc_ids`, or None."""
    for query in queries:
        for doc_id in candidates.get(query.id, []):
            if doc_id not in doc_ids:
                return f"candidate {doc_id!r} of query {query.id!r} is not in the corpus"
    return None


def doc_line(doc_id: str, body: str = "alpha beta.") -> str:
    return json.dumps({"doc_id": doc_id, "title": "alpha", "body": body})


# A corpus, the queries and candidate pools that score it, and the
# segmentation policy of its stores.
CACHED_CORPUS = "".join(doc_line(f"d{i}", body) + "\n" for i, body in
                        enumerate(["alpha beta.", "beta gamma. alpha.", "ß 9."]))
CACHED_QUERIES = [Query.from_text("q0", "alpha"), Query.from_text("q1", "beta")]
CACHED_CANDIDATES = {"q0": ["d0", "d1"], "q1": ["d1"]}
CACHED_POLICY = SegmentationPolicy("training", 8, 4, 3, 1, 0)

# The members of a stores cache's key, as `read_stores` documents them.
STORES_KEY = {"format", "code", "python", "byteorder", "width", "size", "crc32",
              "encoding", "errors", "policy", "pools"}


def rechecked(edit):
    """A corruption that applies `edit` to the body of a stores cache, its
    row counts and rows as one int64 array, and checksums it again."""
    def corrupt(data: bytes) -> bytes:
        start = data.index(b"\n") + 1
        body = array.array("q", data[start:-4])
        edit(body)
        return data[:start] + body.tobytes() + zlib.crc32(body).to_bytes(4, "little")
    return corrupt


def without_rows(body: array.array) -> None:
    """The first pair's rows given to the second: the row total is kept."""
    body[0], body[1] = 0, body[0] + body[1]


def negative_rows(body: array.array) -> None:
    """The first pair's count made -1: the row total is kept."""
    body[0], body[1] = -1, body[0] + body[1] + 1


def cut_counts(data: bytes) -> bytes:
    """A stores cache cut inside its row counts and checksummed again."""
    start = data.index(b"\n") + 1
    body = data[start:start + 20]
    return data[:start] + body + zlib.crc32(body).to_bytes(4, "little")


STORES_CORRUPTIONS = {
    "empty": lambda data: b"",
    "header only": lambda data: data[:data.index(b"\n") + 1],
    "truncated": lambda data: data[:len(data) // 2],
    "one byte more": lambda data: data + b"\0",
    "another key": lambda data: data.replace(b'"crc32": ', b'"crc32": 1', 1),
    "row byte flipped": lambda data: data[:-20] + bytes([data[-20] ^ 1]) + data[-19:],
    "checksum flipped": lambda data: data[:-1] + bytes([data[-1] ^ 1]),
    "a pair without rows": rechecked(without_rows),
    "a row count too many": rechecked(lambda body: body.__setitem__(0, body[0] + 1)),
    "a value missing": rechecked(lambda body: body.pop()),
    "a value more": rechecked(lambda body: body.append(0)),
    "a negative row count": rechecked(negative_rows),
    "row counts cut short": cut_counts,
}


def store_bytes(stores) -> list[tuple[list[int], bytes]]:
    """Each store's row counts and the bytes of its rows."""
    return [(counts, rows.tobytes()) for counts, rows in stores]


@contextlib.contextmanager
def stores_keys():
    """The stores cache keys `cache._corpus_key` takes, None for a file
    that gets no cache, while the block runs."""
    keys = []

    def corpus_key(*args, real=cache._corpus_key):
        keys.append(real(*args))
        return keys[-1]

    with mock.patch.object(cache, "_corpus_key", corpus_key):
        yield keys


def owner(name: str):
    """The module that defines `name`: `formats` for a parser, `cache`
    for a rule of the caches."""
    return formats if hasattr(formats, name) else cache


class TestStoresCache:
    """A corpus file of at least `MIN_CACHED_BYTES` keeps the feature
    stores built from it in `<file>.stores`.  A hit gives what a fresh
    build gives without reading the text; any other cache is a miss,
    which parses the text, and the stores built from that replace it."""

    @staticmethod
    def read(path: Path, queries: list = CACHED_QUERIES,
             candidates: dict = CACHED_CANDIDATES, policy=CACHED_POLICY,
             errors: str = "strict", encoding: str = "utf-8", **patches):
        """The two stores of the corpus at `path`, as the commands read
        them (`read_stores`), as (row counts, row bytes), and whether they
        were a hit: whether `cache._load_stores` gave them."""
        loads = []

        def load_stores(*args, real=cache._load_stores):
            loads.append(real(*args))
            return loads[-1]

        with contextlib.ExitStack() as stack:
            for name, value in {"MIN_CACHED_BYTES": 1, "_load_stores": load_stores,
                                **patches}.items():
                stack.enter_context(mock.patch.object(owner(name), name, value))
            with open(path, encoding=encoding, errors=errors) as stream:
                stores = formats.read_stores(stream, queries, candidates, policy)
        return store_bytes(stores), loads[-1:] not in ([], [None])

    def uncached(self, path: Path, **inputs):
        """The stores a read with no cache builds."""
        return self.read(path, MIN_CACHED_BYTES=1 << 62, **inputs)[0]

    @staticmethod
    def corpus(tmp_path: Path) -> Path:
        path = tmp_path / "corpus.jsonl"
        path.write_text(CACHED_CORPUS)
        return path

    @settings(max_examples=60, deadline=None)
    @given(corpus_files(), query_pools())
    def test_a_miss_equals_a_fresh_parse(self, data, pools):
        # taking the key reads the file, not the stream, so the parse
        # that follows gives the stores their views and document
        # frequency as a plain parse gives them, or its error, or else
        # names a candidate the corpus lacks; only stores built from a
        # parse that passed every check are cached
        queries, candidates = pools
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.jsonl"
            path.write_bytes(data)
            fresh = parse_file(path, queries, candidates)
            if not isinstance(fresh, str):
                fresh = missing_candidate(queries, candidates,
                                          [doc_id for doc_id, _ in fresh[0]]) or fresh
            built = []

            def build_stores(*args, real=training.build_stores):
                built.append(args)
                return real(*args)

            with mock.patch.object(training, "build_stores", build_stores):
                try:
                    stores, hit = self.read(path, queries, candidates)
                except ParseError as exc:
                    assert str(exc) == fresh and not built
                    assert [p.name for p in Path(tmp).iterdir()] == ["corpus.jsonl"]
                    return
            [(_, _, views, _, stats, _)] = built
            assert (list(views.items()), list(stats.document_frequency.items())) == fresh
            assert not hit and stores == self.uncached(path, queries=queries,
                                                       candidates=candidates)
            assert sorted(p.name for p in Path(tmp).iterdir()) == [
                "corpus.jsonl", "corpus.jsonl.stores"]

    @settings(max_examples=40, deadline=None)
    @given(corpus_files(), query_pools())
    def test_a_hit_equals_a_fresh_build(self, data, pools):
        queries, candidates = pools
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.jsonl"
            path.write_bytes(data)
            fresh = parse_file(path, queries, candidates)
            if isinstance(fresh, str):  # only a parse that succeeds is cached
                with pytest.raises(ParseError):
                    self.read(path, queries, candidates)
                assert [p.name for p in Path(tmp).iterdir()] == ["corpus.jsonl"]
                return
            ids = [doc_id for doc_id, _ in fresh[0]]
            candidates = {qid: [d for d in pool if d in ids]
                          for qid, pool in candidates.items()}
            built = self.uncached(path, queries=queries, candidates=candidates)
            assert self.read(path, queries, candidates) == (built, False)
            assert self.read(path, queries, candidates) == (built, True)

    def test_a_hit_reads_no_text(self, tmp_path):
        path = self.corpus(tmp_path)
        fresh, _ = self.read(path)

        def parse_corpus(*args, **kwargs):
            raise AssertionError("parsed on a hit")

        assert self.read(path, parse_corpus=parse_corpus) == (fresh, True)

    def test_a_touched_corpus_is_still_a_hit(self, tmp_path):
        # the key holds the size and the CRC-32 of the bytes, not the times
        path = self.corpus(tmp_path)
        fresh, _ = self.read(path)
        os.utime(path, ns=(0, 0))
        assert self.read(path) == (fresh, True)

    @pytest.mark.parametrize("change", ["one byte", "query token", "candidate moved",
                                        "policy", "format version", "source",
                                        "python version", "byte order", "encoding"])
    def test_a_changed_key_is_a_miss(self, tmp_path, change):
        path = self.corpus(tmp_path)
        cached, hit = self.read(path)
        assert not hit and self.read(path) == (cached, True)
        header = json.loads(Path(f"{path}.stores").read_bytes().partition(b"\n")[0])
        assert set(header) == STORES_KEY  # no input the pools derive
        assert all(f"`{name}`" in formats.read_stores.__doc__ for name in STORES_KEY)
        inputs, patches = {}, {}
        system = {"version": sys.version, "byteorder": sys.byteorder}
        if change == "one byte":  # same size and modification time
            times = os.stat(path).st_atime_ns, os.stat(path).st_mtime_ns
            path.write_text(CACHED_CORPUS.replace("gamma", "alpha"))
            os.utime(path, ns=times)
        elif change == "query token":
            inputs = {"queries": [CACHED_QUERIES[0], Query.from_text("q1", "gamma")]}
        elif change == "candidate moved":  # from q0 to q1: still three pairs
            inputs = {"candidates": {"q0": ["d1"], "q1": ["d1", "d0"]}}
        elif change == "policy":
            inputs = {"policy": dataclasses.replace(CACHED_POLICY, seed=2)}
        elif change == "format version":
            patches = {"STORES_FORMAT": cache.STORES_FORMAT + 1}
        elif change == "source":
            patches = {"_sources_crc":
                       lambda sources, real=cache._sources_crc: real(sources) ^ 1}
        elif change == "python version":
            system["version"] += "+"
        elif change == "byte order":  # the key's only: the rows are native
            system["byteorder"] = {"little": "big", "big": "little"}[sys.byteorder]
        else:  # decodes this ASCII file as UTF-8 does
            patches = {"encoding": "utf-8-sig"}
        with mock.patch.multiple(sys, **system):
            fresh, hit = self.read(path, **inputs, **patches)
            assert not hit and self.read(path, **inputs, **patches) == (fresh, True)
        assert fresh == self.uncached(path, **inputs)
        if change != "one byte" and not inputs:
            assert fresh == cached

    def test_replaced_decoding_never_serves_a_strict_reader(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(CACHED_CORPUS.encode().replace(b"9", b"\xff"))
        replaced, hit = self.read(path, errors="replace")
        assert not hit and Path(f"{path}.stores").exists()
        with pytest.raises(ParseError, match="^line 3: utf-8 cannot decode 0xff"):
            self.read(path)
        assert self.read(path, errors="replace") == (replaced, True)

    @pytest.mark.parametrize("corrupt", STORES_CORRUPTIONS.values(), ids=STORES_CORRUPTIONS)
    def test_a_bad_cache_is_a_miss(self, tmp_path, corrupt):
        path = self.corpus(tmp_path)
        fresh, _ = self.read(path)
        cache = Path(f"{path}.stores")
        cache.write_bytes(corrupt(cache.read_bytes()))
        assert self.read(path) == (fresh, False)
        assert self.read(path) == (fresh, True)  # rewritten

    @pytest.mark.parametrize("make", [os.mkdir, os.mkfifo], ids=["directory", "fifo"])
    def test_a_cache_that_is_no_regular_file_is_a_miss(self, tmp_path, make):
        path = self.corpus(tmp_path)
        make(tmp_path / "corpus.jsonl.stores")
        fresh = self.uncached(path)
        assert self.read(path) == (fresh, False)  # without blocking
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl",
                                                              "corpus.jsonl.stores"]

    def test_a_cache_owned_by_another_user_is_a_miss(self, tmp_path):
        path = self.corpus(tmp_path)
        fresh, _ = self.read(path)
        with mock.patch.object(os, "geteuid", lambda uid=os.geteuid(): uid + 1):
            assert self.read(path) == (fresh, False)

    def test_a_linked_cache_is_a_miss_and_its_target_is_kept(self, tmp_path):
        path = self.corpus(tmp_path)
        fresh, _ = self.read(path)
        cache, target = Path(f"{path}.stores"), tmp_path / "elsewhere"
        cache.rename(target)
        cache.symlink_to(target)
        kept = target.read_bytes()
        assert self.read(path) == (fresh, False)
        assert not cache.is_symlink() and cache.read_bytes() == kept == target.read_bytes()

    def test_a_link_at_the_temporary_name_is_not_followed(self, tmp_path):
        path = self.corpus(tmp_path)
        fresh = self.uncached(path)
        target = tmp_path / "target"
        target.write_bytes(b"kept")
        Path(f"{path}.stores.{bytes(8).hex()}.tmp").symlink_to(target)
        with mock.patch.object(os, "urandom", bytes):
            assert self.read(path) == (fresh, False)
        assert target.read_bytes() == b"kept" and not Path(f"{path}.stores").exists()

    def test_a_directory_others_may_write_gets_no_cache(self, tmp_path):
        path = self.corpus(tmp_path)
        fresh = self.uncached(path)
        tmp_path.chmod(0o1777)
        assert self.read(path) == (fresh, False)
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]

    def test_a_stream_whose_name_names_another_file_gets_no_cache(self, tmp_path):
        path = self.corpus(tmp_path)
        fresh = self.uncached(path)
        with mock.patch.object(cache, "MIN_CACHED_BYTES", 1), stores_keys() as keys, \
                open(path) as stream:
            path.rename(tmp_path / "moved.jsonl")
            path.write_text(CACHED_CORPUS)
            stores = formats.read_stores(stream, CACHED_QUERIES, CACHED_CANDIDATES,
                                         CACHED_POLICY)
        assert keys == [None] and store_bytes(stores) == fresh
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl",
                                                              "moved.jsonl"]

    @pytest.mark.parametrize("kind", ["string", "pipe"])
    def test_a_stream_over_no_regular_file_gets_no_cache(self, tmp_path, kind):
        fresh = self.uncached(self.corpus(tmp_path))
        if kind == "string":
            stream = io.StringIO(CACHED_CORPUS)
        else:
            read_end, write_end = os.pipe()
            with open(write_end, "w") as pipe:
                pipe.write(CACHED_CORPUS)
            stream = open(read_end, encoding="utf-8")
        with mock.patch.object(cache, "MIN_CACHED_BYTES", 1), stores_keys() as keys, stream:
            stores = formats.read_stores(stream, CACHED_QUERIES, CACHED_CANDIDATES,
                                         CACHED_POLICY)
        assert keys == [None] and store_bytes(stores) == fresh

    def test_a_corpus_under_min_cached_bytes_gets_no_cache(self, tmp_path):
        path = self.corpus(tmp_path)
        size = path.stat().st_size
        fresh = self.uncached(path)
        assert self.read(path, MIN_CACHED_BYTES=size + 1) == (fresh, False)
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]
        assert self.read(path, MIN_CACHED_BYTES=size) == (fresh, False)
        assert self.read(path, MIN_CACHED_BYTES=size) == (fresh, True)

    def test_a_stream_already_read_gets_no_cache(self, tmp_path):
        # the key covers the whole file, but the parse reads only the rest:
        # the first document is not in it
        path = self.corpus(tmp_path)
        rest = tmp_path / "rest.jsonl"
        rest.write_text(CACHED_CORPUS.partition("\n")[2])
        inputs = {"queries": CACHED_QUERIES[1:], "candidates": {"q1": ["d2", "d1"]}}
        fresh = self.uncached(rest, **inputs)
        for candidates, error in (({"q1": ["d2", "d1"]}, None),
                                  ({"q1": ["d0"]}, "candidate 'd0' of query 'q1'")):
            with mock.patch.object(cache, "MIN_CACHED_BYTES", 1), stores_keys() as keys, \
                    open(path) as stream:
                stream.readline()
                if error is None:
                    stores = formats.read_stores(stream, CACHED_QUERIES[1:], candidates,
                                                 CACHED_POLICY)
                    assert store_bytes(stores) == fresh
                else:
                    with pytest.raises(ParseError, match=f"^{error} is not in the corpus$"):
                        formats.read_stores(stream, CACHED_QUERIES[1:], candidates,
                                            CACHED_POLICY)
            assert keys == [None]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "rest.jsonl"]

    def test_a_corpus_changed_while_parsed_gets_no_cache(self, tmp_path):
        path = self.corpus(tmp_path)
        parse = formats.parse_corpus

        def rewrite_then_parse(*args, **kwargs):
            path.write_text(CACHED_CORPUS.replace("gamma", "alpha"))
            os.utime(path, ns=(0, 0))
            return parse(*args, **kwargs)

        assert self.read(path, parse_corpus=rewrite_then_parse)[1] is False
        assert not Path(f"{path}.stores").exists()

    @pytest.mark.parametrize("move", ["deleted", "replaced by a copy"])
    def test_a_corpus_moved_while_parsed_gets_no_cache(self, tmp_path, move):
        # the open stream still reads the file whose key was taken
        path = self.corpus(tmp_path)
        fresh = self.uncached(path)
        parse = formats.parse_corpus

        def move_then_parse(*args, **kwargs):
            times = os.stat(path).st_atime_ns, os.stat(path).st_mtime_ns
            path.unlink()
            if move == "replaced by a copy":  # of the same size and times
                path.write_text(CACHED_CORPUS)
                os.utime(path, ns=times)
            return parse(*args, **kwargs)

        assert self.read(path, parse_corpus=move_then_parse) == (fresh, False)
        assert not Path(f"{path}.stores").exists()

    @pytest.mark.parametrize("call", ["open", "replace"])
    def test_an_unwritable_directory_gets_no_cache(self, tmp_path, call):
        # a read-only directory refuses the temporary file; a full disk can
        # also refuse its rename
        path = self.corpus(tmp_path)
        fresh = self.uncached(path)
        with mock.patch.object(cache.os, call, side_effect=PermissionError(13, call)):
            assert self.read(path) == (fresh, False)
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]


@pytest.mark.parametrize("how", ["serial", "cached"])
def test_corpus_lines_split_on_universal_newlines(tmp_path, how):
    # a lone "\r" ends a line, whatever newline= the stream was opened
    # with, also once `read_stores` has taken the key of the file
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(f"{doc_line('a')}\r{doc_line('c')}\n".encode())
    with mock.patch.object(cache, "MIN_CACHED_BYTES", 1), \
            open(path, newline="\n") as stream:
        if how == "cached":
            with stores_keys() as keys:
                stores = formats.read_stores(stream, CACHED_QUERIES[:1], {"q0": ["a", "c"]},
                                             CACHED_POLICY)
            assert keys[0] is not None and len(stores[0].counts) == 2
            assert Path(f"{path}.stores").exists()
        else:
            views, _ = parse_corpus(stream)
            assert list(views) == ["a", "c"]


GOOD = '{"doc_id": "d1", "title": "t", "body": "a b."}'


@pytest.mark.parametrize("bad, line_no, message", [
    ("{not json", 3, "bad JSON"),
    ('{"doc_id": "d2", "title": "t"}', 3, "missing fields: ['body']"),
    ('{"doc_id": "d1", "title": "t", "body": "c."}', 3, "duplicate doc_id 'd1'"),
    ("5", 3, "expected a JSON object"),
    ('["d2", "t", "b"]', 3, "expected a JSON object"),
    ('{"doc_id": "d2", "title": null, "body": "b."}', 3, "'title' is not a string"),
    ('{"doc_id": "d2", "title": "t", "body": ["a"]}', 3, "'body' is not a string"),
    ('{"doc_id": 7, "title": "t", "body": "b."}', 3, "'doc_id' is not a string"),
])
@pytest.mark.parametrize("parser", [parse_documents, parse_corpus])
def test_corpus_parse_error_line(bad, line_no, message, parser):
    # a blank line still counts toward the line number
    text = f"{GOOD}\n\n{bad}\n{GOOD.replace('d1', 'd3')}\n"
    with pytest.raises(ParseError) as info:
        parser(io.StringIO(text))
    assert info.value.line_no == line_no
    assert str(info.value).startswith(f"line {line_no}: ")
    assert message in str(info.value)


def undecodable_corpus(lines: int) -> tuple[bytes, int]:
    """A corpus file whose last line but one holds a byte UTF-8 cannot
    decode, and that line's number.  Lines end in "\n", "\r\n" or a
    lone "\r", some are blank, and bodies hold multi-byte characters."""
    endings = [b"\n", b"\r\n", b"\r", b"\r", b"\n"]
    data = b"".join((b"" if i % 7 == 3 else doc_line(f"d{i}", "γάμμα ß alpha.").encode())
                    + endings[i % 5] for i in range(lines - 2))
    data += doc_line("bad", "alpha XX.").encode().replace(b"XX", b"\xff")
    data += b"\n" + doc_line("last").encode() + b"\n"
    # the line as universal newlines count it, with the byte replaced
    with io.TextIOWrapper(io.BytesIO(data), errors="replace") as text:
        [line_no] = [n for n, line in enumerate(text, 1) if "\ufffd" in line]
    return data, line_no


@pytest.mark.parametrize("lines", [2, 3, 1000])
@pytest.mark.parametrize("how", ["serial", "cached"])
def test_undecodable_corpus_byte_names_its_line(tmp_path, how, lines):
    # the decoder reads ahead in chunks; 1000 lines fill several
    data, line_no = undecodable_corpus(lines)
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(data)
    with mock.patch.object(cache, "MIN_CACHED_BYTES", 1):
        if how == "cached":  # the key is taken first
            parsers = [lambda stream: formats.read_stores(stream, [], {}, CACHED_POLICY)]
        else:
            parsers = [parse_corpus, parse_documents]
        for parser in parsers:
            with open(path) as stream, pytest.raises(ParseError) as info:
                parser(stream)
            assert info.value.line_no == line_no
            assert str(info.value) == \
                f"line {line_no}: utf-8 cannot decode 0xff (invalid start byte)"
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]


@pytest.mark.parametrize("parser", [parse_queries, parse_candidates, parse_qrels,
                                    parse_run, parse_selection, parse_gold,
                                    parse_config])
@pytest.mark.parametrize("data, line_no, reason", [
    (b"q\tfine\n\xff\n", 2, "0xff (invalid start byte)"),
    (b"q\tfine\r\n\r\nq2\tb\xce\xce\n", 3, "0xce (invalid continuation byte)"),
])
def test_undecodable_byte_names_its_line(tmp_path, parser, data, line_no, reason):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    with open(path) as stream, pytest.raises(ParseError) as info:
        parser(stream)
    assert str(info.value) == f"line {line_no}: utf-8 cannot decode {reason}"


def test_undecodable_last_byte_names_its_line(tmp_path):
    path = tmp_path / "queries.tsv"
    path.write_bytes(b"q\tfine\rq2\tb\xce")
    with open(path) as stream, pytest.raises(ParseError) as info:
        parse_queries(stream)
    assert str(info.value) == "line 2: utf-8 cannot decode 0xce (unexpected end of data)"


def test_undecodable_byte_of_a_pipe_has_no_line():
    # a pipe cannot be read again, so the line is unknown
    read_end, write_end = os.pipe()
    with open(write_end, "wb") as pipe:
        pipe.write(b"q\tfine\n\xff\n")
    with open(read_end, encoding="utf-8") as stream, pytest.raises(ParseError) as info:
        parse_queries(stream)
    assert info.value.line_no is None
    assert str(info.value) == "utf-8 cannot decode 0xff (invalid start byte)"


def test_duplicate_candidate_names_its_line():
    with pytest.raises(ParseError) as info:
        parse_candidates(io.StringIO("q\td\nq\td\n"))
    assert info.value.line_no == 2
    assert str(info.value) == "line 2: duplicate candidate 'd' for 'q'"


# ---------------------------------------------------------------------------
# runs and qrels

ids = st.text("abqd09_-.:", min_size=1, max_size=5)


@st.composite
def run_maps(draw):
    """Runs as `parse_run` returns them: entries in (rank, doc_id) order."""
    run = {}
    for qid in draw(st.sets(ids, max_size=4)):
        docs = draw(st.lists(ids, unique=True, min_size=1, max_size=6))
        rows = sorted((draw(st.integers(-3, 50)), doc) for doc in docs)
        run[qid] = RankedList(qid, [
            RankEntry(doc, draw(st.floats(-1e6, 1e6)), rank) for rank, doc in rows])
    return run


@settings(max_examples=150)
@given(run_maps(), st.text("abc09_", min_size=1, max_size=6))
@example({"q": RankedList("q", [RankEntry("d", -0.0000004, 1),
                                 RankEntry("e", 2.5e-7, 1)])}, "t")
def test_run_round_trip(run, tag):
    out = io.StringIO()
    write_run(run, tag, out)
    text = out.getvalue()
    below_one = [n for n, line in enumerate(text.splitlines(), 1)
                 if int(line.split()[3]) < 1]
    if below_one:
        with pytest.raises(ParseError,
                           match=f"^line {below_one[0]}: rank -?[0-9]+ is below 1$"):
            parse_run(io.StringIO(text))
        return
    parsed = parse_run(io.StringIO(text))
    assert parsed.keys() == run.keys()
    for qid, ranked in run.items():
        assert parsed[qid].query_id == qid
        assert [(e.doc_id, e.rank) for e in parsed[qid].entries] == \
            [(e.doc_id, e.rank) for e in ranked.entries]
        assert [e.score for e in parsed[qid].entries] == \
            [float(f"{e.score:.6f}") for e in ranked.entries]


@settings(max_examples=150)
@given(st.dictionaries(st.tuples(ids, ids), st.integers(0, 5)))
def test_qrels_round_trip(qrels):
    # the parse gives the grades by query, in qid order
    out = io.StringIO()
    write_qrels(qrels, out)
    parsed = parse_qrels(io.StringIO(out.getvalue()))
    assert list(parsed.items()) == sorted(group_qrels(qrels).items())
    rewritten = io.StringIO()
    write_qrels({(qid, doc_id): grade for qid, judged in parsed.items()
                 for doc_id, grade in judged.items()}, rewritten)
    assert rewritten.getvalue() == out.getvalue()


def test_qrels_parse_by_query_in_qid_order_and_the_last_grade_wins():
    text = "q2 0 d1 1\nq1 0 d2 0\n\nq2 0 d3 2\nq1 0 d2 3\nq10 0 d1 1\n"
    parsed = parse_qrels(io.StringIO(text))
    assert list(parsed.items()) == [("q1", {"d2": 3}), ("q10", {"d1": 1}),
                                    ("q2", {"d1": 1, "d3": 2})]


@pytest.mark.parametrize("line, message", [
    ("q1 0 d2", "expected 4 fields, got 3"),
    ("q1 0 d2 high", "bad relevance grade 'high'"),
    ("q1 0 d2 -1", "negative relevance grade for ('q1', 'd2')"),
], ids=["fields", "grade", "negative"])
def test_qrels_parse_error_names_the_line(line, message):
    # a blank line still counts toward the line number
    with pytest.raises(ParseError) as info:
        parse_qrels(io.StringIO(f"q1 0 d1 1\n\n{line}\nq2 0 d3 0\n"))
    assert str(info.value) == f"line 3: {message}"


# Lines that are sometimes well formed: fields from a small alphabet, joined
# by assorted whitespace, with blank and whitespace-only lines among them.
SPACE = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\xa0", "　"])
FIELD = st.text("q0Q1d2.-e5naifé", min_size=1, max_size=4)
LINE = st.one_of(
    st.builds(lambda fs, sep, lead, trail: lead + sep.join(fs) + trail,
              st.lists(FIELD, min_size=1, max_size=7), SPACE,
              st.sampled_from(["", " ", "\t"]),
              st.sampled_from(["", " ", "\r", " \r"])),
    st.lists(SPACE, max_size=3).map("".join),
    st.just("\r"),
)
texts = st.one_of(
    st.lists(LINE, max_size=8).map(lambda ls: "\n".join(ls)),
    st.lists(LINE, max_size=8).map(lambda ls: "".join(line + "\r\n" for line in ls)),
    st.text(max_size=60),
)


@settings(max_examples=400)
@given(texts)
@example("q 0 d 1\n")
@example("q 0 d x\n")
@example("q\td\nq\td\n")
@example("q Q0 d 1 0.5 t\nq Q0 d 2 0.4 t\n")
@example("q Q0 d 1 nan t\nq Q0 e 1e999 -inf t\n")
def test_parsers_raise_only_parse_error(text):
    for parser in (parse_run, parse_qrels, parse_candidates):
        try:
            parser(io.StringIO(text))
        except ParseError:
            pass


def reference_parse_run(stream):
    """`parse_run` as written on `_lines`, plus a rank check and a
    duplicate check over all (qid, doc_id) pairs seen so far."""
    rows = {}
    seen = set()
    for line_no, line in _lines(stream):
        fields = line.split()
        if len(fields) != 6:
            raise ParseError(f"expected 6 fields, got {len(fields)}", line_no)
        qid, _, doc_id, rank, score, _tag = fields
        try:
            rows.setdefault(qid, []).append((int(rank), doc_id, float(score)))
        except ValueError:
            raise ParseError("bad rank or score", line_no) from None
        if int(rank) < 1:
            raise ParseError(f"rank {int(rank)} is below 1", line_no)
        if (qid, doc_id) in seen:
            raise ParseError(f"duplicate doc_id {doc_id!r} for query {qid!r}",
                             line_no)
        seen.add((qid, doc_id))
    run = {}
    for qid, entries in rows.items():
        entries.sort()
        run[qid] = RankedList(qid, [
            RankEntry(doc_id, score, rank) for rank, doc_id, score in entries])
    return run


def outcome(parser, text) -> str:
    """The parsed run or the error, as a repr (so NaN scores compare equal)."""
    try:
        return repr(parser(io.StringIO(text)))
    except ParseError as exc:
        return repr((str(exc), exc.line_no))


RUN_LINE = st.one_of(
    st.builds("{}{}{}Q0{}{}{}{}{}{}{}t{}".format,
              st.sampled_from(["", " ", "\t"]), st.sampled_from(["q", "r"]),
              SPACE, SPACE, st.sampled_from(["d1", "d2", "d3"]), SPACE,
              st.sampled_from(["1", "2", "0", "-1", "x"]), SPACE,
              st.sampled_from(["0.5", "-1", "nan", "y"]), SPACE,
              st.sampled_from(["", " ", "\r", "\t\r", " extra"])),
    LINE, st.lists(SPACE, max_size=3).map("".join), st.just("\r"))


@settings(max_examples=300)
@given(st.lists(RUN_LINE, max_size=8),
       st.sampled_from(["\n", "\r\n"]), st.booleans())
@example(["", "q Q0 d1 1 0.5 t", " \t ", "\r", "q Q0 d2 2 0.4 t\r", "\x0c"], "\n", True)
@example(["q Q0 d1 1 0.5", "", "q Q0 d2 1 0.5 t"], "\r\n", False)
@example(["q Q0 d1 2 0.5 t", "r Q0 d1 1 0.5 t", "q Q0 d2 1 0.5 t"], "\n", True)
@example(["q Q0 d1 2 0.5 t", "r Q0 d1 1 0.5 t", "q Q0 d1 1 0.5 t"], "\n", True)
def test_parse_run_matches_lines_helper_version(lines, newline, final):
    text = newline.join(lines) + (newline if final else "")
    assert outcome(parse_run, text) == outcome(reference_parse_run, text)


def test_parse_run_counts_blank_lines():
    text = "\nq Q0 d1 1 0.5 t\r\n  \n\t\r\nq Q0 d2 two 0.4 t\n"
    with pytest.raises(ParseError) as info:
        parse_run(io.StringIO(text))
    assert info.value.line_no == 5
    assert str(info.value) == "line 5: bad rank or score"


def test_parse_run_rejects_duplicate_document():
    text = ("q1 Q0 d1 1 0.9 t\n"
            "q2 Q0 d1 1 0.9 t\n"
            "\n"
            "q1 Q0 d2 2 0.8 t\n"
            "q1 Q0 d1 3 0.7 t\n")
    with pytest.raises(ParseError) as info:
        parse_run(io.StringIO(text))
    assert info.value.line_no == 5
    assert str(info.value) == "line 5: duplicate doc_id 'd1' for query 'q1'"


# ---------------------------------------------------------------------------
# the cache of the top of each ranking of a run

# Score fields whose floats a text format might lose: NaNs of both signs,
# infinities, a negative zero, the least subnormal, overflow to infinity,
# and any double written to 17 digits.
RUN_SCORES = st.one_of(
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "-0.0", "0",
                     "5e-324", "-5e-324", "1e400", "-1e400", "2.5e-7"]),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: format(x, ".17g")))


@st.composite
def run_files(draw) -> bytes:
    """A run file, well formed or now and then not: queries interleaved,
    tied ranks, blank lines among the rankings, "\n" and "\r\n" line
    ends, and a query id that is not ASCII."""
    lines = []
    for qid in draw(st.lists(st.sampled_from(["q1", "q2", "é3"]), unique=True,
                             max_size=3)):
        docs = draw(st.lists(st.sampled_from(["d1", "d2", "d3", "d4", "d5", "d6"]),
                             unique=True, min_size=1, max_size=6))
        lines += [f"{qid} Q0 {doc} {draw(st.integers(1, 9))} {draw(RUN_SCORES)} "
                  f"{draw(st.sampled_from(['t', 'run-1']))}" for doc in docs]
    lines = draw(st.permutations(lines))
    for line in draw(st.lists(st.sampled_from(["", "  ", "\t", "q1 Q0 d1 0 0.5 t",
                                               "q1 Q0 d1 1 x t", "q1 Q0 d1 1 0.5"]),
                              max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                            max_size=len(lines)))
    if endings and draw(st.booleans()):
        endings[-1] = ""  # no newline at the end of the file
    return "".join(line + end for line, end in zip(lines, endings)).encode()


def top_items(top) -> list:
    """A top's queries in order, each with its documents and ranks."""
    return [(qid, docs, ranks) for qid, (docs, ranks) in top.items()]


def parsed_top(run, depth: int) -> list:
    """`top_items` of the first `depth` entries of each ranking of `run`,
    as `parse_run` gives it."""
    return [(qid, [e.doc_id for e in ranked.entries[:depth]],
             [e.rank for e in ranked.entries[:depth]]) for qid, ranked in run.items()]


def top_of_file(path: Path, depth: int) -> list:
    """`parsed_top` of the run file at `path`."""
    with open(path) as stream:
        return parsed_top(parse_run(stream), depth)


CACHED_RUN = ("q2 Q0 d1 1 0.5 t\n"
              "q1 Q0 d2 2 -nan t\n"
              "q1 Q0 d1 1 1e400 t\n"
              "q2 Q0 d3 2 -0.0 t\n"
              "q1 Q0 d3 3 5e-324 t\n")

# The members of a run cache's key, as `read_run` documents them.
TOP_KEY = {"format", "code", "python", "size", "crc32", "encoding", "errors", "depth"}


def checksummed(body: bytes):
    """A corruption that puts `body` in a run cache, with its CRC-32."""
    def corrupt(data: bytes) -> bytes:
        return data[:data.index(b"\n") + 1] + body + zlib.crc32(body).to_bytes(4, "little")
    return corrupt


def older_format(version: int, body: bytes):
    """A corruption that makes a run cache one of `TOP_FORMAT` `version`,
    with `body` and its CRC-32."""
    def corrupt(data: bytes) -> bytes:
        header = data[:data.index(b"\n") + 1]
        assert b'"format": 3' in header
        return (header.replace(b'"format": 3', b'"format": %d' % version) + body
                + zlib.crc32(body).to_bytes(4, "little"))
    return corrupt


# The body of `CACHED_RUN`'s cache at depth 2: a line per ranking.
TOP_BODY = "q2\td1 d3\t1 2\nq1\td1 d2\t1 2\n"

# For each check a hit makes, a line in place of the last of `TOP_BODY`
# that fails it, and no other.
BAD_TOP_LINES = {
    "two fields": "q1\td1 d2",
    "four fields": "q1\td1 d2\t1 2\t",
    "a line with scores": "q1\td1 d2\t1 2\tinf -nan",
    "fewer ranks": "q1\td1 d2\t1",
    "fewer documents": "q1\td1\t1 2",
    "an empty ranking": "q1\t\t",
    "a rank that is no integer": "q1\td1 d2\t1 2.0",
    "a rank below 1": "q1\td1 d2\t0 2",
    "a document twice": "q1\td1 d1\t1 2",
    "ranks descending": "q1\td1 d2\t2 1",
    "tied ranks out of doc_id order": "q1\td2 d1\t1 1",
    "a query twice": "q2\td1 d2\t1 2",
    "more entries than the depth": "q1\td1 d2 d3\t1 2 3",
    "a query id with a space": "q 1\td1 d2\t1 2",
    "an empty query id": "\td1 d2\t1 2",
}

TOP_CORRUPTIONS = {
    "empty": lambda data: b"",
    "header only": lambda data: data[:data.index(b"\n") + 1],
    "truncated": lambda data: data[:len(data) // 2],
    "one byte more": lambda data: data + b"\0",
    "another key": lambda data: data.replace(b'"crc32": ', b'"crc32": 1', 1),
    "body byte flipped": lambda data: data[:-8] + bytes([data[-8] ^ 1]) + data[-7:],
    "checksum flipped": lambda data: data[:-1] + bytes([data[-1] ^ 1]),
    "a cache of format 1": older_format(
        1, b"q2 Q0 d1 1 0.5 segtrain\nq2 Q0 d3 2 -0.0 segtrain\n"),
    "a cache of format 2": older_format(
        2, b"q2\td1 d3\t1 2\t0.5 -0.0\nq1\td1 d2\t1 2\tinf -nan\n"),
    "a body of run lines": checksummed(b"q1 Q0 d1 1 0.5 segtrain\n"),
    "a body that is no text": checksummed(b"q1\td1\t\xff\n"),
    "no line end": checksummed(TOP_BODY[:-1].encode()),
    **{name: checksummed((TOP_BODY[:TOP_BODY.index("q1")] + line + "\n").encode())
       for name, line in BAD_TOP_LINES.items()},
}


class TestRunCache:
    """A run file of at least `MIN_CACHED_RUN_BYTES` keeps the first
    entries of each ranking in `<file>.top`, under the rules of the
    stores cache.  The first read of a key leaves the key alone there;
    a second read of it writes the body, and later reads are hits.  A
    hit gives what a miss gives without parsing the file; any other
    cache is a miss, which parses the file."""

    @staticmethod
    def read(path: Path, depth: int = 2, encoding: str = "utf-8",
             errors: str = "strict", **patches):
        """`top_items` of `read_run` on the file at `path`, and whether it
        was a hit: a read that parsed no file stream."""
        parse, files = patches.pop("parse_run", formats.parse_run), []

        def spy(stream):
            files.append(isinstance(stream, io.TextIOWrapper))
            return parse(stream)

        with contextlib.ExitStack() as stack:
            for name, value in {"MIN_CACHED_RUN_BYTES": 1, "parse_run": spy,
                                **patches}.items():
                stack.enter_context(mock.patch.object(owner(name), name, value))
            with open(path, encoding=encoding, errors=errors) as stream:
                top = formats.read_run(stream, depth)
        return top_items(top), not any(files)

    def reads(self, path: Path, count: int = 3, **inputs) -> list:
        """`count` reads of the file at `path`."""
        return [self.read(path, **inputs) for _ in range(count)]

    @staticmethod
    def key_alone(path: Path) -> bool:
        """Whether the cache of the file at `path` is its key alone."""
        data = Path(f"{path}.top").read_bytes()
        return data.index(b"\n") + 1 == len(data)

    @staticmethod
    def run(tmp_path: Path) -> Path:
        path = tmp_path / "run.txt"
        path.write_text(CACHED_RUN)
        return path

    @settings(max_examples=150, deadline=None)
    @given(run_files(), st.integers(1, 8))
    @example(CACHED_RUN.encode(), 2)
    def test_a_hit_equals_a_miss_and_the_top_of_a_parse(self, data, depth):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.txt"
            path.write_bytes(data)
            try:
                fresh = top_of_file(path, depth)
            except ParseError as exc:  # never cached: each read fails alike
                for _ in range(3):
                    with pytest.raises(ParseError) as info:
                        self.read(path, depth)
                    assert (str(info.value), info.value.line_no) == (str(exc), exc.line_no)
                assert [p.name for p in Path(tmp).iterdir()] == ["run.txt"]
                return
            cached = len(data) > 0  # an empty file is below any floor
            assert self.read(path, depth) == (fresh, False)
            assert Path(f"{path}.top").exists() == cached
            assert self.read(path, depth) == (fresh, False)
            assert self.read(path, depth) == (fresh, cached)

    def test_a_run_read_once_keeps_its_key_alone(self, tmp_path):
        # nothing of the run is written out before its key is read again
        path = self.run(tmp_path)
        fresh = top_of_file(path, 2)
        writes = mock.Mock(wraps=cache._write_cache)
        assert self.read(path, _write_cache=writes) == (fresh, False)
        assert writes.call_count == 1 and writes.call_args.args[2] is None
        assert self.key_alone(path)
        assert self.reads(path, 2) == [(fresh, False), (fresh, True)]
        assert not self.key_alone(path)

    def test_a_run_under_min_cached_run_bytes_gets_no_cache(self, tmp_path):
        path = self.run(tmp_path)
        size, fresh = path.stat().st_size, top_of_file(path, 2)
        assert self.reads(path, MIN_CACHED_RUN_BYTES=size + 1) == [(fresh, False)] * 3
        assert [p.name for p in tmp_path.iterdir()] == ["run.txt"]
        assert self.reads(path, MIN_CACHED_RUN_BYTES=size) == [
            (fresh, False), (fresh, False), (fresh, True)]

    def test_a_run_under_the_floor_is_read_without_the_cache_module(self, tmp_path):
        # its size is taken first; a stream without a file descriptor is
        # left to `cache`, which gives it no cache
        path = self.run(tmp_path)
        size, fresh = path.stat().st_size, top_of_file(path, 2)
        tops = mock.Mock(wraps=cache.read_top)
        with mock.patch.object(cache, "read_top", tops):
            for floor, calls in ((size + 1, 0), (size, 1)):
                with mock.patch.object(formats, "MIN_CACHED_RUN_BYTES", floor), \
                        open(path) as stream:
                    assert top_items(formats.read_run(stream, 2)) == fresh
                assert tops.call_count == calls
            with mock.patch.object(formats, "MIN_CACHED_RUN_BYTES", 1 << 62):
                assert top_items(formats.read_run(io.StringIO(CACHED_RUN), 2)) == fresh
        assert tops.call_count == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.txt", "run.txt.top"]

    @pytest.mark.parametrize("kind", ["string", "pipe", "codecs reader"])
    def test_a_stream_that_is_no_text_file_gets_no_cache(self, tmp_path, kind):
        # a `codecs` reader has a file's name and descriptor, but splits
        # lines as `str.splitlines` does, not as the text files it serves
        fresh = parsed_top(parse_run(io.StringIO(CACHED_RUN)), 2)
        if kind == "string":
            stream = io.StringIO(CACHED_RUN)
        elif kind == "pipe":
            read_end, write_end = os.pipe()
            with open(write_end, "w") as pipe:
                pipe.write(CACHED_RUN)
            stream = open(read_end, encoding="utf-8")
        else:
            stream = codecs.open(self.run(tmp_path), encoding="utf-8")
        writes = mock.Mock()
        with mock.patch.object(formats, "MIN_CACHED_RUN_BYTES", 1), \
                mock.patch.object(cache, "_write_cache", writes), stream:
            assert top_items(formats.read_run(stream, 2)) == fresh
        assert not writes.called

    def test_a_stream_already_read_gets_no_cache(self, tmp_path):
        path = self.run(tmp_path)
        with mock.patch.object(formats, "MIN_CACHED_RUN_BYTES", 1), open(path) as stream:
            stream.readline()
            assert list(formats.read_run(stream, 2)) == ["q1", "q2"]
        assert [p.name for p in tmp_path.iterdir()] == ["run.txt"]

    def test_a_stream_whose_name_names_another_file_gets_no_cache(self, tmp_path):
        path = self.run(tmp_path)
        fresh = top_of_file(path, 2)
        with open(path) as stream:
            path.rename(tmp_path / "moved.txt")
            path.write_text(CACHED_RUN)
            assert cache._cache_key(stream, 1, cache._RUN_SOURCES) is None
            with mock.patch.object(formats, "MIN_CACHED_RUN_BYTES", 1):
                assert top_items(formats.read_run(stream, 2)) == fresh
        assert sorted(p.name for p in tmp_path.iterdir()) == ["moved.txt", "run.txt"]

    def test_a_directory_others_may_write_gets_no_cache(self, tmp_path):
        path = self.run(tmp_path)
        fresh = top_of_file(path, 2)
        tmp_path.chmod(0o1777)
        assert self.reads(path) == [(fresh, False)] * 3
        assert [p.name for p in tmp_path.iterdir()] == ["run.txt"]

    def test_a_linked_cache_is_a_miss_and_its_target_is_kept(self, tmp_path):
        path = self.run(tmp_path)
        fresh, _ = self.reads(path, 2)[0]
        cache, target = Path(f"{path}.top"), tmp_path / "elsewhere"
        cache.rename(target)
        cache.symlink_to(target)
        kept = target.read_bytes()
        assert self.read(path) == (fresh, False)
        assert not cache.is_symlink() and target.read_bytes() == kept
        assert self.key_alone(path) and kept.startswith(cache.read_bytes())

    @pytest.mark.parametrize("corrupt", TOP_CORRUPTIONS.values(), ids=TOP_CORRUPTIONS)
    def test_a_bad_cache_is_a_miss(self, tmp_path, corrupt):
        # a cache that keeps the key shows the key was read before, so its
        # miss writes the body; any other is a first read of the key
        path = self.run(tmp_path)
        fresh, _ = self.reads(path, 2)[0]
        cache = Path(f"{path}.top")
        data = cache.read_bytes()
        cache.write_bytes(corrupt(data))
        keyed = cache.read_bytes().startswith(data[:data.index(b"\n") + 1])
        assert self.read(path) == (fresh, False)
        assert self.read(path) == (fresh, keyed)
        assert self.read(path) == (fresh, True)

    @pytest.mark.parametrize("change", ["one byte", "depth", "encoding", "errors",
                                        "source", "format version"])
    def test_a_changed_key_is_a_miss(self, tmp_path, change):
        path = self.run(tmp_path)
        reads = self.reads(path)
        cached = reads[0][0]
        assert reads == [(cached, False), (cached, False), (cached, True)]
        header = json.loads(Path(f"{path}.top").read_bytes().partition(b"\n")[0])
        assert set(header) == TOP_KEY
        assert all(f"`{name}`" in formats.read_run.__doc__ for name in TOP_KEY)
        inputs = {}
        if change == "one byte":  # same size and modification time
            times = os.stat(path).st_atime_ns, os.stat(path).st_mtime_ns
            path.write_text(CACHED_RUN.replace("d2 2", "d2 4"))
            os.utime(path, ns=times)
        elif change == "depth":
            inputs = {"depth": 3}
        elif change == "encoding":  # decodes this ASCII file as UTF-8 does
            inputs = {"encoding": "utf-8-sig"}
        elif change == "errors":
            inputs = {"errors": "replace"}
        elif change == "source":
            inputs = {"_sources_crc":
                      lambda sources, real=cache._sources_crc: real(sources) ^ 1}
        else:
            inputs = {"TOP_FORMAT": cache.TOP_FORMAT + 1}
        fresh, hit = self.read(path, **inputs)
        assert not hit and self.key_alone(path)  # the new key replaces the body
        assert self.reads(path, 2, **inputs) == [(fresh, False), (fresh, True)]
        assert fresh == top_of_file(path, inputs.get("depth", 2))
        assert (fresh == cached) == (change not in ("one byte", "depth"))

    @pytest.mark.parametrize("reads_before", [0, 1])
    def test_a_run_changed_while_parsed_gets_no_cache(self, tmp_path, reads_before):
        path = self.run(tmp_path)
        self.reads(path, reads_before)
        before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
        parse = formats.parse_run

        def rewrite_then_parse(stream):
            path.write_text(CACHED_RUN.replace("d2 2", "d2 4"))
            os.utime(path, ns=(0, 0))
            return parse(stream)

        assert self.read(path, parse_run=rewrite_then_parse)[1] is False
        after = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()
                       if p.name != "run.txt")
        assert after == [entry for entry in before if entry[0] != "run.txt"]

    def test_escaped_bytes_round_trip(self, tmp_path):
        # a stream that escapes undecodable bytes gives ids with lone
        # surrogates, which the cache's UTF-8 must carry
        path = tmp_path / "run.txt"
        path.write_bytes(CACHED_RUN.encode().replace(b"d2", b"d\xff"))
        fresh, hit = self.read(path, errors="surrogateescape")
        assert not hit and fresh[1][1][1] == "d\udcff"
        assert self.reads(path, 2, errors="surrogateescape") == [(fresh, False),
                                                                 (fresh, True)]

    def test_the_body_holds_a_line_per_ranking(self, tmp_path):
        # each of TOP_CORRUPTIONS' damaged bodies differs from this one,
        # which is a hit, in one check
        path = self.run(tmp_path)
        fresh = top_of_file(path, 2)
        assert self.reads(path) == [(fresh, False), (fresh, False), (fresh, True)]
        data = Path(f"{path}.top").read_bytes()
        assert checksummed(TOP_BODY.encode())(data) == data

    def test_the_cache_holds_no_score_and_a_miss_checks_every_score(self, tmp_path):
        # no metric reads a score, so a hit needs none; the scores that a
        # text format might lose are parsed, and checked, on a miss
        path = self.run(tmp_path)
        assert [hit for _, hit in self.reads(path, depth=3)] == [False, False, True]
        body = Path(f"{path}.top").read_bytes().partition(b"\n")[2][:-4]
        assert body.decode() == "q2\td1 d3\t1 2\nq1\td1 d2 d3\t1 2 3\n"
        with open(path) as stream:
            scores = {(qid, e.doc_id): struct.pack("<d", e.score)
                      for qid, ranked in parse_run(stream).items() for e in ranked.entries}
        assert scores == {key: struct.pack("<d", score) for key, score in [
            (("q2", "d1"), 0.5), (("q2", "d3"), -0.0), (("q1", "d1"), math.inf),
            (("q1", "d2"), -math.nan), (("q1", "d3"), 5e-324)]}
        path.write_text(CACHED_RUN.replace("5e-324", "5e-32x"))
        for _ in range(3):
            with pytest.raises(ParseError, match="^line 5: bad rank or score$"):
                self.read(path, depth=3)


@pytest.mark.parametrize("make, read", [(TestRunCache.run, TestRunCache.read),
                                        (TestStoresCache.corpus, TestStoresCache.read)],
                         ids=[".top", ".stores"])
def test_an_interrupted_cache_write_leaves_no_file(tmp_path, make, read):
    # the interrupt is sent to the whole process, as a terminal sends it,
    # while the temporary file exists; this process has loaded numpy, whose
    # threads may take the signal and leave it to be raised here later
    path = make(tmp_path)
    assert "numpy" in sys.modules

    def interrupted_replace(source, target):
        os.kill(os.getpid(), signal.SIGINT)
        for _ in range(1000):  # the interrupt is raised before the rename
            time.sleep(0.01)
        os.rename(source, target)

    with mock.patch.object(os, "replace", interrupted_replace), \
            pytest.raises(KeyboardInterrupt):
        read(path)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def package_files_run(call) -> set[str]:
    """The package's source files whose Python code runs during `call()`."""
    package = os.path.dirname(os.path.realpath(formats.__file__))
    files = set()

    def profile(frame, event, arg):
        if event == "call":
            files.add(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return {path for path in map(os.path.realpath, files)
            if os.path.dirname(path) == package}


@pytest.mark.parametrize("make, read, reads, suffix", [
    (TestStoresCache.corpus, TestStoresCache.read, 1, ".stores"),
    (TestRunCache.run, TestRunCache.read, 2, ".top"),
], ids=[".stores", ".top"])
def test_each_cache_key_covers_every_file_that_builds_the_cache(tmp_path, make, read,
                                                                reads, suffix):
    # a stores miss, or a run's key then its body: every package file whose
    # code runs on the way is in the key's `code`, so an edit to any of
    # them is a miss, and no cache built by the old code is served
    path = make(tmp_path)
    ran = package_files_run(lambda: [read(path) for _ in range(reads)])
    sources = cache._SOURCES if suffix == ".stores" else cache._RUN_SOURCES
    assert os.path.realpath(cache.__file__) in ran
    assert ran <= set(map(os.path.realpath, sources))
    data = Path(f"{path}{suffix}").read_bytes()
    assert data.index(b"\n") + 1 < len(data)  # a body was written


# ---------------------------------------------------------------------------
# queries, candidates, selection, gold and config

def rewrite(writer, value, *args) -> str:
    out = io.StringIO()
    writer(value, out, *args)
    return out.getvalue()


# Field text that a line-oriented format can carry: no control characters
# (tab and newline among them), no line or paragraph separators.
line_text = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                    max_size=12)
line_ids = st.text("abqd09_-.:é", min_size=1, max_size=5)


@settings(max_examples=150)
@given(st.lists(st.tuples(line_ids, line_text), unique_by=lambda pair: pair[0],
                max_size=5))
@example([("q1", "  Mixed CASE, punctuation!  "), ("q2", "")])
def test_queries_round_trip(pairs):
    queries = [Query.from_text(qid, text) for qid, text in pairs]
    text = rewrite(write_queries, queries)
    parsed = parse_queries(io.StringIO(text))
    assert parsed == queries
    assert rewrite(write_queries, parsed) == text


@settings(max_examples=150)
@given(st.dictionaries(line_ids, st.lists(line_ids, unique=True, min_size=1,
                                          max_size=5), max_size=4))
def test_candidates_round_trip(candidates):
    text = rewrite(write_candidates, candidates)
    parsed = parse_candidates(io.StringIO(text))
    assert list(parsed.items()) == sorted(candidates.items())
    assert rewrite(write_candidates, parsed) == text


pair_keys = st.tuples(st.text(max_size=4), st.text(max_size=4))


@settings(max_examples=150)
@given(st.dictionaries(pair_keys, st.tuples(st.integers(-3, 10**30),
                                            st.floats(allow_nan=False)), max_size=5),
       st.booleans())
def test_selection_round_trip(rows, with_scores):
    selection = {key: index for key, (index, _) in rows.items()}
    scores = {key: score for key, (_, score) in rows.items()} if with_scores else {}
    text = rewrite(write_selection, selection, scores)
    parsed, parsed_scores = parse_selection(io.StringIO(text))
    assert parsed == selection
    assert parsed_scores == (scores or dict.fromkeys(selection, 0.0))
    assert rewrite(write_selection, parsed, parsed_scores) == text


# Ids JSON must escape: quotes, backslashes, control and non-ASCII
# characters, a lone surrogate among them.
json_ids = st.text(st.sampled_from('"\\/\0\b\t\n\x1f\x7f\x80é€ \ud800\U0001f600a')
                   | st.characters(), max_size=4)
json_scores = st.floats() | st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308,
                                             1e308, -1e308, math.inf, -math.inf, math.nan])


@settings(max_examples=300)
@given(st.dictionaries(st.tuples(json_ids, json_ids),
                       st.tuples(st.integers(), json_scores, st.booleans()), max_size=6))
def test_selection_lines_are_the_sorted_json_of_each_record(rows):
    selection = {key: index for key, (index, _, _) in rows.items()}
    scores = {key: score for key, (_, score, scored) in rows.items() if scored}
    records = ({"qid": qid, "doc_id": doc_id, "segment_index": index,
                "score": scores.get((qid, doc_id), 0.0)}
               for (qid, doc_id), index in sorted(selection.items()))
    assert rewrite(write_selection, selection, scores) == "".join(
        formats.SORTED_JSON.encode(record) + "\n" for record in records)


@settings(max_examples=150)
@given(st.dictionaries(pair_keys, st.integers(-3, 10**30), max_size=5))
def test_gold_round_trip(gold):
    text = rewrite(write_gold, gold)
    parsed = parse_gold(io.StringIO(text))
    assert parsed == gold
    assert rewrite(write_gold, parsed) == text


# A string value is stripped and cut at '#' by the parser.
config_text = line_text.filter(lambda s: "#" not in s and s == s.strip())
POSITIVE_KEYS = ("hidden_dim", "epochs", "batch_size", "patience_epochs", "max_segments",
                 "max_iterations", "iteration_patience", "max_tokens", "min_tokens",
                 "mrr_cutoff", "ndcg_k",
                 "num_queries", "sentences_per_doc", "tokens_per_sentence", "vocab_size",
                 "query_terms")
NON_NEGATIVE_KEYS = ("seed", "learning_rate", "negatives_per_positive",
                     "query_token_budget", "plant_lo", "title_token_count")
VALID_VALUES = {
    "loss": st.sampled_from(list(LossKind)),
    "scorer_kind": st.sampled_from(["linear", "mlp"]),
    **dict.fromkeys(POSITIVE_KEYS, st.integers(1, 10**6)),
    **dict.fromkeys(NON_NEGATIVE_KEYS, st.integers(0, 10**6)),
    "docs_per_query": st.integers(2, 10**6),
    "learning_rate": st.floats(0, allow_infinity=False),
    "dev_fraction": st.floats(0, 1, exclude_min=True, exclude_max=True),
    "noise": st.floats(0, 1),
    "distractor_overlap": st.floats(0, 1),
}


@st.composite
def configs(draw, valid=True):
    """The value of each configuration field, in field order; with
    `valid`, only values `parse_config` accepts."""
    values = {}
    for f in PipelineConfig.FIELDS.values():
        if valid and f.name in VALID_VALUES:
            values[f.name] = draw(VALID_VALUES[f.name])
        elif isinstance(f.default, int):
            values[f.name] = draw(st.integers(-10**6, 10**6))
        elif isinstance(f.default, float):
            values[f.name] = draw(st.floats(allow_nan=False))
        else:
            values[f.name] = draw(config_text)
    if valid:
        for low, high in (("min_tokens", "max_tokens"),
                          ("query_terms", "tokens_per_sentence")):
            values[low], values[high] = sorted((values[low], values[high]))
        values["plant_hi"] = values["plant_lo"] + draw(st.integers(1, 10**6))
        values["max_segments"] = max(values["max_segments"], values["plant_hi"])
        values["vocab_size"] = (values["num_queries"] * values["query_terms"]
                                + draw(st.integers(1, 10**6)))
    return values


def config_lines(values: dict) -> str:
    """`values` as `write_config` writes them."""
    return "".join(f"{name}={value.value if isinstance(value, LossKind) else value}\n"
                   for name, value in values.items())


def rejected_line(values: dict) -> int | None:
    """The line of `config_lines(values)` that parsing must reject, if any."""
    names = list(values)
    for line_no, (name, value) in enumerate(values.items(), 1):
        if ((name == "loss" and value not in ("pairwise_hinge", "pointwise_cross_entropy")
             and not isinstance(value, LossKind))
                or (name == "scorer_kind" and value not in ("linear", "mlp"))
                or (name in POSITIVE_KEYS and value < 1)
                or (name in NON_NEGATIVE_KEYS and not value >= 0)
                or (name == "learning_rate" and value == math.inf)
                or (name == "docs_per_query" and value < 2)
                or (name == "dev_fraction" and not 0 < value < 1)
                or (name in ("noise", "distractor_overlap") and not 0 <= value <= 1)):
            return line_no
    for keys, rejected in (
            (("min_tokens", "max_tokens"), values["min_tokens"] > values["max_tokens"]),
            (("plant_lo", "plant_hi"), values["plant_lo"] >= values["plant_hi"]),
            (("plant_hi", "max_segments"), values["plant_hi"] > values["max_segments"]),
            (("query_terms", "tokens_per_sentence"),
             values["query_terms"] > values["tokens_per_sentence"]),
            (("num_queries", "query_terms", "vocab_size"),
             values["num_queries"] * values["query_terms"] >= values["vocab_size"])):
        if rejected:
            return max(names.index(key) for key in keys) + 1
    return None


@settings(max_examples=100)
@given(configs().map(lambda values: PipelineConfig(**values)))
@example(PipelineConfig())
def test_config_round_trip(config):
    text = rewrite(write_config, config)
    parsed = parse_config(io.StringIO(text))
    assert parsed == config
    assert rewrite(write_config, parsed) == text


@settings(max_examples=200)
@given(configs(valid=False) | configs())
def test_config_rejects_each_out_of_range_value_at_its_line(values):
    text = config_lines(values)
    line_no = rejected_line(values)
    if line_no is None:
        assert rewrite(write_config, parse_config(io.StringIO(text))) == text
    else:
        with pytest.raises(ParseError) as info:
            parse_config(io.StringIO(text))
        assert info.value.line_no == line_no
        assert str(info.value).startswith(f"line {line_no}: ")


@pytest.mark.parametrize("line, message", [
    ("loss=bogus", "loss must be one of pairwise_hinge, pointwise_cross_entropy"),
    ("scorer_kind=tree", "scorer_kind must be one of linear, mlp"),
    ("batch_size=0", "batch_size must be positive, got 0"),
    ("epochs=-1", "epochs must be positive"),
    ("max_tokens=0", "max_tokens must be positive"),
    ("min_tokens=0", "min_tokens must be positive"),
    ("max_segments=0", "max_segments must be positive"),
    ("max_iterations=0", "max_iterations must be positive"),
    ("iteration_patience=0", "iteration_patience must be positive, got 0"),
    ("iteration_patience=-3", "iteration_patience must be positive, got -3"),
    ("num_queries=0", "num_queries must be positive"),
    ("docs_per_query=0", "docs_per_query must be at least 2"),
    ("docs_per_query=1", "docs_per_query must be at least 2"),
    ("sentences_per_doc=0", "sentences_per_doc must be positive"),
    ("tokens_per_sentence=0", "tokens_per_sentence must be positive"),
    ("vocab_size=0", "vocab_size must be positive"),
    ("query_terms=0", "query_terms must be positive"),
    ("hidden_dim=0", "hidden_dim must be positive, got 0"),
    ("patience_epochs=0", "patience_epochs must be positive"),
    ("mrr_cutoff=0", "mrr_cutoff must be positive"),
    ("ndcg_k=-2", "ndcg_k must be positive"),
    ("seed=-1", "seed must be non-negative, got -1"),
    ("negatives_per_positive=-1", "negatives_per_positive must be non-negative"),
    ("query_token_budget=-5", "query_token_budget must be non-negative"),
    ("title_token_count=-1", "title_token_count must be non-negative"),
    ("learning_rate=-0.1", "learning_rate must be non-negative"),
    ("learning_rate=nan", "learning_rate must be non-negative"),
    ("learning_rate=inf", "learning_rate must be non-negative and finite, got inf"),
    ("learning_rate=1e400", "learning_rate must be non-negative and finite, got inf"),
    ("plant_lo=-1", "plant_lo must be non-negative"),
    ("plant_lo=4", "plant_lo=4 is not below plant_hi=4"),
    ("plant_hi=0", "plant_lo=0 is not below plant_hi=0"),
    ("plant_hi=5", "plant_hi=5 exceeds max_segments=4"),
    ("max_segments=3", "plant_hi=4 exceeds max_segments=3"),
    ("dev_fraction=0", "dev_fraction must be in (0, 1)"),
    ("dev_fraction=1.0", "dev_fraction must be in (0, 1)"),
    ("dev_fraction=nan", "dev_fraction must be in (0, 1)"),
    ("noise=1.5", "noise must be in [0, 1]"),
    ("distractor_overlap=-0.1", "distractor_overlap must be in [0, 1]"),
    ("min_tokens=600", "min_tokens=600 exceeds max_tokens=512"),
    ("query_terms=129", "query_terms=129 exceeds tokens_per_sentence=128"),
    ("tokens_per_sentence=4", "query_terms=5 exceeds tokens_per_sentence=4"),
    ("vocab_size=250", "vocab_size=250 leaves no background terms after "
                       "num_queries * query_terms = 250"),
    ("num_queries=1000", "vocab_size=5000 leaves no background terms after "
                         "num_queries * query_terms = 5000"),
])
def test_config_value_errors_name_the_line(line, message):
    text = f"# comment\nseed=3\n{line}\nepochs=2\n"
    with pytest.raises(ParseError) as info:
        parse_config(io.StringIO(text))
    assert str(info.value).startswith(f"line 3: {message}")


def test_config_token_bounds_error_names_the_later_line():
    text = "min_tokens=300\nseed=1\nmax_tokens=200\n"
    with pytest.raises(ParseError, match="^line 3: min_tokens=300 exceeds max_tokens=200"):
        parse_config(io.StringIO(text))
    assert parse_config(io.StringIO("min_tokens=300\nmax_tokens=300\n")).min_tokens == 300
    text = "vocab_size=100\nnum_queries=10\nquery_terms=10\nseed=2\n"
    with pytest.raises(ParseError, match="^line 3: vocab_size=100 leaves no background"):
        parse_config(io.StringIO(text))
    for text, line_no in (("max_segments=2\nseed=1\nplant_hi=3\n", 3),
                          ("plant_hi=3\nmax_segments=2\nseed=1\n", 2)):
        with pytest.raises(ParseError, match=f"^line {line_no}: plant_hi=3 exceeds "
                                             "max_segments=2"):
            parse_config(io.StringIO(text))


def test_config_kinds_are_the_scorers():
    for kind in SCORER_KINDS:
        init_params(kind, 0)
    with pytest.raises(ValueError):
        init_params("tree", 0)


# `write_config(PipelineConfig())` before the pipeline configuration was
# derived from `TrainConfig` and `SynthConfig`: the keys and defaults of
# a configuration file, which must not change.
DEFAULT_CONFIG_LINES = {
    "loss=pairwise_hinge", "scorer_kind=linear", "hidden_dim=8", "learning_rate=0.05",
    "epochs=20", "batch_size=32", "patience_epochs=3", "max_segments=4",
    "negatives_per_positive=0", "max_iterations=4", "iteration_patience=1", "seed=13",
    "max_tokens=512", "min_tokens=128", "query_token_budget=16", "mrr_cutoff=10",
    "ndcg_k=10", "dev_fraction=0.2", "num_queries=50", "docs_per_query=6",
    "sentences_per_doc=18", "tokens_per_sentence=128", "vocab_size=5000",
    "query_terms=5", "plant_lo=0", "plant_hi=4", "distractor_overlap=0.3", "noise=0.1",
    "title_token_count=2", "corpus=", "queries=", "qrels=", "candidates=", "gold=",
    "model=", "out=",
}


def test_each_config_key_is_declared_once():
    assert set(rewrite(write_config, PipelineConfig()).splitlines()) == DEFAULT_CONFIG_LINES
    library = {name for cls in (TrainConfig, SynthConfig) for name in cls.FIELDS}
    own = set(PipelineConfig.__annotations__)
    assert len(own) == 10 and own.isdisjoint(library)
    assert set(PipelineConfig.FIELDS) == library | own
    assert scorer.LossKind is LossKind and training.TrainConfig is TrainConfig
    assert synth.SynthConfig is SynthConfig


@pytest.mark.parametrize("changes, message", [
    ({"seed": -1}, "seed must be non-negative, got -1"),
    ({"negatives_per_positive": -1}, "negatives_per_positive must be non-negative"),
    ({"min_tokens": 600}, "min_tokens=600 exceeds max_tokens=512"),
    ({"dev_fraction": 1.0}, "dev_fraction must be in (0, 1), got 1.0"),
])
def test_building_a_config_runs_the_checks_parsing_runs(changes, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        PipelineConfig(**changes)
    text = "".join(f"{key}={value}\n" for key, value in changes.items())
    with pytest.raises(ParseError, match=f"^line 1: {re.escape(message)}"):
        parse_config(io.StringIO(text))


BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def bench_configs() -> dict[str, dict]:
    """The literal configuration dicts `bench/run.py` defines."""
    tree = ast.parse(BENCH_RUN.read_text())
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("SYNTH_LATE", "TINY")}


@pytest.mark.parametrize("tiny", [False, True])
def test_bench_configs_parse(tiny):
    # written as `Bench.setup` writes them, and read back as `load_inputs` does
    found = bench_configs()
    config = {**found["SYNTH_LATE"], **(found["TINY"] if tiny else {}), "seed": 7}
    text = "".join(f"{k}={v}\n" for k, v in config.items())
    parsed = parse_config(io.StringIO(text))
    assert parsed.max_segments == PipelineConfig().max_segments
    assert parsed.seed == 7 and parsed.num_queries == config["num_queries"]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
RECORD_KEYS = ("doc_id", "title", "body", "qid", "segment_index", "score",
               "gold_segment_index")
json_records = st.fixed_dictionaries(
    {}, optional=dict.fromkeys(RECORD_KEYS, json_values | st.text(max_size=8)))
DEEP = "[" * 100000 + "]" * 100000
INFINITE_INDEX = '{"qid": "q", "doc_id": "d", "segment_index": Infinity, ' \
    '"gold_segment_index": Infinity}'
# a segment index is a JSON integer: no float, bool or string is read as one
NON_INTEGER_INDICES = {
    kind: f'{{"qid": "q", "doc_id": "d", "segment_index": {value}, '
          f'"gold_segment_index": {value}}}'
    for kind, value in (("float", "1.7"), ("bool", "true"), ("string", '"2"'))}
# a 400-digit integer overflows float(); as a JSON float it is inf
LONG_NUMBER = '{"qid": "q", "doc_id": "d", "segment_index": 1, ' \
    f'"score": 1{"0" * 400}, "gold_segment_index": 1{"0" * 400}.0}}'
text_lines = st.one_of(
    (json_values | json_records).map(json.dumps),  # NaN and Infinity included
    st.sampled_from([DEEP[:3000] + DEEP[-3000:], "1" * 5000, "1e400", "-Infinity"]),
    st.builds("{}={}".format, st.sampled_from(list(PipelineConfig.FIELDS)),
              st.text(max_size=8)),
    st.builds("{}\t{}".format, st.text(max_size=4), st.text(max_size=8)),
    st.text(max_size=30),
)


@settings(max_examples=300)
@given(st.lists(text_lines, max_size=6).map("\n".join))
@example(DEEP)
@example(INFINITE_INDEX)
@example(LONG_NUMBER)
@example("{\"segment_index\": 1" + "0" * 5000 + "}")
def test_json_and_text_parsers_raise_only_parse_error(text):
    for parser in (parse_documents, parse_queries, parse_selection, parse_gold,
                   parse_config, parse_corpus):
        try:
            parser(io.StringIO(text))
        except ParseError:
            pass


# the ids of a selection or gold record are strings: no number, null or list
NON_STRING_IDS = {
    "qid number": '{"qid": 5, "doc_id": "d", "segment_index": 1, "gold_segment_index": 1}',
    "doc_id null": '{"qid": "q", "doc_id": null, "segment_index": 1, '
                   '"gold_segment_index": 1}',
    "doc_id list": '{"qid": "q", "doc_id": ["d"], "segment_index": 1, '
                   '"gold_segment_index": 1}',
}
# a selection's score is a JSON number: no string or bool is read as one
NON_NUMBER_SCORES = {
    f"score {kind}": f'{{"qid": "q", "doc_id": "d", "segment_index": 1, "score": {value}}}'
    for kind, value in (("string", '"1.5"'), ("bool", "true"), ("null", "null"))}
JSON_PARSERS = [parse_documents, parse_corpus, parse_selection, parse_gold]


@pytest.mark.parametrize("parser, line", [
    *(pytest.param(parser, line, id=f"{kind}-{parser.__name__}")
      for kind, line in {"deep": DEEP, "infinity": INFINITE_INDEX, "long": LONG_NUMBER,
                         **NON_INTEGER_INDICES, **NON_STRING_IDS}.items()
      for parser in JSON_PARSERS),
    *(pytest.param(parse_selection, line, id=f"{kind}-parse_selection")
      for kind, line in NON_NUMBER_SCORES.items()),
])
def test_json_line_errors_name_the_line(parser, line):
    with pytest.raises(ParseError, match="^line 2: "):
        parser(io.StringIO(f"\n{line}\n"))
