import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segtrain.corpus import Document
from segtrain.formats import (
    ParseError,
    _lines,
    parse_candidates,
    parse_corpus,
    parse_qrels,
    parse_run,
    write_corpus,
    write_qrels,
    write_run,
)
from segtrain.ranking import RankedList, RankEntry
from segtrain.synth import SynthConfig, generate_corpus

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
    return out.getvalue(), parse_corpus(io.StringIO(out.getvalue()))


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
        documents = generate_corpus(cfg).documents
        text, parsed = round_trip(documents)
        assert list(parsed.values()) == documents
        rewritten = io.StringIO()
        write_corpus(parsed.values(), rewritten)
        assert rewritten.getvalue() == text

    def test_parsed_terms_are_shared_objects(self):
        text, parsed = round_trip([Document("a", "", [["x", "y"]]),
                                   Document("b", "", [["y", "x"]])])
        a, b = parsed["a"].sentences[0], parsed["b"].sentences[0]
        assert a[0] is b[1] and a[1] is b[0]


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
def test_corpus_parse_error_line(bad, line_no, message):
    # a blank line still counts toward the line number
    text = f"{GOOD}\n\n{bad}\n{GOOD.replace('d1', 'd3')}\n"
    with pytest.raises(ParseError) as info:
        parse_corpus(io.StringIO(text))
    assert info.value.line_no == line_no
    assert str(info.value).startswith(f"line {line_no}: ")
    assert message in str(info.value)


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
    parsed = parse_run(io.StringIO(out.getvalue()))
    assert parsed.keys() == run.keys()
    for qid, ranked in run.items():
        assert parsed[qid].query_id == qid
        assert [(e.doc_id, e.rank) for e in parsed[qid].entries] == \
            [(e.doc_id, e.rank) for e in ranked.entries]
        assert [e.score for e in parsed[qid].entries] == \
            [float(f"{e.score:.6f}") for e in ranked.entries]


@settings(max_examples=150)
@given(st.dictionaries(st.tuples(ids, ids), st.integers(-5, 5)))
def test_qrels_round_trip(qrels):
    out = io.StringIO()
    write_qrels(qrels, out)
    parsed = parse_qrels(io.StringIO(out.getvalue()))
    assert parsed == qrels
    rewritten = io.StringIO()
    write_qrels(parsed, rewritten)
    assert rewritten.getvalue() == out.getvalue()


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
    """`parse_run` as written on `_lines`, plus a duplicate check over
    all (qid, doc_id) pairs seen so far."""
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
              st.sampled_from(["1", "2", "x"]), SPACE,
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
