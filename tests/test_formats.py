import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segtrain.corpus import Document
from segtrain.formats import ParseError, parse_corpus, write_corpus
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
