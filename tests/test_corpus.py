import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from document_oracle import Document
from e2e_utils import read_views
from segtrain.corpus import (
    CorpusStats,
    Query,
    SegmentationPolicy,
    _sentence_tokens,
    document_stream,
    segment_for_inference,
    segment_for_training,
    split_sentences,
    tokenize,
)


class TestTokenize:
    def test_punctuation_dropped(self):
        assert tokenize("The Cat, sat.") == ["the", "cat", "sat"]

    def test_empty(self):
        assert tokenize("") == []

    def test_digits_kept(self):
        assert tokenize("IR-2019 test") == ["ir", "2019", "test"]

    @given(st.text())
    def test_lowercase_alnum_only(self, text):
        for token in tokenize(text):
            assert token == token.lower()
            assert token.isalnum()

    @given(st.text())
    def test_idempotent_on_own_output(self, text):
        joined = " ".join(tokenize(text))
        assert tokenize(joined) == tokenize(text)


class TestSplitSentences:
    def test_terminators(self):
        assert split_sentences("A b. C d!") == ["A b.", "C d!"]

    def test_no_terminator(self):
        assert split_sentences("no terminator here") == ["no terminator here"]

    def test_three_sentences(self):
        assert split_sentences("One. Two. Three.") == ["One.", "Two.", "Three."]

    def test_question_marks(self):
        assert split_sentences("Really? Yes. Sure!") == ["Really?", "Yes.", "Sure!"]

    def test_terminator_without_space_does_not_split(self):
        assert split_sentences("v1.2 is out") == ["v1.2 is out"]

    @given(st.text())
    def test_non_whitespace_content_preserved(self, text):
        joined = "".join("".join(s.split()) for s in split_sentences(text))
        assert joined == "".join(text.split())


ASCII_ALPHABET = ".!?" + " \t\n\x0b\x1c" + ",;:-)'#" + "09aZz"
TOKENIZER_ALPHABET = ASCII_ALPHABET + "éİß\xa0"


class TestSentenceTokens:
    """The one-pass tokenizer equals tokenize over split_sentences."""

    @settings(max_examples=500)
    @given(st.text(TOKENIZER_ALPHABET, max_size=40))
    @example("")
    @example("   \n")
    @example(". a")
    @example(".  . ")
    @example("a. . b")
    @example("a.) b")
    @example("x.\x1c y!\x0b\tZ")
    @example("Last sentence.")
    @example("v1.2 is out... Really?! no")
    @example("İZ. Kß.\xa0x é")
    def test_matches_sentence_then_token_split(self, text):
        expected = [tokenize(s) for s in split_sentences(text)]
        assert _sentence_tokens(text) == expected

    @settings(max_examples=300)
    @given(st.text(ASCII_ALPHABET, max_size=40))
    def test_ascii_matches_sentence_then_token_split(self, text):
        expected = [tokenize(s) for s in split_sentences(text)]
        assert _sentence_tokens(text) == expected


def uniform_doc(n_sentences: int, sentence_len: int, title: str = "") -> Document:
    sentences = [[f"s{i}t{j}" for j in range(sentence_len)]
                 for i in range(n_sentences)]
    return Document("doc", title, sentences)


class TestTrainingSegmentation:
    def test_greedy_packing_fixed_budget(self):
        doc = uniform_doc(10, 100)
        policy = SegmentationPolicy("training", max_tokens=300, min_tokens=300,
                                    max_segments=4, seed=0, query_token_budget=0)
        segs = segment_for_training(doc, policy, random.Random(0))
        assert [(s.start, s.end) for s in segs] == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_max_segments_cap(self):
        doc = uniform_doc(10, 100)
        policy = SegmentationPolicy("training", max_tokens=300, min_tokens=300,
                                    max_segments=1, seed=0, query_token_budget=0)
        segs = segment_for_training(doc, policy, random.Random(0))
        assert len(segs) == 1 and segs[0].start == 0

    def test_same_seed_same_spans(self):
        doc = uniform_doc(12, 37)
        policy = SegmentationPolicy("training", max_tokens=120, min_tokens=40,
                                    max_segments=4, seed=9, query_token_budget=5)
        a = segment_for_training(doc, policy, document_stream(9, doc.id))
        b = segment_for_training(doc, policy, document_stream(9, doc.id))
        assert a == b

    def test_oversized_sentence_is_singleton(self):
        doc = Document("doc", "", [["w"] * 500, ["v"] * 3])
        policy = SegmentationPolicy("training", max_tokens=100, min_tokens=100,
                                    max_segments=4, seed=0, query_token_budget=0)
        segs = segment_for_training(doc, policy, random.Random(0))
        assert (segs[0].start, segs[0].end) == (0, 1)
        assert segs[0].token_count == 500

    def test_empty_body_title_only(self):
        doc = Document("doc", "Some Title", [])
        policy = SegmentationPolicy("training", seed=0, query_token_budget=0)
        segs = segment_for_training(doc, policy, random.Random(0))
        assert len(segs) == 1
        assert segs[0].token_count == 2  # "some", "title"
        assert (segs[0].start, segs[0].end) == (0, 0)

    def test_wrong_mode_rejected(self):
        doc = uniform_doc(2, 5)
        policy = SegmentationPolicy("inference", seed=0)
        with pytest.raises(ValueError):
            segment_for_training(doc, policy, random.Random(0))


class TestInferenceSegmentation:
    def test_fixed_windows(self):
        doc = uniform_doc(10, 100)
        segs = segment_for_inference(doc, 512)
        assert [(s.start, s.end) for s in segs] == [(0, 5), (5, 10)]

    def test_short_body_single_segment(self):
        doc = uniform_doc(3, 10)
        assert len(segment_for_inference(doc, 512)) == 1

    def test_spans_partition_body(self):
        doc = uniform_doc(10, 100)
        segs = segment_for_inference(doc, 512)
        assert segs[0].start == 0 and segs[-1].end == 10
        for left, right in zip(segs, segs[1:]):
            assert left.end == right.start

    def test_empty_body(self):
        doc = Document("doc", "t", [])
        segs = segment_for_inference(doc, 64)
        assert len(segs) == 1 and segs[0].token_count == 1  # "t"
        assert (segs[0].start, segs[0].end) == (0, 0)


class TestTrainInferenceBudgets:
    """Pinned as they are: changing either side changes every model file."""

    def test_training_budget_subtracts_the_query_budget_inference_does_not(self):
        doc = uniform_doc(10, 10, title="two words")  # 2 title tokens
        policy = SegmentationPolicy("training", max_tokens=52, min_tokens=52,
                                    max_segments=3, seed=0, query_token_budget=10)
        training = segment_for_training(doc, policy, random.Random(0))
        inference = segment_for_inference(doc, 52)
        # training windows hold 52 - 2 - 10 = 40 body tokens, inference 52 - 2 = 50
        assert [(s.start, s.end) for s in training] == [(0, 4), (4, 8), (8, 10)]
        assert [(s.start, s.end) for s in inference] == [(0, 5), (5, 10)]
        assert max(s.token_count for s in training) == 42
        assert max(s.token_count for s in inference) == 52
        # with no query budget the two segmentations agree
        no_query = dataclasses.replace(policy, query_token_budget=0)
        assert segment_for_training(doc, no_query, random.Random(0)) == inference


@st.composite
def documents(draw):
    n_sentences = draw(st.integers(0, 12))
    sentences = [
        draw(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=9))
        for _ in range(n_sentences)
    ]
    title = draw(st.sampled_from(["", "one", "two words"]))
    return Document("doc", title, sentences)


@settings(max_examples=60)
@given(documents(), st.integers(10, 40))
def test_inference_partition_property(doc, max_tokens):
    segs = segment_for_inference(doc, max_tokens)
    covered = []
    for seg in segs:
        covered.extend(range(seg.start, seg.end))
    assert covered == list(range(len(doc.sentences)))
    assert [s.index for s in segs] == list(range(len(segs)))


@settings(max_examples=60)
@given(documents(), st.integers(0, 5), st.integers(0, 10_000))
def test_training_prefix_and_title_properties(doc, query_budget, seed):
    policy = SegmentationPolicy("training", max_tokens=30, min_tokens=8,
                                max_segments=4, seed=seed, query_token_budget=query_budget)
    segs = segment_for_training(doc, policy,
                                document_stream(seed, doc.id))
    title_tokens = tokenize(doc.title)
    assert segs[0].start == 0
    for i, seg in enumerate(segs):
        assert seg.index == i
        body = doc.sentences[seg.start:seg.end]
        assert seg.token_count == len(title_tokens) + sum(map(len, body))
    for left, right in zip(segs, segs[1:]):
        assert left.end == right.start
    assert len(segs) <= 4


def parsed_stats(docs: list[Document], terms: list[str],
                 max_tokens: int = 512) -> CorpusStats:
    """The stats of `docs` read back as `train` reads them, for one query
    of `terms` that lists every document."""
    query = Query("q", " ".join(terms), terms)
    return read_views(docs, [query], {"q": [doc.id for doc in docs]}, max_tokens)[1]


class TestCorpusStats:
    """`CorpusStats.from_windows` over a corpus read back as `train` reads it."""

    def test_document_frequency(self, tiny_docs):
        stats = parsed_stats(tiny_docs, ["alpha", "absent"])
        assert stats.doc_count == 3
        assert stats.document_frequency["alpha"] == 2  # d1 (title+body), d3
        assert "absent" not in stats.document_frequency

    def test_repeated_term_counts_once(self):
        doc = Document("d", "", [["rep"] * 5])
        other = Document("e", "", [["x"]])
        stats = parsed_stats([doc, other], ["rep"])
        assert stats.document_frequency["rep"] == 1

    def test_title_terms_counted(self):
        doc = Document("d", "only in title", [["body"]])
        stats = parsed_stats([doc], ["title"])
        assert stats.document_frequency["title"] == 1

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            CorpusStats.from_windows({}, {})

    def test_avg_segment_length(self):
        doc = uniform_doc(10, 100)  # two 512-token windows of 500 tokens each
        stats = parsed_stats([doc], [], max_tokens=512)
        assert stats.avg_segment_length == 500.0
