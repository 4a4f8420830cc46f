"""The synthetic collection: the background sampler, determinism, planted
and leaked evidence, noise, the corpus writer and the configuration
checks."""

import dataclasses
import io
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from document_oracle import synth_documents, write_corpus
from segtrain import synth
from segtrain.corpus import document_stream, segment_for_training
from segtrain.formats import ConfigError
from segtrain.synth import InverseCdf, SynthConfig, SynthCorpus, generate_corpus

SMALL = SynthConfig(num_queries=6, docs_per_query=3, sentences_per_doc=8,
                    tokens_per_sentence=16, vocab_size=200, query_terms=4,
                    plant_lo=1, plant_hi=3, distractor_overlap=0.5, noise=0.0,
                    seed=3, max_tokens=64, min_tokens=32, query_token_budget=8)


def small(**changes) -> SynthConfig:
    return dataclasses.replace(SMALL, **changes)


def query_term_positions(doc, terms):
    """(sentence index, position, token) of every query term in the body."""
    return [(i, j, token) for i, sentence in enumerate(doc.sentences)
            for j, token in enumerate(sentence) if token in terms]


def relevant_doc(corpus, qid):
    (doc_id,) = [d for (q, d), grade in corpus.qrels.items() if q == qid and grade > 0]
    (doc,) = [doc for doc in synth_documents(corpus) if doc.id == doc_id]
    return doc


def zipf(n: int) -> np.ndarray:
    """The background weights `generate_corpus` draws from, over n terms."""
    p = 1.0 / (np.arange(n) + 3.0)
    return p / p.sum()


@st.composite
def distributions(draw):
    """Probability vectors: uniform, Zipf, random with zero entries, or one
    dominant entry among many tiny ones."""
    n = draw(st.integers(1, 6000))
    kind = draw(st.sampled_from(["uniform", "zipf", "random", "dominant"]))
    if kind == "uniform":
        p = np.ones(n)
    elif kind == "zipf":
        p = zipf(n)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        p = rng.random(n) * (rng.random(n) < draw(st.floats(0.05, 1.0)))
        if kind == "dominant" or not p.any():
            p[rng.integers(n)] = n
    return p / p.sum()


sizes = st.sampled_from([0, 1, 7, (3, 5), (18, 128)])
# A smaller guide table leaves more CDF steps in a bucket for `draw` to walk.
guide_sizes = st.sampled_from([synth.GUIDE_SIZE, 8])


@settings(max_examples=150, deadline=None)
@given(distributions(), sizes, st.integers(0, 2**32 - 1), guide_sizes)
@example(np.array([1.0]), 7, 0, synth.GUIDE_SIZE)
@example(np.array([0.0, 0.0, 1.0, 0.0]), (3, 5), 1, synth.GUIDE_SIZE)
@example(np.array([0.0, 0.5, 0.0, 0.5, 0.0]), 7, 2, 1)
@example(np.array([1 - 1e-12, 1e-12]), (18, 128), 3, synth.GUIDE_SIZE)
@example(zipf(3750), (18, 128), 4, synth.GUIDE_SIZE)
@example(zipf(3750), 0, 5, synth.GUIDE_SIZE)
@example(zipf(3750), 1, 6, synth.GUIDE_SIZE)
@example(zipf(200), (3, 5), 7, 1)
def test_sampler_draws_what_choice_draws(p, size, seed, guide_size):
    # `Generator.choice` of the installed numpy is the reference
    ids = np.arange(100, 100 + len(p))
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(synth, "GUIDE_SIZE", guide_size):
        drawn = ids[InverseCdf(p).draw(ours, size)]
        expected = theirs.choice(ids, size, p=p)
        assert drawn.shape == expected.shape and (drawn == expected).all()
        # the generators stand at the same state, so later draws line up
        assert ours.random() == theirs.random()
        # one draw of a topic's pool, a row per document, takes the
        # doubles of each document's title draw and then its body draw
        body = size if isinstance(size, tuple) else (1, size)
        for title in (0, 2):
            pool = ids[InverseCdf(p).draw(ours, (3, title + body[0] * body[1]))]
            rows = np.array([np.concatenate([theirs.choice(ids, title, p=p),
                                             theirs.choice(ids, body, p=p).ravel()])
                             for _ in range(3)])
            assert pool.shape == rows.shape and (pool == rows).all()
            assert ours.random() == theirs.random()


class FixedUniforms:
    """A stand-in generator whose `random` returns the given values."""

    def __init__(self, values):
        self.values = np.array(values)

    def random(self, size):
        return self.values.reshape(size)


@pytest.mark.parametrize("guide_size", [1, 2, 4, synth.GUIDE_SIZE])
def test_sampler_inverts_the_normalised_cdf_at_its_steps(guide_size):
    # weights 1, 1, 0, 2 give the CDF 0.25, 0.5, 0.5, 1.0; a u on a step
    # lies past it, and so does a u on a bucket's lower edge
    u = [0.0, 0.25 - 2**-54, 0.25, 0.5 - 2**-53, 0.5, 0.75, 1 - 2**-53]
    expected = [0, 0, 1, 1, 3, 3, 3]
    with mock.patch.object(synth, "GUIDE_SIZE", guide_size):
        sampler = InverseCdf(np.array([1.0, 1.0, 0.0, 2.0]))
        assert sampler.draw(FixedUniforms(u), (7,)).tolist() == expected
        # alone, too, so that no other entry keeps the walk going
        assert [sampler.draw(FixedUniforms([x]), 1)[0] for x in u] == expected


@pytest.mark.parametrize("p", [[], [[0.5, 0.5]], [-0.5, 1.5], [np.nan, 1.0],
                               [np.inf, 1.0], [0.0, 0.0]])
def test_sampler_rejects_what_is_not_a_distribution(p):
    with pytest.raises(ValueError, match="probabilities must be"):
        InverseCdf(np.array(p))


def fields(corpus: SynthCorpus) -> dict:
    """Every field of `corpus`, its token array as its dtype, shape and bytes."""
    values = {f.name: getattr(corpus, f.name) for f in dataclasses.fields(corpus)}
    tokens = values.pop("tokens")
    return {**values, "tokens": (tokens.dtype, tokens.shape, tokens.tobytes())}


def test_same_seed_same_corpus_other_seed_differs():
    assert fields(generate_corpus(small(seed=11))) == fields(generate_corpus(small(seed=11)))
    a, b = generate_corpus(small(seed=11)), generate_corpus(small(seed=12))
    assert [d.sentences for d in synth_documents(a)] != \
        [d.sentences for d in synth_documents(b)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_planted_sentence_lies_in_the_gold_training_segment(seed):
    cfg = small(seed=seed)
    corpus = generate_corpus(cfg)
    assert len(corpus.gold) == cfg.num_queries
    for query in corpus.queries:
        doc = relevant_doc(corpus, query.id)
        positions = query_term_positions(doc, set(query.tokens))
        # noise 0: the whole query, in order, leads one sentence
        assert [(j, token) for _, j, token in positions] == list(enumerate(query.tokens))
        sentence = positions[0][0]
        gold = corpus.gold[(query.id, doc.id)]
        assert cfg.plant_lo <= gold < cfg.plant_hi
        segments = segment_for_training(doc, cfg.policy(), document_stream(seed, doc.id))
        assert segments[gold].start <= sentence < segments[gold].end


@pytest.mark.parametrize("overlap, leaked", [(0.0, 0), (0.5, 2), (0.6, 2), (1.0, 4)])
def test_one_negative_leaks_round_overlap_times_terms(overlap, leaked):
    cfg = small(distractor_overlap=overlap)
    corpus = generate_corpus(cfg)
    documents = {doc.id: doc for doc in synth_documents(corpus)}
    for query in corpus.queries:
        terms = set(query.tokens)
        pool = [documents[d] for d in corpus.candidates[query.id]]
        negatives = [d for d in pool if corpus.qrels.get((query.id, d.id), 0) <= 0]
        assert len(negatives) == cfg.docs_per_query - 1
        leaks = [query_term_positions(d, terms) for d in negatives]
        leaks = [positions for positions in leaks if positions]
        if leaked == 0:
            assert leaks == []
            continue
        (positions,) = leaks
        # distinct query terms, in query order, leading one sentence
        assert len({i for i, _, _ in positions}) == 1
        tokens = [token for _, _, token in positions]
        assert [j for _, j, _ in positions] == list(range(leaked))
        assert len(set(tokens)) == leaked
        assert tokens == sorted(tokens, key=query.tokens.index)


def test_noise_zero_plants_every_term_noise_one_none():
    clean, noisy = generate_corpus(small(noise=0.0)), generate_corpus(small(noise=1.0))
    for query in clean.queries:
        terms = set(query.tokens)
        planted = {token for _, _, token in
                   query_term_positions(relevant_doc(clean, query.id), terms)}
        assert planted == terms
        assert query_term_positions(relevant_doc(noisy, query.id), terms) == []


# Vocabulary entries and doc ids: any text, and the characters JSON
# escapes (quote, backslash, control characters, DEL, line separators),
# non-ASCII and non-BMP characters, the empty entry, and entries of mixed
# widths, such as w99999 beside w100000.
SPECIAL_ENTRIES = ['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "é", "\u2028",
                   "\U0001f600", "", "w99999", "w100000", 'a"\\b. c']
entries = st.text(max_size=5) | st.sampled_from(SPECIAL_ENTRIES)


@st.composite
def synth_corpora(draw) -> SynthCorpus:
    """Collections over a random vocabulary, of random vocabulary ids."""
    vocab = draw(st.lists(entries, min_size=1, max_size=8))
    doc_ids = draw(st.lists(entries, unique=True, max_size=7))
    title, sentence_length = draw(st.integers(0, 3)), draw(st.integers(1, 4))
    row_length = title + draw(st.integers(0, 3)) * sentence_length
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tokens = rng.integers(len(vocab), size=(len(doc_ids), row_length))
    return SynthCorpus([], doc_ids, vocab, tokens.astype(np.min_scalar_type(len(vocab) - 1)),
                       title, sentence_length, {}, {}, {})


@settings(max_examples=200, deadline=None)
@given(synth_corpora(), st.sampled_from([1, 3, synth.WRITE_ROWS]))
@example(SynthCorpus([], ["d0", "d1"], ["w99999", "w100000", '"', "\\"],
                     np.array([[1, 0, 2, 3], [3, 2, 1, 0]], dtype=np.uint8),
                     0, 2, {}, {}, {}), 1)
@example(SynthCorpus([], ["\U0001f600\x00"], ["\x1f", "é\U0001f600"],
                     np.array([[0, 1, 1]], dtype=np.uint8), 1, 1, {}, {}, {}),
         synth.WRITE_ROWS)
def test_write_corpus_writes_the_oracles_bytes(corpus, rows):
    written, expected = io.StringIO(), io.StringIO()
    with mock.patch.object(synth, "WRITE_ROWS", rows):
        synth.write_corpus(corpus, written)
    write_corpus(synth_documents(corpus), expected)
    assert written.getvalue() == expected.getvalue()


def test_write_corpus_peak_memory_does_not_grow_with_the_corpus():
    # the lines are rendered a few documents at a time, so four times the
    # documents take no more memory at the peak
    peaks = []
    for topics in (20, 80):
        corpus = generate_corpus(small(num_queries=topics, vocab_size=400))
        with open(os.devnull, "w") as stream:
            tracemalloc.start()
            try:
                synth.write_corpus(corpus, stream)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[0] == peaks[1]


@pytest.mark.parametrize("changes, rule", [
    ({"num_queries": 0}, "all synthetic counts must be positive"),
    ({"docs_per_query": 0}, "all synthetic counts must be positive"),
    ({"sentences_per_doc": 0}, "all synthetic counts must be positive"),
    ({"tokens_per_sentence": 0}, "all synthetic counts must be positive"),
    ({"vocab_size": 0}, "all synthetic counts must be positive"),
    ({"query_terms": 0}, "all synthetic counts must be positive"),
    ({"docs_per_query": 1}, "need at least one negative per topic"),
    ({"plant_lo": -1}, "invalid plant segment range"),
    ({"plant_lo": 2, "plant_hi": 2}, "invalid plant segment range"),
    ({"distractor_overlap": 1.5}, "distractor_overlap and noise must be in"),
    ({"distractor_overlap": -0.1}, "distractor_overlap and noise must be in"),
    ({"noise": 1.1}, "distractor_overlap and noise must be in"),
    ({"noise": -0.5}, "distractor_overlap and noise must be in"),
    ({"query_terms": 17}, "query terms cannot exceed sentence length"),
    ({"vocab_size": 24}, "vocab_size must exceed the reserved query terms"),
    ({"seed": -1}, "the seed must be non-negative"),
    ({"plant_hi": 5}, "the plant range must lie in the training segments"),
    ({"max_segments": 2}, "the plant range must lie in the training segments"),
])
def test_config_errors(changes, rule):
    # `rule` names the rule each case breaks; the error names every field
    # it involves, which is how `parse_config` finds the line to report
    with pytest.raises(ConfigError) as info:
        small(**changes)
    keys = info.value.keys
    assert set(changes) <= set(keys)
    assert all(key in str(info.value) for key in keys)


def test_generation_errors():
    # the configuration allows plant_hi=4 segments; a two-sentence document has fewer
    with pytest.raises(ValueError, match="exceeds the [12] training segments"):
        generate_corpus(small(sentences_per_doc=2, plant_hi=4))
