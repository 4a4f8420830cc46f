import io
import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from document_oracle import Document, compute_corpus_stats, document_view, synth_documents
from e2e_utils import judged, pair_rows, read_views
from loss_oracle import hinge_loss, pointwise_ce_loss
from numpy_features import numpy_segment_features
from segtrain.corpus import (
    CorpusStats,
    Query,
    Segment,
    document_stream,
    inference_windows,
    segment_for_inference,
    segment_for_training,
)
from segtrain.formats import ParseError, parse_model
from segtrain.scorer import (
    BM25_B,
    BM25_K1,
    F_BIGRAM_FRACTION,
    F_BM25,
    F_IDF_MATCH,
    F_LENGTH_RATIO,
    F_LOG_MAX_TF,
    F_MATCH_FRACTION,
    F_POSITION_RATIO,
    NUM_FEATURES,
    LossKind,
    ScorerParams,
    batch_loss_and_gradient,
    idf,
    init_params,
    read_params,
    score_batch,
    segment_features,
    sgd_step,
    write_params,
)
from segtrain.synth import SynthConfig, generate_corpus
from segtrain.training import build_stores


def segment_of(tokens, index=0, doc_id="d"):
    """The view of an untitled one-sentence document, with the hits of
    each of its tokens, and its one-segment list."""
    return (document_view(Document(doc_id, "", [list(tokens)]), tokens),
            [Segment(doc_id, index, 0, 1, len(tokens))])


def segment_tokens(doc, segment):
    """The title-plus-body tokens a segment of `doc` covers."""
    body = doc.sentences[segment.start:segment.end]
    return doc.title_tokens + [token for sentence in body for token in sentence]


class TestExtractFeatures:
    """The feature row of a single segment."""

    def test_no_match_zeroes(self, tiny_stats):
        q = Query.from_text("q", "nothing matches here")
        doc, seg = segment_of(["alpha", "beta", "gamma"])
        [x] = segment_features(q, doc, seg, tiny_stats)
        assert all(x[i] == 0.0 for i in range(5))

    def test_full_match(self, tiny_stats):
        q = Query.from_text("q", "alpha beta gamma")
        doc, seg = segment_of(["alpha", "beta", "gamma", "delta"])
        [x] = segment_features(q, doc, seg, tiny_stats)
        assert x[F_MATCH_FRACTION] == 1.0
        assert x[F_BIGRAM_FRACTION] == 1.0
        assert x[F_BM25] > 0.0
        assert x[F_LOG_MAX_TF] == pytest.approx(math.log(2))

    def test_idf_of_ubiquitous_term(self):
        # a single-term query whose term occurs in every document
        docs = [Document("a", "", [["common", "x"]]),
                Document("b", "", [["common", "y"]]),
                Document("c", "", [["common", "z"]])]
        q = Query.from_text("q", "common")
        _, stats = read_views(docs, [q], {"q": ["a", "b", "c"]})
        n = stats.doc_count
        expected_idf = math.log(1.0 + 0.5 / (n + 0.5))
        [x] = segment_features(q, *segment_of(["common", "x"]), stats)
        assert x[F_IDF_MATCH] == pytest.approx(expected_idf, abs=1e-12)
        assert 0.0 < x[F_IDF_MATCH] < 0.2

    def test_empty_query(self, tiny_stats):
        q = Query.from_text("q", "")
        [x] = segment_features(q, *segment_of(["alpha"]), tiny_stats)
        assert all(x[i] == 0.0 for i in range(5))

    def test_all_finite(self, tiny_stats):
        q = Query.from_text("q", "alpha unseen 42")
        [x] = segment_features(q, *segment_of(["alpha", "42", "alpha"]), tiny_stats)
        assert np.all(np.isfinite(x))


def reference_features(query, tokens, index, stats, max_tokens, max_segments):
    """Token-scanning feature loop over one segment's title-plus-body
    `tokens`, kept as the oracle of `segment_features`.

    The idf sum runs left to right, as the builtin `sum` did before
    Python 3.12 made it compensated.
    """
    counts = Counter(tokens)
    q_unique = list(dict.fromkeys(query.tokens))
    x = np.zeros(NUM_FEATURES)
    if q_unique:
        matched = [t for t in q_unique if t in counts]
        x[F_MATCH_FRACTION] = len(matched) / len(q_unique)
        idf_sum = 0.0
        for t in matched:
            idf_sum += idf(stats, t)
        x[F_IDF_MATCH] = idf_sum / len(q_unique)
        dl = len(tokens)
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * dl / stats.avg_segment_length)
        bm25 = 0.0
        max_tf = 0
        for t in matched:
            tf = counts[t]
            bm25 += idf(stats, t) * tf * (BM25_K1 + 1.0) / (tf + norm)
            max_tf = max(max_tf, tf)
        x[F_BM25] = bm25
        x[F_LOG_MAX_TF] = math.log1p(max_tf)
        q_bigrams = set(zip(query.tokens, query.tokens[1:]))
        if q_bigrams:
            seg_bigrams = set(zip(tokens, tokens[1:]))
            x[F_BIGRAM_FRACTION] = len(q_bigrams & seg_bigrams) / len(q_bigrams)
    x[F_LENGTH_RATIO] = len(tokens) / max_tokens
    x[F_POSITION_RATIO] = index / max_segments
    return x


vocab_terms = st.sampled_from("abcdefghijkl")


@settings(max_examples=300)
@given(query=st.lists(vocab_terms, max_size=14),
       title=st.lists(vocab_terms, max_size=3),
       bodies=st.lists(st.lists(vocab_terms, max_size=30), min_size=1, max_size=5),
       df=st.dictionaries(st.sampled_from("abcdefgh"), st.integers(0, 60)),
       doc_count=st.integers(0, 50),
       avg=st.floats(1.0, 700.0),
       max_tokens=st.integers(1, 600),
       max_segments=st.integers(1, 8))
@example(query=["a", "a"], title=[], bodies=[["a", "a"], ["a", "b", "a"]],
         df={}, doc_count=3, avg=4.0, max_tokens=512, max_segments=4)
@example(query=["a", "b"], title=["x", "a"], bodies=[["b"], [], ["c", "b"]],
         df={"a": 2}, doc_count=3, avg=1.0, max_tokens=512, max_segments=4)
@example(query=["b", "a", "b"], title=["b"], bodies=[[], ["a", "b", "a"]],
         df={"a": 60, "b": 0}, doc_count=50, avg=3.5, max_tokens=7, max_segments=1)
@example(query=[], title=["a"], bodies=[["a"], []],
         df={}, doc_count=1, avg=1.0, max_tokens=512, max_segments=4)
@example(query=["z"], title=[], bodies=[["a", "b"]],
         df={}, doc_count=1, avg=1.0, max_tokens=512, max_segments=4)
@example(query=list("abcdefghijkl"), title=["a"], bodies=[list("lkjihgfedcba") * 2],
         df={"a": 1, "b": 7, "c": 40}, doc_count=50, avg=9.7, max_tokens=512,
         max_segments=4)
def test_segment_features_equal_per_segment_reference(
        query, title, bodies, df, doc_count, avg, max_tokens, max_segments):
    q = Query("q", " ".join(query), query)
    stats = CorpusStats(doc_count, df, avg)
    view = document_view(Document("d", " ".join(title), bodies), query)
    segments = [Segment("d", i, i, i + 1, len(title) + len(body))
                for i, body in enumerate(bodies)]
    batched = segment_features(q, view, segments, stats, max_tokens, max_segments)
    expected = np.stack([reference_features(q, title + body, i, stats, max_tokens,
                                            max_segments)
                         for i, body in enumerate(bodies)])
    assert np.array_equal(batched, expected)
    assert batched.tobytes() == expected.tobytes()  # signs of zeros too
    for seg, row in zip(segments, expected):
        assert np.array_equal(
            segment_features(q, view, [seg], stats, max_tokens, max_segments)[0], row)


span_lists = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)).map(sorted),
                      min_size=1, max_size=5)


@settings(max_examples=300)
@given(query=st.lists(vocab_terms, max_size=8),
       other_terms=st.lists(vocab_terms, max_size=4),
       title=st.lists(vocab_terms, max_size=3),
       sentences=st.lists(st.lists(vocab_terms, max_size=6), max_size=6),
       spans=span_lists,
       df=st.dictionaries(st.sampled_from("abcdefgh"), st.integers(0, 60)),
       avg=st.floats(1.0, 50.0),
       max_tokens=st.integers(1, 40),
       max_segments=st.integers(1, 8))
@example(query=["a", "b"], other_terms=[], title=["a"], sentences=[["b"]],
         spans=[(0, 1)], df={}, avg=2.0, max_tokens=8, max_segments=4)
@example(query=["a", "b"], other_terms=[], title=["a"], sentences=[["x"], ["b", "c"]],
         spans=[(0, 1), (1, 2)], df={}, avg=2.0, max_tokens=8, max_segments=4)
@example(query=["a", "b", "a"], other_terms=["c"], title=[],
         sentences=[["x", "a"], ["b", "a"], []], spans=[(0, 2), (1, 3), (2, 3)],
         df={"a": 3}, avg=2.5, max_tokens=8, max_segments=2)
@example(query=["z", "y"], other_terms=["a"], title=["a"], sentences=[["a", "b"]],
         spans=[(0, 1)], df={}, avg=1.0, max_tokens=8, max_segments=4)
@example(query=["c", "d"], other_terms=["a"], title=["b"], sentences=[[], ["c"], ["a"]],
         spans=[(0, 0), (0, 1), (2, 3), (0, 3)], df={"c": 1}, avg=1.5,
         max_tokens=4, max_segments=3)
def test_view_features_equal_token_reference(query, other_terms, title, sentences,
                                             spans, df, avg, max_tokens,
                                             max_segments):
    """The view kernel gives, bit for bit, the token-scanning oracle's rows.

    Segments may span several sentences, start past the first sentence,
    be empty, or hold no hit, and the view may hold hits of other
    queries' terms (a document that is a candidate of two queries).
    """
    q = Query("q", " ".join(query), query)
    doc = Document("d", " ".join(title), sentences)
    spans = [(min(start, len(sentences)), min(end, len(sentences)))
             for start, end in spans]
    segments = [Segment("d", i, start, end,
                        len(title) + sum(map(len, sentences[start:end])))
                for i, (start, end) in enumerate(spans)]
    stats = CorpusStats(60, df, avg)
    expected = np.stack([
        reference_features(q, segment_tokens(doc, seg), seg.index, stats,
                           max_tokens, max_segments) for seg in segments])
    for terms in (query, query + other_terms):
        actual = segment_features(q, document_view(doc, terms), segments, stats,
                                  max_tokens, max_segments)
        assert np.array_equal(actual, expected)
        assert actual.tobytes() == expected.tobytes()


@settings(max_examples=300)
@given(query=st.lists(vocab_terms, max_size=10),
       other_terms=st.lists(vocab_terms, max_size=4),
       title=st.lists(vocab_terms, max_size=3),
       sentences=st.lists(st.lists(vocab_terms, max_size=8), max_size=7),
       spans=span_lists,
       indices=st.lists(st.integers(0, 9), min_size=5, max_size=5),
       df=st.dictionaries(st.sampled_from("abcdefgh"), st.integers(0, 60)),
       doc_count=st.integers(0, 60),
       avg=st.floats(0.5, 700.0),
       max_tokens=st.integers(1, 600),
       max_segments=st.integers(1, 8))
@example(query=["a", "b", "a", "c"], other_terms=["d"], title=["a"],
         sentences=[["b", "a", "b"], [], ["c", "a", "b", "a"]], spans=[(0, 1), (1, 3)],
         indices=[0, 5, 0, 0, 0], df={"a": 60, "b": 1}, doc_count=50, avg=0.5,
         max_tokens=3, max_segments=4)
def test_segment_features_equal_the_numpy_kernel(query, other_terms, title, sentences,
                                                 spans, indices, df, doc_count, avg,
                                                 max_tokens, max_segments):
    """The per-segment loop gives, bit for bit, the rows of the numpy
    kernel it replaced, signs of zeros included: from views of the query's
    terms alone or of more, for any spans and segment indices."""
    q = Query("q", " ".join(query), query)
    doc = Document("d", " ".join(title), sentences)
    spans = [(min(start, len(sentences)), min(end, len(sentences)))
             for start, end in spans]
    segments = [Segment("d", index, start, end,
                        len(title) + sum(map(len, sentences[start:end])))
                for index, (start, end) in zip(indices, spans)]
    stats = CorpusStats(doc_count, df, avg)
    for view in (document_view(doc, query), document_view(doc, query + other_terms)):
        actual = segment_features(q, view, segments, stats, max_tokens, max_segments)
        expected = numpy_segment_features(q, view, segments, stats, max_tokens,
                                          max_segments)
        assert actual.shape == expected.shape == (len(segments), NUM_FEATURES)
        assert actual.tobytes() == expected.tobytes()


def test_stores_equal_the_numpy_kernel_on_the_late_collection():
    """Both stores of a late-evidence collection (the bench's, at 20
    topics), built from its views as `train` builds them, hold the numpy
    kernel's rows, bit for bit."""
    cfg = SynthConfig(num_queries=20, docs_per_query=6, sentences_per_doc=18,
                      tokens_per_sentence=128, vocab_size=5000, query_terms=5,
                      plant_lo=1, plant_hi=4, distractor_overlap=0.3, noise=0.3, seed=1)
    corpus = generate_corpus(cfg)
    views, stats = read_views(synth_documents(corpus), corpus.queries,
                              corpus.candidates, cfg.max_tokens)
    stores = build_stores(corpus.queries, corpus.candidates, views, cfg.policy(), stats,
                          inference_windows(views, cfg.max_tokens))
    for store, cut in zip(stores, ("training", "inference")):
        store = judged(store, corpus.queries, corpus.candidates, {}, cfg.max_segments)
        assert len(store.matrix) == 120 * (4 if cut == "training" else 6)
        for topic in store.topics:
            for doc_id in topic.candidates:
                view = views[doc_id]
                segments = (segment_for_training(view, cfg.policy(),
                                                 document_stream(cfg.seed, doc_id))
                            if cut == "training"
                            else segment_for_inference(view, cfg.max_tokens))
                expected = numpy_segment_features(topic.query, view, segments, stats,
                                                  cfg.max_tokens, cfg.max_segments)
                assert pair_rows(store, topic.query.id, doc_id).tobytes() == \
                    expected.tobytes()


@settings(max_examples=150)
@given(docs=st.lists(st.tuples(st.lists(st.sampled_from("abcdef"), max_size=3),
                               st.lists(st.lists(st.sampled_from("abcdefgh"),
                                                 max_size=9), max_size=6)),
                     min_size=1, max_size=5),
       queries=st.lists(st.lists(vocab_terms, max_size=6), min_size=1, max_size=3),
       max_tokens=st.integers(1, 20))
@example(docs=[(["a"], [["b", "a"], []]), ([], [])], queries=[["a", "z", "a"], []],
         max_tokens=2)
def test_query_term_stats_give_the_same_features(docs, queries, max_tokens):
    """The stats `train` takes from a corpus read with the queries' terms
    hold document frequency for those terms only, and give the features
    that the oracle's stats over every term give."""
    documents = [Document(f"d{i}", " ".join(title), sentences)
                 for i, (title, sentences) in enumerate(docs)]
    queries = [Query(f"q{k}", " ".join(tokens), tokens) for k, tokens in enumerate(queries)]
    terms = {term for query in queries for term in query.tokens}
    full = compute_corpus_stats(documents, max_tokens)
    pool = [doc.id for doc in documents]
    views, restricted = read_views(documents, queries, {q.id: pool for q in queries},
                                   max_tokens)
    assert restricted.doc_count == full.doc_count
    assert restricted.avg_segment_length == full.avg_segment_length
    assert restricted.document_frequency == {
        term: df for term, df in full.document_frequency.items() if term in terms}
    for query in queries:
        for view in views.values():
            segments = segment_for_inference(view, max_tokens)
            expected = segment_features(query, view, segments, full, max_tokens)
            actual = segment_features(query, view, segments, restricted, max_tokens)
            assert np.array_equal(actual, expected)
            assert actual.tobytes() == expected.tobytes()


class TestScore:
    def test_bias_only(self):
        p = ScorerParams("linear", 0, np.append(np.zeros(NUM_FEATURES), 0.3))
        X = np.random.default_rng(0).normal(size=(3, NUM_FEATURES))
        assert score_batch(p, X).tolist() == [0.3] * 3

    def test_unit_weight(self):
        w = np.zeros(NUM_FEATURES)
        w[F_MATCH_FRACTION] = 1.0
        p = ScorerParams("linear", 0, np.append(w, 0.0))
        X = np.zeros((2, NUM_FEATURES))
        X[0, F_MATCH_FRACTION] = 0.5
        assert score_batch(p, X).tolist() == [0.5, 0.0]

    def test_mlp_zero_weights_gives_bias(self):
        p = ScorerParams("mlp", 8, np.append(np.zeros((NUM_FEATURES + 2) * 8), 1.0))
        assert score_batch(p, np.ones((1, NUM_FEATURES))).tolist() == [1.0]

    def test_dimension_mismatch(self):
        p = init_params("linear", 0)
        with pytest.raises(ValueError):
            score_batch(p, np.zeros((1, 5)))

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["linear", "mlp"]), hidden=st.sampled_from([1, 2, 8, 33]),
           sizes=st.lists(st.integers(1, 40), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    def test_scores_do_not_depend_on_the_rows_beside_them(self, kind, hidden, sizes, seed):
        # one call per block, all blocks in one call, and all blocks
        # behind one more row give every row the same bits
        rng = np.random.default_rng(seed)
        count = NUM_FEATURES + 1 if kind == "linear" else (NUM_FEATURES + 2) * hidden + 1
        params = ScorerParams(kind, hidden if kind == "mlp" else 0, rng.normal(size=count))
        blocks = [rng.normal(size=(n, NUM_FEATURES)) * 10.0 ** rng.integers(-3, 4, NUM_FEATURES)
                  for n in sizes]
        per_block = np.concatenate([score_batch(params, block) for block in blocks])
        stacked = score_batch(params, np.concatenate(blocks))
        behind = score_batch(params, np.concatenate([rng.normal(size=(1, NUM_FEATURES)),
                                                     *blocks]))[1:]
        assert stacked.tobytes() == per_block.tobytes()
        assert behind.tobytes() == per_block.tobytes()


class TestHinge:
    def test_examples(self):
        assert hinge_loss(1.5, 0.2) == 0.0
        assert hinge_loss(0.0, 0.0) == 1.0
        assert hinge_loss(-0.5, 0.7) == pytest.approx(2.2)

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @example(1.0, 5.57707874229292e-109)
    @example(-31.46193119314258, -32.461931193142576)
    def test_zero_iff_margin(self, a, b):
        value = hinge_loss(a, b)
        assert value >= 0.0
        # exact 1 - a + b; the float loss rounds (1 - a) + b twice, each
        # by at most half an ulp of a value below 2**7 in magnitude
        exact = Fraction(1) - Fraction(a) + Fraction(b)
        bound = math.ulp(2.0 ** 7)
        assert abs(Fraction(value) - max(Fraction(0), exact)) <= bound
        if exact <= -bound:
            assert value == 0.0
        if exact >= bound:
            assert value > 0.0


class TestPointwiseCE:
    def test_examples(self):
        assert pointwise_ce_loss(0.0, 1) == pytest.approx(math.log(2), abs=1e-12)
        assert pointwise_ce_loss(0.0, 0) == pytest.approx(math.log(2), abs=1e-12)
        assert pointwise_ce_loss(10.0, 1) == pytest.approx(
            math.log1p(math.exp(-10)), abs=1e-12)

    @given(st.floats(-30, 30), st.floats(-30, 30))
    def test_monotonic(self, y1, y2):
        lo, hi = min(y1, y2), max(y1, y2)
        if hi - lo > 1e-9:  # below that, float rounding can equalize the values
            assert pointwise_ce_loss(lo, 1) > pointwise_ce_loss(hi, 1)
            assert pointwise_ce_loss(lo, 0) < pointwise_ce_loss(hi, 0)

    @given(st.floats(-700, 700))
    def test_label_symmetry(self, y):
        assert pointwise_ce_loss(y, 1) == pytest.approx(
            pointwise_ce_loss(-y, 0), rel=1e-12)

    def test_extreme_scores_stay_finite(self):
        assert math.isfinite(pointwise_ce_loss(1e6, 0))
        assert math.isfinite(pointwise_ce_loss(-1e6, 1))


def random_params(rng, kind):
    if kind == "linear":
        return ScorerParams("linear", 0, rng.normal(size=NUM_FEATURES + 1))
    return ScorerParams("mlp", 8, rng.normal(size=(NUM_FEATURES + 2) * 8 + 1))


def random_batch(rng, loss, size=3):
    """(positive rows, negative rows) or (rows, 0/1 labels)."""
    X = rng.normal(size=(size, NUM_FEATURES))
    if loss == LossKind.PAIRWISE_HINGE:
        return X, rng.normal(size=(size, NUM_FEATURES))
    return X, rng.integers(2, size=size)


def numeric_gradient(params, batch, loss, h=1e-5):
    vec = params.vector
    out = np.zeros_like(vec)
    for i in range(vec.size):
        bumped = vec.copy()
        bumped[i] += h
        up, _ = batch_loss_and_gradient(
            ScorerParams(params.kind, params.hidden_dim, bumped), *batch, loss)
        bumped[i] -= 2 * h
        down, _ = batch_loss_and_gradient(
            ScorerParams(params.kind, params.hidden_dim, bumped), *batch, loss)
        out[i] = (up - down) / (2 * h)
    return out


def hinge_margins(params, batch):
    pos, neg = batch
    return 1.0 - score_batch(params, pos) + score_batch(params, neg)


class TestBatchLossAndGradient:
    def test_zero_scorer_pairwise(self):
        rng = np.random.default_rng(1)
        p = ScorerParams("linear", 0, np.zeros(NUM_FEATURES + 1))
        batch = random_batch(rng, LossKind.PAIRWISE_HINGE, 6)
        loss, grad = batch_loss_and_gradient(p, *batch, LossKind.PAIRWISE_HINGE)
        assert loss == 1.0
        assert grad.out_bias == 0.0

    def test_satisfied_margins_flat(self):
        w = np.zeros(NUM_FEATURES)
        w[0] = 10.0
        p = ScorerParams("linear", 0, np.append(w, 0.0))
        pos = np.zeros(NUM_FEATURES)
        pos[0] = 1.0
        loss, grad = batch_loss_and_gradient(p, np.tile(pos, (4, 1)),
                                             np.zeros((4, NUM_FEATURES)),
                                             LossKind.PAIRWISE_HINGE)
        assert loss == 0.0
        assert np.all(grad.vector == 0.0)

    def test_empty_batch_rejected(self):
        empty = np.zeros((0, NUM_FEATURES))
        for loss in LossKind:
            with pytest.raises(ValueError, match="empty batch"):
                batch_loss_and_gradient(init_params("linear", 0), empty, empty, loss)

    @pytest.mark.parametrize("loss", list(LossKind))
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_scores_that_overflow_are_rejected_without_a_warning(self, kind, loss):
        params = init_params(kind, 0)
        params.vector[:] = 1e308
        X = np.full((2, NUM_FEATURES), 10.0)
        other = X / 2 if loss == LossKind.PAIRWISE_HINGE else np.array([1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^non-finite scores$"):
                batch_loss_and_gradient(params, X, other, loss)

    def test_mixed_batch_rejected(self):
        # a pointwise batch given to the pairwise loss, and the reverse
        rng = np.random.default_rng(0)
        params = init_params("linear", 0)
        points = random_batch(rng, LossKind.POINTWISE_CE)
        pairs = random_batch(rng, LossKind.PAIRWISE_HINGE)
        with pytest.raises(ValueError, match="negative rows of shape"):
            batch_loss_and_gradient(params, *points, LossKind.PAIRWISE_HINGE)
        with pytest.raises(ValueError, match="needs 3 labels"):
            batch_loss_and_gradient(params, *pairs, LossKind.POINTWISE_CE)
        with pytest.raises(ValueError, match="feature dimension 5"):
            batch_loss_and_gradient(params, np.zeros((3, 5)), np.zeros((3, 5)),
                                    LossKind.PAIRWISE_HINGE)

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    @pytest.mark.parametrize("loss", [LossKind.PAIRWISE_HINGE, LossKind.POINTWISE_CE])
    def test_gradient_matches_finite_differences(self, kind, loss):
        rng = np.random.default_rng(hash((kind, loss.value)) % 2**32)
        checked = 0
        while checked < 25:
            params = random_params(rng, kind)
            batch = random_batch(rng, loss)
            if loss == LossKind.PAIRWISE_HINGE:
                # stay away from the hinge kink so the numeric quotient is valid
                if np.any(np.abs(hinge_margins(params, batch)) < 1e-3):
                    continue
            _, grad = batch_loss_and_gradient(params, *batch, loss)
            analytic = grad.vector
            numeric = numeric_gradient(params, batch, loss)
            err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-8)
            assert err < 1e-4
            checked += 1

    @settings(max_examples=60)
    @given(st.sampled_from(["linear", "mlp"]), st.sampled_from(list(LossKind)),
           st.integers(1, 40), st.sampled_from([0.01, 1.0, 100.0]),
           st.integers(0, 2**32 - 1))
    def test_loss_is_the_mean_of_the_scalar_losses(self, kind, loss, size, scale, seed):
        rng = np.random.default_rng(seed)
        params = random_params(rng, kind)
        X, other = random_batch(rng, loss, size)
        X = X * scale
        if loss == LossKind.PAIRWISE_HINGE:
            other = other * scale
            terms = [hinge_loss(float(p), float(n)) for p, n in
                     zip(score_batch(params, X), score_batch(params, other))]
        else:
            terms = [pointwise_ce_loss(float(y), int(label))
                     for y, label in zip(score_batch(params, X), other)]
        got, _ = batch_loss_and_gradient(params, X, other, loss)
        assert got == pytest.approx(math.fsum(terms) / size, rel=1e-12, abs=1e-12)

    def test_pairwise_bias_gradient_identically_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            params = random_params(rng, "linear")
            batch = random_batch(rng, LossKind.PAIRWISE_HINGE, 5)
            _, grad = batch_loss_and_gradient(params, *batch, LossKind.PAIRWISE_HINGE)
            assert grad.out_bias == 0.0


class TestScoreMonotonicity:
    @given(st.floats(0, 1), st.floats(0, 1))
    def test_positive_weights_monotone_in_match(self, f1_lo, f1_hi):
        rng = np.random.default_rng(3)
        w = np.abs(rng.normal(size=NUM_FEATURES))
        p = ScorerParams("linear", 0, np.append(w, 0.1))
        x = rng.normal(size=NUM_FEATURES)
        lo, hi = min(f1_lo, f1_hi), max(f1_lo, f1_hi)
        x_lo = x.copy()
        x_lo[F_MATCH_FRACTION] = lo
        x_hi = x.copy()
        x_hi[F_MATCH_FRACTION] = hi
        assert score_batch(p, x_hi[None, :])[0] >= score_batch(p, x_lo[None, :])[0]


class TestSgdStep:
    def test_zero_lr(self):
        p = init_params("linear", 4)
        g = init_params("linear", 5)
        out = sgd_step(p, g, 0.0)
        assert np.array_equal(out.vector, p.vector)

    def test_zero_grad(self):
        p = init_params("mlp", 4)
        g = p.copy()
        g.vector[:] = 0.0
        out = sgd_step(p, g, 0.5)
        assert np.array_equal(out.vector, p.vector)

    def test_basic_update(self):
        w = np.zeros(NUM_FEATURES)
        w[0] = 1.0
        p = ScorerParams("linear", 0, np.append(w, 0.0))
        gw = np.zeros(NUM_FEATURES)
        gw[0] = 0.5
        g = ScorerParams("linear", 0, np.append(gw, 0.0))
        out = sgd_step(p, g, 0.2)
        assert out.out_weights[0] == pytest.approx(0.9)

    def test_non_finite_gradient_rejected(self):
        p = init_params("linear", 0)
        g = p.copy()
        g.out_weights[0] = float("nan")
        with pytest.raises(ValueError):
            sgd_step(p, g, 0.1)

    def test_non_finite_step_rejected_without_a_warning(self):
        # a finite gradient whose step overflows: 1e308 * 10 is no double
        p = init_params("linear", 0)
        g = p.copy()
        g.out_weights[0] = 10.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^non-finite parameters after step$"):
                sgd_step(p, g, 1e308)


class TestInitParams:
    def test_deterministic(self):
        a, b = init_params("mlp", 11), init_params("mlp", 11)
        assert np.array_equal(a.vector, b.vector)

    def test_seeds_differ(self):
        a, b = init_params("linear", 1), init_params("linear", 2)
        assert not np.array_equal(a.out_weights, b.out_weights)

    def test_ranges_and_biases(self):
        p = init_params("mlp", 3)
        assert p.out_bias == 0.0
        assert np.all(p.hidden_bias == 0.0)
        assert np.all(np.abs(p.out_weights) <= 0.1)
        assert np.all(np.abs(p.hidden_weights) <= 0.1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            init_params("transformer", 0)


class TestScorerParams:
    def test_blocks_are_views_in_model_file_order(self):
        h = 3
        p = ScorerParams("mlp", h, np.arange((NUM_FEATURES + 2) * h + 1, dtype=float))
        assert p.hidden_weights.tolist() == np.arange(NUM_FEATURES * h).reshape(-1, h).tolist()
        assert p.hidden_bias.tolist() == [21.0, 22.0, 23.0]
        assert p.out_weights.tolist() == [24.0, 25.0, 26.0]
        assert p.out_bias == 27.0
        p.hidden_bias[:] = -1.0
        assert p.vector[21:24].tolist() == [-1.0] * 3
        q = ScorerParams("linear", 0, np.arange(NUM_FEATURES + 1, dtype=float))
        assert q.out_weights.tolist() == list(range(NUM_FEATURES))
        assert q.out_bias == NUM_FEATURES
        assert q.hidden_weights.shape == (NUM_FEATURES, 0) and q.hidden_bias.size == 0

    @pytest.mark.parametrize("kind, hidden, size, message", [
        ("linear", 0, NUM_FEATURES,
         r"linear scorer with hidden=0 has 8 parameters, got shape \(7,\)"),
        ("mlp", 2, 8, "mlp scorer with hidden=2 has 19 parameters"),
        ("linear", 2, 19, "linear scorer needs hidden=0, got hidden=2"),
        ("mlp", 0, 1, "mlp scorer needs hidden >= 1, got hidden=0"),
        ("tree", 0, 8, "unknown scorer kind: 'tree'"),
    ])
    def test_layout_mismatch_rejected(self, kind, hidden, size, message):
        with pytest.raises(ValueError, match=message):
            ScorerParams(kind, hidden, np.zeros(size))


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestModelFile:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_round_trip_exact(self, kind):
        p = init_params(kind, 123)
        buf = io.StringIO()
        write_params(p, buf)
        buf.seek(0)
        q = read_params(buf)
        assert q.kind == p.kind
        assert np.array_equal(q.vector, p.vector)

    @settings(max_examples=50)
    @given(st.lists(finite_floats, min_size=8, max_size=8))
    def test_round_trip_arbitrary_values(self, values):
        p = ScorerParams("linear", 0, np.array(values))
        buf = io.StringIO()
        write_params(p, buf)
        buf.seek(0)
        q = read_params(buf)
        assert q.vector.tolist() == p.vector.tolist()

    @pytest.mark.parametrize("kind, hidden", [("linear", 0), ("mlp", 3)])
    def test_the_parse_is_plain_floats_in_file_order(self, kind, hidden):
        # `read_params` is `formats.parse_model`'s triple as a vector
        p = init_params(kind, 7, hidden_dim=hidden or 8)
        buf = io.StringIO()
        write_params(p, buf)
        buf.seek(0)
        parsed = parse_model(buf)
        assert parsed == (kind, hidden, p.vector.tolist())
        assert all(type(value) is float for value in parsed[2])

    def test_header(self):
        buf = io.StringIO()
        write_params(init_params("mlp", 0, hidden_dim=8), buf)
        assert buf.getvalue().splitlines()[0] == \
            "segtrain-model v1 kind=mlp dim=7 hidden=8"

    @pytest.mark.parametrize("header, message", [
        ("some other format", "bad model header: 'some other format'"),
        ("segtrain-model v1 kind=linear dim=x hidden=0", "bad model header"),
        ("segtrain-model v1 kind=linear dim7 hidden=0", "bad model header"),
        ("segtrain-model v1 kind=linear dim=7 hidden=-1", "bad model header"),
        ("segtrain-model v1 kind=tree dim=7 hidden=0", "bad model header"),
        ("segtrain-model v1 kind=linear dim=7", "bad model header"),
        ("segtrain-model v2 kind=linear dim=7 hidden=0", "bad model header"),
        ("segtrain-model v1 kind=linear dim=5 hidden=0",
         "model feature dimension 5 does not match 7"),
        # `write_params` would write hidden=0, so the file would not round-trip
        ("segtrain-model v1 kind=linear dim=7 hidden=5",
         "bad model header: linear scorer needs hidden=0, got hidden=5"),
    ])
    def test_bad_header_rejected(self, header, message):
        with pytest.raises(ParseError) as info:
            read_params(io.StringIO(header + "\n" + "0.5\n" * 8))
        assert info.value.line_no == 1
        assert str(info.value).startswith(f"line 1: {message}")

    @pytest.mark.parametrize("value", ["x", "0.5 0.5", "nan", "-inf", "1e999"])
    def test_bad_parameter_rejected_at_its_line(self, value):
        buf = io.StringIO()
        write_params(init_params("linear", 0), buf)
        lines = buf.getvalue().splitlines()
        lines[3] = value
        with pytest.raises(ParseError) as info:
            read_params(io.StringIO("\n".join(lines) + "\n"))
        assert str(info.value) == f"line 4: bad parameter: {value!r}"

    def test_undecodable_byte_rejected_at_its_line(self):
        buf = io.StringIO()
        write_params(init_params("linear", 0), buf)
        lines = buf.getvalue().encode().splitlines()
        lines[2] = b"0.5\xff"
        stream = io.TextIOWrapper(io.BytesIO(b"\n".join(lines) + b"\n"), encoding="utf-8")
        with pytest.raises(ParseError) as info:
            read_params(stream)
        assert str(info.value) == "line 3: utf-8 cannot decode 0xff (invalid start byte)"

    def test_non_finite_rejected(self):
        p = init_params("linear", 0)
        p.out_weights[0] = float("inf")
        with pytest.raises(ValueError):
            write_params(p, io.StringIO())

    def test_mlp_without_hidden_units_rejected(self):
        with pytest.raises(ValueError, match="mlp scorer needs hidden >= 1, got hidden=0"):
            init_params("mlp", 0, hidden_dim=0)
        init_params("linear", 0, hidden_dim=0)  # the linear scorer has no hidden layer
        # 0 hidden units leave the output bias as the one parameter
        text = "segtrain-model v1 kind=mlp dim=7 hidden=0\n0.5\n"
        with pytest.raises(ValueError, match="mlp scorer needs hidden >= 1, got hidden=0"):
            read_params(io.StringIO(text))

    @pytest.mark.parametrize("kind, count, line_no, got", [
        ("linear", 7, 8, "7"),  # the last parameter missing
        ("linear", 0, 1, "0"),  # the header alone
        ("linear", 9, 10, "more"),  # at the first extra parameter
        ("linear", 12, 10, "more"),
        ("mlp", 72, 73, "72"),
        ("mlp", 74, 75, "more"),
    ])
    def test_wrong_count_rejected_at_its_line(self, kind, count, line_no, got):
        buf = io.StringIO()
        write_params(init_params(kind, 0), buf)
        header, *values = buf.getvalue().splitlines()
        values = (values * 2)[:count]
        with pytest.raises(ParseError) as info:
            read_params(io.StringIO("\n".join([header, *values]) + "\n\n"))
        expected = {"linear": 8, "mlp": 73}[kind]
        assert str(info.value) == (f"line {line_no}: expected {expected} parameters "
                                   f"for a {kind} scorer, got {got}")
