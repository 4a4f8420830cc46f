import array
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from document_oracle import Document, document_from_text
from e2e_utils import read_views
from numpy_reductions import numpy_aggregate, numpy_best_segments, starts_of
from segtrain.corpus import (
    Query,
    SegmentationPolicy,
    document_stream,
    segment_for_inference,
    segment_for_training,
)
from segtrain.evaluation import RankedList
from segtrain.ranking import (
    Aggregation,
    best_segments,
    document_scores,
    rank_by_scores,
    rank_pairs,
    row_scores,
)
from segtrain.scorer import (
    F_MATCH_FRACTION,
    F_POSITION_RATIO,
    NUM_FEATURES,
    ScorerParams,
    _finite_scores,
    init_params,
    score_batch,
    segment_features,
)
from segtrain.training import build_training_set, rank_store


def position_scorer() -> ScorerParams:
    """Scores a segment by its index: segment i scores i / max_segments."""
    w = np.zeros(NUM_FEATURES)
    w[F_POSITION_RATIO] = 1.0
    return ScorerParams("linear", 0, np.append(w, 0.0))


def rank(params: ScorerParams, query: Query, docs: list[Document],
         agg: Aggregation = Aggregation.MAX_P) -> RankedList:
    """`query`'s ranking of `docs` by `rank_store`, over the store the
    `rerank` command builds from the views of the candidates: the
    inference windows of every candidate."""
    candidates = {query.id: [d.id for d in docs]}
    views, stats = read_views(docs, [query], candidates)
    store = build_training_set([query], {}, candidates, views,
                               SegmentationPolicy("inference"), stats)
    return rank_store(params, store, agg)[query.id]


@pytest.fixture
def two_window_doc() -> Document:
    # 10 sentences of 100 tokens: two 512-token inference windows
    return Document("doc", "", [[f"s{i}w{j}" for j in range(100)]
                                for i in range(10)])


class TestScoreDocument:
    """A document's score in `rank_store`: its window scores aggregated."""

    def test_max_p_takes_best_window(self, two_window_doc):
        q = Query.from_text("q", "anything")
        # position scorer: window 0 scores 0.0, window 1 scores 0.25
        [entry] = rank(position_scorer(), q, [two_window_doc], Aggregation.MAX_P).entries
        assert entry.score == pytest.approx(0.25)

    def test_first_p_takes_first_window(self, two_window_doc):
        q = Query.from_text("q", "anything")
        [entry] = rank(position_scorer(), q, [two_window_doc], Aggregation.FIRST_P).entries
        assert entry.score == pytest.approx(0.0)

    def test_single_segment_doc_agg_equal(self):
        doc = document_from_text("doc", "t", "just one short sentence.")
        q = Query.from_text("q", "short sentence")
        rng = np.random.default_rng(0)
        params = ScorerParams("linear", 0, np.append(rng.normal(size=NUM_FEATURES), 0.2))
        [first] = rank(params, q, [doc], Aggregation.FIRST_P).entries
        [best] = rank(params, q, [doc], Aggregation.MAX_P).entries
        assert first.score == best.score


def test_inference_position_ratio_reaches_1_25_at_config_e():
    """Pinned as it is: config_e's 18 sentences of 128 tokens make six
    512-token inference windows, so with max_segments=4 the position
    feature runs to 5 / 4, past the 3 / 4 that training segments reach."""
    doc = Document("doc", "two words", [[f"s{i}w{j}" for j in range(128)]
                                        for i in range(18)])
    q = Query.from_text("q", "s0w0")
    views, stats = read_views([doc], [q], {"q": ["doc"]})
    feats = segment_features(q, views["doc"], segment_for_inference(views["doc"], 512),
                             stats, max_tokens=512, max_segments=4)
    assert feats[:, F_POSITION_RATIO].tolist() == [0.0, 0.25, 0.5, 0.75, 1.0, 1.25]
    policy = SegmentationPolicy("training", 512, 128, 4, seed=0, query_token_budget=16)
    for seed in range(20):
        segments = segment_for_training(doc, policy, document_stream(seed, doc.id))
        assert max(seg.index for seg in segments) / 4 <= 0.75


class TestRankByScores:
    def test_single_candidate(self):
        ranked = rank_by_scores("q", {"a": -3.0})
        assert [(e.doc_id, e.rank) for e in ranked.entries] == [("a", 1)]

    def test_score_ordering(self):
        ranked = rank_by_scores("q", {"A": 0.2, "B": 0.7})
        assert [e.doc_id for e in ranked.entries] == ["B", "A"]

    def test_ties_break_by_doc_id(self):
        ranked = rank_by_scores("q", {"B": 0.5, "A": 0.5})
        assert [e.doc_id for e in ranked.entries] == ["A", "B"]

    def test_nan_ranks_after_every_number_then_by_doc_id(self):
        scores = {"e": np.nan, "d": -np.inf, "c": np.nan, "b": 2.0, "a": np.nan}
        ranked = rank_by_scores("q", scores)
        assert [e.doc_id for e in ranked.entries] == ["b", "d", "a", "c", "e"]
        assert [e.rank for e in ranked.entries] == [1, 2, 3, 4, 5]

    def test_ranks_consecutive(self):
        ranked = rank_by_scores("q", {c: float(i) for i, c in enumerate("fedcba")})
        assert [e.rank for e in ranked.entries] == [1, 2, 3, 4, 5, 6]
        scores = [e.score for e in ranked.entries]
        assert scores == sorted(scores, reverse=True)


def doc_with_terms(doc_id: str, terms: str) -> Document:
    return document_from_text(doc_id, "", terms + ".")


class TestRerank:
    """A candidate pool ranked by `rank_store`, as the `rerank` command
    ranks it."""

    def test_matching_doc_wins(self):
        docs = [doc_with_terms("a", "unrelated filler words"),
                doc_with_terms("b", "target phrase here")]
        q = Query.from_text("q", "target phrase")
        w = np.zeros(NUM_FEATURES)
        w[F_MATCH_FRACTION] = 1.0
        ranked = rank(ScorerParams("linear", 0, np.append(w, 0.0)), q, docs)
        assert ranked.entries[0].doc_id == "b"
        assert ranked.entries[0].rank == 1

    def test_identical_docs_tie_by_id(self):
        docs = [doc_with_terms("z", "same words here"),
                doc_with_terms("a", "same words here")]
        q = Query.from_text("q", "same words")
        rng = np.random.default_rng(1)
        params = ScorerParams("linear", 0, np.append(rng.normal(size=NUM_FEATURES), 0.0))
        ranked = rank(params, q, docs)
        assert [e.doc_id for e in ranked.entries] == ["a", "z"]

    def test_permutation_property(self):
        rng = np.random.default_rng(2)
        vocab = [f"w{i}" for i in range(30)]
        docs = [doc_with_terms(f"d{i}", " ".join(rng.choice(vocab, size=8)))
                for i in range(12)]
        q = Query.from_text("q", "w1 w2 w3")
        params = ScorerParams("linear", 0, np.append(rng.normal(size=NUM_FEATURES), 0.0))
        for agg in Aggregation:
            ranked = rank(params, q, docs, agg)
            assert sorted(e.doc_id for e in ranked.entries) == sorted(d.id for d in docs)
            assert [e.rank for e in ranked.entries] == list(range(1, len(docs) + 1))


score_lists = st.dictionaries(
    st.text(alphabet="abcdefgh", min_size=1, max_size=3),
    st.lists(st.floats(-5, 5), min_size=1, max_size=4),
    min_size=1, max_size=8)


def increasing(s: float) -> float:
    """Strictly increasing and non-affine; exact in float64 for |s| <= 5,
    subnormals and -0.0 included (scaling by 4 only shifts the exponent)."""
    return s if s < 0 else 4 * s


@settings(max_examples=80)
@given(score_lists)
@example({"a": [0.0], "aa": [8.658335439817471e-225]})
@example({"a": [-0.0], "b": [0.0]})
def test_max_aggregation_invariant_under_monotone_transform(segment_scores):
    """Strictly increasing transforms of segment scores keep the max_p order."""
    docs = list(segment_scores)
    flat = [s for d in docs for s in segment_scores[d]]
    counts = [len(segment_scores[d]) for d in docs]
    raw = dict(zip(docs, document_scores(flat, counts, Aggregation.MAX_P)))
    transformed = dict(zip(docs, document_scores([increasing(s) for s in flat], counts,
                                                 Aggregation.MAX_P)))
    order_raw = [e.doc_id for e in rank_by_scores("q", raw).entries]
    order_t = [e.doc_id for e in rank_by_scores("q", transformed).entries]
    assert order_raw == order_t


# Runs of scores, one per (query, document) pair: any float but NaN,
# which no scoring lets through, with ties and zeros of both signs
# drawn often.
scores = st.one_of(st.floats(allow_nan=False),
                   st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]))
score_runs = st.lists(st.lists(scores, min_size=1, max_size=8), max_size=8)
ZERO_RUNS = [[-0.0, 0.0], [0.0, -0.0], [0.0], [-0.0], [1.0, -0.0, 1.0, 0.0, 1.0]]


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(max_examples=80)
@given(score_runs)
@example([[-math.inf, 1.0], [2.0, math.inf], *ZERO_RUNS])
def test_aggregate_reduces_each_run_at_once(runs):
    """One call over runs laid back to back gives, bit for bit, each
    run's first score and its numpy `max()`: the last of equal scores."""
    flat = [s for run in runs for s in run]
    counts = [len(run) for run in runs]
    first = document_scores(flat, counts, Aggregation.FIRST_P)
    best = document_scores(flat, counts, Aggregation.MAX_P)
    assert bits(first) == bits([run[0] for run in runs])
    assert bits(best) == bits([np.array(run).max() for run in runs])


@settings(max_examples=150)
@given(score_runs)
@example(ZERO_RUNS)
@example([[-0.0, 0.0, 0.0], [0.0, -0.0, -0.0], [3.0, 3.0, 3.0, 3.0, 3.0]])
def test_document_scores_match_the_numpy_reduction(runs):
    flat = [s for run in runs for s in run]
    counts = [len(run) for run in runs]
    starts = starts_of(counts)
    for agg in Aggregation:
        expected = numpy_aggregate(np.array(flat, dtype=np.float64), starts, agg)
        assert bits(document_scores(flat, counts, agg)) == expected.tobytes(), agg


@settings(max_examples=50)
@given(st.lists(st.lists(scores, min_size=9, max_size=40), min_size=1, max_size=4))
@example([[-0.0] * 8 + [0.0], [0.0] * 8 + [-0.0], [1.0, 2.0] * 10])
def test_long_runs_match_the_numpy_reduction_but_for_a_zeros_sign(runs):
    """Past 8 scores numpy reduces a run in vector lanes, so the sign of
    a zero maximum is numpy's choice; every other bit is the same."""
    flat = [s for run in runs for s in run]
    counts = [len(run) for run in runs]
    best = document_scores(flat, counts, Aggregation.MAX_P)
    expected = numpy_aggregate(np.array(flat), starts_of(counts), Aggregation.MAX_P)
    assert best == expected.tolist()
    assert bits([b or 0.0 for b in best]) == bits([e or 0.0 for e in expected])


@settings(max_examples=150)
@given(st.lists(st.lists(scores, min_size=1, max_size=12), min_size=1, max_size=8),
       st.integers(1, 6))
@example(ZERO_RUNS, 4)
@example([[2.0, 1.0, 2.0], [1.0, 2.0, 2.0], [0.0, -0.0], [-0.0, 0.0]], 1)
@example([[1.0, 1.0, 1.0, 1.0, 5.0, 5.0]], 4)  # the largest lies past max_segments
@example([[-0.0, 0.0, -0.0, 0.0, 7.0]], 3)
def test_best_segments_match_the_numpy_reduction(runs, max_segments):
    """The smallest index of the largest leading score, and its score,
    as `training.select_segments` took them with numpy."""
    flat = [s for run in runs for s in run]
    counts = [len(run) for run in runs]
    index, best = best_segments(flat, counts, max_segments)
    expected_index, expected_best = numpy_best_segments(
        np.array(flat, dtype=np.float64), starts_of(counts), max_segments)
    assert index == expected_index.tolist()
    assert bits(best) == expected_best.tobytes()
    assert all(0 <= i < min(n, max_segments) for i, n in zip(index, counts))


def test_rank_pairs_ranks_each_query_in_first_seen_order():
    run = rank_pairs([("q2", "b"), ("q2", "a"), ("q1", "c")], [0.5, 0.5, -1.0])
    assert list(run) == ["q2", "q1"]
    assert [(e.doc_id, e.rank) for e in run["q2"].entries] == [("a", 1), ("b", 2)]
    assert [(e.doc_id, e.score) for e in run["q1"].entries] == [("c", -1.0)]


# Parameters and features for the linear kernel: any finite float, with
# subnormals, zeros of both signs and values near the largest double
# drawn often, so that some scores overflow.
extremes = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                            1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308])
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(-1e-300, 1e-300), st.floats(1e307, 1.8e308, allow_infinity=False),
                   st.floats(-2.0, 2.0), extremes)
linear_values = st.lists(finite, min_size=NUM_FEATURES + 1, max_size=NUM_FEATURES + 1)
feature_rows = st.lists(st.lists(finite, min_size=NUM_FEATURES, max_size=NUM_FEATURES),
                        max_size=12)


def row_buffers(rows: list[list[float]]) -> list:
    """The rows as a `formats.Store` holds them on a stores hit (bytes
    under a memoryview) and on a miss (a float64 matrix's memoryview)."""
    matrix = np.array(rows, dtype=np.float64).reshape(-1, NUM_FEATURES)
    return [memoryview(array.array("d", matrix.ravel().tolist()).tobytes()),
            memoryview(matrix)]


@settings(max_examples=300)
@given(linear_values, feature_rows)
@example([0.5] * NUM_FEATURES + [0.0], [[-0.0] * NUM_FEATURES, [0.0] * NUM_FEATURES])
@example([-0.0] * NUM_FEATURES + [-0.0], [[0.0] * NUM_FEATURES, [-0.0] * NUM_FEATURES])
@example([5e-324] * NUM_FEATURES + [0.0], [[5e-324] * NUM_FEATURES, [0.5] * NUM_FEATURES])
@example([1e308] * NUM_FEATURES + [0.0], [[1.0] * NUM_FEATURES])  # overflows
@example([1e308, -1e308, 1e308, -1e308, 1e308, -1e308, 1e308, 0.0],
         [[1.0] * NUM_FEATURES])  # cancels step by step
@example([1.7976931348623157e308] * NUM_FEATURES + [1.7976931348623157e308],
         [[-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0]])
@example([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 1e-17],
         [[0.3, 0.1, 1e16, -1e16, 0.7, 1e-300, 3.0]])  # order-sensitive sum
def test_linear_row_scores_have_the_bits_of_score_batch(values, rows):
    """The plain-Python linear kernel gives `score_batch`'s bits, and
    raises where numpy's scores are not finite."""
    params = ScorerParams("linear", 0, np.array(values))
    matrix = np.array(rows, dtype=np.float64).reshape(-1, NUM_FEATURES)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = score_batch(params, matrix)
    for buffer in row_buffers(rows):
        if np.isfinite(expected).all():
            assert bits(row_scores(("linear", 0, values), buffer)) == expected.tobytes()
        else:
            with pytest.raises(ValueError, match="^non-finite scores$"):
                row_scores(("linear", 0, values), buffer)


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5),
       st.lists(st.lists(st.floats(-3, 3), min_size=NUM_FEATURES, max_size=NUM_FEATURES),
                max_size=10))
def test_mlp_row_scores_are_score_batch(seed, hidden, rows):
    params = init_params("mlp", seed, hidden)
    params.vector[:] += np.random.default_rng(seed).normal(size=len(params.vector))
    model = ("mlp", hidden, params.vector.tolist())
    expected = _finite_scores(params, np.array(rows).reshape(-1, NUM_FEATURES))
    for buffer in row_buffers(rows):
        assert bits(row_scores(model, buffer)) == expected.tobytes()
    huge = ("mlp", hidden, [1e308] * len(params.vector))
    with pytest.raises(ValueError, match="^non-finite scores$"):
        row_scores(huge, row_buffers([[1.0] * NUM_FEATURES])[0])
