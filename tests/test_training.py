import dataclasses
import inspect
import os
import random
import zlib
from pathlib import Path

import numpy as np
import pytest

from document_oracle import Document, compute_corpus_stats, document_view, synth_documents
from e2e_utils import assemble, judged, pair_rows, read_views, scored_terms
from segtrain import corpus as corpus_module
from segtrain import cache, formats
from segtrain.cache import Store
from segtrain.corpus import (
    CorpusStats,
    Query,
    Segment,
    inference_windows,
    segment_for_inference,
)
from segtrain.evaluation import holdout_split, segment_p_at_1
from segtrain.ranking import Aggregation
from segtrain.scorer import (
    F_MATCH_FRACTION,
    NUM_FEATURES,
    LossKind,
    ScorerParams,
    batch_loss_and_gradient,
    init_params,
    score_batch,
    segment_features,
)
from segtrain.synth import SynthConfig, generate_corpus, write_corpus
from segtrain.training import (
    TrainConfig,
    TrainingSet,
    TrainingTopic,
    _epoch_rows,
    _stack,
    best_train,
    build_stores,
    build_training_set,
    evaluate_bundle,
    rank_store,
    select_segments,
    train_baseline,
    train_single,
)


def make_segments(doc_id: str, token_lists: list[list[str]]) -> list[Segment]:
    return [Segment(doc_id, i, i, i + 1, len(tokens))
            for i, tokens in enumerate(token_lists)]


def make_tset(topics_spec, stats=None, max_segments=4) -> TrainingSet:
    """topics_spec: list of (query_text, {doc_id: [segment token lists]}, pos_ids).

    Each segment is one sentence of an untitled document; the store
    stacks the `segment_features` of each pair's view, and the training
    set is its subset judged by `pos_ids`.
    """
    stats = stats or CorpusStats(4, {}, 10.0)
    queries, candidates, qrels, blocks = [], {}, {}, [np.empty((0, NUM_FEATURES))]
    for t, (q_text, docs, pos_ids) in enumerate(topics_spec):
        query = Query.from_text(f"q{t}", q_text)
        queries.append(query)
        candidates[query.id] = list(docs)
        qrels.update({(query.id, doc_id): 1 for doc_id in pos_ids})
        for doc_id in docs:
            view = document_view(Document(doc_id, "", docs[doc_id]), query.tokens)
            blocks.append(segment_features(query, view, make_segments(doc_id, docs[doc_id]),
                                           stats, max_segments=max_segments))
    store = Store([len(block) for block in blocks[1:]], memoryview(np.concatenate(blocks)))
    return judged(store, queries, candidates, qrels, max_segments)


def match_scorer(weight: float = 1.0) -> ScorerParams:
    w = np.zeros(NUM_FEATURES)
    w[F_MATCH_FRACTION] = weight
    return ScorerParams("linear", 0, np.append(w, 0.0))


def zero_scorer() -> ScorerParams:
    return ScorerParams("linear", 0, np.zeros(NUM_FEATURES + 1))


def first_segments(tset) -> dict[tuple[str, str], int]:
    """The selection of every pair's first segment."""
    return {(t.query.id, d): 0 for t in tset.topics for d in t.candidates}


def draw_epoch(tset, selection, cfg, rng):
    """One epoch as feature rows: (positive, negative) pairs under the
    pairwise hinge, (row, label) points under the pointwise loss."""
    X, rows = _stack(tset, selection)
    examples = _epoch_rows(tset, rows, cfg, rng)
    if cfg.loss == LossKind.PAIRWISE_HINGE:
        return [(X[a], X[b]) for a, b in examples]
    return [(X[a], int(b)) for a, b in examples]


def reference_epoch(tset, selection, cfg, rng):
    """Per-example epoch builder reading each pair's feature matrix
    directly, kept as the oracle of the stacked row arrays."""
    examples = []
    n_neg = cfg.resolved_negatives()
    for topic in tset.topics:
        if not topic.negatives:
            continue

        def feats(doc_id):
            matrix = pair_rows(tset, topic.query.id, doc_id)
            if selection is None:
                return list(matrix[:tset.max_segments])
            return [matrix[selection[(topic.query.id, doc_id)]]]

        for pos_id in topic.positives:
            sampled = rng.sample(topic.negatives, min(n_neg, len(topic.negatives)))
            pos = feats(pos_id)
            if cfg.loss == LossKind.PAIRWISE_HINGE:
                for neg_id in sampled:
                    examples.extend(zip(pos, feats(neg_id)))
            else:
                examples.extend((x, 1) for x in pos)
                for neg_id in sampled:
                    examples.extend((x, 0) for x in feats(neg_id))
    rng.shuffle(examples)
    return examples


class TestTrainingTopic:
    def test_duplicate_doc_id_rejected(self):
        query = Query.from_text("q", "words")
        for positives, negatives, repeated in ((["a"], ["b", "b"], "['b']"),
                                               (["a", "a"], ["c"], "['a']"),
                                               ([], ["c", "b", "c", "b"], "['b', 'c']")):
            with pytest.raises(ValueError) as info:
                TrainingTopic(query, positives, negatives)
            assert str(info.value) == f"topic q: duplicate candidates: {repeated}"

    def test_doc_judged_both_ways_rejected(self):
        with pytest.raises(ValueError, match="judged both ways"):
            TrainingTopic(Query.from_text("q", "words"), ["a"], ["a"])


class TestBuildPairs:
    def test_pairwise_count(self):
        tset = make_tset([
            ("a b", {"p": [["a"]], "n1": [["x"]], "n2": [["y"]],
                     "n3": [["z"]], "n4": [["w"]], "n5": [["v"]]}, ["p"]),
        ])
        examples = draw_epoch(tset, first_segments(tset), TrainConfig(),
                              random.Random(0))
        assert len(examples) == 1
        pos, neg = examples[0]
        assert np.array_equal(pos, pair_rows(tset, tset.topics[0].query.id, "p")[0])
        assert neg.shape == (NUM_FEATURES,)

    def test_pointwise_clamps_to_available_negatives(self):
        docs = {"p": [["a"]]}
        docs.update({f"n{i}": [["x"]] for i in range(6)})
        tset = make_tset([("a", docs, ["p"])])
        cfg = TrainConfig(loss=LossKind.POINTWISE_CE, negatives_per_positive=10)
        examples = draw_epoch(tset, first_segments(tset), cfg, random.Random(0))
        labels = [label for _, label in examples]
        assert labels.count(1) == 1 and labels.count(0) == 6

    def test_same_seed_same_examples(self):
        docs = {"p": [["a"]]}
        docs.update({f"n{i}": [["x", str(i)]] for i in range(8)})
        tset = make_tset([("a", docs, ["p"])])
        cfg = TrainConfig()
        a = draw_epoch(tset, first_segments(tset), cfg, random.Random(3))
        b = draw_epoch(tset, first_segments(tset), cfg, random.Random(3))
        assert len(a) == len(b)
        assert all(np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1])
                   for x, y in zip(a, b))

    def test_topic_without_negatives_skipped(self):
        tset = make_tset([
            ("a", {"p": [["a"]]}, ["p"]),
            ("b", {"p2": [["b"]], "n": [["x"]]}, ["p2"]),
        ])
        examples = draw_epoch(tset, first_segments(tset), TrainConfig(),
                              random.Random(0))
        assert len(examples) == 1
        assert np.array_equal(examples[0][0],
                              pair_rows(tset, tset.topics[1].query.id, "p2")[0])

    def test_missing_selection_entry_rejected(self):
        tset = make_tset([("a", {"p": [["a"]], "n": [["x"]]}, ["p"])])
        with pytest.raises(ValueError, match="selection missing entry"):
            _stack(tset, {})

    def test_selection_out_of_range_rejected(self):
        tset = make_tset([("a", {"p": [["a"]], "n": [["x"]]}, ["p"])])
        for index in (1, -1):
            with pytest.raises(ValueError, match="is not one of its 1 segments"):
                _stack(tset, {("q0", "p"): index, ("q0", "n"): 0})

    def test_all_segments_pair_shared_leading_rows(self):
        spec = [("a", {"p": [["a"], ["b"]], "n": [["x"], ["y"], ["z"]]}, ["p"])]
        tset = make_tset(spec)
        query = tset.topics[0].query
        pos, neg = pair_rows(tset, query.id, "p"), pair_rows(tset, query.id, "n")
        pairs = draw_epoch(tset, None, TrainConfig(), random.Random(0))
        assert sorted((p.tolist(), n.tolist()) for p, n in pairs) == \
            sorted((pos[j].tolist(), neg[j].tolist()) for j in range(2))
        points = draw_epoch(make_tset(spec, max_segments=2), None,
                            TrainConfig(loss=LossKind.POINTWISE_CE), random.Random(0))
        assert sorted(label for _, label in points) == [0, 0, 1, 1]

    def test_rows_are_views_of_one_stacked_matrix(self):
        tset = _random_tset(np.random.default_rng(5))
        X, rows = tset.matrix, tset.rows
        assert not X.flags.writeable
        assert len(X) == sum(len(span) for span in rows.values())
        for topic in tset.topics:
            for doc_id in topic.candidates:
                assert np.shares_memory(pair_rows(tset, topic.query.id, doc_id), X)
        assert _stack(tset, None)[0] is X
        assert _stack(tset, first_segments(tset))[0] is X

    def test_a_store_must_tile_its_pairs(self):
        # each pair the queries and candidates lay out gets a run of at
        # least one row, and the runs cover the rows
        queries = [Query.from_text("q0", "a"), Query.from_text("q1", "b")]
        candidates = {"q0": ["d0", "d1"], "q1": ["d1"], "q2": ["d2"]}
        rows = memoryview(np.arange(5.0 * NUM_FEATURES))
        tset = TrainingSet.subset(Store([2, 1, 2], rows), queries, candidates, ["q1"], {})
        assert tset.rows == {("q1", "d1"): range(0, 2)}
        assert tset.matrix.tobytes() == rows[3 * NUM_FEATURES:].tobytes()
        bad = {
            "a pair too few": [2, 3],
            "a pair too many": [2, 1, 1, 1],
            "an empty pair": [2, 0, 3],
            "rows left over": [2, 1, 1],
            "rows missing": [2, 1, 3],
        }
        for counts in bad.values():
            with pytest.raises(ValueError, match="^a store of"):
                TrainingSet.subset(Store(counts, rows), queries, candidates, ["q1"], {})

    @pytest.mark.parametrize("loss", list(LossKind))
    def test_epoch_rows_equal_per_example_reference(self, loss):
        rng = np.random.default_rng(17)
        for trial in range(40):
            tset = _random_tset(rng, max_segments=int(rng.integers(1, 5)))
            cfg = TrainConfig(loss=loss, negatives_per_positive=int(rng.integers(1, 4)))
            selection = None
            if trial % 2:
                selection = {
                    (t.query.id, d): int(rng.integers(len(pair_rows(tset, t.query.id, d))))
                    for t in tset.topics for d in t.candidates}
            got = draw_epoch(tset, selection, cfg, random.Random(trial))
            expected = reference_epoch(tset, selection, cfg, random.Random(trial))
            assert len(got) == len(expected)
            for (a, b), (x, y) in zip(got, expected):
                assert np.array_equal(a, x) and np.array_equal(b, y)


def _random_tset(rng, max_segments=4) -> TrainingSet:
    vocab = [f"t{i}" for i in range(12)]
    spec = []
    n_topics = int(rng.integers(1, 4))
    for t in range(n_topics):
        q = " ".join(rng.choice(vocab, size=2))
        docs = {}
        for d in range(int(rng.integers(2, 5))):
            doc_id = f"d{t}_{d}"
            n_segs = int(rng.integers(1, 5))
            docs[doc_id] = [
                list(rng.choice(vocab, size=int(rng.integers(1, 6))))
                for _ in range(n_segs)
            ]
        spec.append((q, docs, [f"d{t}_0"]))
    stats = CorpusStats(8, {v: int(rng.integers(1, 8)) for v in vocab}, 6.0)
    return make_tset(spec, stats, max_segments)


class TestSelectSegments:
    def test_argmax(self):
        tset = make_tset([
            ("a b", {"p": [["x"], ["a", "b"], ["a", "x"]], "n": [["x"]]}, ["p"]),
        ])
        sel, scores = select_segments(match_scorer(), tset)
        assert sel[("q0", "p")] == 1
        assert scores[("q0", "p")] == 1.0 and scores[("q0", "n")] == 0.0

    def test_tie_breaks_to_smallest_index(self):
        tset = make_tset([
            ("a b c", {"p": [["a", "b", "c"], ["a", "b", "c"], ["x"]],
                       "n": [["x"]]}, ["p"]),
        ])
        sel, _ = select_segments(match_scorer(), tset)
        assert sel[("q0", "p")] == 0

    def test_cap_at_k(self):
        segs = [["x"]] * 5 + [["a", "b"]]  # best segment is index 5
        tset = make_tset([("a b", {"p": segs, "n": [["x"]]}, ["p"])])
        sel, _ = select_segments(match_scorer(), tset)
        assert 0 <= sel[("q0", "p")] < 4

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            tset = _random_tset(rng, max_segments=k)
            params = ScorerParams("linear", 0, rng.normal(size=NUM_FEATURES + 1))
            sel, scores = select_segments(params, tset)
            for topic in tset.topics:
                for doc_id in topic.positives + topic.negatives:
                    feats = pair_rows(tset, topic.query.id, doc_id)
                    best, best_score = 0, -float("inf")
                    for i in range(min(k, len(feats))):
                        s = float(score_batch(params, feats[i:i + 1])[0])
                        if s > best_score:
                            best, best_score = i, s
                    assert sel[(topic.query.id, doc_id)] == best
                    # one row alone scores the bits it scores in the store
                    assert scores[(topic.query.id, doc_id)] == best_score

    def test_extreme_scores_select_as_argmax_does_and_overflow_raises(self):
        # weights near the largest double give scores that are extreme
        # yet finite, where the first maximum wins, or that overflow,
        # which is a ValueError and no warning
        rng = np.random.default_rng(12)
        finite = []
        for _ in range(60):
            k = int(rng.integers(1, 6))
            tset = _random_tset(rng, max_segments=k)
            weights = rng.choice([1e308, -1e308, 1e300, 0.0, 1.0], size=NUM_FEATURES)
            params = ScorerParams("linear", 0, np.append(weights, rng.choice([0.0, 1e308])))
            with np.errstate(invalid="ignore", over="ignore"):
                all_scores = score_batch(params, tset.matrix)
            finite.append(bool(np.isfinite(all_scores).all()))
            with np.errstate(all="raise"):
                if not finite[-1]:
                    with pytest.raises(ValueError, match="^non-finite scores$"):
                        select_segments(params, tset)
                    continue
                sel, scores = select_segments(params, tset)
            for key, span in tset.rows.items():
                leading = all_scores[span.start:span.stop][:k]
                assert sel[key] == int(np.argmax(leading))
                assert scores[key] == leading[sel[key]]
        assert 10 < sum(finite) < 50

    def test_store_without_qrels_covers_every_candidate(self):
        queries = [Query.from_text("q0", "a"), Query.from_text("q1", "b"),
                   Query.from_text("q2", "c")]
        docs = {d: document_view(Document(d, "", [[d, "a", "b"]] * 3), "abc")
                for d in ("d0", "d1", "d2")}
        candidates = {"q0": ["d0", "d1"], "q1": ["d1", "d2"], "q2": []}
        policy = SynthConfig(min_tokens=2, max_tokens=4, query_token_budget=0).policy()
        store = build_training_set(queries, candidates, docs, policy,
                                   CorpusStats(3, {}, 3.0))
        assert len(store.counts) == 4 and store.rows.readonly
        tset = judged(store, queries, candidates, {})
        assert [(t.query.id, t.positives, t.negatives) for t in tset.topics] == \
            [("q0", [], ["d0", "d1"]), ("q1", [], ["d1", "d2"])]
        sel, scores = select_segments(match_scorer(), tset)
        assert set(sel) == set(scores) == {("q0", "d0"), ("q0", "d1"),
                                           ("q1", "d1"), ("q1", "d2")}


def small_collection(seed=0, noise=0.0, plant=(0, 4), n_queries=40, n_train=30):
    cfg = SynthConfig(num_queries=n_queries, docs_per_query=4,
                      sentences_per_doc=12, tokens_per_sentence=32,
                      vocab_size=2000, query_terms=3,
                      plant_lo=plant[0], plant_hi=plant[1],
                      distractor_overlap=0.3, noise=noise, seed=seed,
                      min_tokens=48, max_tokens=128, query_token_budget=8)
    return assemble(cfg, n_train)


class TestTrainSingle:
    def test_zero_learning_rate_returns_init(self):
        coll = small_collection()
        cfg = TrainConfig(learning_rate=0.0, epochs=3, seed=21)
        params, _ = train_single(coll.train_set, coll.dev_bundle, None,
                                 cfg, seed=99)
        assert np.array_equal(params.vector, init_params("linear", 99).vector)

    def test_deterministic(self):
        coll_a = small_collection()
        coll_b = small_collection()
        cfg = TrainConfig(epochs=4, seed=5)
        pa, ma = train_single(coll_a.train_set, coll_a.dev_bundle, None,
                              cfg, seed=5)
        pb, mb = train_single(coll_b.train_set, coll_b.dev_bundle, None,
                              cfg, seed=5)
        assert ma == mb
        assert np.array_equal(pa.vector, pb.vector)

    def test_training_reduces_loss(self):
        # the mean hinge over every (positive, negative) pair of shared
        # leading rows: the objective SGD samples its epochs from
        coll = small_collection()
        X, rows = _stack(coll.train_set, None)
        pairs = np.array([(a, b) for t in coll.train_set.topics
                          for p in t.positives for n in t.negatives
                          for a, b in zip(rows[(t.query.id, p)], rows[(t.query.id, n)])])

        def objective(params):
            loss, _ = batch_loss_and_gradient(params, X[pairs[:, 0]], X[pairs[:, 1]],
                                              LossKind.PAIRWISE_HINGE)
            return loss

        cfg = TrainConfig(epochs=8, seed=2)
        trained, _ = train_single(coll.train_set, coll.dev_bundle, None,
                                  cfg, seed=2)
        assert objective(trained) < objective(init_params(cfg.scorer_kind, 2))

    def test_empty_training_set_rejected(self):
        coll = small_collection()
        empty = judged(Store([], memoryview(b"")), [], {}, {})
        with pytest.raises(ValueError):
            train_single(empty, coll.dev_bundle, None, TrainConfig(), 0)


class TestBestTrain:
    def test_single_iteration_history(self):
        coll = small_collection()
        cfg = TrainConfig(max_iterations=1, epochs=4, seed=3)
        result = best_train(coll.train_set, coll.dev_bundle, cfg)
        assert len(result.history) == 1
        assert result.history[0].n == 1
        assert result.best_iteration == 1

    def test_bookkeeping_is_argmax(self):
        coll = small_collection(noise=0.3)
        cfg = TrainConfig(max_iterations=3, iteration_patience=3, epochs=6, seed=4)
        result = best_train(coll.train_set, coll.dev_bundle, cfg)
        metrics = [s.validation_metric for s in result.history]
        assert result.best_iteration == result.history[metrics.index(max(metrics))].n
        assert result.best_state.validation_metric == max(metrics)

    def test_fresh_initialization_per_iteration(self):
        # with lr = 0 every iteration must come back exactly at its own init
        coll = small_collection()
        cfg = TrainConfig(learning_rate=0.0, max_iterations=2,
                          iteration_patience=5, epochs=2, seed=17)
        result = best_train(coll.train_set, coll.dev_bundle, cfg)
        for state in result.history:
            expected = init_params(cfg.scorer_kind, cfg.seed + state.n)
            assert np.array_equal(state.params.vector, expected.vector)

    def test_deterministic_end_to_end(self):
        results = []
        for _ in range(2):
            coll = small_collection(seed=8)
            cfg = TrainConfig(max_iterations=2, epochs=4, seed=8)
            results.append(best_train(coll.train_set, coll.dev_bundle, cfg))
        a, b = results
        assert [s.validation_metric for s in a.history] == \
               [s.validation_metric for s in b.history]
        assert all(np.array_equal(x.params.vector, y.params.vector)
                   for x, y in zip(a.history, b.history))
        assert a.best_iteration == b.best_iteration

    def test_selection_recovers_planted_segments(self):
        coll = small_collection(seed=1)
        cfg = TrainConfig(max_iterations=2, epochs=8, seed=1)
        result = best_train(coll.train_set, coll.dev_bundle, cfg)
        sel, _ = select_segments(result.best_state.params, coll.dev_set)
        assert segment_p_at_1(sel, coll.dev_gold) > 0.8


class TestTrainBaseline:
    def test_gold_all_zeros_identical_to_first(self):
        coll = small_collection(plant=(0, 1))  # every gold index is 0
        assert set(coll.corpus.gold.values()) == {0}
        cfg = TrainConfig(epochs=4, seed=6)
        p_first, m_first = train_baseline(coll.train_set, coll.dev_bundle, cfg)
        p_gold, m_gold = train_baseline(coll.train_set, coll.dev_bundle, cfg,
                                        coll.corpus.gold)
        assert m_first == m_gold
        assert np.array_equal(p_first.vector, p_gold.vector)

    def test_missing_gold_rejected(self):
        coll = small_collection()
        with pytest.raises(ValueError):
            train_baseline(coll.train_set, coll.dev_bundle, TrainConfig(), gold={})

    def test_gold_not_worse_than_first(self):
        # plant away from segment 0 so first-segment training sees no signal
        coll = small_collection(seed=9, plant=(1, 4))
        cfg = TrainConfig(epochs=8, seed=9)
        _, m_first = train_baseline(coll.train_set, coll.dev_bundle, cfg)
        _, m_gold = train_baseline(coll.train_set, coll.dev_bundle, cfg,
                                   coll.corpus.gold)
        assert m_gold >= m_first


class TestEvaluateBundle:
    def test_first_vs_max_aggregation(self):
        coll = small_collection(seed=12, plant=(1, 4))
        cfg = TrainConfig(epochs=8, seed=12)
        result = best_train(coll.train_set, coll.dev_bundle, cfg)
        params = result.best_state.params
        m_max, run_max = evaluate_bundle(params, coll.dev_bundle, Aggregation.MAX_P)
        m_first, _ = evaluate_bundle(params, coll.dev_bundle, Aggregation.FIRST_P)
        # evidence is planted beyond segment 0, so first-passage scoring
        # must not beat max aggregation
        assert m_first <= m_max
        assert set(run_max) == {t.query.id for t in coll.dev_bundle.topics}

    def test_a_diverged_model_is_an_error_not_a_perfect_one(self):
        # the dev store lists each topic's positives first; NaN scores must
        # not keep that order and score MRR 1
        dev = small_collection(seed=3).dev_bundle
        params = init_params("linear", 0)
        params.vector[-1] = np.nan
        with np.errstate(all="raise"), pytest.raises(ValueError,
                                                     match="^non-finite scores$"):
            evaluate_bundle(params, dev)

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_scores_do_not_depend_on_the_store(self, kind):
        # a store built for a subset of the queries, as a fold is, scores
        # and ranks each of its pairs bit for bit as the full store does
        cfg, corpus, views, stats = late_collection(seed=4)
        rng = np.random.default_rng(4)
        count = NUM_FEATURES + 1 if kind == "linear" else (NUM_FEATURES + 2) * 8 + 1
        params = ScorerParams(kind, 8 if kind == "mlp" else 0, rng.normal(size=count))
        for policy in (cfg.policy(), dataclasses.replace(cfg.policy(), mode="inference")):
            full = judged(build_training_set(corpus.queries, corpus.candidates, views,
                                             policy, stats),
                          corpus.queries, corpus.candidates, corpus.qrels, cfg.max_segments)
            full_selection, full_scores = select_segments(params, full)
            full_runs = {agg: rank_store(params, full, agg) for agg in Aggregation}
            for subset in (corpus.queries[1::3], corpus.queries[5:6]):
                part = judged(build_training_set(subset, corpus.candidates, views,
                                                 policy, stats),
                              subset, corpus.candidates, corpus.qrels, cfg.max_segments)
                for topic in part.topics:
                    for doc_id in topic.candidates:
                        assert pair_rows(part, topic.query.id, doc_id).tobytes() == \
                            pair_rows(full, topic.query.id, doc_id).tobytes()
                selection, scores = select_segments(params, part)
                assert selection == {key: full_selection[key] for key in selection}
                assert scores == {key: full_scores[key] for key in scores}
                for agg, full_run in full_runs.items():
                    assert rank_store(params, part, agg) == \
                        {q.id: full_run[q.id] for q in subset}

    def test_scores_are_rerank_scores(self):
        # the dev set scores every inference window of a candidate in one
        # call, as `rerank` does, then takes the first or the best score
        coll = small_collection(seed=3)
        dev, cfg = coll.dev_bundle, coll.synth_cfg
        params = init_params("mlp", 3)
        for agg in Aggregation:
            _, run = evaluate_bundle(params, dev, agg)
            for topic in dev.topics:
                expected = {}
                for d in topic.candidates:
                    view = coll.views[d]
                    scores = score_batch(params, segment_features(
                        topic.query, view, segment_for_inference(view, cfg.max_tokens),
                        coll.stats, cfg.max_tokens, cfg.max_segments))
                    expected[d] = float(scores[0] if agg == Aggregation.FIRST_P
                                        else scores.max())
                assert {e.doc_id: e.score for e in run[topic.query.id].entries} == expected


def late_collection(seed=4):
    """A small late-evidence collection, and its views and stats as
    `train` reads them."""
    cfg = SynthConfig(num_queries=24, docs_per_query=4, sentences_per_doc=12,
                      tokens_per_sentence=32, vocab_size=2000, query_terms=3,
                      plant_lo=1, plant_hi=4, noise=0.3, seed=seed,
                      min_tokens=48, max_tokens=128, query_token_budget=8)
    corpus = generate_corpus(cfg)
    return (cfg, corpus, *read_views(synth_documents(corpus), corpus.queries,
                                     corpus.candidates, cfg.max_tokens))


def restrict(qrels, query_ids):
    return {key: grade for key, grade in qrels.items() if key[0] in set(query_ids)}


class TestStores:
    """The training-window and inference-window stores over every query,
    and the topic subsets the commands take of them."""

    def test_subsets_equal_stores_built_for_them(self):
        cfg, corpus, views, stats = late_collection()
        full = build_stores(corpus.queries, corpus.candidates, views, cfg.policy(), stats,
                            inference_windows(views, cfg.max_tokens))
        policies = (cfg.policy(), dataclasses.replace(cfg.policy(), mode="inference"))
        by_id = {q.id: q for q in corpus.queries}
        ids = [q.id for q in corpus.queries]
        for store, policy in zip(full, policies):
            assert len(store.counts) == sum(map(len, corpus.candidates.values()))
            for subset in (ids, ids[1::3], ids[5:6], ids[::-1], []):
                part = TrainingSet.subset(store, corpus.queries, corpus.candidates, subset,
                                          corpus.qrels, cfg.max_segments, 7)
                queries = [by_id[q] for q in subset]
                built = build_training_set(queries, corpus.candidates, views, policy, stats)
                fresh = TrainingSet.subset(built, queries, corpus.candidates, subset,
                                           restrict(corpus.qrels, subset),
                                           cfg.max_segments, 7)
                assert [(t.query, t.positives, t.negatives) for t in part.topics] == \
                    [(t.query, t.positives, t.negatives) for t in fresh.topics]
                assert part.rows == fresh.rows and part.qrels == fresh.qrels
                assert part.qrels == restrict(corpus.qrels, subset)
                assert part.matrix.tobytes() == fresh.matrix.tobytes()
                unjudged = TrainingSet.subset(store, corpus.queries, corpus.candidates,
                                              subset, {})
                assert unjudged.row_counts() == built.counts
                assert unjudged.matrix.tobytes() == built.rows.tobytes()
                assert not part.matrix.flags.writeable
                assert (part.max_segments, part.mrr_cutoff) == (cfg.max_segments, 7)

    @pytest.mark.parametrize("loss, kind", [(LossKind.PAIRWISE_HINGE, "linear"),
                                            (LossKind.POINTWISE_CE, "mlp")])
    def test_models_trained_on_subsets_equal_those_of_fresh_stores(self, loss, kind):
        # the commands train on subsets of the two full stores; a store
        # built for the training or the dev queries alone trains the same
        # bits in every mode
        cfg, corpus, views, stats = late_collection(seed=7)
        train_cfg = TrainConfig(loss=loss, scorer_kind=kind, epochs=4, max_iterations=2,
                                iteration_patience=2, seed=7)
        training, inference = build_stores(corpus.queries, corpus.candidates, views,
                                           cfg.policy(), stats,
                                           inference_windows(views, cfg.max_tokens))
        train_ids, dev_ids = holdout_split([q.id for q in corpus.queries], 0.25, 7)
        by_id = {q.id: q for q in corpus.queries}
        subsets = (TrainingSet.subset(training, corpus.queries, corpus.candidates,
                                      train_ids, corpus.qrels, cfg.max_segments),
                   TrainingSet.subset(inference, corpus.queries, corpus.candidates,
                                      dev_ids, corpus.qrels, cfg.max_segments))
        fresh = []
        for ids, policy in ((train_ids, cfg.policy()),
                            (dev_ids, dataclasses.replace(cfg.policy(), mode="inference"))):
            queries = [by_id[q] for q in ids]
            fresh.append(judged(build_training_set(queries, corpus.candidates, views,
                                                   policy, stats),
                                queries, corpus.candidates, restrict(corpus.qrels, ids),
                                cfg.max_segments))
        models = []
        for tset, dev in (subsets, fresh):
            result = best_train(tset, dev, train_cfg)
            models.append([
                result.best_state.params.vector.tobytes(),
                [state.validation_metric for state in result.history],
                train_baseline(tset, dev, train_cfg)[0].vector.tobytes(),
                train_baseline(tset, dev, train_cfg, corpus.gold)[0].vector.tobytes(),
                train_single(tset, dev, None, train_cfg, 7)[0].vector.tobytes()])
        assert models[0] == models[1]

    def test_the_stores_key_covers_the_code_that_builds_stores(self, tmp_path,
                                                               monkeypatch):
        builders = [corpus_module.tokenize, corpus_module._sentence_tokens,
                    corpus_module.view_from_text, corpus_module.DocView,
                    formats.parse_corpus, formats._corpus_records, formats.read_stores,
                    corpus_module.SegmentationPolicy.segments,
                    corpus_module.segment_for_training, corpus_module.segment_for_inference,
                    segment_features, build_training_set, build_stores]
        sources = {os.path.realpath(path) for path in cache._SOURCES}
        assert {os.path.realpath(inspect.getsourcefile(f)) for f in builders} <= sources
        copies = []
        for path in cache._SOURCES:
            copies.append(tmp_path / Path(path).name)
            copies[-1].write_bytes(Path(path).read_bytes())
        crc = cache._sources_crc(cache._SOURCES)
        monkeypatch.setattr(cache, "_SOURCES", copies)
        assert cache._sources_crc(cache._SOURCES) == crc
        for copy in copies:  # one byte more in any source changes the key
            copy.write_bytes(copy.read_bytes() + b"#")
            assert cache._sources_crc(cache._SOURCES) != crc
            copy.write_bytes(copy.read_bytes()[:-1])

    def test_cached_stores_equal_the_built_ones(self, tmp_path, monkeypatch):
        # the stores `train` builds from the parsed views and caches equal,
        # bit for bit, those built from the oracle's views of the synthetic
        # documents in memory, under the oracle's stats, and so do the
        # stores the next command loads from the cache
        cfg, corpus, _, _ = late_collection()
        path = tmp_path / "corpus.jsonl"
        with open(path, "w") as stream:
            write_corpus(corpus, stream)
        loads = []

        def load_stores(*args, real=cache._load_stores):
            loads.append(real(*args))
            return loads[-1]

        monkeypatch.setattr(cache, "MIN_CACHED_BYTES", 1)
        monkeypatch.setattr(cache, "_load_stores", load_stores)
        inputs = corpus.queries, corpus.candidates, cfg.policy()
        with open(path) as stream:
            built = formats.read_stores(stream, *inputs)
        assert loads == [None] and Path(f"{path}.stores").exists()
        doc_terms = scored_terms(corpus.queries, corpus.candidates)
        documents = synth_documents(corpus)
        oracle_stats = compute_corpus_stats(documents, cfg.max_tokens,
                                            set().union(*doc_terms.values()))
        with open(path) as stream:
            views, df = formats.parse_corpus(stream, doc_terms)
        windows = inference_windows(views, cfg.max_tokens)
        assert CorpusStats.from_windows(windows, df) == oracle_stats
        oracle_views = {doc.id: document_view(doc, doc_terms.get(doc.id, ()))
                        for doc in documents}
        oracle = build_stores(corpus.queries, corpus.candidates, oracle_views,
                              cfg.policy(), oracle_stats,
                              {doc.id: segment_for_inference(doc, cfg.max_tokens)
                               for doc in documents})
        with open(path) as stream:
            loaded = formats.read_stores(stream, *inputs)
        assert loads[1] is loaded
        layout = corpus.queries, corpus.candidates, corpus.qrels, cfg.max_segments
        for stores in (built, loaded):
            for store, fresh in zip(stores, oracle, strict=True):
                assert store.counts == fresh.counts and store.rows.readonly
                assert store.rows.tobytes() == fresh.rows.tobytes()
                tset, oracle_set = judged(store, *layout), judged(fresh, *layout)
                assert [(t.query, t.positives, t.negatives) for t in tset.topics] == \
                    [(t.query, t.positives, t.negatives) for t in oracle_set.topics]
                assert tset.rows == oracle_set.rows
                assert tset.matrix.tobytes() == oracle_set.matrix.tobytes()
        # a pair without rows is a miss, even under a matching checksum
        path = tmp_path / "corpus.jsonl.stores"
        data = path.read_bytes()
        header = data[:data.index(b"\n") + 1]
        body = bytearray(data[len(header):-4])
        counts = np.frombuffer(body, dtype=np.int64, count=2)
        body[:16] = np.array([0, counts[0] + counts[1]], dtype=np.int64).tobytes()
        path.write_bytes(header + bytes(body) + zlib.crc32(body).to_bytes(4, "little"))
        with open(path.with_suffix("")) as stream:
            rebuilt = formats.read_stores(stream, *inputs)
        assert loads[2:] == [None]
        assert [s.rows.tobytes() for s in rebuilt] == [s.rows.tobytes() for s in built]
