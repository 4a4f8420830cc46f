import dataclasses
import random

import numpy as np
import pytest

from e2e_utils import assemble
from segtrain.corpus import (
    CorpusStats,
    Document,
    Query,
    Segment,
    compute_corpus_stats,
    segment_for_inference,
)
from segtrain.evaluation import segment_p_at_1
from segtrain.ranking import Aggregation
from segtrain.scorer import (
    F_MATCH_FRACTION,
    NUM_FEATURES,
    LossKind,
    ScorerParams,
    batch_loss_and_gradient,
    init_params,
    params_from_vector,
    params_to_vector,
    score_batch,
    segment_features,
)
from segtrain.synth import SynthConfig, generate_corpus
from segtrain.training import (
    TrainConfig,
    TrainingSet,
    TrainingTopic,
    _epoch_rows,
    _stack,
    best_train,
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

    Each segment is one sentence of an untitled document.
    """
    topics = []
    documents = {}
    store = {}
    for t, (q_text, docs, pos_ids) in enumerate(topics_spec):
        query = Query.from_text(f"q{t}", q_text)
        for doc_id, token_lists in docs.items():
            documents[doc_id] = Document(doc_id, "", token_lists)
            store[doc_id] = make_segments(doc_id, token_lists)
        negs = [d for d in docs if d not in pos_ids]
        topics.append(TrainingTopic(query, list(pos_ids), negs))
    stats = stats or CorpusStats(4, {}, 10.0)
    return TrainingSet(topics, documents, store, stats, max_segments=max_segments)


def match_scorer(weight: float = 1.0) -> ScorerParams:
    w = np.zeros(NUM_FEATURES)
    w[F_MATCH_FRACTION] = weight
    return ScorerParams("linear", w, 0.0)


def zero_scorer() -> ScorerParams:
    return ScorerParams("linear", np.zeros(NUM_FEATURES), 0.0)


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
            matrix = tset.features(topic.query, doc_id)
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
        assert np.array_equal(pos, tset.features(tset.topics[0].query, "p")[0])
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
                              tset.features(tset.topics[1].query, "p2")[0])

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
        pos, neg = tset.features(query, "p"), tset.features(query, "n")
        pairs = draw_epoch(tset, None, TrainConfig(), random.Random(0))
        assert sorted((p.tolist(), n.tolist()) for p, n in pairs) == \
            sorted((pos[j].tolist(), neg[j].tolist()) for j in range(2))
        points = draw_epoch(make_tset(spec, max_segments=2), None,
                            TrainConfig(loss=LossKind.POINTWISE_CE), random.Random(0))
        assert sorted(label for _, label in points) == [0, 0, 1, 1]

    def test_rows_are_views_of_one_stacked_matrix(self):
        tset = _random_tset(np.random.default_rng(5))
        X, rows = tset.stacked()
        assert not X.flags.writeable
        assert len(X) == sum(len(span) for span in rows.values())
        for topic in tset.topics:
            for doc_id in topic.candidates:
                feats = tset.features(topic.query, doc_id)
                assert np.shares_memory(feats, X)
                assert np.array_equal(feats, segment_features(
                    topic.query, tset.documents[doc_id], tset.segments[doc_id],
                    tset.stats, tset.max_tokens, tset.max_segments))
        assert _stack(tset, None)[0] is X
        assert _stack(tset, first_segments(tset))[0] is X

    @pytest.mark.parametrize("loss", list(LossKind))
    def test_epoch_rows_equal_per_example_reference(self, loss):
        rng = np.random.default_rng(17)
        for trial in range(40):
            tset = _random_tset(rng, max_segments=int(rng.integers(1, 5)))
            cfg = TrainConfig(loss=loss, negatives_per_positive=int(rng.integers(1, 4)))
            selection = None
            if trial % 2:
                selection = {
                    (t.query.id, d): int(rng.integers(len(tset.features(t.query, d))))
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
            params = ScorerParams("linear", rng.normal(size=NUM_FEATURES),
                                  float(rng.normal()))
            sel, scores = select_segments(params, tset)
            for topic in tset.topics:
                for doc_id in topic.positives + topic.negatives:
                    feats = tset.features(topic.query, doc_id)
                    best, best_score = 0, -float("inf")
                    for i in range(min(k, len(feats))):
                        s = float(score_batch(params, feats[i:i + 1])[0])
                        if s > best_score:
                            best, best_score = i, s
                    assert sel[(topic.query.id, doc_id)] == best
                    # one row alone scores the bits it scores in the store
                    assert scores[(topic.query.id, doc_id)] == best_score

    def test_store_without_qrels_covers_every_candidate(self):
        queries = [Query.from_text("q0", "a"), Query.from_text("q1", "b"),
                   Query.from_text("q2", "c")]
        docs = {d: Document(d, "", [[d, "a", "b"]] * 3) for d in ("d0", "d1", "d2")}
        candidates = {"q0": ["d0", "d1"], "q1": ["d1", "d2"], "q2": []}
        policy = SynthConfig(min_tokens=2, max_tokens=4, query_token_budget=0).policy()
        store = build_training_set(queries, {}, candidates, docs, policy,
                                   CorpusStats(3, {}, 3.0))
        assert [(t.query.id, t.positives, t.negatives) for t in store.topics] == \
            [("q0", [], ["d0", "d1"]), ("q1", [], ["d1", "d2"])]
        sel, scores = select_segments(match_scorer(), store)
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
        assert np.array_equal(params_to_vector(params),
                              params_to_vector(init_params("linear", 99)))

    def test_deterministic(self):
        coll_a = small_collection()
        coll_b = small_collection()
        cfg = TrainConfig(epochs=4, seed=5)
        pa, ma = train_single(coll_a.train_set, coll_a.dev_bundle, None,
                              cfg, seed=5)
        pb, mb = train_single(coll_b.train_set, coll_b.dev_bundle, None,
                              cfg, seed=5)
        assert ma == mb
        assert np.array_equal(params_to_vector(pa), params_to_vector(pb))

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
        empty = TrainingSet([], {}, {}, coll.train_set.stats)
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
            assert np.array_equal(params_to_vector(state.params),
                                  params_to_vector(expected))

    def test_deterministic_end_to_end(self):
        results = []
        for _ in range(2):
            coll = small_collection(seed=8)
            cfg = TrainConfig(max_iterations=2, epochs=4, seed=8)
            results.append(best_train(coll.train_set, coll.dev_bundle, cfg))
        a, b = results
        assert [s.validation_metric for s in a.history] == \
               [s.validation_metric for s in b.history]
        assert all(np.array_equal(params_to_vector(x.params),
                                  params_to_vector(y.params))
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
        assert np.array_equal(params_to_vector(p_first), params_to_vector(p_gold))

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

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_scores_do_not_depend_on_the_store(self, kind):
        # a store built for a subset of the queries, as a fold is, scores
        # and ranks each of its pairs bit for bit as the full store does
        cfg = SynthConfig(num_queries=24, docs_per_query=4, sentences_per_doc=12,
                          tokens_per_sentence=32, vocab_size=2000, query_terms=3,
                          plant_lo=1, plant_hi=4, noise=0.3, seed=4,
                          min_tokens=48, max_tokens=128, query_token_budget=8)
        corpus = generate_corpus(cfg)
        documents = corpus.documents_by_id()
        stats = compute_corpus_stats(corpus.documents, cfg.max_tokens)
        rng = np.random.default_rng(4)
        count = NUM_FEATURES + 1 if kind == "linear" else (NUM_FEATURES + 2) * 8 + 1
        params = params_from_vector(kind, rng.normal(size=count))
        for policy in (cfg.policy(), dataclasses.replace(cfg.policy(), mode="inference")):
            full = build_training_set(corpus.queries, corpus.qrels, corpus.candidates,
                                      documents, policy, stats)
            full_selection, full_scores = select_segments(params, full)
            full_runs = {agg: rank_store(params, full, agg) for agg in Aggregation}
            for subset in (corpus.queries[1::3], corpus.queries[5:6]):
                part = build_training_set(subset, corpus.qrels, corpus.candidates,
                                          documents, policy, stats)
                for topic in part.topics:
                    for doc_id in topic.candidates:
                        assert part.features(topic.query, doc_id).tobytes() == \
                            full.features(topic.query, doc_id).tobytes()
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
        dev = coll.dev_bundle
        params = init_params("mlp", 3)
        for agg in Aggregation:
            _, run = evaluate_bundle(params, dev, agg)
            for topic in dev.topics:
                expected = {}
                for d in topic.candidates:
                    doc = dev.documents[d]
                    scores = score_batch(params, segment_features(
                        topic.query, doc, segment_for_inference(doc, dev.max_tokens),
                        dev.stats, dev.max_tokens, dev.max_segments))
                    expected[d] = float(scores[0] if agg == Aggregation.FIRST_P
                                        else scores.max())
                assert {e.doc_id: e.score for e in run[topic.query.id].entries} == expected
