"""Ranking metrics against the per-query code they replaced, and the
paired t-test against scipy."""

import math
import pickle
from itertools import accumulate

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ndcg_oracle
from segtrain.evaluation import (
    group_qrels,
    ideal_dcgs,
    judged_metrics,
    mrr,
    paired_t_test,
    table_means,
)
from segtrain.ranking import RankedList, RankEntry

# ---------------------------------------------------------------------------
# Oracles: `mrr`, NDCG@k and the CLI's per-query table as they were
# written before one per-query table existed.  The table re-filtered the
# whole qrels for every query.


def reference_by_query(qrels):
    out = {}
    for (qid, doc_id), grade in qrels.items():
        if grade < 0:
            raise ValueError(f"negative relevance grade for {(qid, doc_id)}")
        out.setdefault(qid, {})[doc_id] = grade
    return out


def reference_check_overlap(run, by_query):
    if not any(qid in run for qid in by_query):
        raise ValueError("run and qrels share no queries")


def reference_mrr(run, qrels, cutoff=10):
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    by_query = reference_by_query(qrels)
    reference_check_overlap(run, by_query)
    total = 0.0
    for qid, judged in sorted(by_query.items()):
        ranked = run.get(qid)
        if ranked is None:
            continue
        for entry in ranked.entries[:cutoff]:
            if judged.get(entry.doc_id, 0) > 0:
                total += 1.0 / entry.rank
                break
    return total / len(by_query)


def reference_ndcg(run, qrels, k=10):
    if k < 1:
        raise ValueError("k must be >= 1")
    by_query = reference_by_query(qrels)
    reference_check_overlap(run, by_query)
    total = 0.0
    for qid, judged in sorted(by_query.items()):
        ideal = sorted(judged.values(), reverse=True)[:k]
        idcg = sum(g / math.log2(i + 2) for i, g in enumerate(ideal))
        if idcg == 0:
            continue
        ranked = run.get(qid)
        if ranked is None:
            continue
        dcg = sum(
            judged.get(e.doc_id, 0) / math.log2(e.rank + 1)
            for e in ranked.entries[:k])
        total += dcg / idcg
    return total / len(by_query)


def reference_per_query(run, qrels, cutoff, k):
    qids = sorted({qid for qid, _ in qrels} & set(run))
    out = {}
    for qid in qids:
        q_qrels = {key: g for key, g in qrels.items() if key[0] == qid}
        q_run = {qid: run[qid]}
        out[qid] = (reference_mrr(q_run, q_qrels, cutoff),
                    reference_ndcg(q_run, q_qrels, k))
    return out


# ---------------------------------------------------------------------------

QIDS = st.sampled_from(["a", "b", "c", "d"])
DOCS = ["x", "y", "z", "w", "v", "u"]


@st.composite
def ranked_lists(draw, qid):
    """Distinct documents with non-decreasing ranks >= 1; equal ranks tie."""
    docs = draw(st.permutations(DOCS))[:draw(st.integers(0, len(DOCS)))]
    steps = draw(st.lists(st.integers(0, 2), min_size=len(docs), max_size=len(docs)))
    ranks = accumulate(steps[1:], initial=1)
    return RankedList(qid, [RankEntry(doc, draw(st.floats(-5, 5)), rank)
                            for doc, rank in zip(docs, ranks)])


@st.composite
def runs(draw):
    qids = draw(st.sets(QIDS))
    return {qid: draw(ranked_lists(qid)) for qid in sorted(qids)}


qrels_maps = st.dictionaries(st.tuples(QIDS, st.sampled_from(DOCS + ["t"])),
                             st.integers(0, 3))
depths = st.integers(1, 6)


def bits(value: float) -> str:
    return value.hex()


def columns(run):
    """Each ranking of `run` as `formats.read_run` gives it: its document
    ids and its ranks."""
    return {qid: ([e.doc_id for e in ranked.entries], [e.rank for e in ranked.entries])
            for qid, ranked in run.items()}


def table(run, qrels, cutoff=10, k=10):
    """The per-query table `eval` writes: `judged_metrics` of the run's
    columns over `qrels` grouped once."""
    judgments = group_qrels(qrels)
    return judged_metrics(columns(run), judgments, ideal_dcgs(judgments, k), cutoff, k)


def means(run, qrels, cutoff=10, k=10):
    """The (MRR, NDCG@k) `eval` prints: `table_means` of the table."""
    judgments = group_qrels(qrels)
    return table_means(table(run, qrels, cutoff, k), judgments)


def entries(*pairs):
    return [RankEntry(doc, 0.0, rank) for doc, rank in pairs]


ALL_ZERO = ({"a": RankedList("a", entries(("x", 1), ("y", 2)))},
            {("a", "x"): 0, ("a", "y"): 0, ("b", "x"): 2})
TIED = ({"a": RankedList("a", entries(("x", 1), ("y", 1), ("z", 1))),
         "c": RankedList("c", entries(("z", 2), ("x", 2)))},
        {("a", "y"): 1, ("a", "z"): 3, ("c", "x"): 1})
# Grades whose DCG terms sum differently left to right and exactly
# (`math.fsum`), so a change of summation order shows.
GRADED = ({"a": RankedList("a", entries(("x", 1), ("y", 2), ("z", 3), ("w", 4),
                                        ("v", 5), ("u", 6)))},
          {("a", "x"): 3, ("a", "y"): 3, ("a", "z"): 3, ("a", "w"): 3,
           ("a", "v"): 1, ("a", "u"): 0})
# Reciprocal ranks 1, 1/3, 1 sum to a different float left to right
# than exactly, so a compensated sum of the table shows.
SUMMED = ({"a": RankedList("a", entries(("x", 1))),
           "b": RankedList("b", entries(("x", 1), ("y", 2), ("z", 3))),
           "c": RankedList("c", entries(("x", 1)))},
          {("a", "x"): 1, ("b", "z"): 1, ("c", "x"): 1})
UNJUDGED_IN_RUN = ({"a": RankedList("a", entries(("x", 1))),
                    "d": RankedList("d", entries(("x", 1)))},
                   {("a", "x"): 1, ("b", "y"): 2})


@settings(max_examples=300)
@given(runs(), qrels_maps, depths, depths)
@example(*ALL_ZERO, 1, 1)
@example(*TIED, 1, 1)
@example(*TIED, 2, 3)
@example(*UNJUDGED_IN_RUN, 1, 10)
@example(*GRADED, 10, 10)
def test_metrics_equal_the_old_code_bit_for_bit(run, qrels, cutoff, k):
    if not any(qid in run for qid, _ in qrels):
        for fn in (mrr, table, means):
            with pytest.raises(ValueError, match="share no queries"):
                fn(run, qrels)
        return
    assert bits(mrr(run, qrels, cutoff)) == bits(reference_mrr(run, qrels, cutoff))
    assert tuple(map(bits, means(run, qrels, cutoff, k))) == \
        (bits(reference_mrr(run, qrels, cutoff)), bits(reference_ndcg(run, qrels, k)))
    got = table(run, qrels, cutoff, k)
    expected = reference_per_query(run, qrels, cutoff, k)
    assert list(got) == list(expected)
    assert {q: tuple(map(bits, v)) for q, v in got.items()} == \
        {q: tuple(map(bits, v)) for q, v in expected.items()}


@settings(max_examples=100)
@given(runs(), qrels_maps, depths, depths)
@example(*SUMMED, 10, 10)
def test_aggregates_are_means_of_the_table(run, qrels, cutoff, k):
    assume(any(qid in run for qid, _ in qrels))
    got = table(run, qrels, cutoff, k)
    judged = len({qid for qid, _ in qrels})
    metrics = means(run, qrels, cutoff, k)
    for i, metric in enumerate(metrics):
        total = 0.0
        for values in got.values():
            total += values[i]
        assert bits(total / judged) == bits(metric)
    assert bits(mrr(run, qrels, cutoff)) == bits(metrics[0])


def test_table_covers_judged_queries_in_the_run():
    run, qrels = UNJUDGED_IN_RUN
    assert table(run, qrels) == {"a": (1.0, 1.0)}
    run, qrels = ALL_ZERO
    assert table(run, qrels, 1, 1) == {"a": (0.0, 0.0)}


@st.composite
def graded_runs(draw):
    """Two runs, a system and a baseline, and their judgments: mostly
    zero grades, ranks that start anywhere from 1 to 4 and leap up to 5
    places or tie, and rankings of 0 to 6 documents, so that k often
    passes the end of one; a judged query may be missing from a run."""
    judgments, pair = {}, ({}, {})
    for qid in draw(st.lists(QIDS, unique=True, min_size=1)):
        judgments[qid] = draw(st.dictionaries(st.sampled_from(DOCS + ["t"]),
                                              st.sampled_from([0, 0, 0, 1, 2, 3, 7])))
        for run in pair:
            if draw(st.integers(0, 5)):
                docs = draw(st.permutations(DOCS))[:draw(st.integers(0, len(DOCS)))]
                gaps = draw(st.lists(st.integers(0, 5), min_size=len(docs),
                                     max_size=len(docs)))
                ranks = accumulate(gaps[1:], initial=draw(st.integers(1, 4)))
                run[qid] = RankedList(qid, entries(*zip(docs, ranks)))
    assume(any(pair))
    return pair, judgments


# A query whose judged documents all have grade 0, and one whose only
# relevant document is past the end of its ranking.
NONE_RELEVANT = ({"a": RankedList("a", entries(("x", 1), ("y", 4)))},
                 {"a": {"x": 0, "y": 0, "z": 0}})
RELEVANT_UNRANKED = ({"a": RankedList("a", entries(("x", 1)))}, {"a": {"x": 0, "t": 2}})
# Zero grades between positive ones, at ranks with gaps, and k past the end.
GAPPED = ({"a": RankedList("a", entries(("x", 2), ("y", 3), ("z", 7), ("w", 7), ("v", 12)))},
          {"a": {"x": 3, "y": 0, "z": 1, "w": 0, "v": 2, "u": 0}})


def paired(case):
    """A case of one run as a system and a baseline: the run, and the run
    reversed."""
    run, judgments = case
    reversed_run = {qid: RankedList(qid, entries(*zip(
        [e.doc_id for e in reversed(ranked.entries)], [e.rank for e in ranked.entries])))
        for qid, ranked in run.items()}
    return (run, reversed_run), judgments


@settings(max_examples=300)
@given(graded_runs(), st.integers(1, 4), st.integers(1, 12))
@example(paired(NONE_RELEVANT), 1, 2)
@example(paired(RELEVANT_UNRANKED), 2, 3)
@example(paired(GAPPED), 3, 3)
@example(paired(GAPPED), 1, 12)
@example(paired((TIED[0], group_qrels(TIED[1]))), 2, 3)
def test_columns_equal_ranked_lists_and_the_oracle_bit_for_bit(graded, cutoff, k):
    # `eval` scores the system and the baseline over one set of ideal
    # DCGs; the oracle computes each ranking's own
    runs, judgments = graded
    ideals = ideal_dcgs(judgments, k)
    assert list(ideals) == list(judgments)
    for run in runs:
        if not any(qid in run for qid in judgments):
            continue
        got = judged_metrics(columns(run), judgments, ideals, cutoff, k)
        expected = ndcg_oracle.ranked_list_metrics(run, judgments, cutoff, k)
        assert list(got) == list(expected) == [qid for qid in judgments if qid in run]
        for qid, (rr, nd) in got.items():
            assert (bits(rr), bits(nd)) == tuple(map(bits, expected[qid]))
            assert bits(nd) == bits(ndcg_oracle.ndcg(run[qid], judgments[qid], k))
    assert ideals == ideal_dcgs(judgments, k)  # read, never written


@settings(max_examples=50)
@given(runs())
def test_runs_are_slotted_and_pickle_to_equal_runs(run):
    for ranked in run.values():
        assert not hasattr(ranked, "__dict__")
        assert all(not hasattr(entry, "__dict__") for entry in ranked.entries)
    copy = pickle.loads(pickle.dumps(run))
    assert copy == run and copy is not run


# ---------------------------------------------------------------------------

RUN = {"a": RankedList("a", entries(("x", 1)))}


@pytest.mark.parametrize("fn", [mrr, table, means])
def test_negative_grade_rejected(fn):
    with pytest.raises(ValueError, match="negative relevance grade"):
        fn(RUN, {("a", "x"): 1, ("a", "y"): -1})


@pytest.mark.parametrize("fn", [mrr, table, means])
def test_no_overlap_rejected(fn):
    with pytest.raises(ValueError, match="share no queries"):
        fn(RUN, {("b", "x"): 1})
    with pytest.raises(ValueError, match="share no queries"):
        fn(RUN, {})


def test_depth_below_one_rejected():
    qrels = {("a", "x"): 1}
    with pytest.raises(ValueError, match="cutoff must be >= 1"):
        mrr(RUN, qrels, 0)
    with pytest.raises(ValueError, match="cutoff must be >= 1"):
        table(RUN, qrels, 0, 10)
    with pytest.raises(ValueError, match="k must be >= 1"):
        table(RUN, qrels, 10, 0)


# ---------------------------------------------------------------------------

grid = st.integers(-1000, 1000).map(lambda i: i / 100)


@settings(max_examples=200, deadline=None)  # the first example imports scipy
@given(st.lists(st.tuples(grid, grid), min_size=2, max_size=25))
@example([(0.5, 1.0), (0.25, 0.0), (0.0, 0.0)])
def test_paired_t_test_matches_scipy(pairs):
    stats = pytest.importorskip("scipy.stats")
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    diffs = [x - y for x, y in pairs]
    assume(max(diffs) - min(diffs) > 1e-6)
    expected = float(stats.ttest_rel(a, b).pvalue)
    assert paired_t_test(a, b) == pytest.approx(expected, rel=1e-6, abs=1e-12)


def test_paired_t_test_degenerate_and_invalid():
    assert paired_t_test([1.0, 2.0], [1.0, 2.0]) == 1.0
    assert paired_t_test([2.0, 3.0], [1.0, 2.0]) == 0.0
    with pytest.raises(ValueError, match="equal-length"):
        paired_t_test([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="at least 2 pairs"):
        paired_t_test([1.0], [1.0])
