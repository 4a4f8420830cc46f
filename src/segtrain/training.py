"""Iterative segment-selection training over one feature store.

A store (`cache.Store`) holds the feature rows of every (query,
document) pair of some queries' candidate pools, pair after pair, and
each pair's row count; `build_training_set` builds one from the pairs'
views, and `build_stores` the two the commands read, of training
segments cut by the configured policy and of inference windows.  The
commands get both through `formats.read_stores`, from the corpus's
stores cache or else built and cached, so one store type serves every
command, and `select` and `rerank` score it without numpy (`ranking`).

A `TrainingSet` is a judged subset of a store, and `TrainingSet.subset`,
its one constructor, is the one place where qrels split candidates into
positives and negatives: topics, and one read-only matrix of the
subset's rows, gathered in the order a store built for the subset alone
would hold them, with each pair's row range.  `train` takes its
training set from the training-window store and its dev set from the
inference-window store.  SGD learns from the first and
`select_segments` picks segments in it between rounds; `rank_store`
ranks the second's candidates by their aggregated window scores, as
the dev set whose MRR stops training.  Both score the whole matrix in
one batch-invariant `score_batch` call, so each pair gets the scores it
gets alone, and reduce each pair's scores with `ranking.best_segments`
and `ranking.document_scores`, the reductions through which the
`select` and `rerank` commands reduce the scores of the same stores.  A
score that is not finite is a ValueError (`scorer._finite_scores`), not
an overflow warning and an infinite score in the output.  The tests
also build stores from the views `tests/document_oracle.py` projects
from whole documents, and require the same bits.

Training draws each epoch as integer rows of the matrix: (positive row,
negative row) pairs for the pairwise hinge, (row, label) points for the
pointwise cross-entropy.  The training modes differ only in the rows a
(query, document) pair contributes: every leading segment up to
`max_segments` (`selection=None`), or the one segment a selection names.

The trainer alternates two estimates: scorer parameters and, per pair,
the index of the segment used as that pair's training instance.  A
bootstrap model is first fit on all leading segments of every judged
pair; its argmax segments seed the first selected-training round, and
each later round retrains from a fresh initialization on the previous
round's selections.  Rounds stop when the dev metric stops improving,
and the best round wins.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .cache import Store
from .config import DEFAULT_MAX_SEGMENTS, LossKind, TrainConfig
from .corpus import CorpusStats, DocView, Query, Segment, SegmentationPolicy
from .evaluation import Qrels, Run, SegmentIndexMap, mrr
from .ranking import Aggregation, best_segments, document_scores, rank_pairs
from .scorer import (
    NUM_FEATURES,
    ScorerParams,
    _finite_scores,
    batch_loss_and_gradient,
    init_params,
    segment_features,
    sgd_step,
)

# A (query id, doc id) pair's rows in a stacked feature matrix.
PairRows = dict[tuple[str, str], range]


@dataclass
class TrainingTopic:
    """A query and its candidates, split by judgment.

    A topic without positives adds no training examples; its pairs are
    still scored by `select_segments` and `rank_store`.  Each candidate
    is listed once.
    """

    query: Query
    positives: list[str]
    negatives: list[str]

    def __post_init__(self) -> None:
        overlap = set(self.positives) & set(self.negatives)
        if overlap:
            raise ValueError(f"topic {self.query.id}: docs judged both ways: {overlap}")
        repeated = sorted(d for d, n in Counter(self.candidates).items() if n > 1)
        if repeated:
            raise ValueError(f"topic {self.query.id}: duplicate candidates: {repeated}")

    @property
    def candidates(self) -> list[str]:
        return self.positives + self.negatives


def _tile(keys: Iterable[tuple[str, str]], counts: Iterable[int]) -> PairRows:
    """Consecutive row ranges of the given sizes from row 0, by pair."""
    rows, start = {}, 0
    for key, count in zip(keys, counts):
        rows[key] = range(start, start + count)
        start += count
    return rows


@dataclass(eq=False)
class TrainingSet:
    """Topics, split by judgment, and one read-only matrix of the feature
    rows of every (query, document) pair, pair after pair in topic and
    candidate order; `rows` gives each pair's range of rows.  As a dev
    set, its `qrels` and `mrr_cutoff` give the dev MRR.  Built only by
    `subset`, from a store.
    """

    topics: list[TrainingTopic]
    matrix: np.ndarray
    rows: PairRows
    max_segments: int
    qrels: Qrels
    mrr_cutoff: int

    def row_counts(self) -> list[int]:
        """Each pair's row count, in pair order."""
        return [len(span) for span in self.rows.values()]

    @classmethod
    def subset(cls, store: Store, queries: list[Query], candidates: dict[str, list[str]],
               query_ids: Iterable[str], qrels: Qrels,
               max_segments: int = DEFAULT_MAX_SEGMENTS,
               mrr_cutoff: int = 10) -> "TrainingSet":
        """The judged subset of `store` for the listed queries, in their
        order; the store holds the rows of each of `queries`' candidate
        pools in `candidates`, pair after pair.  Each topic's pool is
        split by `qrels` into positives and negatives, each in pool
        order, and `qrels` is kept for those queries only.  A listed
        query without candidates, or not among `queries`, is dropped.

        The pairs' rows are gathered into a read-only matrix of the
        subset's own, so the subset equals, bit for bit, that of a store
        built for those queries alone.  A ValueError if the store's row
        counts do not tile its rows over those pairs.
        """
        keys = [(query.id, doc_id) for query in queries
                for doc_id in candidates.get(query.id, ())]
        full = np.frombuffer(store.rows, dtype=np.float64).reshape(-1, NUM_FEATURES)
        if (len(store.counts) != len(keys) or min(store.counts, default=1) < 1
                or sum(store.counts) != len(full)):
            raise ValueError(f"a store of {len(store.counts)} row counts and "
                             f"{len(full)} rows for {len(keys)} pairs")
        spans = _tile(keys, store.counts)
        by_id = {query.id: query for query in queries if candidates.get(query.id)}
        query_ids = list(query_ids)
        topics = [TrainingTopic(by_id[qid],
                                [d for d in candidates[qid] if qrels.get((qid, d), 0) > 0],
                                [d for d in candidates[qid] if qrels.get((qid, d), 0) <= 0])
                  for qid in query_ids if qid in by_id]
        picked = [spans[(t.query.id, d)] for t in topics for d in t.candidates]
        matrix = full[np.fromiter(itertools.chain.from_iterable(picked), dtype=np.intp)]
        matrix.flags.writeable = False
        wanted = set(query_ids)
        return cls(topics, matrix,
                   _tile(((t.query.id, d) for t in topics for d in t.candidates),
                         map(len, picked)),
                   max_segments, {key: g for key, g in qrels.items() if key[0] in wanted},
                   mrr_cutoff)


@dataclass
class IterationState:
    n: int
    params: ScorerParams
    selection: SegmentIndexMap
    validation_metric: float


@dataclass
class BestTrainResult:
    history: list[IterationState]
    best_iteration: int  # iteration number n of the best dev metric

    @property
    def best_state(self) -> IterationState:
        for state in self.history:
            if state.n == self.best_iteration:
                return state
        raise ValueError("best_iteration not present in history")


def build_training_set(queries: list[Query], candidates: dict[str, list[str]],
                       views: dict[str, DocView], policy: SegmentationPolicy,
                       stats: CorpusStats,
                       segments: dict[str, list[Segment]] | None = None) -> Store:
    """The store of the feature rows of the segments of each listed
    query's candidates, pair after pair in query and pool order; judged
    by no qrels (`TrainingSet.subset` splits them).

    Each candidate's view is cut by `policy.segments` once per store,
    unless `segments` holds its cut already: a training policy draws
    its budgets from a per-document stream derived from the policy
    seed, so the store is reproducible regardless of document order; an
    inference policy cuts inference windows.
    """
    segments = dict(segments or {})
    blocks = [np.empty((0, NUM_FEATURES))]
    for query in queries:
        for doc_id in candidates.get(query.id, ()):
            view = views[doc_id]
            if doc_id not in segments:
                segments[doc_id] = policy.segments(view)
            blocks.append(segment_features(query, view, segments[doc_id], stats,
                                           policy.max_tokens, policy.max_segments))
    matrix = np.concatenate(blocks)
    matrix.flags.writeable = False
    return Store([len(block) for block in blocks[1:]], memoryview(matrix))


def build_stores(queries: list[Query], candidates: dict[str, list[str]],
                 views: dict[str, DocView], policy: SegmentationPolicy,
                 stats: CorpusStats, windows: dict[str, list[Segment]]
                 ) -> tuple[Store, Store]:
    """The training-window store and the inference-window store of every
    listed query's candidates (`build_training_set`).  The
    inference-window store takes each candidate's windows from
    `windows`, the inference windows at `policy.max_tokens`
    (`inference_windows`) that `stats` was taken from too."""
    inference = dataclasses.replace(policy, mode="inference")
    return (build_training_set(queries, candidates, views, policy, stats),
            build_training_set(queries, candidates, views, inference, stats, windows))


def rank_store(params: ScorerParams, store: TrainingSet,
               agg: Aggregation = Aggregation.MAX_P) -> Run:
    """Each topic's candidates ranked by their aggregated segment scores:
    FirstP takes a candidate's first score, MaxP its largest, over every
    segment the store holds for it (`ranking.document_scores`).  Ties
    rank by doc id."""
    scores = _finite_scores(params, store.matrix).tolist()
    return rank_pairs(store.rows, document_scores(scores, store.row_counts(), agg))


def evaluate_bundle(params: ScorerParams, dev: TrainingSet,
                    agg: Aggregation = Aggregation.MAX_P) -> tuple[float, Run]:
    """Dev MRR of `rank_store`'s run, and the run."""
    run = rank_store(params, dev, agg)
    return mrr(run, dev.qrels, dev.mrr_cutoff), run


def _stack(tset: TrainingSet,
           selection: SegmentIndexMap | None) -> tuple[np.ndarray, PairRows]:
    """The store's feature matrix, and the rows each pair trains on: its
    leading `tset.max_segments` segments or, given a selection, the
    selected one."""
    if selection is None:
        return tset.matrix, {key: span[:tset.max_segments]
                             for key, span in tset.rows.items()}
    rows = {}
    for key, span in tset.rows.items():
        if key not in selection:
            raise ValueError(f"selection missing entry for {key}")
        index = selection[key]
        if not 0 <= index < len(span):
            raise ValueError(f"selected segment {index} of {key} "
                             f"is not one of its {len(span)} segments")
        rows[key] = span[index:index + 1]
    return tset.matrix, rows


def _epoch_rows(tset: TrainingSet, rows: PairRows, cfg: TrainConfig,
               rng: random.Random) -> np.ndarray:
    """One shuffled epoch as an (n, 2) array of examples.

    Each positive is paired with negatives sampled without replacement.
    Under the pairwise hinge an example is (positive row, negative row),
    one per leading row the two documents share; under the pointwise
    cross-entropy it is (row, label), every row of the positive and of
    its sampled negatives.  Topics without negatives are skipped.
    """
    n_neg = cfg.resolved_negatives()
    pairwise = cfg.loss == LossKind.PAIRWISE_HINGE
    examples: list[tuple[int, int]] = []
    for topic in tset.topics:
        if not topic.negatives:
            continue
        qid = topic.query.id
        for pos_id in topic.positives:
            sampled = rng.sample(topic.negatives, min(n_neg, len(topic.negatives)))
            pos = rows[(qid, pos_id)]
            if not pairwise:
                examples += ((row, 1) for row in pos)
            for neg_id in sampled:
                neg = rows[(qid, neg_id)]
                examples += zip(pos, neg) if pairwise else ((row, 0) for row in neg)
    rng.shuffle(examples)
    return np.array(examples, dtype=np.intp).reshape(-1, 2)


def select_segments(params: ScorerParams, tset: TrainingSet
                    ) -> tuple[SegmentIndexMap, dict[tuple[str, str], float]]:
    """Argmax segment index per (query, document) pair among its leading
    `tset.max_segments` segments, and its score (`ranking.best_segments`).

    Covers every pair in the store; score ties resolve to the smallest
    index, as `np.argmax` does.
    """
    scores = _finite_scores(params, tset.matrix).tolist()
    index, best = best_segments(scores, tset.row_counts(), tset.max_segments)
    return dict(zip(tset.rows, index)), dict(zip(tset.rows, best))


def train_single(tset: TrainingSet, dev: TrainingSet,
                 selection: SegmentIndexMap | None, cfg: TrainConfig,
                 seed: int) -> tuple[ScorerParams, float]:
    """One complete training run: SGD epochs with dev-MRR early stopping.

    `selection=None` trains on all leading segments, up to the store's
    `max_segments` per document; a selection trains on the segment it
    names for every pair.  Parameters start from a fresh seeded
    initialization.  Negatives are resampled every epoch.  The best
    dev-MRR snapshot (MaxP over the dev store) is returned along with
    its metric; training stops once the metric has not improved for
    cfg.patience_epochs consecutive epochs.
    """
    if not tset.topics:
        raise ValueError("empty training set")
    X, rows = _stack(tset, selection)
    pairwise = cfg.loss == LossKind.PAIRWISE_HINGE
    params = init_params(cfg.scorer_kind, seed, cfg.hidden_dim)
    rng = random.Random(seed)
    best = params.copy()
    best_metric = -float("inf")
    stale = 0
    for _ in range(cfg.epochs):
        examples = _epoch_rows(tset, rows, cfg, rng)
        if not len(examples):
            raise ValueError("training produced no examples (no usable topics)")
        for i in range(0, len(examples), cfg.batch_size):
            batch = examples[i:i + cfg.batch_size]
            other = X[batch[:, 1]] if pairwise else batch[:, 1]
            _, grad = batch_loss_and_gradient(params, X[batch[:, 0]], other, cfg.loss)
            params = sgd_step(params, grad, cfg.learning_rate)
        metric, _ = evaluate_bundle(params, dev, Aggregation.MAX_P)
        if metric > best_metric:
            best = params.copy()
            best_metric = metric
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience_epochs:
                break
    return best, best_metric


def best_train(tset: TrainingSet, dev: TrainingSet,
               cfg: TrainConfig) -> BestTrainResult:
    """Full iterative procedure with fresh re-initialization per round.

    A bootstrap model is trained on all leading segments (seed =
    cfg.seed); round n trains from scratch with seed cfg.seed + n on
    the selection made by the previous round's model.  Rounds stop
    early after cfg.iteration_patience rounds without dev improvement,
    and best_iteration records the round with the highest dev MRR.
    """
    bootstrap, _ = train_single(tset, dev, None, cfg, cfg.seed)
    selection, _ = select_segments(bootstrap, tset)
    history: list[IterationState] = []
    best_metric = -float("inf")
    stale = 0
    for n in range(1, cfg.max_iterations + 1):
        params, metric = train_single(tset, dev, selection, cfg, cfg.seed + n)
        history.append(IterationState(n, params, selection, metric))
        if metric > best_metric:
            best_metric = metric
            stale = 0
        else:
            stale += 1
            if stale >= cfg.iteration_patience:
                break
        if n < cfg.max_iterations:
            selection, _ = select_segments(params, tset)
    metrics = [state.validation_metric for state in history]
    best_iteration = history[metrics.index(max(metrics))].n
    return BestTrainResult(history, best_iteration)


def train_baseline(tset: TrainingSet, dev: TrainingSet, cfg: TrainConfig,
                   gold: SegmentIndexMap | None = None) -> tuple[ScorerParams, float]:
    """First-segment training, or gold-segment training given a gold map
    (single run, no iteration).

    Gold indices apply to positive documents only; negatives fall back
    to their first segment.  Uses seed cfg.seed + 1, the same slot as
    the first selected-training round.
    """
    selection = {(topic.query.id, doc_id): 0
                 for topic in tset.topics for doc_id in topic.candidates}
    if gold is not None:
        for topic in tset.topics:
            for pos_id in topic.positives:
                key = (topic.query.id, pos_id)
                if key not in gold:
                    raise ValueError(f"gold map missing positive pair {key}")
                selection[key] = gold[key]
    return train_single(tset, dev, selection, cfg, cfg.seed + 1)
