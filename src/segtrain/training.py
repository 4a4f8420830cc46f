"""Iterative segment-selection training over one feature store.

A `TrainingSet` holds topics and one read-only matrix stacking the
feature rows of every (query, document) pair, pair after pair, with
each pair's row range.  Built with a training policy it holds training
segments: SGD learns from it and `select_segments` picks segments in
it between rounds.  Built with an inference policy it holds each
candidate's inference windows, and `rank_store` ranks its candidates
by their aggregated window scores, as the dev set whose MRR stops
training.  Both score the whole matrix in one batch-invariant
`score_batch` call, so each pair gets the scores it gets alone, and
reduce each pair's scores with `ranking.best_segments` and
`ranking.document_scores`, the reductions through which the `select`
and `rerank` commands reduce the scores of the same stores.  A score
that is not finite is a ValueError (`scorer._finite_scores`), not an
overflow warning and an infinite score in the output.

The commands get one store of each kind over every listed query's
candidates from `load_stores`, which loads both from the corpus's
stores cache or builds them from the corpus's views (`build_stores`)
and caches them; `select` and `rerank` call it on a miss only.
`TrainingSet.subset` gives `train` its training set and its dev set:
the rows of the subset's pairs, gathered in the order a store built
for the subset alone would hold them.  The tests
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
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .corpus import (
    CorpusStats,
    DocView,
    Query,
    Segment,
    SegmentationPolicy,
    inference_windows,
)
from .evaluation import Qrels, Run, SegmentIndexMap, mrr
from .cache import CorpusRead, save_stores
from .config import DEFAULT_MAX_SEGMENTS, LossKind, TrainConfig
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

    @classmethod
    def judged(cls, query: Query, pool: list[str], qrels: Qrels) -> "TrainingTopic":
        """The topic of `query` whose candidates are `pool`, split by
        `qrels`, each side in pool order."""
        return cls(query, [d for d in pool if qrels.get((query.id, d), 0) > 0],
                   [d for d in pool if qrels.get((query.id, d), 0) <= 0])


def _tile(keys: Iterable[tuple[str, str]], counts: Iterable[int]) -> PairRows:
    """Consecutive row ranges of the given sizes from row 0, by pair."""
    rows, start = {}, 0
    for key, count in zip(keys, counts):
        rows[key] = range(start, start + count)
        start += count
    return rows


@dataclass(eq=False)
class TrainingSet:
    """Topics and one read-only matrix of the feature rows of every
    (query, document) pair, pair after pair in topic and candidate
    order; `rows` gives each pair's range of rows.  As a dev set, its
    `qrels` and `mrr_cutoff` give the dev MRR.
    """

    topics: list[TrainingTopic]
    matrix: np.ndarray
    rows: PairRows
    max_segments: int = DEFAULT_MAX_SEGMENTS
    qrels: Qrels = field(default_factory=dict)
    mrr_cutoff: int = 10

    def __post_init__(self) -> None:
        pairs = [(topic.query.id, doc_id) for topic in self.topics
                 for doc_id in topic.candidates]
        if list(self.rows) != pairs:
            raise ValueError("the rows must cover each candidate of each topic, in order")
        end = 0
        for key, span in self.rows.items():
            if span.start != end or span.step != 1 or not span:
                raise ValueError(f"the rows of {key} do not follow the previous pair's")
            end = span.stop
        if self.matrix.shape != (end, NUM_FEATURES):
            raise ValueError(f"a matrix of shape {self.matrix.shape} "
                             f"for {end} rows of {NUM_FEATURES} features")
        self.matrix.flags.writeable = False

    def row_counts(self) -> list[int]:
        """Each pair's row count, in pair order."""
        return [len(span) for span in self.rows.values()]

    def subset(self, query_ids: Iterable[str], qrels: Qrels,
               mrr_cutoff: int | None = None) -> "TrainingSet":
        """The store of the listed queries, in their order, with each
        topic's candidates, in this store's order, split by `qrels`
        into positives and negatives, and with `qrels` kept for those
        queries only.

        The pairs' rows are gathered into a matrix of the subset's own,
        so the subset of a store built without qrels equals, bit for
        bit, the store `build_training_set` builds for those queries and
        qrels.  A listed query the store has no topic for is dropped,
        as a query without candidates is.
        """
        by_id = {topic.query.id: topic for topic in self.topics}
        query_ids = list(query_ids)
        topics = [TrainingTopic.judged(by_id[qid].query, by_id[qid].candidates, qrels)
                  for qid in query_ids if qid in by_id]
        spans = [self.rows[(t.query.id, d)] for t in topics for d in t.candidates]
        index = np.fromiter(itertools.chain.from_iterable(spans), dtype=np.intp)
        rows = _tile(((t.query.id, d) for t in topics for d in t.candidates),
                     map(len, spans))
        wanted = set(query_ids)
        return TrainingSet(topics, self.matrix[index], rows, self.max_segments,
                           {key: g for key, g in qrels.items() if key[0] in wanted},
                           self.mrr_cutoff if mrr_cutoff is None else mrr_cutoff)


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


def build_training_set(queries: list[Query], qrels: Qrels,
                       candidates: dict[str, list[str]],
                       views: dict[str, DocView],
                       policy: SegmentationPolicy,
                       stats: CorpusStats,
                       mrr_cutoff: int = 10,
                       segments: dict[str, list[Segment]] | None = None) -> TrainingSet:
    """Topics, and the feature rows of the segments of their candidates.

    Positives are a query's judged-relevant candidates; every other
    candidate is a negative, so a store built without qrels holds
    negatives only, in pool order.  Queries without candidates are
    dropped.  Each candidate's view is cut by `policy.segments`, unless
    `segments` holds its cut already: a training policy draws its
    budgets from a per-document stream derived from the policy seed, so
    the store is reproducible regardless of document order; an
    inference policy cuts inference windows.
    """
    topics = [TrainingTopic.judged(query, candidates[query.id], qrels)
              for query in queries if candidates.get(query.id)]
    segments = dict(segments or {})
    blocks = [np.empty((0, NUM_FEATURES))]
    for topic in topics:
        for doc_id in topic.candidates:
            view = views[doc_id]
            if doc_id not in segments:
                segments[doc_id] = policy.segments(view)
            blocks.append(segment_features(topic.query, view, segments[doc_id], stats,
                                           policy.max_tokens, policy.max_segments))
    rows = _tile(((t.query.id, d) for t in topics for d in t.candidates),
                 map(len, blocks[1:]))
    return TrainingSet(topics, np.concatenate(blocks), rows, policy.max_segments, qrels,
                       mrr_cutoff)


def build_stores(queries: list[Query], candidates: dict[str, list[str]],
                 views: dict[str, DocView], policy: SegmentationPolicy,
                 stats: CorpusStats, windows: dict[str, list[Segment]]
                 ) -> tuple[TrainingSet, TrainingSet]:
    """The training-window store and the inference-window store of every
    listed query's candidates, judged by no qrels.  The inference-window
    store takes each candidate's windows from `windows`, the inference
    windows at `policy.max_tokens` (`inference_windows`) that `stats`
    was taken from too."""
    inference = dataclasses.replace(policy, mode="inference")
    return (build_training_set(queries, {}, candidates, views, policy, stats),
            build_training_set(queries, {}, candidates, views, inference, stats,
                               segments=windows))


def load_stores(read: CorpusRead, queries: list[Query],
                candidates: dict[str, list[str]], policy: SegmentationPolicy
                ) -> tuple[TrainingSet, TrainingSet]:
    """The stores `build_stores` builds for `queries`, `candidates` and
    `policy`, from what `formats.read_corpus` read for the same three.

    On a stores cache hit these are the same topics, and matrices that
    are read-only views of the cached bytes.  On a miss both stores are
    built from the corpus's views, under stats taken from the inference
    windows at `policy.max_tokens`, which the inference-window store
    reuses, and saved to the read's cache, if it has one.
    """
    if read.stores is None:
        windows = inference_windows(read.views, policy.max_tokens)
        stats = CorpusStats.from_windows(windows, read.df)
        stores = build_stores(queries, candidates, read.views, policy, stats, windows)
        if read.cache is not None:
            save_stores(read.cache, [(s.row_counts(), s.matrix) for s in stores])
        return stores
    topics = [TrainingTopic(query, [], candidates[query.id])
              for query in queries if candidates.get(query.id)]
    keys = [(topic.query.id, doc_id) for topic in topics for doc_id in topic.candidates]
    built = []
    for counts, rows in read.stores:
        matrix = np.frombuffer(rows, dtype=np.float64).reshape(-1, NUM_FEATURES)
        built.append(TrainingSet(topics, matrix, _tile(keys, counts), policy.max_segments))
    return tuple(built)


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
