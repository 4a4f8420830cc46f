"""Iterative segment-selection training over one feature store.

A `TrainingSet` holds topics, the segments of their candidate documents
and one matrix stacking the feature rows of every (query, document)
pair.  Built with a training policy it holds training segments: SGD
learns from it and `select` picks segments in it.  Built with an
inference policy it holds each candidate's inference windows, and
`rank_store` ranks its candidates by their aggregated window scores: as
the dev set whose MRR stops training, and as the pool the `rerank`
command ranks.  Both score the whole matrix in one batch-invariant
`score_batch` call, so each pair gets the scores it gets alone.

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

import random
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus import (
    DEFAULT_MAX_SEGMENTS,
    DEFAULT_MAX_TOKENS,
    CorpusStats,
    DocView,
    Document,
    Query,
    Segment,
    SegmentationPolicy,
    document_stream,
    segment_for_inference,
    segment_for_training,
)
from .evaluation import Qrels, Run, SegmentIndexMap, mrr
from .formats import LossKind, TrainConfig
from .ranking import Aggregation, aggregate, rank_by_scores
from .scorer import (
    NUM_FEATURES,
    ScorerParams,
    batch_loss_and_gradient,
    init_params,
    score_batch,
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


@dataclass
class TrainingSet:
    """Topics, the documents and segments they draw from, and one
    read-only matrix of the feature rows of every (query, document)
    pair, built on first use.  As a dev set, its `qrels` and
    `mrr_cutoff` give the dev MRR.
    """

    topics: list[TrainingTopic]
    documents: dict[str, Document | DocView]
    segments: dict[str, list[Segment]]
    stats: CorpusStats
    max_tokens: int = DEFAULT_MAX_TOKENS
    max_segments: int = DEFAULT_MAX_SEGMENTS
    qrels: Qrels = field(default_factory=dict)
    mrr_cutoff: int = 10
    _stacked: tuple[np.ndarray, PairRows] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for topic in self.topics:
            for doc_id in topic.candidates:
                if doc_id not in self.segments or doc_id not in self.documents:
                    raise ValueError(f"no document or segments stored for {doc_id}")

    def stacked(self) -> tuple[np.ndarray, PairRows]:
        """The feature matrix, pair after pair in topic and candidate
        order, and the rows of each pair."""
        if self._stacked is None:
            blocks, rows, start = [np.empty((0, NUM_FEATURES))], {}, 0
            for topic in self.topics:
                for doc_id in topic.candidates:
                    feats = segment_features(topic.query, self.documents[doc_id],
                                             self.segments[doc_id], self.stats,
                                             self.max_tokens, self.max_segments)
                    blocks.append(feats)
                    rows[(topic.query.id, doc_id)] = range(start, start + len(feats))
                    start += len(feats)
            X = np.concatenate(blocks)
            X.flags.writeable = False
            self._stacked = X, rows
        return self._stacked

    def features(self, query: Query, doc_id: str) -> np.ndarray:
        """The (n_segments, 7) rows of one query/doc pair: a view of the
        stacked matrix."""
        X, rows = self.stacked()
        span = rows[(query.id, doc_id)]
        return X[span.start:span.stop]


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
                       documents: dict[str, Document] | dict[str, DocView],
                       policy: SegmentationPolicy,
                       stats: CorpusStats,
                       mrr_cutoff: int = 10) -> TrainingSet:
    """Assemble topics and the segments of their candidates.

    Positives are a query's judged-relevant candidates; every other
    candidate is a negative, so a store built without qrels holds
    negatives only.  Queries without candidates are dropped.  A training
    policy cuts training segments from a per-document stream derived
    from the policy seed, so the store is reproducible regardless of
    document order; an inference policy cuts inference windows.
    """
    topics = []
    store: dict[str, list[Segment]] = {}
    for query in queries:
        pool = candidates.get(query.id, [])
        if not pool:
            continue
        positives = [d for d in pool if qrels.get((query.id, d), 0) > 0]
        negatives = [d for d in pool if qrels.get((query.id, d), 0) <= 0]
        topics.append(TrainingTopic(query, positives, negatives))
        for doc_id in pool:
            if doc_id not in store:
                doc = documents[doc_id]
                store[doc_id] = (
                    segment_for_training(doc, policy,
                                         document_stream(policy.seed, doc.id))
                    if policy.mode == "training"
                    else segment_for_inference(doc, policy.max_tokens))
    return TrainingSet(topics, documents, store, stats, policy.max_tokens,
                       policy.max_segments, qrels, mrr_cutoff)


def _pair_scores(params: ScorerParams, store: TrainingSet,
                 rows: PairRows) -> dict[tuple[str, str], np.ndarray]:
    """The scores of each pair's `rows`, from one `score_batch` call over
    the store's whole matrix."""
    scores = score_batch(params, store.stacked()[0])
    return {key: scores[span.start:span.stop] for key, span in rows.items()}


def rank_store(params: ScorerParams, store: TrainingSet,
               agg: Aggregation = Aggregation.MAX_P) -> Run:
    """Each topic's candidates ranked by their aggregated segment scores:
    FirstP takes a candidate's first score, MaxP its largest, over every
    segment the store holds for it.  Ties rank by doc id."""
    by_query: dict[str, dict[str, float]] = {t.query.id: {} for t in store.topics}
    for (qid, doc_id), scores in _pair_scores(params, store, store.stacked()[1]).items():
        by_query[qid][doc_id] = aggregate(scores, agg)
    return {qid: rank_by_scores(qid, scores) for qid, scores in by_query.items()}


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
    X, pair_rows = tset.stacked()
    if selection is None:
        return X, {key: span[:tset.max_segments] for key, span in pair_rows.items()}
    rows = {}
    for key, span in pair_rows.items():
        if key not in selection:
            raise ValueError(f"selection missing entry for {key}")
        index = selection[key]
        if not 0 <= index < len(span):
            raise ValueError(f"selected segment {index} of {key} "
                             f"is not one of its {len(span)} segments")
        rows[key] = span[index:index + 1]
    return X, rows


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
    `tset.max_segments` segments, and its score.

    Covers every pair in the store; score ties resolve to the smallest
    index.
    """
    selection: SegmentIndexMap = {}
    best_scores: dict[tuple[str, str], float] = {}
    for key, scores in _pair_scores(params, tset, _stack(tset, None)[1]).items():
        selection[key] = best = int(np.argmax(scores))
        best_scores[key] = float(scores[best])
    return selection, best_scores


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
