"""Iterative segment-selection training.

The trainer alternates two estimates: scorer parameters and, per
(query, document) pair, the index of the segment used as that pair's
training instance.  A bootstrap model is first fit on all leading
segments of every judged pair; its argmax segments seed the first
selected-training round, and each later round retrains from a fresh
initialization on the previous round's selections.  Rounds stop when
the dev metric stops improving, and the best round wins.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from math import fsum

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
    segment_for_training,
)
from .evaluation import Qrels, Run, SegmentIndexMap, mrr
from .ranking import Aggregation, inference_features, rank_by_scores
from .scorer import (
    LossKind,
    PairExample,
    PointExample,
    ScorerParams,
    batch_loss_and_gradient,
    hinge_loss,
    init_params,
    pointwise_ce_loss,
    score_batch,
    segment_features,
    sgd_step,
)


class _AllSegmentsMarker:
    """Marker value: train on all leading segments, not selected ones."""

    def __repr__(self) -> str:
        return "ALL_SEGMENTS"


ALL_SEGMENTS = _AllSegmentsMarker()


class SelectionSource(enum.Enum):
    FIRST = "first"
    GOLD = "gold"
    SCORER = "scorer"


@dataclass
class TrainConfig:
    loss: LossKind = LossKind.PAIRWISE_HINGE
    scorer_kind: str = "linear"
    hidden_dim: int = 8
    learning_rate: float = 0.05
    epochs: int = 20
    batch_size: int = 32
    patience_epochs: int = 3
    max_segments: int = 4
    negatives_per_positive: int | None = None  # None: 1 pairwise, 10 pointwise
    max_iterations: int = 4
    iteration_patience: int = 1
    seed: int = 13

    def resolved_negatives(self) -> int:
        if self.negatives_per_positive is not None:
            if self.negatives_per_positive < 1:
                raise ValueError("negatives_per_positive must be >= 1")
            return self.negatives_per_positive
        return 1 if self.loss == LossKind.PAIRWISE_HINGE else 10


@dataclass
class TrainingTopic:
    query: Query
    positives: list[str]
    negatives: list[str]

    def __post_init__(self) -> None:
        if not self.positives:
            raise ValueError(f"topic {self.query.id} has no positive documents")
        overlap = set(self.positives) & set(self.negatives)
        if overlap:
            raise ValueError(f"topic {self.query.id}: docs judged both ways: {overlap}")


@dataclass
class TrainingSet:
    """Topics plus the documents and training segments they draw from."""

    topics: list[TrainingTopic]
    documents: dict[str, Document | DocView]
    segments: dict[str, list[Segment]]
    stats: CorpusStats
    max_tokens: int = DEFAULT_MAX_TOKENS
    max_segments: int = DEFAULT_MAX_SEGMENTS
    _features: dict[tuple[str, str], np.ndarray] = field(
        default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        for topic in self.topics:
            for doc_id in topic.positives + topic.negatives:
                if doc_id not in self.segments or doc_id not in self.documents:
                    raise ValueError(f"no document or segments stored for {doc_id}")

    def features(self, query: Query, doc_id: str) -> np.ndarray:
        """Cached (n_segments, 7) feature matrix for one query/doc pair."""
        key = (query.id, doc_id)
        cached = self._features.get(key)
        if cached is None:
            cached = segment_features(query, self.documents[doc_id],
                                      self.segments[doc_id], self.stats,
                                      self.max_tokens, self.max_segments)
            self._features[key] = cached
        return cached


@dataclass
class EvalBundle:
    """Everything needed to compute a dev-set MRR for candidate params."""

    queries: list[Query]
    candidates: dict[str, list[Document | DocView]]
    qrels: Qrels
    stats: CorpusStats
    max_tokens: int = DEFAULT_MAX_TOKENS
    max_segments: int = DEFAULT_MAX_SEGMENTS
    mrr_cutoff: int = 10
    _features: dict[tuple[str, str], np.ndarray] = field(
        default_factory=dict, repr=False, compare=False)

    def doc_features(self, query: Query, doc: Document | DocView) -> np.ndarray:
        key = (query.id, doc.id)
        cached = self._features.get(key)
        if cached is None:
            cached = inference_features(query, doc, self.stats,
                                        self.max_tokens, self.max_segments)
            self._features[key] = cached
        return cached


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
                       query_token_budget: int,
                       stats: CorpusStats) -> TrainingSet:
    """Assemble topics and their training segments from raw collections.

    Positives are a query's judged-relevant candidates; every other
    candidate is a negative.  Queries without a relevant candidate are
    dropped.  Segmentation draws from a per-document stream derived
    from the policy seed, so the store is reproducible regardless of
    document order.
    """
    topics = []
    store: dict[str, list[Segment]] = {}
    for query in queries:
        pool = candidates.get(query.id, [])
        positives = [d for d in pool if qrels.get((query.id, d), 0) > 0]
        negatives = [d for d in pool if qrels.get((query.id, d), 0) <= 0]
        if not positives:
            continue
        topics.append(TrainingTopic(query, positives, negatives))
        for doc_id in pool:
            if doc_id not in store:
                doc = documents[doc_id]
                store[doc_id] = segment_for_training(
                    doc, query_token_budget, policy,
                    document_stream(policy.seed, doc.id))
    return TrainingSet(topics, documents, store, stats, policy.max_tokens,
                       policy.max_segments or DEFAULT_MAX_SEGMENTS)


def build_eval_bundle(queries: list[Query], qrels: Qrels,
                      candidates: dict[str, list[str]],
                      documents: dict[str, Document] | dict[str, DocView],
                      stats: CorpusStats,
                      max_tokens: int = DEFAULT_MAX_TOKENS,
                      max_segments: int = DEFAULT_MAX_SEGMENTS,
                      mrr_cutoff: int = 10) -> EvalBundle:
    cand_docs = {
        q.id: [documents[d] for d in candidates.get(q.id, [])]
        for q in queries
    }
    return EvalBundle(queries, cand_docs, qrels, stats,
                      max_tokens, max_segments, mrr_cutoff)


def evaluate_bundle(params: ScorerParams, bundle: EvalBundle,
                    agg: Aggregation = Aggregation.MAX_P) -> tuple[float, Run]:
    """Dev MRR (and the run) for the given params and aggregation."""
    run: Run = {}
    for query in bundle.queries:
        doc_scores: dict[str, float] = {}
        for doc in bundle.candidates.get(query.id, []):
            seg_scores = score_batch(params, bundle.doc_features(query, doc))
            doc_scores[doc.id] = (
                float(seg_scores[0]) if agg == Aggregation.FIRST_P
                else float(seg_scores.max()))
        if doc_scores:
            run[query.id] = rank_by_scores(query.id, doc_scores)
    return mrr(run, bundle.qrels, bundle.mrr_cutoff), run


def _selected_features(tset: TrainingSet, query: Query, doc_id: str,
                       selection: SegmentIndexMap) -> np.ndarray:
    key = (query.id, doc_id)
    if key not in selection:
        raise ValueError(f"selection missing entry for {key}")
    return tset.features(query, doc_id)[selection[key]]


def build_pairs(tset: TrainingSet, selection: SegmentIndexMap,
                cfg: TrainConfig,
                rng: random.Random) -> tuple[list, int]:
    """Per-epoch training examples at the selected segment indices.

    Pairwise mode pairs each positive with negatives sampled without
    replacement; pointwise mode emits one positive point plus sampled
    negative points.  Topics without negatives are skipped; the count
    of skipped topics is returned alongside the examples.
    """
    return _epoch_examples(tset, selection, cfg, rng)


def _epoch_examples(tset: TrainingSet, selection, cfg: TrainConfig,
                    rng: random.Random) -> tuple[list, int]:
    examples: list = []
    skipped = 0
    n_neg = cfg.resolved_negatives()
    pairwise = cfg.loss == LossKind.PAIRWISE_HINGE
    use_all = selection is ALL_SEGMENTS
    for topic in tset.topics:
        if not topic.negatives:
            skipped += 1
            continue
        query = topic.query
        for pos_id in topic.positives:
            sampled = rng.sample(topic.negatives, min(n_neg, len(topic.negatives)))
            pos_feats = tset.features(query, pos_id)
            if pairwise:
                for neg_id in sampled:
                    neg_feats = tset.features(query, neg_id)
                    if use_all:
                        depth = min(cfg.max_segments, len(pos_feats), len(neg_feats))
                        examples.extend(
                            PairExample(pos_feats[j], neg_feats[j])
                            for j in range(depth))
                    else:
                        examples.append(PairExample(
                            _selected_features(tset, query, pos_id, selection),
                            _selected_features(tset, query, neg_id, selection)))
            else:
                if use_all:
                    depth = min(cfg.max_segments, len(pos_feats))
                    examples.extend(
                        PointExample(pos_feats[j], 1) for j in range(depth))
                else:
                    examples.append(PointExample(
                        _selected_features(tset, query, pos_id, selection), 1))
                for neg_id in sampled:
                    neg_feats = tset.features(query, neg_id)
                    if use_all:
                        depth = min(cfg.max_segments, len(neg_feats))
                        examples.extend(
                            PointExample(neg_feats[j], 0) for j in range(depth))
                    else:
                        examples.append(PointExample(
                            _selected_features(tset, query, neg_id, selection), 0))
    return examples, skipped


def loss_all_segments(params: ScorerParams, tset: TrainingSet, k: int) -> float:
    """Bootstrap objective: mean hinge over depth-aligned segment pairs.

    Every (positive, negative) document pair contributes one hinge term
    per shared leading segment index j < min(k, segment counts).
    """
    terms = []
    for topic in tset.topics:
        for pos_id in topic.positives:
            pos_scores = score_batch(params, tset.features(topic.query, pos_id))
            for neg_id in topic.negatives:
                neg_scores = score_batch(params, tset.features(topic.query, neg_id))
                depth = min(k, len(pos_scores), len(neg_scores))
                terms.extend(
                    hinge_loss(float(pos_scores[j]), float(neg_scores[j]))
                    for j in range(depth))
    if not terms:
        raise ValueError("no segment pairs to score")
    return fsum(terms) / len(terms)


def loss_selected(params: ScorerParams, tset: TrainingSet,
                  selection: SegmentIndexMap,
                  loss: LossKind = LossKind.PAIRWISE_HINGE) -> float:
    """Mean loss over all (positive, negative) pairs at selected segments.

    With the zero selection this reduces exactly to first-segment
    training.  Under the pointwise loss each pair contributes the sum
    of its positive and negative cross-entropy terms.
    """
    terms = []
    for topic in tset.topics:
        query = topic.query
        for pos_id in topic.positives:
            y_pos = float(score_batch(
                params,
                _selected_features(tset, query, pos_id, selection)[None, :])[0])
            for neg_id in topic.negatives:
                y_neg = float(score_batch(
                    params,
                    _selected_features(tset, query, neg_id, selection)[None, :])[0])
                if loss == LossKind.PAIRWISE_HINGE:
                    terms.append(hinge_loss(y_pos, y_neg))
                else:
                    terms.append(pointwise_ce_loss(y_pos, 1)
                                 + pointwise_ce_loss(y_neg, 0))
    if not terms:
        raise ValueError("no pairs to score")
    return fsum(terms) / len(terms)


def select_segments(params: ScorerParams, tset: TrainingSet,
                    k: int) -> SegmentIndexMap:
    """Argmax segment index per (query, document) pair, capped at k.

    Covers positives and negatives alike; score ties resolve to the
    smallest index.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    selection: SegmentIndexMap = {}
    for topic in tset.topics:
        for doc_id in topic.positives + topic.negatives:
            feats = tset.features(topic.query, doc_id)
            scores = score_batch(params, feats[:min(k, len(feats))])
            selection[(topic.query.id, doc_id)] = int(np.argmax(scores))
    return selection


def train_single(tset: TrainingSet, dev: EvalBundle, selection_or_all,
                 cfg: TrainConfig, seed: int,
                 agg: Aggregation = Aggregation.MAX_P) -> tuple[ScorerParams, float]:
    """One complete training run: SGD epochs with dev-MRR early stopping.

    Parameters start from a fresh seeded initialization.  Negatives are
    resampled every epoch.  The best dev-MRR snapshot is returned along
    with its metric; training stops once the metric has not improved
    for cfg.patience_epochs consecutive epochs.
    """
    if not tset.topics:
        raise ValueError("empty training set")
    params = init_params(cfg.scorer_kind, seed, cfg.hidden_dim)
    rng = random.Random(seed)
    best = params.copy()
    best_metric = -float("inf")
    stale = 0
    for _ in range(cfg.epochs):
        examples, _ = _epoch_examples(tset, selection_or_all, cfg, rng)
        if not examples:
            raise ValueError("training produced no examples (no usable topics)")
        rng.shuffle(examples)
        for i in range(0, len(examples), cfg.batch_size):
            batch = examples[i:i + cfg.batch_size]
            _, grad = batch_loss_and_gradient(params, batch, cfg.loss)
            params = sgd_step(params, grad, cfg.learning_rate)
        metric, _ = evaluate_bundle(params, dev, agg)
        if metric > best_metric:
            best = params.copy()
            best_metric = metric
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience_epochs:
                break
    return best, best_metric


def best_train(tset: TrainingSet, dev: EvalBundle,
               cfg: TrainConfig) -> BestTrainResult:
    """Full iterative procedure with fresh re-initialization per round.

    A bootstrap model is trained on all leading segments (seed =
    cfg.seed); round n trains from scratch with seed cfg.seed + n on
    the selection made by the previous round's model.  Rounds stop
    early after cfg.iteration_patience rounds without dev improvement,
    and best_iteration records the round with the highest dev MRR.
    """
    if cfg.max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    bootstrap, _ = train_single(tset, dev, ALL_SEGMENTS, cfg, cfg.seed)
    selection = select_segments(bootstrap, tset, cfg.max_segments)
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
            selection = select_segments(params, tset, cfg.max_segments)
    metrics = [state.validation_metric for state in history]
    best_iteration = history[metrics.index(max(metrics))].n
    return BestTrainResult(history, best_iteration)


def zero_selection(tset: TrainingSet) -> SegmentIndexMap:
    """First-segment selection for every (query, document) pair."""
    return {
        (topic.query.id, doc_id): 0
        for topic in tset.topics
        for doc_id in topic.positives + topic.negatives
    }


def train_baseline(tset: TrainingSet, dev: EvalBundle, source: SelectionSource,
                   cfg: TrainConfig,
                   gold: SegmentIndexMap | None = None) -> tuple[ScorerParams, float]:
    """First-segment or gold-segment training (single run, no iteration).

    Gold indices apply to positive documents only; negatives fall back
    to their first segment.  Uses seed cfg.seed + 1, the same slot as
    the first selected-training round.
    """
    selection = zero_selection(tset)
    if source == SelectionSource.GOLD:
        if gold is None:
            raise ValueError("gold selection source needs a gold segment map")
        for topic in tset.topics:
            for pos_id in topic.positives:
                key = (topic.query.id, pos_id)
                if key not in gold:
                    raise ValueError(f"gold map missing positive pair {key}")
                selection[key] = gold[key]
    elif source != SelectionSource.FIRST:
        raise ValueError("train_baseline handles first/gold sources only")
    return train_single(tset, dev, selection, cfg, cfg.seed + 1)
