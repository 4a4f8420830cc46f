"""Differentiable segment relevance scoring.

A segment is scored against a query from a 7-dimensional lexical
feature vector, by either a linear model or a one-hidden-layer tanh
network.  A scorer's parameters are one float64 vector in model-file
order (`ScorerParams`), whose weight blocks are views.  Losses
(pairwise hinge, pointwise logistic cross-entropy) come with exact
analytic gradients in the same layout, so an SGD step is one vector
operation.

Features read a document's view (`corpus.DocView`): each segment's
token count and the offsets of the query terms' hits, never a token
list.  The document frequencies behind idf come from the corpus parse
(`CorpusStats.from_windows`).  The features are computed in plain
Python, one loop per segment, which for rows of seven values costs
less than numpy calls per column; `tests/numpy_features.py` keeps the
vectorized kernel it replaced as the oracle of its bits, and
`tests/test_scorer.py` a token-scanning loop over documents read by
`tests/document_oracle.py`.  `tests/loss_oracle.py` keeps each loss as
a function of one score, the oracle of `batch_loss_and_gradient`.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .corpus import CorpusStats, DocView, Query, Segment
from .config import DEFAULT_MAX_SEGMENTS, DEFAULT_MAX_TOKENS, LossKind
from .formats import (
    MODEL_FORMAT_NAME,
    MODEL_FORMAT_VERSION,
    NUM_FEATURES,
    _param_count,
    parse_model,
)

# feature vector layout
F_MATCH_FRACTION = 0    # fraction of unique query terms present
F_IDF_MATCH = 1         # mean idf over matched unique query terms
F_BM25 = 2              # BM25 over the segment tokens (k1=1.2, b=0.75)
F_LOG_MAX_TF = 3        # log(1 + max tf of any query term)
F_BIGRAM_FRACTION = 4   # fraction of distinct query bigrams present
F_LENGTH_RATIO = 5      # token_count / max_tokens
F_POSITION_RATIO = 6    # segment index / max_segments

BM25_K1 = 1.2
BM25_B = 0.75


def idf(stats: CorpusStats, term: str) -> float:
    """ln(1 + (N - df + 0.5) / (df + 0.5)); positive for any df."""
    df = stats.document_frequency.get(term, 0)
    return math.log(1.0 + (stats.doc_count - df + 0.5) / (df + 0.5))


def segment_features(query: Query, view: DocView,
                     segments: Sequence[Segment], stats: CorpusStats,
                     max_tokens: int = DEFAULT_MAX_TOKENS,
                     max_segments: int = DEFAULT_MAX_SEGMENTS) -> np.ndarray:
    """Lexical feature matrix, one row per segment of a (query, doc) pair.

    `segments` are segments of the viewed document, and `view` must hold
    the hits of every query term.  Matching runs over each segment's
    token stream, which starts with the document title, so title matches
    count; bigrams may span the title and the body, and sentences.  A
    query with no tokens produces zeros for all match features.

    Only each segment's token count and the view's hits of the query's
    terms are read, as segment-local offsets and query-term ids.  Each
    row comes from one loop over its segment's hits; idf and BM25 are
    summed over the unique query terms in query order, so a row is the
    same vector whatever other segments share the call.

    The position feature is `index / max_segments`; inference windows
    are not capped at `max_segments`, so it can exceed 1 there (see
    `segment_for_inference`).
    """
    # the five match features, then F_LENGTH_RATIO and F_POSITION_RATIO
    rows = [[0.0, 0.0, 0.0, 0.0, 0.0, seg.token_count / max_tokens,
             seg.index / max_segments] for seg in segments]
    q_unique = list(dict.fromkeys(query.tokens))
    slot = {term: j for j, term in enumerate(q_unique)}
    hits = [(p, slot[term]) for p, term in view.hits if term in slot]
    if hits:
        _match_features(query, q_unique, slot, view, hits, segments, stats, rows)
    return np.array(rows, dtype=float).reshape(len(rows), NUM_FEATURES)


def _match_features(query: Query, q_unique: list[str], slot: dict[str, int],
                    view: DocView, hits: list[tuple[int, int]],
                    segments: Sequence[Segment], stats: CorpusStats,
                    rows: list[list[float]]) -> None:
    """Fill the five match features of each row of `rows`, given the
    (offset, query-term id) `hits` of the document's view."""
    nq = len(q_unique)
    weights = [idf(stats, term) for term in q_unique]
    title_length = view.title_length
    n_title = bisect.bisect_left(hits, (title_length,))
    title_hits, body_hits = hits[:n_title], hits[n_title:]
    body_offsets = [p for p, _ in body_hits]
    # offset of each sentence's first token in the title-plus-body stream
    starts = list(itertools.accumulate(view.sentence_lengths, initial=title_length))
    q_bigrams = {slot[a] * nq + slot[b] for a, b in zip(query.tokens, query.tokens[1:])}
    avg = stats.avg_segment_length
    for seg, row in zip(segments, rows):
        lo, hi = starts[seg.start], starts[seg.end]
        shift = lo - title_length
        seg_hits = title_hits + [
            (p - shift, j) for p, j in body_hits[bisect.bisect_left(body_offsets, lo):
                                                 bisect.bisect_left(body_offsets, hi)]]
        if not seg_hits:
            continue
        tf = [0] * nq
        for _, j in seg_hits:
            tf[j] += 1
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * seg.token_count / avg)
        matched, idf_sum, bm25 = 0, 0.0, 0.0
        for w, count in zip(weights, tf):
            if count:
                matched += 1
                idf_sum += w
                bm25 += w * count * (BM25_K1 + 1.0) / (count + norm)
        row[F_MATCH_FRACTION] = matched / nq
        row[F_IDF_MATCH] = idf_sum / nq
        row[F_BM25] = bm25
        row[F_LOG_MAX_TF] = math.log1p(max(tf))
        if q_bigrams:
            adjacent = {a * nq + b for (p, a), (p_next, b) in zip(seg_hits, seg_hits[1:])
                        if p_next == p + 1}
            row[F_BIGRAM_FRACTION] = len(adjacent & q_bigrams) / len(q_bigrams)


@dataclass
class ScorerParams:
    """Weights of the segment scorer; doubles as its gradient container.

    `vector` holds every parameter as float64, in model-file order:

    linear: out_weights (7,), out_bias.
    mlp:    hidden_weights (7, H) row by row, hidden_bias (H,),
            out_weights (H,), out_bias; tanh activation.

    The blocks are views of `vector`, so writing into one writes the
    vector, and `out_bias` is its last value.  The linear scorer has
    `hidden_dim` 0 and empty hidden blocks.
    """

    kind: str
    hidden_dim: int
    vector: np.ndarray

    def __post_init__(self) -> None:
        self.vector = np.asarray(self.vector, dtype=np.float64)
        count = _param_count(self.kind, self.hidden_dim)
        if self.vector.shape != (count,):
            raise ValueError(f"{self.kind} scorer with hidden={self.hidden_dim} has "
                             f"{count} parameters, got shape {self.vector.shape}")

    def copy(self) -> "ScorerParams":
        return ScorerParams(self.kind, self.hidden_dim, self.vector.copy())

    @property
    def hidden_weights(self) -> np.ndarray:
        h = self.hidden_dim
        return self.vector[:NUM_FEATURES * h].reshape(NUM_FEATURES, h)

    @property
    def hidden_bias(self) -> np.ndarray:
        h = self.hidden_dim
        return self.vector[NUM_FEATURES * h:(NUM_FEATURES + 1) * h]

    @property
    def out_weights(self) -> np.ndarray:
        return self.vector[-1 - (self.hidden_dim or NUM_FEATURES):-1]

    @property
    def out_bias(self) -> float:
        return float(self.vector[-1])


def init_params(kind: str, seed: int, hidden_dim: int = 8) -> ScorerParams:
    """Seeded uniform weights on [-0.1, 0.1], hidden then output; biases
    start at zero.

    `hidden_dim` is read by the mlp only, which needs at least one unit.
    """
    hidden = hidden_dim if kind == "mlp" else 0
    params = ScorerParams(kind, hidden, np.zeros(_param_count(kind, hidden)))
    rng = np.random.default_rng(seed)
    params.hidden_weights[:] = rng.uniform(-0.1, 0.1, params.hidden_weights.shape)
    params.out_weights[:] = rng.uniform(-0.1, 0.1, params.out_weights.shape)
    return params


def _affine(X: np.ndarray, W: np.ndarray, b: float | np.ndarray) -> np.ndarray:
    """`X @ W + b` as `b + X[:, 0] * W[0] + X[:, 1] * W[1] + ...`, rounded
    after each step, so row i's bits depend on row i alone.  BLAS `X @ W`
    orders the sum by the shape of the whole call."""
    acc = np.full((len(X),) + W.shape[1:], b)
    for j in range(X.shape[1]):
        acc += np.multiply.outer(X[:, j], W[j])
    return acc


def score_batch(params: ScorerParams, X: np.ndarray) -> np.ndarray:
    """Scores for a (n, 7) feature matrix.  Batch-invariant: each row's
    score has the same bits whatever other rows share the call."""
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != NUM_FEATURES:
        raise ValueError(f"feature dimension {X.shape[-1]} does not match {NUM_FEATURES}")
    if params.kind == "linear":
        return _affine(X, params.out_weights, params.out_bias)
    h = np.tanh(_affine(X, params.hidden_weights, params.hidden_bias))
    return _affine(h, params.out_weights, params.out_bias)


def _sigmoid(y: np.ndarray) -> np.ndarray:
    out = np.empty_like(y)
    pos = y >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-y[pos]))
    e = np.exp(y[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _backward(params: ScorerParams, X: np.ndarray, upstream: np.ndarray,
              grad: ScorerParams) -> None:
    """Accumulate d(sum_i upstream_i * score_i)/dparams into grad.

    The mlp's hidden activations are recomputed as `score_batch` forms
    them, so they are the same values the scores came from.
    """
    grad.vector[-1] += upstream.sum()
    if params.kind == "linear":
        grad.out_weights[:] += X.T @ upstream
        return
    h = np.tanh(_affine(X, params.hidden_weights, params.hidden_bias))
    grad.out_weights[:] += h.T @ upstream
    t = (upstream[:, None] * (1.0 - h * h)) * params.out_weights[None, :]
    grad.hidden_weights[:] += X.T @ t
    grad.hidden_bias[:] += t.sum(axis=0)


def _finite_scores(params: ScorerParams, X: np.ndarray) -> np.ndarray:
    """`score_batch(params, X)`, computed without an overflow warning; a
    ValueError if a score is not finite, as when a step too large leaves
    weights that overflow it, or a model's weights are that large."""
    with np.errstate(over="ignore", invalid="ignore"):
        scores = score_batch(params, X)
    if not np.isfinite(scores).all():
        raise ValueError("non-finite scores")
    return scores


def batch_loss_and_gradient(params: ScorerParams, X: np.ndarray, other: np.ndarray,
                            loss: LossKind) -> tuple[float, ScorerParams]:
    """Mean loss over a batch and its exact analytic gradient.

    `X` holds one feature row per example.  Under the pairwise hinge
    `other` holds the paired negative rows (the same shape as `X`);
    under the pointwise cross-entropy it holds the 0/1 labels, one per
    row.  The hinge subgradient at the kink (margin exactly 1) is zero,
    so a batch whose pairs all have margin >= 1 is a fixed point.

    An overflow warns of nothing: a score that is not finite is a
    ValueError, and a gradient that overflowed is left infinite, which
    `sgd_step` rejects.
    """
    X = np.asarray(X, dtype=float)
    other = np.asarray(other, dtype=float)
    n = len(X)
    if n == 0:
        raise ValueError("empty batch")
    grad = ScorerParams(params.kind, params.hidden_dim, np.zeros_like(params.vector))
    if loss == LossKind.PAIRWISE_HINGE:
        if other.shape != X.shape:
            raise ValueError(f"pairwise hinge needs negative rows of shape {X.shape}, "
                             f"got {other.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            margins = 1.0 - _finite_scores(params, X) + _finite_scores(params, other)
            active = (margins > 0).astype(float)
            loss_value = float(np.maximum(margins, 0.0).mean())
            _backward(params, X, -active / n, grad)
            _backward(params, other, active / n, grad)
        return loss_value, grad
    if loss == LossKind.POINTWISE_CE:
        if other.shape != (n,):
            raise ValueError(f"pointwise cross-entropy needs {n} labels, "
                             f"got shape {other.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            y = _finite_scores(params, X)
            loss_value = float(np.mean(
                np.maximum(y, 0.0) - y * other + np.log1p(np.exp(-np.abs(y)))))
            _backward(params, X, (_sigmoid(y) - other) / n, grad)
        return loss_value, grad
    raise ValueError(f"unknown loss kind: {loss!r}")


def _all_finite(params: ScorerParams) -> bool:
    return bool(np.isfinite(params.vector).all())


def sgd_step(params: ScorerParams, grad: ScorerParams, lr: float) -> ScorerParams:
    """params - lr * grad, elementwise; rejects a non-finite gradient
    and a step whose result is not finite."""
    if lr < 0:
        raise ValueError("learning rate must be non-negative")
    if not _all_finite(grad):
        raise ValueError("non-finite gradient")
    with np.errstate(over="ignore", invalid="ignore"):
        vector = params.vector - lr * grad.vector
    if not np.isfinite(vector).all():
        raise ValueError("non-finite parameters after step")
    return ScorerParams(params.kind, params.hidden_dim, vector)


def write_params(params: ScorerParams, stream: IO[str]) -> None:
    """Text model file: header plus one parameter per line.

    Values are written with 17 significant digits so the round trip is
    exact for every representable double.
    """
    if not _all_finite(params):
        raise ValueError("refusing to serialize non-finite parameters")
    stream.write(
        f"{MODEL_FORMAT_NAME} {MODEL_FORMAT_VERSION} kind={params.kind} "
        f"dim={NUM_FEATURES} hidden={params.hidden_dim}\n")
    for value in params.vector.tolist():
        stream.write(format(value, ".17g") + "\n")


def read_params(stream: IO[str]) -> ScorerParams:
    """The parameters in a model file (`formats.parse_model`, which
    reports a malformed file at its line)."""
    kind, hidden, values = parse_model(stream)
    return ScorerParams(kind, hidden, np.array(values))
