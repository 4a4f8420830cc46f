"""The vectorized numpy feature kernel that `scorer.segment_features`
replaced, kept as the oracle of the per-segment loop: the two must give
the same bits."""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from segtrain.corpus import DEFAULT_MAX_SEGMENTS, DEFAULT_MAX_TOKENS
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
    idf,
)


def numpy_segment_features(query, view, segments, stats,
                           max_tokens=DEFAULT_MAX_TOKENS,
                           max_segments=DEFAULT_MAX_SEGMENTS) -> np.ndarray:
    """Term frequencies of all segments from one scatter-add, and idf and
    BM25 summed over the unique query terms in query order, column by
    column."""
    n = len(segments)
    lengths = np.array([seg.token_count for seg in segments], dtype=np.int64)
    x = np.zeros((n, NUM_FEATURES))
    x[:, F_LENGTH_RATIO] = lengths / max_tokens
    x[:, F_POSITION_RATIO] = np.array([seg.index for seg in segments]) / max_segments
    q_unique = list(dict.fromkeys(query.tokens))
    if not q_unique:
        return x
    nq = len(q_unique)
    slot = {term: j for j, term in enumerate(q_unique)}
    hits = [(p, slot[term]) for p, term in view.hits if term in slot]
    if not hits:
        return x
    title_length = view.title_length
    n_title = bisect.bisect_left(hits, (title_length,))
    title_hits, body_hits = hits[:n_title], hits[n_title:]
    body_offsets = [p for p, _ in body_hits]
    starts = list(itertools.accumulate(view.sentence_lengths, initial=title_length))
    q_bigrams = {slot[a] * nq + slot[b]
                 for a, b in zip(query.tokens, query.tokens[1:])}
    cells = []  # i * nq + j for each occurrence of query term j in segment i
    bigrams_found = [0] * n
    for i, seg in enumerate(segments):
        lo, hi = starts[seg.start], starts[seg.end]
        shift = lo - title_length
        seg_hits = title_hits + [
            (p - shift, j) for p, j in body_hits[bisect.bisect_left(body_offsets, lo):
                                                 bisect.bisect_left(body_offsets, hi)]]
        cells.extend(i * nq + j for _, j in seg_hits)
        adjacent = {a * nq + b for (p, a), (p_next, b) in zip(seg_hits, seg_hits[1:])
                    if p_next == p + 1}
        bigrams_found[i] = len(adjacent & q_bigrams)
    if not cells:
        return x
    tf = np.bincount(cells, minlength=n * nq).reshape(n, nq)
    matched = tf > 0
    x[:, F_MATCH_FRACTION] = matched.sum(axis=1) / nq
    norm = BM25_K1 * (1.0 - BM25_B + BM25_B * lengths / stats.avg_segment_length)
    idf_sum = np.zeros(n)
    bm25 = np.zeros(n)
    for j, term in enumerate(q_unique):
        w = idf(stats, term)
        np.add(idf_sum, w, out=idf_sum, where=matched[:, j])
        np.add(bm25, w * tf[:, j] * (BM25_K1 + 1.0) / (tf[:, j] + norm),
               out=bm25, where=matched[:, j])
    x[:, F_IDF_MATCH] = idf_sum / nq
    x[:, F_BM25] = bm25
    x[:, F_LOG_MAX_TF] = [math.log1p(m) for m in tf.max(axis=1).tolist()]
    if q_bigrams:
        x[:, F_BIGRAM_FRACTION] = np.array(bigrams_found) / len(q_bigrams)
    return x
