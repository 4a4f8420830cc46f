"""Tokenization, sentence splitting, and segment construction.

Documents are token sequences grouped into sentences; segments are
contiguous runs of whole sentences, each prefixed with the document
title.  Training segments use randomized token budgets so segment
length carries no label signal; inference segments tile the whole body
with fixed-size non-overlapping windows.
"""

from __future__ import annotations

import itertools
import random
import re
import string
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

DEFAULT_MAX_TOKENS = 512
DEFAULT_MIN_TOKENS = 128
DEFAULT_MAX_SEGMENTS = 4

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_SENTENCE_BOUNDARY_RE = re.compile(r"(?<=[.!?])\s+")

# ASCII fast path of `Document.from_text`.  `_MARK_TABLE` lowercases,
# keeps token characters, turns sentence terminators into '.',
# whitespace into ' ' and every other character into '#', so a sentence
# boundary is exactly ". ".  `_SPACE_TABLE` then turns the remaining '.'
# and '#' into spaces.  Both tables map ASCII to ASCII only, which keeps
# `str.translate` on its fast path.
_MARK_TABLE = str.maketrans(
    {chr(i): "#" for i in range(128)}
    | {c: " " for c in map(chr, range(128)) if c.isspace()}
    | dict.fromkeys(".!?", ".")
    | dict(zip(string.ascii_uppercase, string.ascii_lowercase))
    | {c: c for c in string.ascii_lowercase + string.digits})
_SPACE_TABLE = str.maketrans({".": " ", "#": " "})


def tokenize(text: str) -> list[str]:
    """Lowercase word tokenizer: splits on whitespace and punctuation.

    Punctuation is dropped, digit runs are kept as tokens.  Empty or
    all-punctuation input yields an empty list.
    """
    return _TOKEN_RE.findall(text.lower())


def split_sentences(text: str) -> list[str]:
    """Split text after '.', '!' or '?' followed by whitespace or end.

    Text without any terminator comes back as a single sentence.
    Surrounding whitespace is stripped from each sentence.
    """
    parts = _SENTENCE_BOUNDARY_RE.split(text)
    return [p.strip() for p in parts if p.strip()]


@dataclass
class Query:
    id: str
    text: str
    tokens: list[str]

    @classmethod
    def from_text(cls, qid: str, text: str) -> "Query":
        return cls(qid, text, tokenize(text))


@dataclass
class Document:
    id: str
    title: str
    sentences: list[list[str]]
    body_token_count: int = field(init=False)
    title_tokens: list[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.body_token_count = sum(map(len, self.sentences))
        self.title_tokens = tokenize(self.title)

    @classmethod
    def from_text(cls, doc_id: str, title: str, body: str,
                  vocab: dict[str, str] | None = None) -> "Document":
        """Tokenized sentences of `body`, as `tokenize` over `split_sentences`.

        Tokens are interned through `vocab` when given: documents parsed
        with one vocabulary share a single string object per term.
        """
        if vocab is None:
            vocab = {}
        return cls(doc_id, title, [list(map(vocab.setdefault, toks, toks))
                                   for toks in _sentence_tokens(body)])


def _sentence_tokens(body: str) -> list[list[str]]:
    """`[tokenize(s) for s in split_sentences(body)]`, one pass for ASCII.

    Every part before the last sentence boundary ends with a terminator,
    so it is a sentence even when it holds no token; only the text after
    the last boundary can be blank.
    """
    if not body.isascii():
        return [tokenize(s) for s in split_sentences(body)]
    parts = body.translate(_MARK_TABLE).split(". ")
    last = parts.pop()
    if last.strip():
        parts.append(last)
    return [part.translate(_SPACE_TABLE).split() for part in parts]


@dataclass
class Segment:
    """A title-prefixed run of whole sentences, [start, end) over the body."""

    doc_id: str
    index: int
    start: int
    end: int
    tokens: list[str]
    token_count: int = field(init=False)

    def __post_init__(self) -> None:
        self.token_count = len(self.tokens)


@dataclass
class SegmentationPolicy:
    mode: str  # "training" or "inference"
    max_tokens: int = DEFAULT_MAX_TOKENS
    min_tokens: int = DEFAULT_MIN_TOKENS
    max_segments: int | None = DEFAULT_MAX_SEGMENTS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("training", "inference"):
            raise ValueError(f"unknown segmentation mode: {self.mode!r}")
        if not (0 < self.min_tokens <= self.max_tokens):
            raise ValueError("need 0 < min_tokens <= max_tokens")
        if self.max_segments is not None and self.max_segments < 1:
            raise ValueError("max_segments must be >= 1 or None")


@dataclass
class CorpusStats:
    """Collection statistics the lexical features read.

    `document_frequency` maps a term to the number of documents holding
    it, in title or body; it may cover only the terms that will be
    scored (see `compute_corpus_stats`), and a term it lacks has
    document frequency 0.
    """

    doc_count: int
    document_frequency: dict[str, int]
    avg_segment_length: float


def document_stream(seed: int, doc_id: str) -> random.Random:
    """Per-document random stream, stable across processes."""
    return random.Random(f"{seed}:{doc_id}")


def _fill_sentences(lengths: list[int], start: int, budget: int) -> int:
    """Greedy whole-sentence packing; returns the exclusive end index.

    Always consumes at least one sentence: a sentence longer than the
    budget becomes a singleton over-budget segment rather than being
    truncated.
    """
    end = start
    used = 0
    n = len(lengths)
    while end < n:
        size = lengths[end]
        if end > start and used + size > budget:
            break
        end += 1
        used += size
        if end - 1 == start and size > budget:
            break
    return end


def _spans(lengths: list[int], budgets: Iterable[int]) -> list[tuple[int, int]]:
    """Greedy [start, end) sentence spans, one per budget, from the start.

    A budget is drawn only while sentences remain, so a random budget
    stream advances once per emitted span.  No sentences give the single
    empty span (0, 0).
    """
    spans = []
    budgets = iter(budgets)
    start = 0
    while start < len(lengths):
        budget = next(budgets, None)
        if budget is None:
            break
        end = _fill_sentences(lengths, start, budget)
        spans.append((start, end))
        start = end
    return spans or [(0, 0)]


def _make_segments(doc: Document, spans: list[tuple[int, int]]) -> list[Segment]:
    segments = []
    for index, (start, end) in enumerate(spans):
        tokens = list(doc.title_tokens)
        for sent in doc.sentences[start:end]:
            tokens.extend(sent)
        segments.append(Segment(doc.id, index, start, end, tokens))
    return segments


def segment_for_training(doc: Document, query_token_budget: int,
                         policy: SegmentationPolicy,
                         rng: random.Random) -> list[Segment]:
    """Leading segments with per-segment randomized token budgets.

    Each segment's body budget is drawn uniformly from
    [min_tokens, max_tokens] and reduced by the title and query
    overhead.  At most policy.max_segments segments are emitted, so
    only the leading part of a long document is covered.
    """
    if policy.mode != "training":
        raise ValueError("segment_for_training requires a training policy")
    overhead = len(doc.title_tokens) + query_token_budget
    counter = (itertools.count() if policy.max_segments is None
               else range(policy.max_segments))
    budgets = (rng.randint(policy.min_tokens, policy.max_tokens) - overhead
               for _ in counter)
    return _make_segments(doc, _spans(list(map(len, doc.sentences)), budgets))


def _inference_spans(doc: Document, max_tokens: int) -> list[tuple[int, int]]:
    budget = max_tokens - len(doc.title_tokens)
    return _spans(list(map(len, doc.sentences)), itertools.repeat(budget))


def segment_for_inference(doc: Document, max_tokens: int = DEFAULT_MAX_TOKENS) -> list[Segment]:
    """Non-overlapping fixed-budget windows covering the whole body.

    Every sentence lands in exactly one segment; the spans partition
    [0, sentence_count).  An empty body yields a single title-only
    segment.
    """
    return _make_segments(doc, _inference_spans(doc, max_tokens))


def compute_corpus_stats(docs: list[Document],
                         max_tokens: int = DEFAULT_MAX_TOKENS,
                         terms: Iterable[str] | None = None) -> CorpusStats:
    """Document frequencies plus the mean inference-segment length.

    Title tokens count toward a document's term set because they are
    part of every segment.  With `terms`, document frequency is counted
    for those terms only (the scorer asks `idf` about query terms
    alone, so the queries' tokens are enough); a term in no document is
    absent either way.  The average segment length is taken over the
    fixed-budget inference segmentation at `max_tokens`, over every
    document.
    """
    if not docs:
        raise ValueError("cannot compute stats over an empty corpus")
    keep = set if terms is None else set(terms).intersection
    df: Counter[str] = Counter()
    total_len = 0
    total_segments = 0
    for doc in docs:
        found = keep(doc.title_tokens)
        found.update(*map(keep, doc.sentences))
        df.update(found)
        # the spans partition the body and every segment repeats the title
        n_segments = len(_inference_spans(doc, max_tokens))
        total_len += n_segments * len(doc.title_tokens) + doc.body_token_count
        total_segments += n_segments
    avg = total_len / total_segments if total_segments else 0.0
    return CorpusStats(len(docs), dict(df), max(avg, 1.0))
