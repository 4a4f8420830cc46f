"""Tokenization, sentence splitting, segment construction and document views.

Documents are token sequences grouped into sentences; segments are
contiguous runs of whole sentences, each prefixed with the document
title.  Training segments use randomized token budgets so segment
length tells nothing of the label; inference segments tile the whole body
with fixed-size non-overlapping windows.  A `SegmentationPolicy` picks
which of the two cuts a document (`SegmentationPolicy.segments`).

The scorer reads only a document's title length, its sentence lengths
and where the query terms fall, so every command reads the corpus into
a `DocView` holding just that: `view_from_text` builds one straight
from the raw text, keeps no token list, and also reports which of the
scored terms the document holds, which gives document frequency in the
same pass.  `CorpusStats.from_windows` takes the collection statistics
from each document's inference windows (`inference_windows`), which a
command cuts once for the stats and for its inference-window store.
No command keeps a document's tokens: `synth` holds its collection as
vocabulary ids and cuts its gold segments from views too.
`tests/document_oracle.py` reads a corpus the long way, into tokenized
documents, as the oracle of the views and stats.
"""

from __future__ import annotations

import itertools
import random
import re
import string
from dataclasses import dataclass
from typing import Iterable

from .config import (
    DEFAULT_MAX_SEGMENTS,
    DEFAULT_MAX_TOKENS,
    DEFAULT_MIN_TOKENS,
    DEFAULT_QUERY_TOKEN_BUDGET,
)

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_SENTENCE_BOUNDARY_RE = re.compile(r"(?<=[.!?])\s+")

# ASCII fast path of `_sentence_tokens`.  `_MARK_TABLE` lowercases,
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


@dataclass(slots=True)
class DocView:
    """A document as the scorer reads it: lengths and term hits.

    `hits` holds, in ascending offset order, each position of the
    title-plus-body token stream whose token is one of the terms the
    view was built for, as (offset, term); offsets from `title_length`
    on fall in the body.  A view answers only for those terms, so every
    query scored against it must draw its tokens from them.
    """

    id: str
    title_length: int
    sentence_lengths: list[int]
    hits: list[tuple[int, str]]


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


def _hits(tokens: list[str], terms: set[str]) -> list[tuple[int, str]]:
    """(offset, token) of each token that is in `terms`, in order."""
    return [(p, tokens[p]) for p in itertools.compress(
        itertools.count(), map(terms.__contains__, tokens))]


def view_from_text(doc_id: str, title: str, body: str, hit_terms: set[str],
                   terms: set[str]) -> tuple[DocView, set[str]]:
    """The view of a raw document, and the members of `terms` it holds.

    The text is tokenized as `tokenize` over `split_sentences` tokenizes
    it, but only sentence lengths and the hits of `hit_terms` are kept
    (`tests/document_oracle.py` holds the tokenize-then-project oracle).
    `hit_terms` must be a subset of `terms`.  The terms found, in title
    or body, are what document frequency counts.
    """
    title_tokens = tokenize(title)
    sentences = _sentence_tokens(body)
    found = terms.intersection(itertools.chain(title_tokens, *sentences))
    hits = []
    if not hit_terms.isdisjoint(found):
        hits = _hits(list(itertools.chain(title_tokens, *sentences)), hit_terms)
    return (DocView(doc_id, len(title_tokens), list(map(len, sentences)), hits),
            found)


@dataclass
class Segment:
    """A title-prefixed run of whole sentences, [start, end) over the body.

    `token_count` counts the title tokens and those of the sentences.
    """

    doc_id: str
    index: int
    start: int
    end: int
    token_count: int


@dataclass
class SegmentationPolicy:
    """How documents are cut into segments.

    A training segment's body budget is drawn from [min_tokens,
    max_tokens] and reduced by the title and by `query_token_budget`,
    the room kept for the query; at most `max_segments` segments are cut,
    and `seed` seeds each document's stream of budgets.
    An inference window's budget is `max_tokens` less the title, with no
    room for the query, so it may hold up to `query_token_budget` more
    body tokens than any training segment.  Changing either side changes
    every model file.

    The values are range-checked where they are configured
    (`config.SynthConfig`), not here.
    """

    mode: str  # "training" or "inference"
    max_tokens: int = DEFAULT_MAX_TOKENS
    min_tokens: int = DEFAULT_MIN_TOKENS
    max_segments: int = DEFAULT_MAX_SEGMENTS
    seed: int = 0
    query_token_budget: int = DEFAULT_QUERY_TOKEN_BUDGET

    def __post_init__(self) -> None:
        if self.mode not in ("training", "inference"):
            raise ValueError(f"unknown segmentation mode: {self.mode!r}")

    def segments(self, doc: DocView) -> list[Segment]:
        """The segments this policy cuts `doc` into: training segments,
        their budgets drawn from the document's own stream
        (`document_stream`), or inference windows at `max_tokens`."""
        if self.mode == "training":
            return segment_for_training(doc, self, document_stream(self.seed, doc.id))
        return segment_for_inference(doc, self.max_tokens)


@dataclass
class CorpusStats:
    """Collection statistics the lexical features read.

    `document_frequency` maps a term to the number of documents holding
    it, in title or body; it covers only the terms that will be scored
    (the scorer asks `idf` about query terms alone), and a term it lacks
    has document frequency 0.  `avg_segment_length` is the mean token
    count of the inference windows at `max_tokens`, over every document,
    and at least 1.
    """

    doc_count: int
    document_frequency: dict[str, int]
    avg_segment_length: float

    @classmethod
    def from_windows(cls, windows: dict[str, list[Segment]],
                     df: dict[str, int]) -> "CorpusStats":
        """The stats of a parsed corpus: the inference windows of each of
        its documents (`inference_windows`), and the document frequency
        that `formats.parse_corpus` counted with its views.  They equal
        the stats `tests/document_oracle.py` counts token by token over
        the corpus's documents, for the scored terms."""
        counts = [seg.token_count for segments in windows.values() for seg in segments]
        if not counts:
            raise ValueError("cannot compute stats over an empty corpus")
        return cls(len(windows), df, max(sum(counts) / len(counts), 1.0))


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


def _make_segments(doc: DocView, lengths: list[int],
                   spans: list[tuple[int, int]]) -> list[Segment]:
    title_length = doc.title_length
    return [Segment(doc.id, index, start, end,
                    title_length + sum(lengths[start:end]))
            for index, (start, end) in enumerate(spans)]


def segment_for_training(doc: DocView, policy: SegmentationPolicy,
                         rng: random.Random) -> list[Segment]:
    """Leading segments with per-segment randomized token budgets.

    Each segment's body budget is drawn uniformly from
    [min_tokens, max_tokens] and reduced by the title and query
    overhead (see `SegmentationPolicy`).  At most policy.max_segments
    segments are emitted, so only the leading part of a long document
    is covered.
    """
    if policy.mode != "training":
        raise ValueError("segment_for_training requires a training policy")
    lengths = doc.sentence_lengths
    overhead = doc.title_length + policy.query_token_budget
    budgets = (rng.randint(policy.min_tokens, policy.max_tokens) - overhead
               for _ in range(policy.max_segments))
    return _make_segments(doc, lengths, _spans(lengths, budgets))


def _inference_spans(doc: DocView, lengths: list[int],
                     max_tokens: int) -> list[tuple[int, int]]:
    return _spans(lengths, itertools.repeat(max_tokens - doc.title_length))


def segment_for_inference(doc: DocView,
                          max_tokens: int = DEFAULT_MAX_TOKENS) -> list[Segment]:
    """Non-overlapping fixed-budget windows covering the whole body.

    Every sentence lands in exactly one segment; the spans partition
    [0, sentence_count).  An empty body yields a single title-only
    segment.  The budget is `max_tokens` less the title, with no room
    for the query (see `SegmentationPolicy`).  The window count is not
    capped, so a long document gives indices at or past the scorer's
    `max_segments`: config_e's 18 sentences of 128 tokens make 6 windows
    at 512 tokens, and the last one's position feature is 5 / 4 = 1.25,
    a value no training segment has.
    """
    lengths = doc.sentence_lengths
    return _make_segments(doc, lengths, _inference_spans(doc, lengths, max_tokens))


def inference_windows(views: dict[str, DocView],
                      max_tokens: int = DEFAULT_MAX_TOKENS) -> dict[str, list[Segment]]:
    """Each document's inference windows at `max_tokens`, by id."""
    return {doc_id: segment_for_inference(view, max_tokens)
            for doc_id, view in views.items()}
