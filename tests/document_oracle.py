"""A corpus read the long way, into `Document`s: the oracle of the views
and the collection statistics the commands read.

The commands never read a corpus file back into documents:
`formats.parse_corpus` reads each line straight into a `DocView`
(`corpus.view_from_text`), counting the document frequency of the
scored terms in the same pass, and `CorpusStats.from_views` takes the
statistics from the views.  Here each line is tokenized in full, as
`tokenize` over `split_sentences` (`document_from_text`), a view is
projected from the tokens (`document_view`), and the statistics are
counted over the documents (`compute_corpus_stats`).  The tests require
both ways to give equal views and stats, and stores built from either
to hold the same bits.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable

from segtrain import formats
from segtrain.corpus import (
    DEFAULT_MAX_TOKENS,
    CorpusStats,
    DocView,
    Document,
    segment_for_inference,
    split_sentences,
    tokenize,
)


def document_from_text(doc_id: str, title: str, body: str) -> Document:
    """The document of a corpus line: `tokenize` over each of
    `split_sentences(body)`."""
    return Document(doc_id, title, [tokenize(s) for s in split_sentences(body)])


def parse_documents(stream) -> dict[str, Document]:
    """Documents by id, the inverse of `write_corpus`, read with the checks
    of `parse_corpus`."""
    return {doc_id: document_from_text(doc_id, title, body)
            for doc_id, title, body in formats._corpus_records(stream)}


def document_view(doc: Document, terms: Iterable[str]) -> DocView:
    """The document's view, with the hits of `terms`: each position of
    its title-plus-body tokens that holds one of them."""
    terms = set(terms)
    tokens = itertools.chain(doc.title_tokens, *doc.sentences)
    return DocView(doc.id, doc.title_length, doc.sentence_lengths,
                   [(p, token) for p, token in enumerate(tokens) if token in terms])


def compute_corpus_stats(docs: list[Document], max_tokens: int = DEFAULT_MAX_TOKENS,
                         terms: Iterable[str] | None = None) -> CorpusStats:
    """Document frequencies plus the mean inference-segment length.

    Title tokens count toward a document's term set because they are
    part of every segment.  With `terms`, document frequency is counted
    for those terms only; a term in no document is absent either way.
    The average segment length is the mean token count of every
    inference segment at `max_tokens`, over every document, and at
    least 1.
    """
    if not docs:
        raise ValueError("cannot compute stats over an empty corpus")
    keep = set if terms is None else set(terms).intersection
    df: Counter[str] = Counter()
    for doc in docs:
        df.update(keep(itertools.chain(doc.title_tokens, *doc.sentences)))
    counts = [seg.token_count for doc in docs
              for seg in segment_for_inference(doc, max_tokens)]
    return CorpusStats(len(docs), dict(df), max(sum(counts) / len(counts), 1.0))
