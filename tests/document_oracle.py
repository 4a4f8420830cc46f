"""A corpus written and read the long way, as `Document`s: the oracle of
the corpus file `synth.write_corpus` writes, of the views and of the
collection statistics the commands read.

`synth` holds a collection as vocabulary ids and renders the corpus
file from them; here each synthetic document is spelled out in tokens
(`synth_documents`) and written one JSON record at a time
(`write_corpus`), and the tests require the same bytes.  The commands
never read a corpus file back into documents: `formats.parse_corpus`
reads each line straight into a `DocView` (`corpus.view_from_text`),
counting the document frequency of the scored terms in the same pass,
and `CorpusStats.from_windows` takes the statistics from the views'
inference windows.  Here each line is tokenized in full, as `tokenize`
over `split_sentences` (`document_from_text`), a view is projected from
the tokens (`document_view`), and the statistics are counted over the
documents (`compute_corpus_stats`).  The tests require both ways to
give equal views and stats, and stores built from either to hold the
same bits.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable

from segtrain import formats
from segtrain.corpus import (
    DEFAULT_MAX_TOKENS,
    CorpusStats,
    DocView,
    segment_for_inference,
    split_sentences,
    tokenize,
)
from segtrain.synth import SynthCorpus


@dataclass
class Document:
    """A document as a corpus file spells it: its title and its
    tokenized sentences."""

    id: str
    title: str
    sentences: list[list[str]]
    title_tokens: list[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.title_tokens = tokenize(self.title)

    @property
    def title_length(self) -> int:
        return len(self.title_tokens)

    @property
    def sentence_lengths(self) -> list[int]:
        return list(map(len, self.sentences))


def write_corpus(documents: Iterable[Document], stream: IO[str]) -> None:
    """Canonical serialization: each sentence ends with a '.' terminator.

    Sentences are joined with '. ', so a sentence without tokens still
    reads back as an empty sentence.
    """
    for doc in documents:
        body = ". ".join(" ".join(sent) for sent in doc.sentences)
        if doc.sentences:
            body += "."
        record = {"doc_id": doc.id, "title": doc.title, "body": body}
        stream.write(formats.SORTED_JSON.encode(record) + "\n")


def synth_documents(corpus: SynthCorpus) -> list[Document]:
    """The documents of a synthetic collection, spelled out from its
    vocabulary ids: the title's entries joined by " ", then the body cut
    into sentences of `sentence_length` entries."""
    documents = []
    for doc_id, row in zip(corpus.doc_ids, corpus.tokens.tolist()):
        words = [corpus.vocab[i] for i in row]
        body = words[corpus.title_length:]
        documents.append(Document(doc_id, " ".join(words[:corpus.title_length]),
                                  [body[i:i + corpus.sentence_length]
                                   for i in range(0, len(body), corpus.sentence_length)]))
    return documents


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
