"""Shared fixtures: a tiny handmade collection for unit tests."""

from __future__ import annotations

import pytest

from document_oracle import Document, document_from_text
from e2e_utils import read_views
from segtrain.corpus import CorpusStats, Query

# The queries the tiny collection is scored against, each listing every
# tiny document as a candidate.
TINY_QUERIES = ["alpha beta gamma", "nothing matches here", "alpha unseen 42"]


@pytest.fixture
def tiny_docs() -> list[Document]:
    return [
        document_from_text("d1", "alpha title",
                           "alpha beta gamma. delta beta. epsilon zeta eta."),
        document_from_text("d2", "other title",
                           "theta iota kappa. lam mu nu. xi omicron pi."),
        document_from_text("d3", "third one",
                           "rho sigma tau. alpha upsilon phi. chi psi omega."),
    ]


@pytest.fixture
def tiny_stats(tiny_docs) -> CorpusStats:
    queries = [Query.from_text(f"q{i}", text) for i, text in enumerate(TINY_QUERIES)]
    pool = [doc.id for doc in tiny_docs]
    return read_views(tiny_docs, queries, {q.id: pool for q in queries}, max_tokens=12)[1]
