"""File formats and pipeline configuration.

All parsers report the offending line number on malformed input, and
every writer/parser pair round-trips (floats to their documented
formatting precision).  Writers emit rows in a fixed sort order so
identical inputs always produce byte-identical files.

The corpus has two readers.  `parse_documents` gives full `Document`s
and inverts `write_corpus`.  `parse_corpus`, which the commands that
score documents use, gives each document's `DocView` (title length,
sentence lengths and the hits of the terms it will be scored against)
and, from the same pass, the document frequency of those terms; no
token list is kept.  `parse_config` rejects out-of-range values at
their line.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Iterable, Iterator

from .corpus import DocView, Document, Query, view_from_text
from .evaluation import Qrels, RankedList, RankEntry, Run, SegmentIndexMap

if TYPE_CHECKING:
    from .synth import SynthConfig
    from .training import TrainConfig


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def _lines(stream: IO[str]) -> Iterable[tuple[int, str]]:
    for line_no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if line.strip():
            yield line_no, line


def _json_line(line: str, line_no: int):
    """The JSON value of one line; any failure is a `ParseError`."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON ({exc.msg})", line_no) from None
    except (ValueError, RecursionError) as exc:  # over-long number, deep nesting
        raise ParseError(f"bad JSON ({exc})", line_no) from None


# ---------------------------------------------------------------------------
# qrels: "qid 0 docid grade", whitespace separated

def parse_qrels(stream: IO[str]) -> Qrels:
    qrels: Qrels = {}
    for line_no, line in _lines(stream):
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(f"expected 4 fields, got {len(fields)}", line_no)
        qid, _, doc_id, grade = fields
        try:
            qrels[(qid, doc_id)] = int(grade)  # duplicates: last grade wins
        except ValueError:
            raise ParseError(f"bad relevance grade {grade!r}", line_no) from None
    return qrels


def write_qrels(qrels: Qrels, stream: IO[str]) -> None:
    for (qid, doc_id), grade in sorted(qrels.items()):
        stream.write(f"{qid} 0 {doc_id} {grade}\n")


# ---------------------------------------------------------------------------
# runs: "qid Q0 docid rank score tag"

def write_run(run: Run, tag: str, stream: IO[str]) -> None:
    for qid in sorted(run):
        for entry in run[qid].entries:
            stream.write(f"{qid} Q0 {entry.doc_id} {entry.rank} "
                         f"{entry.score:.6f} {tag}\n")


def parse_run(stream: IO[str]) -> Run:
    """Ranked lists by query, in (rank, doc_id) order.

    Ranks start at 1.  A document may appear only once in a query's
    ranking.  Only the document ids of the query being read are kept in
    a set, so a run whose lines are grouped by query needs one set at a
    time.
    """
    rows: dict[str, list[tuple[int, str, float]]] = {}
    qid_now, entries, docs = None, [], set()
    for line_no, raw in enumerate(stream, 1):
        fields = raw.split()
        if not fields:
            continue
        if len(fields) != 6:
            raise ParseError(f"expected 6 fields, got {len(fields)}", line_no)
        qid, _, doc_id, rank, score, _tag = fields
        try:
            entry = (int(rank), doc_id, float(score))
        except ValueError:
            raise ParseError("bad rank or score", line_no) from None
        if entry[0] < 1:
            raise ParseError(f"rank {entry[0]} is below 1", line_no)
        if qid != qid_now:
            qid_now, entries = qid, rows.setdefault(qid, [])
            docs = {doc for _, doc, _ in entries}
        if doc_id in docs:
            raise ParseError(f"duplicate doc_id {doc_id!r} for query {qid!r}",
                             line_no)
        docs.add(doc_id)
        entries.append(entry)
    run: Run = {}
    for qid, entries in rows.items():
        entries.sort()
        run[qid] = RankedList(qid, [
            RankEntry(doc_id, score, rank) for rank, doc_id, score in entries])
    return run


# ---------------------------------------------------------------------------
# corpus: JSON-lines {"doc_id", "title", "body"}

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
        stream.write(json.dumps(record, sort_keys=True) + "\n")


_CORPUS_FIELDS = ("doc_id", "title", "body")


def _corpus_records(stream: IO[str]) -> Iterator[tuple[str, str, str]]:
    """(doc_id, title, body) of each corpus line; doc ids are unique."""
    seen: set[str] = set()
    for line_no, line in _lines(stream):
        record = _json_line(line, line_no)
        if not isinstance(record, dict):
            raise ParseError("expected a JSON object", line_no)
        missing = set(_CORPUS_FIELDS) - set(record)
        if missing:
            raise ParseError(f"missing fields: {sorted(missing)}", line_no)
        for key in _CORPUS_FIELDS:
            if not isinstance(record[key], str):
                raise ParseError(f"field {key!r} is not a string", line_no)
        doc_id = record["doc_id"]
        if doc_id in seen:
            raise ParseError(f"duplicate doc_id {doc_id!r}", line_no)
        seen.add(doc_id)
        yield doc_id, record["title"], record["body"]


def parse_documents(stream: IO[str]) -> dict[str, Document]:
    """Documents by id; all documents share one interned vocabulary.

    This is the inverse of `write_corpus`.
    """
    vocab: dict[str, str] = {}
    return {doc_id: Document.from_text(doc_id, title, body, vocab)
            for doc_id, title, body in _corpus_records(stream)}


def parse_corpus(stream: IO[str], doc_terms: dict[str, set[str]] | None = None
                 ) -> tuple[dict[str, DocView], dict[str, int]]:
    """Document views by id, and document frequency of the scored terms.

    `doc_terms` maps a document to the terms it will be scored against
    (the tokens of the queries that list it as a candidate); its view
    records hits of those terms only, and a document it lacks records
    none.  Document frequency counts, over every document, the union of
    those terms.  No token list outlives its document's line.
    """
    doc_terms = doc_terms or {}
    terms = set().union(*doc_terms.values())
    views: dict[str, DocView] = {}
    df: Counter[str] = Counter()
    for doc_id, title, body in _corpus_records(stream):
        views[doc_id], found = view_from_text(
            doc_id, title, body, doc_terms.get(doc_id, set()), terms)
        df.update(found)
    return views, dict(df)


# ---------------------------------------------------------------------------
# queries: TSV "qid<TAB>text"

def write_queries(queries: Iterable[Query], stream: IO[str]) -> None:
    for query in queries:
        stream.write(f"{query.id}\t{query.text}\n")


def parse_queries(stream: IO[str]) -> list[Query]:
    queries: list[Query] = []
    seen: set[str] = set()
    for line_no, line in _lines(stream):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(f"expected 2 tab-separated fields, got {len(fields)}",
                             line_no)
        qid, text = fields
        if qid in seen:
            raise ParseError(f"duplicate query id {qid!r}", line_no)
        seen.add(qid)
        queries.append(Query.from_text(qid, text))
    return queries


# ---------------------------------------------------------------------------
# candidates: TSV "qid<TAB>doc_id", one pair per line, pool order preserved

def write_candidates(candidates: dict[str, list[str]], stream: IO[str]) -> None:
    for qid in sorted(candidates):
        for doc_id in candidates[qid]:
            stream.write(f"{qid}\t{doc_id}\n")


def parse_candidates(stream: IO[str]) -> dict[str, list[str]]:
    candidates: dict[str, list[str]] = {}
    for line_no, line in _lines(stream):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(f"expected 2 tab-separated fields, got {len(fields)}",
                             line_no)
        qid, doc_id = fields
        pool = candidates.setdefault(qid, [])
        if doc_id in pool:
            raise ParseError(f"duplicate candidate {doc_id!r} for {qid!r}", line_no)
        pool.append(doc_id)
    return candidates


# ---------------------------------------------------------------------------
# selection: JSON-lines {"qid", "doc_id", "segment_index", "score"}

def write_selection(selection: SegmentIndexMap, stream: IO[str],
                    scores: dict[tuple[str, str], float] | None = None) -> None:
    for (qid, doc_id), index in sorted(selection.items()):
        record = {
            "qid": qid,
            "doc_id": doc_id,
            "segment_index": index,
            "score": (scores or {}).get((qid, doc_id), 0.0),
        }
        stream.write(json.dumps(record, sort_keys=True) + "\n")


def parse_selection(stream: IO[str]) -> tuple[SegmentIndexMap, dict[tuple[str, str], float]]:
    selection: SegmentIndexMap = {}
    scores: dict[tuple[str, str], float] = {}
    for line_no, line in _lines(stream):
        record = _json_line(line, line_no)
        try:
            key = (record["qid"], record["doc_id"])
            selection[key] = int(record["segment_index"])
            scores[key] = float(record.get("score", 0.0))
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ParseError("bad selection record", line_no) from None
    return selection, scores


# ---------------------------------------------------------------------------
# gold segments: JSON-lines {"qid", "doc_id", "gold_segment_index"}

def write_gold(gold: dict[tuple[str, str], int], stream: IO[str]) -> None:
    for (qid, doc_id), index in sorted(gold.items()):
        record = {"qid": qid, "doc_id": doc_id, "gold_segment_index": index}
        stream.write(json.dumps(record, sort_keys=True) + "\n")


def parse_gold(stream: IO[str]) -> dict[tuple[str, str], int]:
    gold: dict[tuple[str, str], int] = {}
    for line_no, line in _lines(stream):
        record = _json_line(line, line_no)
        try:
            gold[(record["qid"], record["doc_id"])] = int(record["gold_segment_index"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ParseError("bad gold segment record", line_no) from None
    return gold


# ---------------------------------------------------------------------------
# pipeline configuration: "key=value" lines with '#' comments

@dataclass
class PipelineConfig:
    """Flat key=value configuration covering the whole pipeline."""

    # training
    loss: str = "pairwise_hinge"
    scorer_kind: str = "linear"
    hidden_dim: int = 8
    learning_rate: float = 0.05
    epochs: int = 20
    batch_size: int = 32
    patience_epochs: int = 3
    max_segments: int = 4
    negatives_per_positive: int = 0  # 0: per-loss default (1 pairwise, 10 pointwise)
    max_iterations: int = 4
    iteration_patience: int = 1
    seed: int = 13
    # segmentation
    max_tokens: int = 512
    min_tokens: int = 128
    query_token_budget: int = 16
    # evaluation
    mrr_cutoff: int = 10
    ndcg_k: int = 10
    dev_fraction: float = 0.2
    # synthetic collection
    num_queries: int = 50
    docs_per_query: int = 6
    sentences_per_doc: int = 18
    tokens_per_sentence: int = 128
    vocab_size: int = 5000
    query_terms: int = 5
    plant_lo: int = 0
    plant_hi: int = 4
    distractor_overlap: float = 0.3
    noise: float = 0.1
    title_token_count: int = 2
    # file paths (optional; flags override)
    corpus: str = ""
    queries: str = ""
    qrels: str = ""
    candidates: str = ""
    gold: str = ""
    model: str = ""
    out: str = ""

    def train_config(self) -> TrainConfig:
        from .scorer import LossKind
        from .training import TrainConfig

        return TrainConfig(
            loss=LossKind(self.loss),
            scorer_kind=self.scorer_kind,
            hidden_dim=self.hidden_dim,
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            batch_size=self.batch_size,
            patience_epochs=self.patience_epochs,
            max_segments=self.max_segments,
            negatives_per_positive=self.negatives_per_positive or None,
            max_iterations=self.max_iterations,
            iteration_patience=self.iteration_patience,
            seed=self.seed,
        )

    def synth_config(self) -> SynthConfig:
        from .synth import SynthConfig

        return SynthConfig(
            num_queries=self.num_queries,
            docs_per_query=self.docs_per_query,
            sentences_per_doc=self.sentences_per_doc,
            tokens_per_sentence=self.tokens_per_sentence,
            vocab_size=self.vocab_size,
            query_terms=self.query_terms,
            plant_lo=self.plant_lo,
            plant_hi=self.plant_hi,
            distractor_overlap=self.distractor_overlap,
            noise=self.noise,
            seed=self.seed,
            title_token_count=self.title_token_count,
            max_tokens=self.max_tokens,
            min_tokens=self.min_tokens,
            max_segments=self.max_segments,
            query_token_budget=self.query_token_budget,
        )


_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}

# The values `scorer.LossKind` and `scorer.init_params` accept, named
# here so that parsing a configuration does not import numpy.
LOSSES = ("pairwise_hinge", "pointwise_cross_entropy")
SCORER_KINDS = ("linear", "mlp")
_POSITIVE = ("hidden_dim", "epochs", "batch_size", "patience_epochs",
             "max_segments", "max_iterations", "max_tokens", "min_tokens",
             "mrr_cutoff", "ndcg_k", "num_queries", "docs_per_query",
             "sentences_per_doc", "tokens_per_sentence", "vocab_size",
             "query_terms")
# negatives_per_positive=0 keeps the per-loss default
_NON_NEGATIVE = ("learning_rate", "negatives_per_positive", "query_token_budget",
                 "plant_lo", "title_token_count")
# key -> (test of the parsed value, what the value must be)
_CONFIG_CHECKS = {
    "loss": (LOSSES.__contains__, f"one of {', '.join(LOSSES)}"),
    "scorer_kind": (SCORER_KINDS.__contains__, f"one of {', '.join(SCORER_KINDS)}"),
    **dict.fromkeys(_POSITIVE, ((lambda v: v > 0), "positive")),
    **dict.fromkeys(_NON_NEGATIVE, ((lambda v: v >= 0), "non-negative")),
    "dev_fraction": ((lambda v: 0.0 < v < 1.0), "in (0, 1)"),
    **dict.fromkeys(("noise", "distractor_overlap"),
                    ((lambda v: 0.0 <= v <= 1.0), "in [0, 1]")),
}


def parse_config(stream: IO[str]) -> PipelineConfig:
    """key=value lines; '#' starts a comment; unknown keys are rejected.

    Values are checked as they are read: `loss` and `scorer_kind` must
    name a known kind; sizes, metric depths, `patience_epochs` and
    synthetic counts must be positive; the learning rate, the query and
    title token counts, `negatives_per_positive` and `plant_lo` must not
    be negative; `dev_fraction` must lie in (0, 1), and `noise` and
    `distractor_overlap` in [0, 1].  Two pairs are checked once all
    lines are read and reported at the later line of the pair:
    `min_tokens` may not exceed `max_tokens`, and `plant_lo` must lie
    below `plant_hi`.
    """
    config = PipelineConfig()
    key_lines: dict[str, int] = {}
    for line_no, line in _lines(stream):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected key=value", line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise ParseError(f"unknown configuration key {key!r}", line_no)
        current = getattr(config, key)
        try:
            if isinstance(current, int):
                setattr(config, key, int(value))
            elif isinstance(current, float):
                setattr(config, key, float(value))
            else:
                setattr(config, key, value)
        except ValueError:
            raise ParseError(f"bad value {value!r} for key {key!r}", line_no) from None
        valid, expected = _CONFIG_CHECKS.get(key, (None, ""))
        if valid is not None and not valid(getattr(config, key)):
            raise ParseError(f"{key} must be {expected}, got {value!r}", line_no)
        key_lines[key] = line_no
    if config.min_tokens > config.max_tokens:
        raise ParseError(
            f"min_tokens={config.min_tokens} exceeds max_tokens={config.max_tokens}",
            max(key_lines.get("min_tokens", 0), key_lines.get("max_tokens", 0)))
    if config.plant_lo >= config.plant_hi:
        raise ParseError(
            f"plant_lo={config.plant_lo} is not below plant_hi={config.plant_hi}",
            max(key_lines.get("plant_lo", 0), key_lines.get("plant_hi", 0)))
    return config


def write_config(config: PipelineConfig, stream: IO[str]) -> None:
    for f in dataclasses.fields(PipelineConfig):
        stream.write(f"{f.name}={getattr(config, f.name)}\n")
