"""File formats: a parser and a writer for each file the commands read
or write.

All parsers report the offending line number on malformed input, and
every writer/parser pair round-trips (floats to their documented
formatting precision).  Bytes that a stream cannot decode are reported
at their line too, if the stream's file can be read again.  Writers
emit rows in a fixed sort order so identical inputs always produce
byte-identical files.

A corpus file is written by `synth.write_corpus`, straight from the
vocabulary ids of a generated collection.  The one corpus reader,
`parse_corpus`, gives each document's `DocView` (title length,
sentence lengths and the hits of the terms it will be scored against)
and, from the same pass, the document frequency of those terms; no
token list is kept, since every command that reads a corpus needs only
views.

The commands that score read the corpus through `read_stores`, given
their queries, candidate pools and segmentation policy: its two
feature stores, as `cache.Store`s, cached beside a corpus file of
8 MiB or more or else built from the corpus's parse, by the one path
that `cache.read_stores` decides.  `eval` reads each run through
`read_run`: the first entries of each ranking, as many as the metrics
read, as two columns, document ids and ranks, with no score, since no
metric reads one, from the cache beside a run file of
`MIN_CACHED_RUN_BYTES` (1 MiB) or more or else from the run's parse
(`cache.read_top`).  `parse_qrels` reads the qrels straight into the
grades of each query, the form the metrics read.  The `cache` module
holds the rules of both caches.

A model file is read by `parse_model`, as a scorer kind, its hidden
units and its parameters in file order, as plain floats, so that
`select` and `rerank` read one without numpy; `scorer.read_params`
wraps them into `ScorerParams`, and `scorer.write_params` writes them.
`write_selection` renders each record from one fixed template, with
the bytes `SORTED_JSON` gives it.

Every command loads this module, and with it `evaluation` and nothing
else of the package; `eval-selection` loads no more.  The functions
that read another module import it themselves: `corpus`
(`parse_corpus`, `parse_queries`), `cache` (`read_stores`, and
`read_run` for a run of 1 MiB or more), `training` (`read_stores`, on
a miss, once the corpus has parsed) and `config` (`parse_config`).  So
`eval` loads no corpus code, nor `cache` for a small run, and
`eval-selection` neither the configuration, the caches nor
`dataclasses`.
"""

from __future__ import annotations

import codecs
import enum
import io
import itertools
import json
import math
from collections import Counter
from json.encoder import encode_basestring_ascii
from typing import IO, TYPE_CHECKING, Any, Iterable, Iterator

from .evaluation import Judgments, Qrels, RankedList, RankEntry, Run, SegmentIndexMap, Top

if TYPE_CHECKING:  # each loads only in the functions that read it
    from .cache import Store
    from .config import PipelineConfig
    from .corpus import DocView, Query, SegmentationPolicy


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def _lines(stream: IO[str]) -> Iterable[tuple[int, str]]:
    try:
        for line_no, raw in enumerate(stream, start=1):
            line = raw.rstrip("\n")
            if line.strip():
                yield line_no, line
    except UnicodeDecodeError as exc:
        raise _decode_error(stream, exc) from None


def _decode_error(stream: IO[str], exc: UnicodeDecodeError) -> ParseError:
    """The `ParseError` for bytes of `stream` that its codec cannot decode.

    A text stream decodes its bytes in chunks ahead of the line being
    read, so `exc` gives an offset into a chunk, not a line.  The line
    is found here, off the parse's path, by decoding the file under
    `stream` again from its start, one line at a time, and counting line
    breaks as universal newlines do.  A stream whose bytes cannot be
    read again gets no line number.
    """
    found, line_no = exc, None
    try:
        stream.buffer.seek(0)
    except (AttributeError, OSError):  # no bytes to read again
        pass
    else:
        decoder = codecs.getincrementaldecoder(stream.encoding)(stream.errors)
        breaks = 0
        for chunk in itertools.chain(stream.buffer, [b""]):
            try:
                text = decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as error:
                prefix = error.object[:error.start].decode(stream.encoding, "replace")
                found, line_no = error, 1 + breaks + _line_breaks(prefix)
                break
            breaks += _line_breaks(text)
    bad = " ".join(f"0x{byte:02x}" for byte in found.object[found.start:found.end])
    return ParseError(f"{found.encoding} cannot decode {bad} ({found.reason})", line_no)


def _line_breaks(text: str) -> int:
    """The line breaks in `text`: each "\\n", "\\r" and "\\r\\n"."""
    return text.count("\n") + text.count("\r") - text.count("\r\n")


def _json_line(line: str, line_no: int):
    """The JSON value of one line; any failure is a `ParseError`."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON ({exc.msg})", line_no) from None
    except (ValueError, RecursionError) as exc:  # over-long number, deep nesting
        raise ParseError(f"bad JSON ({exc})", line_no) from None


# The encoder of every JSON line written: keys sorted, so equal records
# give equal bytes.  `json.dumps(..., sort_keys=True)` would build a new
# encoder for each record.
SORTED_JSON = json.JSONEncoder(sort_keys=True)


# ---------------------------------------------------------------------------
# qrels: "qid 0 docid grade", whitespace separated

def parse_qrels(stream: IO[str]) -> Judgments:
    """The grades of each judged query, {qid: {doc_id: grade}}, in qid
    order; a pair listed twice keeps its last grade."""
    judgments: Judgments = {}
    qid_now, judged = None, {}
    try:
        for line_no, raw in enumerate(stream, 1):
            fields = raw.split()
            if not fields:
                continue
            if len(fields) != 4:
                raise ParseError(f"expected 4 fields, got {len(fields)}", line_no)
            qid, _, doc_id, grade = fields
            try:
                value = int(grade)
            except ValueError:
                raise ParseError(f"bad relevance grade {grade!r}", line_no) from None
            if value < 0:
                raise ParseError(f"negative relevance grade for {(qid, doc_id)}", line_no)
            if qid != qid_now:
                qid_now, judged = qid, judgments.setdefault(qid, {})
            judged[doc_id] = value
    except UnicodeDecodeError as exc:
        raise _decode_error(stream, exc) from None
    return dict(sorted(judgments.items()))


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
    try:
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
    except UnicodeDecodeError as exc:
        raise _decode_error(stream, exc) from None
    run: Run = {}
    for qid, entries in rows.items():
        entries.sort()
        run[qid] = RankedList(qid, [
            RankEntry(doc_id, score, rank) for rank, doc_id, score in entries])
    return run


# A run file of at least this many bytes keeps the top of each of its
# rankings in a cache beside it; a smaller one parses in milliseconds,
# and `read_run` reads it without loading `cache`.
MIN_CACHED_RUN_BYTES = 1 << 20


def read_run(stream: IO[str], depth: int) -> Top:
    """The first `depth` entries of each ranking of the run in `stream`,
    as columns, `{qid: (doc_ids, ranks)}`, in `parse_run`'s (rank,
    doc_id) order and query order, from the cache of its top or from its
    parse.  No score is kept: no metric reads one.

    The rules are those of every cache (`cache._cache_key`,
    `cache._read_cache`), with a floor of `MIN_CACHED_RUN_BYTES`:
    a text stream over a regular file of at least that size, not yet
    read, whose name is the path of that file, in a directory that other
    users may not write to, has its cache at `<name>.top`.  Its key, the
    cache's first line, is a JSON object of exactly these members:
    `format` (`cache.TOP_FORMAT`), `code` (the CRC-32 of
    `cache._RUN_SOURCES`), `python` (the version), `size` and `crc32`
    (of the file's bytes), `encoding` and `errors` (the stream's), and
    `depth`.  Its body holds one line per ranking, in the run's query
    order: `qid<TAB>docs<TAB>ranks`, each list space-separated in
    ranking order; a CRC-32 of the body follows it.  A hit reads only
    that body (`cache._cached_top`), and takes it only if it passes
    every check `parse_run` makes of what it holds.  A file under the
    floor is parsed here without loading `cache`; a stream without a
    file descriptor is left to `cache`, whose rules give it no cache.

    A miss parses the whole file with `parse_run`, every check included;
    a malformed run raises before anything is written, so no cache
    matches one.  Only a key read before is worth a body: the first
    read of a key leaves the key alone as the cache, and a later miss
    under that same key writes the body.  So a run read once costs its
    parse, the key's CRC-32 and one line written, and a run read again
    is parsed twice before its hits.  Any other cache, stale, truncated,
    damaged or of another layout, is a miss, and deleting it is always
    safe.
    """
    import os

    def parse() -> Top:
        return {qid: ([e.doc_id for e in ranked.entries[:depth]],
                      [e.rank for e in ranked.entries[:depth]])
                for qid, ranked in parse_run(stream).items()}

    try:  # a run under the floor is parsed without loading `cache`
        if os.fstat(stream.fileno()).st_size < MIN_CACHED_RUN_BYTES:
            return parse()
    except OSError:  # no file descriptor: `cache` decides
        pass
    from .cache import read_top

    return read_top(stream, depth, parse)


# ---------------------------------------------------------------------------
# corpus: JSON-lines {"doc_id", "title", "body"}

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


# The width of a feature row: a model file's `dim` and a feature store's
# row length.  `scorer` lays the features out.
NUM_FEATURES = 7


def parse_corpus(stream: IO[str], doc_terms: dict[str, set[str]] | None = None
                 ) -> tuple[dict[str, DocView], dict[str, int]]:
    """Document views by id, and document frequency of the scored terms.

    `doc_terms` maps a document to the terms it will be scored against
    (the tokens of the queries that list it as a candidate); its view
    records hits of those terms only, and a document it lacks records
    none.  Document frequency counts, over every document, the union of
    those terms, keyed in first-seen order.  No token list outlives its
    document's line.

    A `TextIOWrapper` not yet read from is switched to universal
    newlines first, so lines split alike whatever `newline=` the file
    was opened with.
    """
    from .corpus import view_from_text

    doc_terms = doc_terms or {}
    if isinstance(stream, io.TextIOWrapper):
        try:
            stream.reconfigure(newline=None)
        except io.UnsupportedOperation:  # already read from
            pass
    terms = set().union(*doc_terms.values())
    views: dict[str, DocView] = {}
    df: Counter[str] = Counter()
    for doc_id, title, body in _corpus_records(stream):
        views[doc_id], found = view_from_text(
            doc_id, title, body, doc_terms.get(doc_id, set()), terms)
        df.update(found)
    return views, dict(df)


def read_stores(stream: IO[str], queries: list[Query], candidates: dict[str, list[str]],
                policy: SegmentationPolicy) -> list[Store]:
    """The two feature stores of the corpus in `stream`, of training
    windows and of inference windows, over the candidate pool in
    `candidates` of each of `queries` cut by `policy`: the cached ones,
    or else those built from the corpus's parse and cached
    (`cache.read_stores`).  This is the one path by which `train`,
    `select` and `rerank` get their stores.

    A text stream over a regular file of at least
    `cache.MIN_CACHED_BYTES`, not yet read, whose name is the path of
    that file, has a cache beside it: `<name>.stores`.  Its key, the
    cache's first line, is a JSON object of exactly these members:
    `format` (`cache.STORES_FORMAT`), `code` (the CRC-32 of the sources
    that parse, segment, featurize and cache, `cache._SOURCES`),
    `python` (the version), `byteorder`, `width` (the row width), `size`
    and `crc32` (of the file's bytes), `encoding` and `errors` (the
    stream's), `policy`, and `pools`: each query's id, tokens and
    candidate pool.  Its body is each store's row counts (native int64,
    one per pair), each store's rows (native float64) and a CRC-32 of
    all of them.  A cache that holds this key and a body of exactly that
    shape and checksum is a hit, and the corpus is not read; the bytes
    it covers passed every check of the parse that built its stores.
    Any other cache, missing, stale, truncated or damaged, is a miss.

    A miss parses the corpus (`parse_corpus`) with each candidate's
    scored terms, the tokens of every query that lists it, and requires
    every candidate of a listed query to be a corpus document; only
    then does it load numpy, to build the stores
    (`training.build_stores`) under stats taken from the inference
    windows at `policy.max_tokens`.  Only stores built from a read that
    got this far are written to the cache, and deleting it is always
    safe.

    The rules of which file gets a cache, and of which cache file is
    read, are those of every cache (`cache._cache_key`,
    `cache._read_cache`): a corpus in a directory that other users may
    write to gets no cache, and a cache that is not a regular file owned
    by this process's user, or is reached through a symbolic link, is a
    miss.
    """
    from . import cache

    pools = [[query.id, query.tokens, candidates.get(query.id, [])] for query in queries]

    def build() -> tuple[Store, Store]:
        doc_terms: dict[str, set[str]] = {}
        for _, tokens, pool in pools:
            for doc_id in pool:
                doc_terms.setdefault(doc_id, set()).update(tokens)
        views, df = parse_corpus(stream, doc_terms)
        for qid, _, pool in pools:
            for doc_id in pool:
                if doc_id not in views:
                    raise ParseError(f"candidate {doc_id!r} of query {qid!r} "
                                     f"is not in the corpus")
        from .corpus import CorpusStats, inference_windows
        from .training import build_stores

        windows = inference_windows(views, policy.max_tokens)
        return build_stores(queries, candidates, views, policy,
                            CorpusStats.from_windows(windows, df), windows)

    return cache.read_stores(stream, policy, pools, build)


# ---------------------------------------------------------------------------
# model files: "segtrain-model v1 kind=K dim=7 hidden=H", then one
# parameter per line

MODEL_FORMAT_NAME = "segtrain-model"
MODEL_FORMAT_VERSION = "v1"


def _param_count(kind: str, hidden: int) -> int:
    """The length of the parameter vector of a `kind` scorer with
    `hidden` units, which must be 0 for the linear scorer and at least 1
    for the mlp."""
    if kind == "linear":
        if hidden != 0:
            raise ValueError(f"linear scorer needs hidden=0, got hidden={hidden}")
        return NUM_FEATURES + 1
    if kind == "mlp":
        if hidden < 1:
            raise ValueError(f"mlp scorer needs hidden >= 1, got hidden={hidden}")
        return (NUM_FEATURES + 2) * hidden + 1
    raise ValueError(f"unknown scorer kind: {kind!r}")


def parse_model(stream: IO[str]) -> tuple[str, int, list[float]]:
    """The scorer kind, hidden units and parameters, in file order, of a
    model file, as `scorer.write_params` writes it; a malformed file
    raises `ParseError` at its line, the header being line 1.  Too many
    parameters are reported at the first extra one, too few at the last
    line.  Every parameter is finite."""
    lines = _lines(stream)
    line_no, header = next(lines, (1, ""))
    header = header.strip() if line_no == 1 else ""
    fields = header.split()
    opts = dict(f.partition("=")[::2] for f in fields[2:])
    kind, dim, hidden = (opts.get(key, "") for key in ("kind", "dim", "hidden"))
    if (fields[:2] != [MODEL_FORMAT_NAME, MODEL_FORMAT_VERSION] or len(fields) != 5
            or not dim.isdecimal() or not hidden.isdecimal()):
        raise ParseError(f"bad model header: {header!r}", 1)
    if int(dim) != NUM_FEATURES:
        raise ParseError(f"model feature dimension {dim} does not match {NUM_FEATURES}", 1)
    try:
        expected = _param_count(kind, int(hidden))
    except ValueError as error:
        raise ParseError(f"bad model header: {error}", 1) from None
    values, last = [], 1
    for line_no, line in lines:
        if len(values) == expected:
            raise ParseError(f"expected {expected} parameters for a {kind} scorer, "
                             f"got more", line_no)
        try:
            values.append(float(line))
        except ValueError:
            values.append(math.nan)  # rejected with the non-finite values
        if not math.isfinite(values[-1]):
            raise ParseError(f"bad parameter: {line.strip()!r}", line_no)
        last = line_no
    if len(values) < expected:
        raise ParseError(f"expected {expected} parameters for a {kind} scorer, "
                         f"got {len(values)}", last)
    return kind, int(hidden), values


# ---------------------------------------------------------------------------
# queries: TSV "qid<TAB>text"

def write_queries(queries: Iterable[Query], stream: IO[str]) -> None:
    for query in queries:
        stream.write(f"{query.id}\t{query.text}\n")


def parse_queries(stream: IO[str]) -> list[Query]:
    from .corpus import Query

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

def _segment_index(value: Any) -> int:
    """`value` if it is a JSON integer, not a float, a bool or a string;
    a `TypeError` otherwise."""
    if type(value) is not int:
        raise TypeError(f"segment index {value!r} is not an integer")
    return value


def _pair(record: Any) -> tuple[str, str]:
    """The (qid, doc_id) key of a selection or gold record; a `TypeError`
    unless both are strings, a `KeyError` if one is missing."""
    key = record["qid"], record["doc_id"]
    if type(key[0]) is not str or type(key[1]) is not str:
        raise TypeError(f"query and document ids {key!r} are not strings")
    return key


def _score(value: Any) -> float:
    """`value` as a float if it is a JSON number, not a bool or a string;
    a `TypeError` otherwise, and an `OverflowError` for an integer too
    large for a float."""
    if type(value) is not float and type(value) is not int:
        raise TypeError(f"score {value!r} is not a number")
    return float(value)


# How `SORTED_JSON` writes the floats that `float.__repr__` gives as
# these words: JSON has no number for them.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def write_selection(selection: SegmentIndexMap, stream: IO[str],
                    scores: dict[tuple[str, str], float]) -> None:
    """One line per pair, in pair order, each rendered from one template
    with the bytes `SORTED_JSON` gives the record: its keys sorted, the
    ids through JSON's ASCII string encoder, the score, a float (0.0 if
    absent), through `float.__repr__`, and the index, an int, through
    `int.__repr__`."""
    lines = []
    for (qid, doc_id), index in sorted(selection.items()):
        score = float.__repr__(scores.get((qid, doc_id), 0.0))
        lines.append(f'{{"doc_id": {encode_basestring_ascii(doc_id)}, '
                     f'"qid": {encode_basestring_ascii(qid)}, '
                     f'"score": {_NON_FINITE.get(score, score)}, '
                     f'"segment_index": {int.__repr__(index)}}}\n')
    stream.write("".join(lines))


def parse_selection(stream: IO[str]) -> tuple[SegmentIndexMap, dict[tuple[str, str], float]]:
    """Segment indices and scores by (qid, doc_id): the ids are strings,
    the index a JSON integer and the score, 0.0 if absent, a JSON number."""
    selection: SegmentIndexMap = {}
    scores: dict[tuple[str, str], float] = {}
    for line_no, line in _lines(stream):
        record = _json_line(line, line_no)
        try:
            key = _pair(record)
            selection[key] = _segment_index(record["segment_index"])
            scores[key] = _score(record.get("score", 0.0))
        except (KeyError, TypeError, OverflowError):
            raise ParseError("bad selection record", line_no) from None
    return selection, scores


# ---------------------------------------------------------------------------
# gold segments: JSON-lines {"qid", "doc_id", "gold_segment_index"}

def write_gold(gold: dict[tuple[str, str], int], stream: IO[str]) -> None:
    for (qid, doc_id), index in sorted(gold.items()):
        record = {"qid": qid, "doc_id": doc_id, "gold_segment_index": index}
        stream.write(SORTED_JSON.encode(record) + "\n")


def parse_gold(stream: IO[str]) -> dict[tuple[str, str], int]:
    """Gold segment indices by (qid, doc_id): the ids are strings and the
    index a JSON integer."""
    gold: dict[tuple[str, str], int] = {}
    for line_no, line in _lines(stream):
        record = _json_line(line, line_no)
        try:
            gold[_pair(record)] = _segment_index(record["gold_segment_index"])
        except (KeyError, TypeError):
            raise ParseError("bad gold segment record", line_no) from None
    return gold


# ---------------------------------------------------------------------------
# configuration: "key=value" lines with '#' comments

def parse_config(stream: IO[str]) -> PipelineConfig:
    """key=value lines; '#' starts a comment; unknown keys are rejected.

    Each value is range-checked as it is read, with the check its field
    declares; the checks on two or more fields run once all lines are
    read, and report the latest line among the values they compare.
    """
    from .config import ConfigError, PipelineConfig, _check

    values: dict[str, Any] = {}
    key_lines: dict[str, int] = {}
    for line_no, line in _lines(stream):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected key=value", line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        field = PipelineConfig.FIELDS.get(key)
        if field is None:
            raise ParseError(f"unknown configuration key {key!r}", line_no)
        kind = type(field.default)
        try:
            values[key] = kind(value)
            _check(field, values[key])
        except ConfigError as exc:
            raise ParseError(str(exc), line_no) from None
        except ValueError:
            if issubclass(kind, enum.Enum):
                raise ParseError(f"{key} must be one of "
                                 f"{', '.join(m.value for m in kind)}, got {value!r}",
                                 line_no) from None
            raise ParseError(f"bad value {value!r} for key {key!r}", line_no) from None
        key_lines[key] = line_no
    try:
        return PipelineConfig(**values)
    except ConfigError as exc:
        raise ParseError(str(exc), max(key_lines.get(key, 0) for key in exc.keys)) from None


def write_config(config: PipelineConfig, stream: IO[str]) -> None:
    for name in config.FIELDS:
        value = getattr(config, name)
        stream.write(f"{name}={value.value if isinstance(value, enum.Enum) else value}\n")
