"""File formats and all configuration.

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

The commands that score read the corpus through `read_corpus`, given
their queries, candidate pools and segmentation policy.  A corpus file
of 8 MiB or more keeps `<corpus file>.stores` beside it: the feature
rows of every (query, candidate) pair under training windows and under
inference windows, as raw float64 rows, keyed also by a CRC-32 of the
code that parses, segments and featurizes, the byte order, the
segmentation policy, and each query's id, tokens and candidate pool.
A hit needs no parse; a miss parses the corpus, and `save_stores`
caches the stores built from it.

`eval` reads each run through `read_run`: the first entries of each
ranking, as many as the metrics read, as two columns, document ids and
ranks, with no score, since no metric reads one.  A run file of 1 MiB
or more keeps them in `<run file>.top` beside it, keyed also by that
depth.  Its body (`TOP_FORMAT` 3) holds one line per ranking, its
documents and ranks as two lists, and is written only under a key read
before, so a run read once pays no more than the key's CRC-32 and one
line written.  A hit takes each ranking from its line after the checks
`parse_run` makes of what the line holds, and a body that fails one is
a miss.  `parse_qrels` reads the qrels straight into the grades of each
query, the form the metrics read.

The two caches share one set of rules (`_cache_key`, `_read_cache` and
`_write_cache`).  A cache sits beside a regular file, read through a
text stream not yet read whose name still names the file, in a
directory that other users may not write to.  Its key, its first line,
holds the file's size and CRC-32, the stream's encoding and error
handler, the Python version and a CRC-32 of the code that builds what
it caches; a CRC-32 of its body ends it.  `_write_cache` removes its
temporary file on any failure or exception, an interrupt among them,
so none outlives the write.  Only a parse that passed every check is
cached, so no cache matches a malformed input; any other key or a
damaged cache is a miss that parses the text again, and deleting a
cache is always safe.

A model file is read by `parse_model`, as a scorer kind, its hidden
units and its parameters in file order, as plain floats, so that
`select` and `rerank` read one without numpy; `scorer.read_params`
wraps them into `ScorerParams`, and `scorer.write_params` writes them.

The module also owns all configuration, without importing numpy:
`TrainConfig` and `SynthConfig` (which `training`, `synth` and, for
`LossKind`, `scorer` re-export), `PipelineConfig`, which inherits
both and adds only what the commands alone read, and the defaults of
the segmentation (`DEFAULT_*`).  Each field declares its range check
once; building a configuration runs it, and `parse_config` reports a
failure at the line of the value.

`corpus` is imported only by the functions that need it, `parse_corpus`,
`parse_queries` and `SynthConfig.policy`, so `eval` and
`eval-selection` load no corpus code.
"""

from __future__ import annotations

import array
import codecs
import dataclasses
import enum
import io
import itertools
import json
import math
import os
import stat
import sys
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple

from .evaluation import Judgments, Qrels, RankedList, RankEntry, Run, SegmentIndexMap, Top

if TYPE_CHECKING:  # `corpus` loads only in the functions that read a corpus
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
# rankings in a cache beside it; a smaller one parses in milliseconds.
MIN_CACHED_RUN_BYTES = 1 << 20

# The version of the top-of-run cache layout; a cache of any other is a miss.
TOP_FORMAT = 3

# The sources that build a run's top from its file: this module parses it
# into the types of `evaluation`.
_RUN_SOURCES = tuple(os.path.join(os.path.dirname(__file__), name)
                     for name in ("formats.py", "evaluation.py"))


def read_run(stream: IO[str], depth: int) -> Top:
    """The first `depth` entries of each ranking of the run in `stream`,
    as columns, `{qid: (doc_ids, ranks)}`, in `parse_run`'s (rank,
    doc_id) order and query order, from the cache of its top or from its
    parse.  No score is kept: no metric reads one.

    The rules are those of every cache (`_cache_key`, `_read_cache`),
    with a floor of `MIN_CACHED_RUN_BYTES`: a text stream over a regular
    file of at least that size, not yet read, whose name is the path of
    that file, in a directory that other users may not write to, has its
    cache at `<name>.top`.  Its key, the cache's first line, is a JSON
    object of exactly these members: `format` (`TOP_FORMAT`), `code` (the
    CRC-32 of `_RUN_SOURCES`), `python` (the version), `size` and
    `crc32` (of the file's bytes), `encoding` and `errors` (the
    stream's), and `depth`.  Its body holds one line per ranking, in the
    run's query order: `qid<TAB>docs<TAB>ranks`, each list
    space-separated in ranking order; a CRC-32 of the body follows it.
    A hit reads only that body (`_cached_top`), and takes it only if it
    passes every check `parse_run` makes of what it holds.

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
    cache = _cache_key(stream, MIN_CACHED_RUN_BYTES, _RUN_SOURCES,
                       format=TOP_FORMAT, depth=depth)
    rest = _read_cache(cache, ".top") if cache is not None else None
    body = _cache_body(rest)
    if body is not None:
        top = _cached_top(body, depth)
        if top is not None:
            return top
    top = {qid: ([e.doc_id for e in ranked.entries[:depth]],
                 [e.rank for e in ranked.entries[:depth]])
           for qid, ranked in parse_run(stream).items()}
    if cache is not None and rest is None:  # a key not read before
        _write_cache(cache, ".top", None)
    elif cache is not None:
        lines = [f"{qid}\t{' '.join(docs)}\t{' '.join(map(str, ranks))}\n"
                 for qid, (docs, ranks) in top.items()]
        _write_cache(cache, ".top", ["".join(lines).encode("utf-8", "surrogatepass")])
    return top


def _cached_top(body: memoryview, depth: int) -> Top | None:
    """The top a `.top` body holds, or None unless each of its lines is a
    ranking that `parse_run` could give, cut at `depth`: three fields,
    lists of one length from 1 to `depth`, an id and documents without
    whitespace, integer ranks of at least 1, no document twice, (rank,
    doc_id) strictly ascending, and no query twice."""
    try:
        lines = str(body, "utf-8", "surrogatepass").split("\n")
    except UnicodeDecodeError:
        return None
    if lines.pop() != "":
        return None
    top: Top = {}
    try:
        for line in lines:
            qid, docs, ranks = line.split("\t")
            docs = docs.split()
            ranks = list(map(int, ranks.split()))
            pairs = list(zip(ranks, docs))
            if (not len(docs) == len(ranks) <= depth
                    or min(ranks) < 1 or len(set(docs)) < len(docs)
                    or pairs != sorted(pairs) or qid in top or qid.split() != [qid]):
                return None
            top[qid] = docs, ranks
    except ValueError:  # a field count, a rank, or `min` of no ranks
        return None
    return top


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


# A corpus file of at least this many bytes keeps the feature stores
# built from it in a cache beside it; a smaller one parses, segments and
# featurizes in milliseconds.
MIN_CACHED_BYTES = 8 << 20

# The version of the feature stores layout; a cache of any other is a miss.
# The key also holds a CRC-32 of the code that builds the stores, so a
# change to the parse, the segmentation or the features invalidates every
# cache without a bump here.
STORES_FORMAT = 3

# The stores a stores cache holds: training windows, inference windows.
STORE_COUNT = 2

# The width of a feature row: a model file's `dim` and a feature store's
# row length.  `scorer` lays the features out.
NUM_FEATURES = 7

# The sources that build feature stores from a corpus file: this module
# and `corpus` parse and segment it, `scorer` and `training` featurize.
_SOURCES = tuple(os.path.join(os.path.dirname(__file__), name)
                 for name in ("formats.py", "corpus.py", "scorer.py", "training.py"))

_CRC_CHUNK = 256 << 10


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


# ---------------------------------------------------------------------------
# feature stores: the cached feature rows of every (query, candidate) pair

class FileCache(NamedTuple):
    """Where the cache of an input file goes, and its key."""

    path: str  # the input file's name; the cache is `<path><suffix>`
    info: os.stat_result  # the input file's, taken before its bytes were read
    header: bytes  # the key, as the first line of the cache


class Store(NamedTuple):
    """One cached feature store: each pair's row count, in pair order,
    and the rows, `NUM_FEATURES` native float64 values each, pair after
    pair."""

    counts: list[int]
    rows: memoryview


class CorpusRead(NamedTuple):
    """What `read_corpus` found: the cached feature stores, or else the
    corpus's views and document frequency; and the cache the stores
    built from those may be written to, if any."""

    stores: list[Store] | None
    views: dict[str, DocView] | None
    df: dict[str, int] | None
    cache: FileCache | None


def read_corpus(stream: IO[str], queries: list[Query], candidates: dict[str, list[str]],
                policy: SegmentationPolicy) -> CorpusRead:
    """The two feature stores cached for the corpus in `stream`, of
    training windows and of inference windows, over the candidate pool
    in `candidates` of each of `queries` cut by `policy`, or, on a miss,
    its parse.

    A text stream over a regular file of at least `MIN_CACHED_BYTES`,
    not yet read, whose name is the path of that file, has a cache
    beside it: `<name>.stores`.  Its key, the cache's first line, is a
    JSON object of exactly these members: `format` (`STORES_FORMAT`),
    `code` (the CRC-32 of the sources that parse, segment and
    featurize, `_SOURCES`), `python` (the version), `byteorder`,
    `width` (the row width), `size` and `crc32` (of the file's bytes),
    `encoding` and `errors` (the stream's), `policy`, and `pools`: each
    query's id, tokens and candidate pool.  Its body is each store's row
    counts (native int64, one per pair), each store's rows (native
    float64) and a CRC-32 of all of them.  A cache that holds this key
    and a body of exactly that shape and checksum is a hit, and the
    corpus is not read; the bytes it covers passed every check of the
    parse that built its stores.  Any other cache, missing, stale,
    truncated or damaged, is a miss.

    A miss parses the corpus (`parse_corpus`) with each candidate's
    scored terms, the tokens of every query that lists it, and requires
    every candidate of a listed query to be a corpus document.  Only
    `save_stores` writes the cache, from stores built from a read that
    got this far, and deleting it is always safe.

    The rules of which file gets a cache, and of which cache file is
    read, are those of every cache (`_cache_key`, `_read_cache`): a
    corpus in a directory that other users may write to gets no cache,
    and a cache that is not a regular file owned by this process's user,
    or is reached through a symbolic link, is a miss.
    """
    pools = [[query.id, query.tokens, candidates.get(query.id, [])] for query in queries]
    cache = _corpus_key(stream, policy, pools)
    pairs = sum(len(pool) for _, _, pool in pools)
    stores = _load_stores(cache, pairs) if cache is not None else None
    if stores is not None:
        return CorpusRead(stores, None, None, cache)
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
    return CorpusRead(None, views, df, cache)


def _corpus_key(stream: IO[str], policy: SegmentationPolicy,
                pools: list[list]) -> FileCache | None:
    """The stores cache of the file under `stream` for `policy` and
    `pools`, under the rules of `_cache_key`."""
    return _cache_key(stream, MIN_CACHED_BYTES, _SOURCES, format=STORES_FORMAT,
                      byteorder=sys.byteorder, width=NUM_FEATURES,
                      policy=dataclasses.asdict(policy), pools=pools)


def _cache_key(stream: IO[str], floor: int, sources: Iterable[str],
               **members: Any) -> FileCache | None:
    """The cache of the file under `stream`, keyed by `members` and by
    the members every cache key holds: `code` (the CRC-32 of `sources`),
    `python`, the file's `size` and `crc32`, and the stream's `encoding`
    and `errors`.

    None unless `stream` is a text stream, not yet read, over a regular
    file of at least `floor` bytes that `stream.name` still names, in a
    directory that other users may not write to, and `sources` can be
    read.  These are the rules of every cache: the key is a checksum,
    not a signature, so a cache is trusted only as far as the directory
    that holds it.
    """
    if not isinstance(stream, io.TextIOWrapper):
        return None
    crc = 0
    try:
        fd = stream.fileno()
        info = os.fstat(fd)
        if (not stat.S_ISREG(info.st_mode) or stream.tell() != 0
                or not isinstance(stream.name, str) or info.st_size < floor):
            return None
        directory = os.stat(os.path.dirname(stream.name) or os.curdir)
        if (directory.st_mode & stat.S_IWOTH
                or not os.path.samestat(info, os.stat(stream.name))):
            return None
        code = _sources_crc(sources)
        for offset in range(0, info.st_size, _CRC_CHUNK):
            crc = zlib.crc32(os.pread(fd, _CRC_CHUNK, offset), crc)
    except OSError:
        return None
    key = {**members, "code": code, "python": sys.version, "size": info.st_size,
           "crc32": crc, "encoding": codecs.lookup(stream.encoding).name,
           "errors": stream.errors}
    return FileCache(stream.name, info, SORTED_JSON.encode(key).encode() + b"\n")


def _sources_crc(sources: Iterable[str]) -> int:
    """The CRC-32 of the files in `sources`; an `OSError` if one cannot
    be read."""
    crc = 0
    for path in sources:
        with open(path, "rb") as file:
            crc = zlib.crc32(file.read(), crc)
    return crc


def _open_cache(path: str) -> IO[bytes] | None:
    """The cache file at `path`, open for reading, or None if it is
    missing or not a regular file owned by this process's user.  Opening
    it neither follows a link nor blocks on a FIFO."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
    except OSError:
        return None
    try:
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode) and info.st_uid == os.geteuid():
            return open(fd, "rb")
    except OSError:
        pass
    os.close(fd)
    return None


def _read_cache(cache: FileCache, suffix: str) -> memoryview | None:
    """What follows the key in the cache at `<cache.path><suffix>`: a
    body and its CRC-32, or nothing if the cache is the key alone.  None
    if the file is missing, not a regular file owned by this process's
    user, or keyed otherwise than `cache.header`."""
    file = _open_cache(cache.path + suffix)
    if file is None:
        return None
    with file:
        try:
            data = file.read()
        except OSError:
            return None
    if not data.startswith(cache.header):
        return None
    return memoryview(data)[len(cache.header):]


def _cache_body(rest: memoryview | None) -> memoryview | None:
    """The body of `rest`, as `_read_cache` gives it, or None if there is
    none or it is not followed by its CRC-32."""
    if rest is None or len(rest) < 4:
        return None
    body = rest[:-4]
    if zlib.crc32(body) != int.from_bytes(rest[-4:], "little"):
        return None
    return body


def _write_cache(cache: FileCache, suffix: str, body: list | None) -> None:
    """Write the key of `cache`, the byte buffers of `body` and their
    CRC-32 as the file `<cache.path><suffix>`; with `body` None, the key
    alone.

    Nothing is written if the input file changed since its key was
    taken.  The file is written beside its final name and renamed over
    it, so a reader sees the old cache or the new one.  A failure leaves
    no file behind and is ignored: a cache only saves time.  An
    exception raised while the temporary file exists, an interrupt among
    them, removes it on its way out.
    """
    try:
        now = os.stat(cache.path)
    except OSError:
        return
    if (not os.path.samestat(now, cache.info)
            or (now.st_size, now.st_mtime_ns) != (cache.info.st_size,
                                                  cache.info.st_mtime_ns)):
        return
    chunks = [cache.header]
    if body is not None:
        crc = 0
        for chunk in body:
            crc = zlib.crc32(chunk, crc)
        chunks += [*body, crc.to_bytes(4, "little")]
    path = cache.path + suffix
    temp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:  # a new file: O_EXCL follows no link planted at its name
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError:
        return
    try:
        with open(fd, "wb") as file:
            for chunk in chunks:
                file.write(chunk)
        os.replace(temp, path)
    except OSError:
        pass
    finally:  # nothing is left at `temp` once the rename is done
        try:
            os.unlink(temp)
        except OSError:
            pass


def _load_stores(cache: FileCache, pairs: int) -> list[Store] | None:
    """The stores of `pairs` (query, candidate) pairs each that `cache`
    holds, or None if `_cache_body` finds no body or it is not exactly
    the shape `save_stores` writes."""
    body = _cache_body(_read_cache(cache, ".stores"))
    if body is None:
        return None
    offset = STORE_COUNT * 8 * pairs
    if len(body) < offset:
        return None
    heads = array.array("q")
    heads.frombytes(body[:offset])
    stores = []
    for i in range(STORE_COUNT):
        block = heads[i * pairs:(i + 1) * pairs].tolist()
        if min(block, default=1) < 1:
            return None
        size = 8 * NUM_FEATURES * sum(block)
        stores.append(Store(block, body[offset:offset + size]))
        offset += size
    return stores if offset == len(body) else None


def save_stores(cache: FileCache, stores: Iterable[tuple[list[int], Any]]) -> None:
    """Write each store's row counts and rows (a C-contiguous float64
    buffer of `NUM_FEATURES` columns) to `cache`, as `read_corpus`
    reads them; nothing is written if the corpus changed since its key
    was taken, and a failure is ignored."""
    stores = list(stores)
    body = [array.array("q", counts).tobytes() for counts, _ in stores]
    # a store of no pairs has no rows, and a view of zero rows cannot be cast
    body += [memoryview(rows).cast("B") if counts else b"" for counts, rows in stores]
    _write_cache(cache, ".stores", body)


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


def write_selection(selection: SegmentIndexMap, stream: IO[str],
                    scores: dict[tuple[str, str], float]) -> None:
    for (qid, doc_id), index in sorted(selection.items()):
        record = {
            "qid": qid,
            "doc_id": doc_id,
            "segment_index": index,
            "score": scores.get((qid, doc_id), 0.0),
        }
        stream.write(SORTED_JSON.encode(record) + "\n")


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

# The defaults of the segmentation, here so that `SynthConfig` needs no
# corpus code; `corpus`, `scorer` and `training` read them from here too.
DEFAULT_MAX_TOKENS = 512
DEFAULT_MIN_TOKENS = 128
DEFAULT_MAX_SEGMENTS = 4
DEFAULT_QUERY_TOKEN_BUDGET = 16


class LossKind(enum.Enum):
    PAIRWISE_HINGE = "pairwise_hinge"
    POINTWISE_CE = "pointwise_cross_entropy"


# The values `scorer.init_params` accepts, named here so that parsing a
# configuration does not import numpy.
SCORER_KINDS = ("linear", "mlp")


class ConfigError(ValueError):
    """A configuration value out of range; `keys` are the fields it involves."""

    def __init__(self, message: str, keys: tuple[str, ...]):
        super().__init__(message)
        self.keys = keys


def _checked(default, valid: Callable[[Any], bool], expected: str):
    """A field whose values must pass `valid`; `expected` says what they must be."""
    return dataclasses.field(default=default, metadata={"check": (valid, expected)})


def _positive(default: int):
    return _checked(default, lambda v: v > 0, "positive")


def _non_negative(default):
    return _checked(default, lambda v: v >= 0, "non-negative")


def _unit(default: float):
    return _checked(default, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


def _check(f: dataclasses.Field, value) -> None:
    """Raise `ConfigError` if `value` fails the range check of field `f`."""
    valid, expected = f.metadata.get("check", (None, ""))
    if valid is not None and not valid(value):
        raise ConfigError(f"{f.name} must be {expected}, got {value!r}", (f.name,))


@dataclass
class _Config:
    """The seed every configuration shares, and the range check of each
    field, run when a configuration is built."""

    seed: int = _non_negative(13)

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            _check(f, getattr(self, f.name))


@dataclass
class TrainConfig(_Config):
    loss: LossKind = LossKind.PAIRWISE_HINGE
    scorer_kind: str = _checked("linear", SCORER_KINDS.__contains__,
                                f"one of {', '.join(SCORER_KINDS)}")
    hidden_dim: int = _positive(8)
    learning_rate: float = _checked(0.05, lambda v: 0 <= v < math.inf,
                                    "non-negative and finite")
    epochs: int = _positive(20)
    batch_size: int = _positive(32)
    patience_epochs: int = _positive(3)
    negatives_per_positive: int = _non_negative(0)  # 0: the per-loss default
    max_iterations: int = _positive(4)
    iteration_patience: int = _positive(1)

    def resolved_negatives(self) -> int:
        """Negatives sampled per positive: 1 under the pairwise hinge and
        10 under the pointwise cross-entropy, unless set."""
        return self.negatives_per_positive or (
            1 if self.loss == LossKind.PAIRWISE_HINGE else 10)


@dataclass
class SynthConfig(_Config):
    num_queries: int = _positive(50)
    docs_per_query: int = _checked(  # candidate pool per topic, incl. the relevant doc
        6, lambda v: v >= 2, "at least 2 (one relevant document and a negative)")
    sentences_per_doc: int = _positive(18)
    tokens_per_sentence: int = _positive(128)
    vocab_size: int = _positive(5000)
    query_terms: int = _positive(5)
    plant_lo: int = _non_negative(0)
    plant_hi: int = 4
    distractor_overlap: float = _unit(0.3)
    noise: float = _unit(0.1)
    title_token_count: int = _non_negative(2)
    # the training segmentation, see `policy`
    max_tokens: int = _positive(DEFAULT_MAX_TOKENS)
    min_tokens: int = _positive(DEFAULT_MIN_TOKENS)
    max_segments: int = _positive(DEFAULT_MAX_SEGMENTS)
    query_token_budget: int = _non_negative(DEFAULT_QUERY_TOKEN_BUDGET)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.min_tokens > self.max_tokens:
            raise ConfigError(f"min_tokens={self.min_tokens} exceeds "
                              f"max_tokens={self.max_tokens}", ("min_tokens", "max_tokens"))
        if self.plant_lo >= self.plant_hi:
            raise ConfigError(f"plant_lo={self.plant_lo} is not below "
                              f"plant_hi={self.plant_hi}", ("plant_lo", "plant_hi"))
        # `generate_corpus` still checks each document, which may have fewer segments
        if self.plant_hi > self.max_segments:
            raise ConfigError(f"plant_hi={self.plant_hi} exceeds "
                              f"max_segments={self.max_segments}",
                              ("plant_hi", "max_segments"))
        if self.query_terms > self.tokens_per_sentence:
            raise ConfigError(f"query_terms={self.query_terms} exceeds "
                              f"tokens_per_sentence={self.tokens_per_sentence}",
                              ("query_terms", "tokens_per_sentence"))
        reserved = self.num_queries * self.query_terms
        if reserved >= self.vocab_size:
            raise ConfigError(f"vocab_size={self.vocab_size} leaves no background "
                              f"terms after num_queries * query_terms = {reserved}",
                              ("num_queries", "query_terms", "vocab_size"))

    def policy(self) -> SegmentationPolicy:
        """The one training segmentation of a collection.

        Synthesis plants each gold segment in it, and `segment`, `train`
        and `select` cut their segments with it, so a gold index and a
        selected index name the same span.
        """
        from .corpus import SegmentationPolicy

        return SegmentationPolicy("training", self.max_tokens, self.min_tokens,
                                  self.max_segments, self.seed, self.query_token_budget)


@dataclass
class PipelineConfig(TrainConfig, SynthConfig):
    """Every configuration key: the training and synthetic-collection
    settings, plus what only the commands read.  Paths are optional;
    flags override them."""

    mrr_cutoff: int = _positive(10)
    ndcg_k: int = _positive(10)
    dev_fraction: float = _checked(0.2, lambda v: 0.0 < v < 1.0, "in (0, 1)")
    corpus: str = ""
    queries: str = ""
    qrels: str = ""
    candidates: str = ""
    gold: str = ""
    model: str = ""
    out: str = ""


_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)}


def parse_config(stream: IO[str]) -> PipelineConfig:
    """key=value lines; '#' starts a comment; unknown keys are rejected.

    Each value is range-checked as it is read, with the check its field
    declares; the checks on two or more fields run once all lines are
    read, and report the latest line among the values they compare.
    """
    values: dict[str, Any] = {}
    key_lines: dict[str, int] = {}
    for line_no, line in _lines(stream):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected key=value", line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        field = _CONFIG_FIELDS.get(key)
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
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        stream.write(f"{f.name}={value.value if isinstance(value, enum.Enum) else value}\n")
