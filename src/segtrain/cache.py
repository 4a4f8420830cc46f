"""The caches beside the input files: their rules and their two kinds.

A corpus file of 8 MiB or more keeps `<corpus file>.stores` beside it:
the feature rows of every (query, candidate) pair under training
windows and under inference windows, as raw float64 rows.  `read_stores`,
which `formats.read_stores` reads through, is the one place that
decides between those stores and a fresh build: it loads them on a
hit, and on a miss calls back to parse the corpus and build them, and
saves what it built.  A run file of `formats.MIN_CACHED_RUN_BYTES`
(1 MiB) or more keeps the top of each of its rankings in `<run
file>.top` (`read_top`, which `formats.read_run` reads through).
`formats` parses the files; this module decides when a cache is taken
and written.

The two caches share one set of rules (`_cache_key`, `_read_cache` and
`_write_cache`).  A cache sits beside a regular file, read through a
text stream not yet read whose name still names the file, in a
directory that other users may not write to.  Its key, its first line,
holds the file's size and CRC-32, the stream's encoding and error
handler, the Python version and a CRC-32 of the code that builds what
it caches (`_SOURCES`, `_RUN_SOURCES`); a CRC-32 of its body ends it.
`_write_cache` removes its temporary file on any failure or exception,
an interrupt among them, so none outlives the write.  Only a parse
that passed every check is cached, so no cache matches a malformed
input; any other key or a damaged cache is a miss that parses the text
again, and deleting a cache is always safe.

`train`, `select` and `rerank` load this module, and `eval` loads it
for a run of 1 MiB or more, or one whose size it cannot take.
`segment`, `synth` and `eval-selection` do not load it.
"""

from __future__ import annotations

import array
import codecs
import io
import os
import stat
import sys
import zlib
from typing import IO, TYPE_CHECKING, Any, Callable, Iterable, NamedTuple

from . import formats

if TYPE_CHECKING:
    from .corpus import SegmentationPolicy
    from .evaluation import Top

# The version of the top-of-run cache layout; a cache of any other is a miss.
TOP_FORMAT = 3

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


def _here(*names: str) -> tuple[str, ...]:
    return tuple(os.path.join(os.path.dirname(__file__), name) for name in names)


# The sources that build a run's top from its file: `formats` parses it
# into the types of `evaluation`, and this module caches it.
_RUN_SOURCES = _here("formats.py", "cache.py", "evaluation.py")

# The sources that build feature stores from a corpus file: `formats` and
# `corpus` parse and segment it, `scorer` and `training` featurize, and
# this module loads and saves them.
_SOURCES = _here("formats.py", "cache.py", "corpus.py", "scorer.py", "training.py")

_CRC_CHUNK = 256 << 10


class FileCache(NamedTuple):
    """Where the cache of an input file goes, and its key."""

    path: str  # the input file's name; the cache is `<path><suffix>`
    info: os.stat_result  # the input file's, taken before its bytes were read
    header: bytes  # the key, as the first line of the cache


class Store(NamedTuple):
    """One feature store: each pair's row count, in pair order, and the
    rows, `formats.NUM_FEATURES` native float64 values each, pair after
    pair; loaded from a cache or built (`training.build_training_set`)."""

    counts: list[int]
    rows: memoryview


# ---------------------------------------------------------------------------
# the top of a run

def read_top(stream: IO[str], depth: int, parse: Callable[[], Top]) -> Top:
    """The top of the run in `stream` at `depth`, from its `.top` cache,
    or else from `parse()`, its full parse cut at `depth`, which raises
    on a malformed run before anything is written.  The key, the body
    and the rule that only a key read before is worth a body are those
    `formats.read_run` documents."""
    cache = _cache_key(stream, formats.MIN_CACHED_RUN_BYTES, _RUN_SOURCES,
                       format=TOP_FORMAT, depth=depth)
    rest = _read_cache(cache, ".top") if cache is not None else None
    body = _cache_body(rest)
    if body is not None:
        top = _cached_top(body, depth)
        if top is not None:
            return top
    top = parse()
    if cache is not None and rest is None:  # a key not read before
        _write_cache(cache, ".top", None)
    elif cache is not None:
        lines = [f"{qid}\t{' '.join(docs)}\t{' '.join(map(str, ranks))}\n"
                 for qid, (docs, ranks) in top.items()]
        _write_cache(cache, ".top", ["".join(lines).encode("utf-8", "surrogatepass")])
    return top


def _cached_top(body: memoryview, depth: int) -> Top | None:
    """The top a `.top` body holds, or None unless each of its lines is a
    ranking that `formats.parse_run` could give, cut at `depth`: three
    fields, lists of one length from 1 to `depth`, an id and documents
    without whitespace, integer ranks of at least 1, no document twice,
    (rank, doc_id) strictly ascending, and no query twice."""
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
# feature stores: the cached feature rows of every (query, candidate) pair

def read_stores(stream: IO[str], policy: SegmentationPolicy, pools: list[list],
                build: Callable[[], Iterable[Store]]) -> list[Store]:
    """The stores cached for the corpus in `stream` under `policy` and
    `pools` (each query's id, tokens and candidate pool), or else those
    `build()` makes, which raises on a malformed corpus before anything
    is written, saved to the cache if the file gets one.  The key and
    the body are those `formats.read_stores` documents."""
    cache = _corpus_key(stream, policy, pools)
    if cache is not None:
        stores = _load_stores(cache, sum(len(pool) for _, _, pool in pools))
        if stores is not None:
            return stores
    stores = list(build())
    if cache is not None:
        body = [array.array("q", counts).tobytes() for counts, _ in stores]
        # a store of no pairs has no rows, and a view of zero rows cannot be cast
        body += [rows.cast("B") if counts else b"" for counts, rows in stores]
        _write_cache(cache, ".stores", body)
    return stores


def _corpus_key(stream: IO[str], policy: SegmentationPolicy,
                pools: list[list]) -> FileCache | None:
    """The stores cache of the file under `stream` for `policy` and
    `pools`, under the rules of `_cache_key`."""
    return _cache_key(stream, MIN_CACHED_BYTES, _SOURCES, format=STORES_FORMAT,
                      byteorder=sys.byteorder, width=formats.NUM_FEATURES,
                      policy=vars(policy), pools=pools)


def _load_stores(cache: FileCache, pairs: int) -> list[Store] | None:
    """The stores of `pairs` (query, candidate) pairs each that `cache`
    holds, or None if `_cache_body` finds no body or it is not exactly
    the shape `read_stores` writes."""
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
        size = 8 * formats.NUM_FEATURES * sum(block)
        stores.append(Store(block, body[offset:offset + size]))
        offset += size
    return stores if offset == len(body) else None


# ---------------------------------------------------------------------------
# the rules of every cache

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
    return FileCache(stream.name, info, formats.SORTED_JSON.encode(key).encode() + b"\n")


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
