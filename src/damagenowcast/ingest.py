"""Parsers for the external data files: messages, region boundaries, population,
damage, storm track, and the bundled county statistics table.

Every CSV parser reads through one shared single-pass reader, so all of them
drop malformed rows with the same line-numbered diagnostic; structural
problems (unreadable or empty input, a missing column, duplicate keys where
duplicates are banned, non-monotone track times) raise :class:`IngestError`.
Files are UTF-8; timestamps must be ISO-8601 with an explicit UTC offset.

``parse_messages`` returns a :class:`MessageTable`, one array per field. It
converts columns a block at a time with numpy and accepts in bulk only the
rows already in canonical form (the form ``write_messages_csv`` writes).
Every other row goes through the per-row converter, which alone decides
whether a row is malformed and why, so the table, the counts and the
diagnostics are what converting each row on its own would give. Repeated
ids are found once the input is read, from one hash per row.

``parse_regions`` returns a :class:`RegionTable`: every vertex in one float64
array, indexed by ring and region offsets.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Generic, Iterable, Iterator, Sequence, TextIO, TypeVar

import numpy as np

__all__ = [
    "IngestError",
    "MessageRecord",
    "MessageTable",
    "RegionBoundary",
    "RegionTable",
    "PopulationEntry",
    "DamageRecord",
    "TrackPoint",
    "CountyStats",
    "ParseResult",
    "parse_messages",
    "parse_regions",
    "parse_track",
    "parse_keyed_table",
    "parse_county_table",
    "parse_timestamp",
    "write_messages_csv",
    "format_timestamp",
]

REGION_LEVELS = frozenset({"metro", "county", "zcta"})
DAMAGE_SOURCES = frozenset({"fema_ia", "insurance", "hazus"})
MODELED_SOURCE = "hazus"  # the one damage source that is not ex-post

MESSAGE_COLUMNS = (
    "message_id",
    "user_id",
    "timestamp",
    "lat",
    "lon",
    "keywords",
    "is_retweet",
    "retweeted_count",
    "sentiment",
)

T = TypeVar("T")

UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
MICROSECOND = timedelta(microseconds=1)

_BLOCK_ROWS = 1 << 12  # CSV rows held and converted at once; bounds the Python row lists
_SEGMENT_BLOCKS = 32  # blocks of accepted rows joined into one array while the parse runs
_TEXT = np.dtypes.StringDType()  # variable-width strings stored in the array, not as Python objects
_MAX_COUNT = 2**63 - 1  # retweeted_count must fit the table's int64 column


class IngestError(ValueError):
    """Unrecoverable input problem: bad structure, banned duplicate, bad order."""


@dataclass(frozen=True)
class MessageRecord:
    """One geotagged message. ``location`` is (lat, lon) or None when ungeocoded."""

    message_id: str
    user_id: str
    timestamp: datetime
    location: tuple[float, float] | None
    keywords: frozenset[str]
    is_retweet: bool
    retweeted_count: int
    sentiment: float | None = None


@dataclass(frozen=True, eq=False)
class MessageTable(SequenceABC):
    """Messages as one array per field, rows in file order.

    ``user`` and ``keyword_set`` are codes: row ``i`` was posted by
    ``user_ids[user[i]]`` with the tags ``keyword_sets[keyword_set[i]]``.
    ``tags`` is every tag of those sets, sorted, and ``tag_matrix[k, j]``
    says whether set ``k`` holds ``tags[j]``. ``time_us`` counts microseconds
    since the Unix epoch (UTC); ``lat``/``lon`` are NaN for an unlocated
    message and ``sentiment`` is NaN when absent.

    Indexing or iterating gives one :class:`MessageRecord` per row, a view
    for callers that want objects; the analysis works on the arrays.
    """

    message_id: np.ndarray  # StringDType
    user: np.ndarray  # int64
    user_ids: np.ndarray  # StringDType, sorted
    time_us: np.ndarray  # int64
    lat: np.ndarray  # float64
    lon: np.ndarray  # float64
    keyword_set: np.ndarray  # int64
    keyword_sets: Sequence[frozenset[str]]
    is_retweet: np.ndarray  # bool
    retweeted_count: np.ndarray  # int64
    sentiment: np.ndarray  # float64
    tags: tuple[str, ...]
    tag_matrix: np.ndarray  # bool

    @classmethod
    def from_columns(cls, message_id: np.ndarray, user_id: np.ndarray, time_us: np.ndarray, lat: np.ndarray,
                     lon: np.ndarray, keyword_set: np.ndarray, keyword_sets: Sequence[frozenset[str]],
                     is_retweet: np.ndarray, retweeted_count: np.ndarray, sentiment: np.ndarray,
                     nul_users: bool = False) -> MessageTable:
        """The table of one array per field, in row order, each of the field's dtype.

        ``user_id`` holds the ids themselves and ``keyword_set`` codes into
        ``keyword_sets``; users are coded in sorted order and the sets are
        renumbered to those some row uses. ``nul_users`` says that some user
        id holds a NUL, which StringDType comparisons stop at.
        """
        user_ids, user = _unique_by_python(user_id) if nul_users else _unique(user_id)
        used, keyword_set = np.unique(keyword_set, return_inverse=True)
        keyword_sets = [keyword_sets[k] for k in used.tolist()]
        tags = tuple(sorted(set().union(*keyword_sets)))
        position = {tag: j for j, tag in enumerate(tags)}
        tag_matrix = np.zeros((len(keyword_sets), len(tags)), dtype=bool)
        for k, tag_set in enumerate(keyword_sets):
            tag_matrix[k, [position[tag] for tag in tag_set]] = True
        return cls(
            message_id=message_id, user=user, user_ids=user_ids, time_us=time_us, lat=lat, lon=lon,
            keyword_set=keyword_set.astype(np.int64), keyword_sets=keyword_sets, is_retweet=is_retweet,
            retweeted_count=retweeted_count, sentiment=sentiment, tags=tags, tag_matrix=tag_matrix,
        )

    def __len__(self) -> int:
        return len(self.message_id)

    def __getitem__(self, i: int) -> MessageRecord:
        return next(self._records([range(len(self))[i]]))

    def __iter__(self) -> Iterator[MessageRecord]:
        return self._records(slice(None))

    def _records(self, rows) -> Iterator[MessageRecord]:
        columns = (self.message_id, self.user_ids[self.user], self.time_us, self.lat, self.lon, self.keyword_set,
                   self.is_retweet, self.retweeted_count, self.sentiment)
        for message_id, user_id, stamp, lat, lon, tags, retweet, count, sentiment in zip(
            *(column[rows].tolist() for column in columns)
        ):
            yield MessageRecord(
                message_id=message_id,
                user_id=user_id,
                timestamp=UNIX_EPOCH + stamp * MICROSECOND,
                location=None if math.isnan(lat) else (lat, lon),
                keywords=self.keyword_sets[tags],
                is_retweet=retweet,
                retweeted_count=count,
                sentiment=None if math.isnan(sentiment) else sentiment,
            )


def _unique(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` by a stable sort. Its quicksort falls back to
    heapsort when it recurses too deep, which StringDType lacks: the process dies."""
    order = np.argsort(values, kind="stable")
    values = values[order]
    new = np.ones(len(values), dtype=bool)
    new[1:] = values[1:] != values[:-1]
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return values[new], inverse


def _unique_by_python(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_unique` by Python string comparison, which a NUL does not cut short."""
    texts = values.tolist()
    distinct = sorted(set(texts))
    code = {text: k for k, text in enumerate(distinct)}
    return np.array(distinct, dtype=values.dtype), np.fromiter(map(code.__getitem__, texts), np.int64, len(texts))


@dataclass(frozen=True)
class RegionBoundary:
    """Administrative area as a flat list of closed lon/lat rings plus a cached bbox.

    MultiPolygon inputs are flattened, so ``rings`` may contain several outer
    rings; containment tests use even-odd parity over all rings, which makes
    the outer/hole distinction immaterial to them. ``holes`` lists the indices
    of the rings that were holes (every ring after a polygon's first), which
    the area-weighted centroid needs.
    """

    region_id: str
    name: str
    level: str
    rings: tuple[tuple[tuple[float, float], ...], ...]
    bbox: tuple[float, float, float, float]  # min_lon, min_lat, max_lon, max_lat
    holes: frozenset[int] = frozenset()


@dataclass(frozen=True, eq=False)
class RegionTable(SequenceABC):
    """Regions as flat arrays, in input order, with compressed-row offsets.

    Region ``i`` holds rings ``ring_offsets[i]`` to ``ring_offsets[i + 1]``
    and ring ``k`` holds the closed lon/lat rows ``vertex_offsets[k]`` to
    ``vertex_offsets[k + 1]`` of ``vertices``; ``hole[k]`` says whether ring
    ``k`` was a hole. ``bbox`` holds each region's min_lon, min_lat, max_lon,
    max_lat. A vertex costs its 16 bytes and no Python object.

    Indexing or iterating gives one :class:`RegionBoundary` per region, a view
    for callers that want objects; the spatial index reads the arrays.
    """

    region_id: np.ndarray  # StringDType
    name: np.ndarray  # StringDType
    level: np.ndarray  # StringDType
    bbox: np.ndarray  # float64, one row per region
    ring_offsets: np.ndarray  # int64, one more than the regions
    hole: np.ndarray  # bool, one per ring
    vertex_offsets: np.ndarray  # int64, one more than the rings
    vertices: np.ndarray  # float64, one (lon, lat) row per vertex

    @classmethod
    def from_regions(cls, regions: Iterable[RegionBoundary]) -> RegionTable:
        columns = _RegionColumns()
        for r in regions:
            rings = [[x for vertex in ring for x in vertex] for ring in r.rings]
            columns.add(r.region_id, r.name, r.level, r.bbox, rings, [k in r.holes for k in range(len(rings))])
        return columns.table()

    def __len__(self) -> int:
        return len(self.region_id)

    def __getitem__(self, i: int) -> RegionBoundary:
        i = range(len(self))[i]
        first, last = self.ring_offsets[i : i + 2].tolist()
        offsets = self.vertex_offsets[first : last + 1].tolist()
        rings = tuple(tuple(map(tuple, self.vertices[a:b].tolist())) for a, b in zip(offsets, offsets[1:]))
        return RegionBoundary(
            region_id=self.region_id[i], name=self.name[i], level=self.level[i], rings=rings,
            bbox=tuple(self.bbox[i].tolist()), holes=frozenset(np.flatnonzero(self.hole[first:last]).tolist()),
        )


class _RegionColumns:
    """Collects regions one at a time into the columns of a :class:`RegionTable`."""

    def __init__(self) -> None:
        self.region_id: list[str] = []
        self.name: list[str] = []
        self.level: list[str] = []
        self.bbox: list[tuple[float, float, float, float]] = []
        self.rings: list[int] = []  # per region
        self.hole: list[bool] = []  # per ring
        self.vertices: list[int] = []  # per ring
        self.coordinates: list[float] = []  # every vertex's lon and lat, in ring order

    def add(self, region_id: str, name: str, level: str, bbox: tuple[float, float, float, float],
            rings: list[list[float]], hole: list[bool]) -> None:
        """One region: its closed rings as flat lon, lat lists, and whether each is a hole."""
        self.region_id.append(region_id)
        self.name.append(name)
        self.level.append(level)
        self.bbox.append(bbox)
        self.rings.append(len(rings))
        self.hole += hole
        for ring in rings:
            self.vertices.append(len(ring) // 2)
            self.coordinates += ring

    def table(self) -> RegionTable:
        return RegionTable(
            region_id=np.array(self.region_id, dtype=_TEXT), name=np.array(self.name, dtype=_TEXT),
            level=np.array(self.level, dtype=_TEXT), bbox=np.array(self.bbox, dtype=float).reshape(-1, 4),
            ring_offsets=np.cumsum([0] + self.rings, dtype=np.int64), hole=np.array(self.hole, dtype=bool),
            vertex_offsets=np.cumsum([0] + self.vertices, dtype=np.int64),
            vertices=np.array(self.coordinates, dtype=float).reshape(-1, 2),
        )


@dataclass(frozen=True)
class PopulationEntry:
    region_id: str
    population: int


@dataclass(frozen=True)
class DamageRecord:
    """Damage total for one region and source; parser sums duplicates per source."""

    region_id: str
    amount_usd: float
    source: str


@dataclass(frozen=True)
class TrackPoint:
    timestamp: datetime
    lat: float
    lon: float


@dataclass(frozen=True)
class CountyStats:
    """Row of the bundled county table: whole-period counts plus damage totals."""

    county: str
    population: int
    tweets: int
    users: int
    expost_damage_usd: float
    hazus_damage_usd: float


@dataclass
class ParseResult(Generic[T]):
    """Parsed records plus an audit trail.

    ``rows_total`` counts data rows seen (comments/blank lines excluded);
    ``rows_rejected`` counts malformed rows dropped with a diagnostic;
    ``rows_filtered`` counts well-formed rows excluded by a caller-supplied
    filter. Always: ``len(records) + rows_rejected + rows_filtered == rows_total``.
    """

    records: list[T]
    diagnostics: list[str] = field(default_factory=list)
    rows_total: int = 0
    rows_rejected: int = 0
    rows_filtered: int = 0
    document: Any = None  # the decoded input, for a parser that reads a whole document (parse_regions)


class _LineFilter:
    """Line iterator that skips blanks and ``#`` comments between records,
    tracking source line numbers.

    ``records`` sets ``record_end`` to ``lineno`` after each record the CSV
    reader takes. While the two differ, the reader is inside a record whose
    quoted field holds a newline: the next line continues it and is passed
    on as it is, even when blank or ``#``-leading.
    """

    def __init__(self, stream: Iterable[str], lineno: int = 0):
        self.lineno = self.record_end = lineno  # the number of the line before the stream's first
        self._lines = self._filter(stream)

    def __iter__(self) -> Iterator[str]:
        return self._lines

    def records(self) -> Iterator[tuple[list[str], int]]:
        """The CSV records of the lines, each with the number of its last line."""
        for row in csv.reader(self):
            self.record_end = self.lineno
            yield row, self.lineno

    def _filter(self, stream: Iterable[str]) -> Iterator[str]:
        for lineno, line in enumerate(stream, start=self.lineno + 1):
            # a line that starts with a visible character other than '#' is data
            first = line[:1]
            if (first == "#" or first.isspace()) and self.record_end == self.lineno:
                stripped = line.strip()
                if not stripped or stripped[0] == "#":
                    continue
            self.lineno = lineno
            yield line


def _open_text(source: str | Path | TextIO) -> tuple[TextIO, bool]:
    if isinstance(source, (str, Path)):
        try:
            return open(source, "r", encoding="utf-8", newline=""), True
        except OSError as exc:
            raise IngestError(f"cannot read {source}: {exc}") from exc
    return source, False


def _header_index(header: Sequence[str], required: Sequence[str], what: str) -> dict[str, int]:
    index = {name.strip().lower(): i for i, name in enumerate(header)}
    missing = [c for c in required if c not in index]
    if missing:
        raise IngestError(f"{what}: header missing column(s) {', '.join(missing)}")
    return index


def _read_blocks(
    source: str | Path | TextIO, what: str, required: Sequence[str], result: ParseResult
) -> Iterator[tuple[dict[str, int], list[Sequence[str]], dict[int, list[str]], Sequence[int]]]:
    """Yield the data rows of a CSV input as columns, in blocks of up to ``_BLOCK_ROWS``.

    Each block comes as ``(col, columns, ragged, line numbers)``: ``col`` maps
    lowercased header names to column positions and ``columns`` holds the
    cells of each header column. ``ragged`` maps the block position of each
    row of another width to the row; its cells in ``columns`` are cut or
    padded with "". Every data row is counted in ``result.rows_total``.

    Blocks are split on ',' while they are plain (``_plain_columns``). From
    the first other block on, which starts between records, ``csv.reader``
    reads the rest. Text it cannot split, such as a cell over its field size
    limit, is fatal: an :class:`IngestError` names the line.
    """
    stream, owned = _open_text(source)
    try:
        lines = _LineFilter(stream)
        try:
            header, lineno = next(lines.records(), (None, 0))
            if header is None:
                raise IngestError(f"{what}: empty input")
            col, width = _header_index(header, required, what), len(header)
            while block := list(itertools.islice(stream, _BLOCK_ROWS)):
                columns = _plain_columns(block, width)
                if columns is None:
                    break
                result.rows_total += len(block)
                yield col, columns, {}, range(lineno + 1, lineno + len(block) + 1)
                lineno += len(block)
            else:
                return
            lines = _LineFilter(itertools.chain(block, stream), lineno)
            records = lines.records()
            while chunk := list(itertools.islice(records, _BLOCK_ROWS)):
                rows, linenos = zip(*chunk)
                ragged = {i: row for i, row in enumerate(rows) if len(row) != width}
                if ragged:
                    rows = [(row + [""] * width)[:width] for row in rows]
                result.rows_total += len(rows)
                yield col, list(zip(*rows)), ragged, linenos
        except csv.Error as exc:
            raise IngestError(f"{what} line {lines.lineno}: {exc}") from None
    finally:
        if owned:
            stream.close()


def _plain_columns(block: list[str], width: int) -> list[list[str]] | None:
    """The cells of each of ``width`` columns of a block of lines, or None when the block is not plain.

    A plain block holds no '"' or '\\r', and each line has ``width`` cells, fits
    the field size limit and starts with neither '#' nor whitespace; ``csv.reader``
    would split it on ',' alike. The block's text and flat cell list die here,
    before the caller converts the columns, so their memory serves the next block.
    """
    body = "".join(block).removesuffix("\n")
    firsts = "".join(map(itemgetter(0), block))  # ' ' is the one printable whitespace
    if ('"' in body or "\r" in body or "#" in firsts or " " in firsts or not firsts.isprintable()
            or max(map(len, block)) > csv.field_size_limit()
            or set(map(str.count, block, itertools.repeat(","))) != {width - 1}):
        return None
    cells = body.replace("\n", ",").split(",")
    return [cells[j::width] for j in range(width)]


def _reject(result: ParseResult, what: str, lineno: int, exc: Exception) -> None:
    result.rows_rejected += 1
    result.diagnostics.append(f"{what} line {lineno}: {exc}")


def _read_table(
    source: str | Path | TextIO,
    what: str,
    required: Sequence[str],
    convert: Callable[[list[str], dict[str, int]], T],
    result: ParseResult,
) -> Iterator[T]:
    """Yield ``convert(row, col)`` for each well-formed data row of a CSV input.

    A row whose conversion raises ValueError or IndexError is counted in
    ``result`` as rejected, with a ``"<what> line N: <reason>"`` diagnostic.
    The caller applies its own rule to the yielded records and appends the
    ones it keeps.
    """
    for col, columns, ragged, linenos in _read_blocks(source, what, required, result):
        for i, (row, lineno) in enumerate(zip(zip(*columns), linenos)):
            try:
                record = convert(ragged.get(i, row), col)
            except (ValueError, IndexError) as exc:
                _reject(result, what, lineno, exc)
                continue
            yield record


def parse_timestamp(text: str) -> datetime:
    """ISO-8601 instant with an explicit offset, normalized to UTC."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    try:
        stamp = datetime.fromisoformat(raw)
    except ValueError:
        raise ValueError(f"unparseable timestamp {text!r}")
    if stamp.tzinfo is None:
        raise ValueError(f"timestamp {text!r} lacks a UTC offset")
    return stamp.astimezone(timezone.utc)


def _parse_tags(text: str) -> frozenset[str]:
    return frozenset(t.strip().lower() for t in text.split(";") if t.strip())


def parse_messages(
    source: str | Path | TextIO,
    keyword_filter: Iterable[str] | None = None,
) -> ParseResult[MessageRecord]:
    """Read ``messages.csv`` into a :class:`MessageTable` (``result.records``);
    keep the rows whose tags intersect ``keyword_filter``.

    An empty/None filter keeps everything. Rows with malformed mandatory
    fields (and rows reusing an already-seen message_id) are rejected with a
    line-numbered diagnostic; missing optional fields (location, sentiment)
    are fine. Location is all-or-nothing: one coordinate without the other is
    malformed.
    """
    wanted = frozenset(t.strip().lower() for t in keyword_filter or () if t.strip())
    result: ParseResult[MessageRecord] = ParseResult(records=[])
    columns = _MessageColumns()
    for col, cells, ragged, linenos in _read_blocks(source, "messages", MESSAGE_COLUMNS, result):
        columns.add(cells, col, ragged, linenos, result)
    table = columns.table(wanted, result)
    result.rows_filtered = result.rows_total - result.rows_rejected - len(table)
    result.records = table
    return result


class _MessageColumns:
    """Converts ``messages.csv`` blocks of columns into table columns and assembles the table.

    A row is taken in bulk when every cell is canonical: exactly the header's
    width; a non-empty id; a non-empty user; a ``YYYY-MM-DDTHH:MM:SSZ``
    timestamp; both or neither coordinate, as plain decimals in range; at
    least one tag; ``0``/``1`` for is_retweet; at most 18 ASCII digits for
    retweeted_count; and an empty or plain-decimal sentiment in range. Every
    other row goes to ``_message_fields`` one at a time, in file order.

    Neither path looks at other rows' ids. Each accepted row keeps its line
    and its id's ``hash()``, each rejected row its line and, when it has an
    id and a user, its id; ``_repeats`` applies the duplicate rule to them
    once the whole input is read.
    """

    def __init__(self) -> None:
        self.sets: dict[frozenset[str], int] = {}  # keyword set -> code
        self.keyword_cells: dict[str, int] = {}  # raw cell -> set code, -1 when no tag
        self.chunks: list[list[np.ndarray]] = []  # per column: the joined segments, then the blocks since
        self.segments = 0
        self.nul_users = False  # whether a user id holds a NUL
        self.rejected: list[tuple[int, str]] = []  # per diagnostic: its line, and its row's id ("" without a user)

    def add(self, columns: list[Sequence[str]], col: dict[str, int], ragged: dict[int, list[str]],
            linenos: Sequence[int], result: ParseResult) -> None:
        n = len(linenos)
        cell = {name: columns[col[name]] for name in MESSAGE_COLUMNS}
        ids, users = (list(map(str.strip, cell[name])) for name in ("message_id", "user_id"))
        user = np.array(users, dtype=_TEXT)
        self.nul_users = self.nul_users or "\0" in "".join(users)

        stamp, ok = _timestamps_us(cell["timestamp"])
        lat, lat_present, lat_ok = _decimals(cell["lat"])
        lon, lon_present, lon_ok = _decimals(cell["lon"])
        in_range = (np.abs(lat) <= 90.0) & (np.abs(lon) <= 180.0)
        ok &= (lat_present == lon_present) & (~lat_present | (lat_ok & lon_ok & in_range))
        sentiment, _, sentiment_ok = _decimals(cell["sentiment"])
        ok &= sentiment_ok & ~(np.abs(sentiment) > 1.0)
        if {"0", "1"}.issuperset(cell["is_retweet"]):
            retweet = np.frombuffer("".join(cell["is_retweet"]).encode(), np.uint8) == ord("1")
        else:
            retweet = np.fromiter(map("1".__eq__, cell["is_retweet"]), bool, n)
            ok &= retweet | np.fromiter(map("0".__eq__, cell["is_retweet"]), bool, n)
        count, count_ok = _counts(cell["retweeted_count"])
        tags = self._set_codes(cell["keywords"])
        bulk = ok & count_ok & (tags >= 0) & np.fromiter(map(bool, ids), bool, n) & (user != "")
        bulk[list(ragged)] = False

        accepted = bulk.copy()
        for i in np.flatnonzero(~bulk).tolist():
            try:
                # the converter reads header columns only, a missing cell as "": a cut or padded row converts the same
                fields = _message_fields([column[i] for column in columns], col)
            except (ValueError, IndexError) as exc:
                self.rejected.append((linenos[i], ids[i] if users[i] else ""))
                _reject(result, "messages", linenos[i], exc)
                continue
            accepted[i] = True
            stamp[i], lat[i], lon[i] = fields[2:5]
            tags[i] = self._set_code(fields[5])
            retweet[i], count[i], sentiment[i] = fields[6:]
        self.chunks.append([
            column[accepted] for column in (
                np.array(ids, dtype=_TEXT), user, stamp, lat, lon, tags, retweet, count, sentiment,
                np.fromiter(map(hash, ids), np.int64, n), np.asarray(linenos, dtype=np.int64),
            )
        ])
        # the small arrays of the joined blocks die now and their memory serves the next blocks, where
        # holding every block's arrays until the table is built would leave them all allocated beside it
        if len(self.chunks) - self.segments == _SEGMENT_BLOCKS:
            blocks = self.chunks[self.segments:]
            self.chunks[self.segments:] = [[np.concatenate(column) for column in zip(*blocks)]]
            self.segments += 1

    def _set_code(self, tags: frozenset[str]) -> int:
        return self.sets.setdefault(tags, len(self.sets))

    def _set_codes(self, cells: list[str]) -> np.ndarray:
        """Code of each keywords cell's tag set, -1 for a cell without a tag."""
        for cell in [cell for cell in dict.fromkeys(cells) if cell not in self.keyword_cells]:
            tags = _parse_tags(cell)
            self.keyword_cells[cell] = self._set_code(tags) if tags else -1
        return np.fromiter(map(self.keyword_cells.__getitem__, cells), np.int64, len(cells))

    def table(self, wanted: frozenset[str], result: ParseResult) -> MessageTable:
        """Concatenate the blocks, reject the rows that repeat an accepted id, keep the rows
        whose tags meet ``wanted`` (all when empty) and renumber the keyword sets to those
        the kept rows use."""
        columns = []
        dtypes = (_TEXT, _TEXT, np.int64, float, float, np.int64, bool, np.int64, float, np.int64, np.int64)
        for j, dtype in enumerate(dtypes):
            # one column at a time, dropping its blocks as it goes, so they are not all held twice
            columns.append(np.concatenate([np.empty(0, dtype=dtype), *(chunk[j] for chunk in self.chunks)]))
            for chunk in self.chunks:
                chunk[j] = None
        *columns, hashes, lines = columns
        keep = self._repeats(columns[0], hashes, lines, result)
        del hashes, lines
        sets = list(self.sets)
        if wanted:
            meets = np.array([bool(tags & wanted) for tags in sets], dtype=bool)
            keep &= meets[columns[5]]
        if not keep.all():
            columns = [column[keep] for column in columns]
        message_id, user_id, stamp, lat, lon, keyword_set, retweet, count, sentiment = columns
        return MessageTable.from_columns(
            message_id=message_id, user_id=user_id, time_us=stamp, lat=lat, lon=lon, keyword_set=keyword_set,
            keyword_sets=sets, is_retweet=retweet, retweeted_count=count, sentiment=sentiment,
            nul_users=self.nul_users,
        )

    def _repeats(self, message_id: np.ndarray, hashes: np.ndarray, lines: np.ndarray,
                 result: ParseResult) -> np.ndarray:
        """Per accepted row, whether it keeps its place; the rows that repeat an id are rejected.

        The rule is the per-row one: the first valid row of an id is accepted, and every
        later row of that id that has a user, valid or not, is rejected at its own line as
        a duplicate, in place of any other reason. Equal hashes only pick the rows to
        compare; the ids decide, as Python strings, which a NUL does not cut short.
        """
        n = len(hashes)
        keep = np.ones(n, dtype=bool)
        named = [(k, line, message) for k, (line, message) in enumerate(self.rejected) if message]
        every = np.concatenate([hashes, np.fromiter((hash(message) for *_, message in named), np.int64, len(named))])
        ordered = np.sort(every)
        repeated = np.unique(ordered[1:][ordered[1:] == ordered[:-1]])
        if not len(repeated):
            return keep
        uses: dict[str, list[tuple[int, int]]] = {}  # id -> (line, row) of each row with its hash
        at = np.searchsorted(repeated, every).clip(max=len(repeated) - 1)
        for row in np.flatnonzero(repeated[at] == every).tolist():
            if row < n:
                uses.setdefault(message_id[row], []).append((int(lines[row]), row))
            else:
                _, line, message = named[row - n]
                uses.setdefault(message, []).append((line, row))
        repeats: dict[int, str] = {}  # line -> diagnostic
        for message, rows in uses.items():
            rows.sort()
            first = next((line for line, row in rows if row < n), math.inf)
            for line, row in rows:
                if line > first:
                    repeats[line] = f"messages line {line}: duplicate message_id {message!r}"
                    if row < n:
                        keep[row] = False
        for k, line, _ in named:
            if line in repeats:
                result.diagnostics[k] = repeats.pop(line)
        # the rest were accepted rows: their diagnostics join the others in line order
        result.rows_rejected += len(repeats)
        diagnostics = [(line, text) for (line, _), text in zip(self.rejected, result.diagnostics)]
        result.diagnostics = [text for _, text in sorted(diagnostics + list(repeats.items()), key=itemgetter(0))]
        return keep


_DECIMAL_CHARS = b"0123456789.+-eE"
_STAMP_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_STAMP_MARKS = {4: "-", 7: "-", 10: "T", 13: ":", 16: ":", 19: "Z"}
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _timestamps_us(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``YYYY-MM-DDTHH:MM:SSZ`` cells as microseconds since the Unix epoch.

    Returns ``(value, ok)``; ``ok`` is False, and the value 0, for every cell
    in another form or naming no valid instant.
    """
    n = len(cells)
    ok = np.fromiter(map(len, cells), np.intp, n) == 20
    cells = cells if ok.all() else [cell if good else "?" * 20 for cell, good in zip(cells, ok.tolist())]
    # one byte per character: a character outside ASCII becomes '?', which no cell in the form holds
    chars = np.frombuffer("".join(cells).encode("ascii", "replace"), np.uint8).reshape(n, 20)
    digits = chars[:, _STAMP_DIGITS] - ord("0")  # unsigned: anything below '0' wraps high
    ok &= (digits <= 9).all(axis=1)
    for i, mark in _STAMP_MARKS.items():
        ok &= chars[:, i] == ord(mark)
    d = digits.astype(np.int64)
    year = d[:, 0] * 1000 + d[:, 1] * 100 + d[:, 2] * 10 + d[:, 3]
    month, day = d[:, 4] * 10 + d[:, 5], d[:, 6] * 10 + d[:, 7]
    hour, minute, second = d[:, 8] * 10 + d[:, 9], d[:, 10] * 10 + d[:, 11], d[:, 12] * 10 + d[:, 13]
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    days_in_month = _MONTH_DAYS[np.clip(month - 1, 0, 11)] + (leap & (month == 2))
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= days_in_month)
    ok &= (hour < 24) & (minute < 60) & (second < 60)
    # days since 1970-01-01 of a proleptic Gregorian date, years counted from March
    y = year - (month <= 2)
    era = y // 400
    year_of_era = y - era * 400
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    day_of_era = year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    days = era * 146097 + day_of_era - 719468
    seconds = days * 86400 + hour * 3600 + minute * 60 + second
    return np.where(ok, seconds * 1_000_000, 0), ok


def _decimals(cells: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cells of digits, sign, point and exponent as float64.

    Returns ``(value, present, ok)``: an empty cell is NaN, not present and
    ok; a cell with any other character, or that ``float`` refuses, is NaN
    and not ok.
    """
    n = len(cells)
    texts = list(filter(None, cells))
    present = np.ones(n, dtype=bool) if len(texts) == n else np.fromiter(map(bool, cells), bool, n)
    value = np.full(n, np.nan)
    ok = np.ones(n, dtype=bool)
    if not "".join(texts).encode("utf-8", "replace").translate(None, _DECIMAL_CHARS):
        try:
            value[present] = np.array(texts, dtype=np.float64)
            return value, present, ok
        except ValueError:
            pass
    for i, cell in zip(np.flatnonzero(present).tolist(), texts):
        try:
            if cell.encode("utf-8", "replace").translate(None, _DECIMAL_CHARS):
                raise ValueError(cell)
            value[i] = float(cell)
        except ValueError:
            ok[i] = False
    return value, present, ok


def _counts(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Cells of 1 to 18 ASCII digits as int64; ``ok`` is False (value 0) elsewhere."""
    text = "".join(cells)
    if text.isascii() and text.isdigit() and all(cells) and max(map(len, cells)) <= 18:
        return np.array(cells, dtype=np.int64), np.ones(len(cells), dtype=bool)
    ok = [cell.isascii() and cell.isdigit() and len(cell) <= 18 for cell in cells]
    value = np.zeros(len(cells), dtype=np.int64)
    value[ok] = [int(cell) for cell, good in zip(cells, ok) if good]
    return value, np.array(ok, dtype=bool)


def _message_fields(row: list[str], col: dict[str, int]) -> tuple:
    """One row's column values, or ValueError naming the first malformed field.

    The values are, in order: message_id, user_id, timestamp as µs since the
    Unix epoch, lat, lon (NaN when unlocated), the tag set, is_retweet,
    retweeted_count and sentiment (NaN when absent). Whether another row
    already took the id is not checked here (``_MessageColumns._repeats``).
    """
    def cell(name: str) -> str:
        i = col[name]
        return row[i].strip() if i < len(row) else ""

    message_id = cell("message_id")
    user_id = cell("user_id")
    if not message_id or not user_id:
        raise ValueError("missing message_id or user_id")

    stamp = parse_timestamp(cell("timestamp"))

    lat_text, lon_text = cell("lat"), cell("lon")
    if bool(lat_text) != bool(lon_text):
        raise ValueError("location requires both lat and lon")
    lat = lon = math.nan
    if lat_text:
        lat, lon = float(lat_text), float(lon_text)
        if not -90.0 <= lat <= 90.0:
            raise ValueError("latitude out of range")
        if not -180.0 <= lon <= 180.0:
            raise ValueError("longitude out of range")

    keywords = _parse_tags(cell("keywords"))
    if not keywords:
        raise ValueError("no keywords after tag filtering")

    retweet_text = cell("is_retweet")
    if retweet_text not in ("0", "1"):
        raise ValueError(f"is_retweet must be 0 or 1, got {retweet_text!r}")
    retweeted_count = int(cell("retweeted_count"))
    if retweeted_count < 0:
        raise ValueError("retweeted_count negative")
    if retweeted_count > _MAX_COUNT:
        raise ValueError("retweeted_count out of range")

    sentiment_text = cell("sentiment")
    sentiment = math.nan
    if sentiment_text:
        sentiment = float(sentiment_text)
        if not -1.0 <= sentiment <= 1.0:
            raise ValueError("sentiment out of range")

    return (message_id, user_id, (stamp - UNIX_EPOCH) // MICROSECOND, lat, lon, keywords,
            retweet_text == "1", retweeted_count, sentiment)


def format_timestamp(stamp: datetime) -> str:
    """Canonical ISO-8601 UTC form with a ``Z`` suffix and a four-digit year."""
    utc = stamp.astimezone(timezone.utc)
    text = utc.replace(tzinfo=None).isoformat()
    return (text.rstrip("0") if utc.microsecond else text) + "Z"


def write_messages_csv(table: MessageTable, sink: str | Path | TextIO) -> None:
    """Write a table in the canonical ``messages.csv`` schema (round-trips
    exactly), from its columns, ``_BLOCK_ROWS`` rows at a time."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8", newline="") as handle:
            write_messages_csv(table, handle)
        return
    keyword_cells = [";".join(sorted(tags)) for tags in table.keyword_sets]
    writer = csv.writer(sink, lineterminator="\n")
    quoted = csv.writer(sink, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(MESSAGE_COLUMNS)
    for start in range(0, len(table), _BLOCK_ROWS):
        _write_block(writer, quoted, table, keyword_cells, slice(start, start + _BLOCK_ROWS))


def _write_block(writer, quoted, table: MessageTable, keyword_cells: list[str], rows: slice) -> None:
    """Write the table's ``rows`` with ``writer``, and through ``quoted`` a row
    whose line would start with '#', which reads back as a comment."""
    ids = table.message_id[rows].tolist()
    cells = zip(
        ids,
        table.user_ids[table.user[rows]].tolist(),
        _timestamp_texts(table.time_us[rows]),
        _float_texts(table.lat[rows]),
        _float_texts(table.lon[rows]),
        list(map(keyword_cells.__getitem__, table.keyword_set[rows].tolist())),
        np.where(table.is_retweet[rows], "1", "0").tolist(),
        list(map(str, table.retweeted_count[rows].tolist())),
        _float_texts(table.sentiment[rows]),
    )
    if "#" in "".join(ids):
        for row in cells:
            (quoted if row[0].lstrip()[:1] == "#" else writer).writerow(row)
    else:
        writer.writerows(cells)


def _timestamp_texts(time_us: np.ndarray) -> list[str]:
    """``format_timestamp`` of each instant, given as µs since the Unix epoch."""
    texts = np.datetime_as_string(time_us.astype("datetime64[us]"), unit="us")
    # drop trailing zeros of the fraction, then the point of a whole second
    return np.strings.add(np.strings.rstrip(np.strings.rstrip(texts, "0"), "."), "Z").tolist()


def _float_texts(values: np.ndarray) -> list[str]:
    """Python's repr of each value, and an empty cell for NaN."""
    out = list(map(repr, values.tolist()))
    for i in np.flatnonzero(np.isnan(values)).tolist():
        out[i] = ""
    return out


def _close_ring(coords: Sequence[Sequence[float]], region_id: str, diagnostics: list[str]) -> list[float]:
    """A ring's vertices, closed, as one flat list: lon, lat, lon, lat, ..."""
    # positions may carry an altitude third element; only lon/lat are kept
    try:
        ring = [float(v[k]) for v in coords for k in (0, 1)]
    except (TypeError, IndexError, KeyError):
        # a null, a bare number or a short position where [lon, lat] belongs
        raise ValueError("malformed ring coordinates") from None
    # NaN fails every comparison, so this also rejects non-finite vertices
    if not (all(-180.0 <= lon <= 180.0 for lon in ring[0::2]) and all(-90.0 <= lat <= 90.0 for lat in ring[1::2])):
        raise ValueError("vertex coordinates non-finite or out of range")
    if len(ring) < 6:
        raise ValueError(f"ring with {len(ring) // 2} vertices")
    if ring[:2] != ring[-2:]:
        diagnostics.append(f"regions: auto-closed open ring in {region_id!r}")
        ring += ring[:2]
    if len(ring) < 8:
        raise ValueError("degenerate ring")
    return ring


def parse_regions(source: str | Path | TextIO) -> ParseResult[RegionBoundary]:
    """Read a GeoJSON FeatureCollection of Polygon/MultiPolygon regions into a
    :class:`RegionTable` (``result.records``).

    Open rings are auto-closed with a diagnostic; a feature without a usable
    region_id/name/level or geometry is dropped with a diagnostic. Two
    features sharing a region_id at the same level raise :class:`IngestError`.
    The decoded document is ``result.document``.
    """
    stream, owned = _open_text(source)
    try:
        try:
            doc = json.load(stream)
        except json.JSONDecodeError as exc:
            raise IngestError(f"regions: invalid JSON ({exc})") from exc
    finally:
        if owned:
            stream.close()

    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise IngestError("regions: expected a GeoJSON FeatureCollection")

    result: ParseResult[RegionBoundary] = ParseResult(records=[], document=doc)
    seen: set[tuple[str, str]] = set()
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise IngestError("regions: features is not a list")
    columns = _RegionColumns()
    for i, feature in enumerate(features):
        result.rows_total += 1
        try:
            region = _region_from_feature(feature, result.diagnostics)
        except ValueError as exc:
            result.rows_rejected += 1
            result.diagnostics.append(f"regions feature {i}: {exc}")
            continue
        region_id, _, level, *_ = region
        if (level, region_id) in seen:
            raise IngestError(f"regions: duplicate region_id {region_id!r} at level {level!r}")
        seen.add((level, region_id))
        columns.add(*region)
    result.records = columns.table()
    return result


def _region_from_feature(feature: dict, diagnostics: list[str]) -> tuple:
    """A feature's region_id, name, level, bbox, closed rings (flat lon, lat lists)
    and, per ring, whether it is a hole (a ring after its polygon's first): the
    arguments of ``_RegionColumns.add``."""
    if not isinstance(feature, dict):
        raise ValueError("feature is not an object")
    props = feature.get("properties") or {}
    if not isinstance(props, dict):
        raise ValueError("properties is not an object")
    region_id = props.get("region_id")
    if not region_id:
        raise ValueError("missing region_id")
    region_id = str(region_id)
    name = str(props.get("name", region_id))
    level = str(props.get("level", "")).lower()
    if level not in REGION_LEVELS:
        raise ValueError(f"level must be one of {sorted(REGION_LEVELS)}, got {level!r}")

    geometry = feature.get("geometry") or {}
    if not isinstance(geometry, dict):
        raise ValueError("geometry is not an object")
    gtype = geometry.get("type")
    coords = geometry.get("coordinates")
    if gtype == "Polygon":
        polygons = [coords]
    elif gtype == "MultiPolygon":
        polygons = coords
    else:
        raise ValueError(f"unsupported geometry type {gtype!r}")
    if not polygons:
        raise ValueError("empty geometry")
    if not isinstance(polygons, list) or not all(isinstance(polygon, list) for polygon in polygons):
        raise ValueError("malformed polygon coordinates")

    rings = [_close_ring(ring, region_id, diagnostics) for polygon in polygons for ring in polygon]
    xs = [x for ring in rings for x in ring[0::2]]
    ys = [y for ring in rings for y in ring[1::2]]
    bbox = (min(xs), min(ys), max(xs), max(ys))
    return region_id, name, level, bbox, rings, [k > 0 for polygon in polygons for k in range(len(polygon))]


def parse_track(source: str | Path | TextIO) -> ParseResult[TrackPoint]:
    """Read ``track.csv`` (timestamp,lat,lon); timestamps must strictly increase."""
    result: ParseResult[TrackPoint] = ParseResult(records=[])
    result.records.extend(_read_table(source, "track", ("timestamp", "lat", "lon"), _track_row, result))
    for prev, cur in zip(result.records, result.records[1:]):
        if cur.timestamp <= prev.timestamp:
            raise IngestError("track: timestamps must strictly increase")
    return result


def _track_row(row: list[str], col: dict[str, int]) -> TrackPoint:
    stamp = parse_timestamp(row[col["timestamp"]])
    lat = float(row[col["lat"]])
    lon = float(row[col["lon"]])
    if not -90.0 <= lat <= 90.0 or not -180.0 <= lon <= 180.0:
        raise ValueError("coordinates out of range")
    return TrackPoint(timestamp=stamp, lat=lat, lon=lon)


def parse_keyed_table(
    source: str | Path | TextIO, kind: str
) -> ParseResult[PopulationEntry] | ParseResult[DamageRecord]:
    """Read ``population.csv`` or ``damage.csv`` depending on ``kind``.

    Duplicate region_id in a population table is fatal; duplicate
    (region_id, source) damage rows are summed. A damage row is rejected
    when adding it overflows its (region_id, source) total or, for an
    ex-post source, its region's total over the ex-post sources.
    """
    if kind == "population":
        return _parse_population(source)
    if kind == "damage":
        return _parse_damage(source)
    raise ValueError(f"kind must be 'population' or 'damage', got {kind!r}")


def _parse_population(source: str | Path | TextIO) -> ParseResult[PopulationEntry]:
    result: ParseResult[PopulationEntry] = ParseResult(records=[])
    seen: set[str] = set()
    for entry in _read_table(source, "population", ("region_id", "population"), _population_row, result):
        if entry.region_id in seen:
            raise IngestError(f"population: duplicate region_id {entry.region_id!r}")
        seen.add(entry.region_id)
        result.records.append(entry)
    return result


def _population_row(row: list[str], col: dict[str, int]) -> PopulationEntry:
    region_id = row[col["region_id"]].strip()
    population = int(row[col["population"]])
    if not region_id:
        raise ValueError("missing region_id")
    if population <= 0:
        raise ValueError("population must be positive")
    return PopulationEntry(region_id=region_id, population=population)


def _parse_damage(source: str | Path | TextIO) -> ParseResult[DamageRecord]:
    result: ParseResult[DamageRecord] = ParseResult(records=[])
    totals: dict[tuple[str, str], float] = {}  # insertion order is first-seen order

    def add(row: list[str], col: dict[str, int]) -> None:
        entry = _damage_row(row, col)
        key = (entry.region_id, entry.source)
        total = totals.get(key, 0.0) + entry.amount_usd
        if total == math.inf:
            raise ValueError(f"amount_usd overflows the {entry.source} total of {entry.region_id!r}")
        if entry.source != MODELED_SOURCE:
            others = DAMAGE_SOURCES - {MODELED_SOURCE, entry.source}
            if total + sum(totals.get((entry.region_id, s), 0.0) for s in sorted(others)) == math.inf:
                raise ValueError(f"amount_usd overflows the ex-post total of {entry.region_id!r}")
        totals[key] = total

    for _ in _read_table(source, "damage", ("region_id", "amount_usd", "source"), add, result):
        pass
    result.records = [
        DamageRecord(region_id=rid, amount_usd=amount, source=src) for (rid, src), amount in totals.items()
    ]
    return result


def _damage_row(row: list[str], col: dict[str, int]) -> DamageRecord:
    region_id = row[col["region_id"]].strip()
    amount = float(row[col["amount_usd"]])
    damage_source = row[col["source"]].strip().lower()
    if not region_id:
        raise ValueError("missing region_id")
    if not 0 <= amount < math.inf:
        raise ValueError("amount_usd must be finite and non-negative")
    if damage_source not in DAMAGE_SOURCES:
        raise ValueError(f"source must be one of {sorted(DAMAGE_SOURCES)}")
    return DamageRecord(region_id=region_id, amount_usd=amount, source=damage_source)


_COUNTY_COLUMNS = ("county", "population", "tweets", "users", "expost_damage_musd", "hazus_damage_musd")


def parse_county_table(source: str | Path | TextIO) -> ParseResult[CountyStats]:
    """Read a county statistics table (the shipped ``fixtures/sandy_counties.csv`` schema)."""
    result: ParseResult[CountyStats] = ParseResult(records=[])
    seen: set[str] = set()
    for stats in _read_table(source, "county table", _COUNTY_COLUMNS, _county_row, result):
        if stats.county in seen:
            raise IngestError(f"county table: duplicate county {stats.county!r}")
        seen.add(stats.county)
        result.records.append(stats)
    return result


def _county_row(row: list[str], col: dict[str, int]) -> CountyStats:
    county = row[col["county"]].strip()
    if not county:
        raise ValueError("missing county")
    stats = CountyStats(
        county=county,
        population=int(row[col["population"]]),
        tweets=int(row[col["tweets"]]),
        users=int(row[col["users"]]),
        expost_damage_usd=float(row[col["expost_damage_musd"]]) * 1e6,
        hazus_damage_usd=float(row[col["hazus_damage_musd"]]) * 1e6,
    )
    if stats.population <= 0 or stats.tweets < 0 or stats.users < 0:
        raise ValueError("counts out of range")
    if not (0 <= stats.expost_damage_usd < math.inf and 0 <= stats.hazus_damage_usd < math.inf):
        raise ValueError("damage must be finite and non-negative")
    return stats
