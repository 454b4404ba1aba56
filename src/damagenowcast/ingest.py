"""Parsers for the external data files: messages, region boundaries, population,
damage, storm track, and the bundled county statistics table.

Every CSV parser reads through one shared single-pass reader, so all of them
drop malformed rows with the same line-numbered diagnostic; structural
problems (unreadable or empty input, a missing column, duplicate keys where
duplicates are banned, non-monotone track times) raise :class:`IngestError`.
Files are UTF-8; timestamps must be ISO-8601 with an explicit UTC offset.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Generic, Iterable, Iterator, Sequence, TextIO, TypeVar

__all__ = [
    "IngestError",
    "MessageRecord",
    "RegionBoundary",
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

    @property
    def lat(self) -> float:
        """Latitude of a located message."""
        return self.location[0]

    @property
    def lon(self) -> float:
        """Longitude of a located message."""
        return self.location[1]


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


class _LineFilter:
    """Line iterator that skips blanks and ``#`` comments, tracking source line numbers."""

    def __init__(self, stream: Iterable[str]):
        self._it = enumerate(stream, start=1)
        self.lineno = 0

    def __iter__(self) -> "_LineFilter":
        return self

    def __next__(self) -> str:
        for lineno, line in self._it:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            self.lineno = lineno
            return line
        raise StopIteration


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


def _read_table(
    source: str | Path | TextIO,
    what: str,
    required: Sequence[str],
    convert: Callable[[list[str], dict[str, int]], T],
    result: ParseResult,
) -> Iterator[T]:
    """Yield ``convert(row, col)`` for each well-formed data row of a CSV input.

    ``col`` maps lowercased header names to column positions. A row whose
    conversion raises ValueError or IndexError is counted in ``result`` as
    rejected, with a ``"<what> line N: <reason>"`` diagnostic; every data row
    is counted in ``result.rows_total``. The caller applies its own rule to
    the yielded records and appends the ones it keeps.
    """
    stream, owned = _open_text(source)
    try:
        lines = _LineFilter(stream)
        rows = csv.reader(lines)
        header = next(rows, None)
        if header is None:
            raise IngestError(f"{what}: empty input")
        col = _header_index(header, required, what)
        for row in rows:
            result.rows_total += 1
            try:
                record = convert(row, col)
            except (ValueError, IndexError) as exc:
                result.rows_rejected += 1
                result.diagnostics.append(f"{what} line {lines.lineno}: {exc}")
                continue
            yield record
    finally:
        if owned:
            stream.close()


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
    """Read ``messages.csv``; keep records whose tags intersect ``keyword_filter``.

    An empty/None filter keeps everything. Rows with malformed mandatory
    fields (and rows reusing an already-seen message_id) are rejected with a
    line-numbered diagnostic; missing optional fields (location, sentiment)
    are fine. Location is all-or-nothing: one coordinate without the other is
    malformed.
    """
    wanted = frozenset(t.strip().lower() for t in keyword_filter or () if t.strip())
    result: ParseResult[MessageRecord] = ParseResult(records=[])
    seen_ids: set[str] = set()

    def convert(row: list[str], col: dict[str, int]) -> MessageRecord:
        return _message_from_row(row, col, seen_ids)

    for record in _read_table(source, "messages", MESSAGE_COLUMNS, convert, result):
        seen_ids.add(record.message_id)
        if wanted and not (record.keywords & wanted):
            result.rows_filtered += 1
            continue
        result.records.append(record)
    return result


def _message_from_row(row: list[str], col: dict[str, int], seen_ids: set[str]) -> MessageRecord:
    def cell(name: str) -> str:
        i = col[name]
        return row[i].strip() if i < len(row) else ""

    message_id = cell("message_id")
    user_id = cell("user_id")
    if not message_id or not user_id:
        raise ValueError("missing message_id or user_id")
    if message_id in seen_ids:
        raise ValueError(f"duplicate message_id {message_id!r}")

    stamp = parse_timestamp(cell("timestamp"))

    lat_text, lon_text = cell("lat"), cell("lon")
    if bool(lat_text) != bool(lon_text):
        raise ValueError("location requires both lat and lon")
    location: tuple[float, float] | None = None
    if lat_text:
        lat, lon = float(lat_text), float(lon_text)
        if not -90.0 <= lat <= 90.0:
            raise ValueError("latitude out of range")
        if not -180.0 <= lon <= 180.0:
            raise ValueError("longitude out of range")
        location = (lat, lon)

    keywords = _parse_tags(cell("keywords"))
    if not keywords:
        raise ValueError("no keywords after tag filtering")

    retweet_text = cell("is_retweet")
    if retweet_text not in ("0", "1"):
        raise ValueError(f"is_retweet must be 0 or 1, got {retweet_text!r}")
    retweeted_count = int(cell("retweeted_count"))
    if retweeted_count < 0:
        raise ValueError("retweeted_count negative")

    sentiment_text = cell("sentiment")
    sentiment: float | None = None
    if sentiment_text:
        sentiment = float(sentiment_text)
        if not -1.0 <= sentiment <= 1.0:
            raise ValueError("sentiment out of range")

    return MessageRecord(
        message_id=message_id,
        user_id=user_id,
        timestamp=stamp,
        location=location,
        keywords=keywords,
        is_retweet=retweet_text == "1",
        retweeted_count=retweeted_count,
        sentiment=sentiment,
    )


def format_timestamp(stamp: datetime) -> str:
    """Canonical ISO-8601 UTC form with a ``Z`` suffix."""
    utc = stamp.astimezone(timezone.utc)
    if utc.microsecond:
        text = utc.strftime("%Y-%m-%dT%H:%M:%S.%f").rstrip("0")
        return text + "Z"
    return utc.strftime("%Y-%m-%dT%H:%M:%SZ")


def write_messages_csv(records: Iterable[MessageRecord], sink: str | Path | TextIO) -> None:
    """Write records in the canonical ``messages.csv`` schema (round-trips exactly)."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8", newline="") as handle:
            write_messages_csv(records, handle)
        return
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(MESSAGE_COLUMNS)
    for r in records:
        lat = repr(r.location[0]) if r.location else ""
        lon = repr(r.location[1]) if r.location else ""
        writer.writerow(
            [
                r.message_id,
                r.user_id,
                format_timestamp(r.timestamp),
                lat,
                lon,
                ";".join(sorted(r.keywords)),
                "1" if r.is_retweet else "0",
                str(r.retweeted_count),
                "" if r.sentiment is None else repr(r.sentiment),
            ]
        )


def _close_ring(
    coords: Sequence[Sequence[float]], region_id: str, diagnostics: list[str]
) -> tuple[tuple[float, float], ...]:
    # positions may carry an altitude third element; only lon/lat are kept
    try:
        ring = [(float(v[0]), float(v[1])) for v in coords]
    except (TypeError, IndexError, KeyError):
        # a null, a bare number or a short position where [lon, lat] belongs
        raise ValueError("malformed ring coordinates") from None
    # NaN fails every comparison, so this also rejects non-finite vertices
    if not all(-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0 for lon, lat in ring):
        raise ValueError("vertex coordinates non-finite or out of range")
    if len(ring) < 3:
        raise ValueError(f"ring with {len(ring)} vertices")
    if ring[0] != ring[-1]:
        diagnostics.append(f"regions: auto-closed open ring in {region_id!r}")
        ring.append(ring[0])
    if len(ring) < 4:
        raise ValueError("degenerate ring")
    return tuple(ring)


def parse_regions(source: str | Path | TextIO) -> ParseResult[RegionBoundary]:
    """Read a GeoJSON FeatureCollection of Polygon/MultiPolygon regions.

    Open rings are auto-closed with a diagnostic; a feature without a usable
    region_id/name/level or geometry is dropped with a diagnostic. Two
    features sharing a region_id at the same level raise :class:`IngestError`.
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

    result: ParseResult[RegionBoundary] = ParseResult(records=[])
    seen: set[tuple[str, str]] = set()
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise IngestError("regions: features is not a list")
    for i, feature in enumerate(features):
        result.rows_total += 1
        try:
            region = _region_from_feature(feature, result.diagnostics)
        except ValueError as exc:
            result.rows_rejected += 1
            result.diagnostics.append(f"regions feature {i}: {exc}")
            continue
        key = (region.level, region.region_id)
        if key in seen:
            raise IngestError(f"regions: duplicate region_id {region.region_id!r} at level {region.level!r}")
        seen.add(key)
        result.records.append(region)
    return result


def _region_from_feature(feature: dict, diagnostics: list[str]) -> RegionBoundary:
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

    rings: list[tuple[tuple[float, float], ...]] = []
    holes: set[int] = set()
    for polygon in polygons:
        for k, ring_coords in enumerate(polygon):
            if k > 0:
                holes.add(len(rings))
            rings.append(_close_ring(ring_coords, region_id, diagnostics))

    xs = [x for ring in rings for x, _ in ring]
    ys = [y for ring in rings for _, y in ring]
    bbox = (min(xs), min(ys), max(xs), max(ys))
    return RegionBoundary(
        region_id=region_id, name=name, level=level, rings=tuple(rings), bbox=bbox,
        holes=frozenset(holes),
    )


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
    (region_id, source) damage rows are summed.
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
    for entry in _read_table(source, "damage", ("region_id", "amount_usd", "source"), _damage_row, result):
        key = (entry.region_id, entry.source)
        totals[key] = totals.get(key, 0.0) + entry.amount_usd
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
    if amount < 0 or math.isnan(amount):
        raise ValueError("amount_usd must be non-negative")
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
    return stats
