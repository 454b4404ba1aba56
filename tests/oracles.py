"""Definition-level reference implementations used only by the tests.

Everything here is deliberately written the slow, obvious way (pair
enumeration, explicit rank tables, literal permutation enumeration,
region-by-region containment scans, one object per message) so it shares no
code path with the package under test; it borrows only the package's record
and report types, the analyses' guarded correlation calls and keyword sort
key and, for the simulator reference, its config types and constants, region
grid and GeoJSON feature. ``message_table`` reads records written the
reference way back through the package's parser, for tests that need a
message table.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import combinations
from pathlib import Path

import numpy as np

from damagenowcast.analysis import (
    CorrelationSeries,
    DamageCorrelationReport,
    KeywordRanking,
    KeywordRelevance,
    NowcastEntry,
    NowcastReport,
    ReportCell,
    SeriesEntry,
    _guarded,
    _relevance_sort_key,
)
from damagenowcast.geo import GeoPoint
from damagenowcast.ingest import MessageRecord, parse_messages
from damagenowcast.metrics import ActivitySummary, bin_window
from damagenowcast.simulate import (
    LANDFALL,
    POPULARITY_RATE,
    SENTIMENT_BASE,
    SENTIMENT_NOISE,
    SENTIMENT_SLOPE,
    TRACK,
    USER_FRACTION,
    _region_feature,
    _region_grid,
)


def tau_b_brute(x, y) -> float:
    """Kendall tau-b straight from the concordant/discordant pair definition."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i, j in combinations(range(n), 2):
        dx = (x[i] > x[j]) - (x[i] < x[j])
        dy = (y[i] > y[j]) - (y[i] < y[j])
        if dx == 0:
            ties_x += 1
        if dy == 0:
            ties_y += 1
        if dx == 0 or dy == 0:
            continue
        if dx == dy:
            concordant += 1
        else:
            discordant += 1
    n0 = n * (n - 1) // 2
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    return (concordant - discordant) / denom


def average_ranks(values) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def pearson_brute(x, y) -> float:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def spearman_brute(x, y) -> float:
    return pearson_brute(average_ranks(x), average_ranks(y))


def spearman_no_ties(x, y) -> float:
    """Classic 1 - 6*sum(d^2)/(n(n^2-1)); valid only for tie-free vectors."""
    rx = average_ranks(x)
    ry = average_ranks(y)
    n = len(x)
    d2 = sum((a - b) ** 2 for a, b in zip(rx, ry))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def kendall_s_statistic(x, y) -> int:
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    s = 0
    for i, j in combinations(range(len(x)), 2):
        dx = (x[i] > x[j]) - (x[i] < x[j])
        dy = (y[i] > y[j]) - (y[i] < y[j])
        s += dx * dy
    return s


_S_NULL_CACHE: dict[int, np.ndarray] = {}


def kendall_s_null_values(n: int) -> np.ndarray:
    """S statistic of every one of the n! permutations, enumerated literally.

    Vectorized pair comparison keeps n = 10 (3.6M permutations) tractable;
    the n <= 7 cases are also cross-checked by a plain Python loop elsewhere
    in the suite.
    """
    if n not in _S_NULL_CACHE:
        total = math.factorial(n)
        perms = np.fromiter(
            itertools.chain.from_iterable(itertools.permutations(range(n))),
            dtype=np.int8,
            count=total * n,
        ).reshape(total, n)
        inversions = np.zeros(total, dtype=np.int32)
        for i, j in combinations(range(n), 2):
            inversions += perms[:, i] > perms[:, j]
        n0 = n * (n - 1) // 2
        _S_NULL_CACHE[n] = n0 - 2 * inversions
    return _S_NULL_CACHE[n]


def kendall_exact_p_enumerated(x, y) -> float:
    """Two-sided exact p from the enumerated permutation null (tie-free only)."""
    n = len(x)
    s_obs = abs(kendall_s_statistic(x, y))
    s_all = kendall_s_null_values(n)
    return int(np.sum(np.abs(s_all) >= s_obs)) / math.factorial(n)


def kendall_exact_p_loop(x, y) -> float:
    """Same enumeration as above but as a literal loop; keep n <= 7."""
    n = len(x)
    s_obs = abs(kendall_s_statistic(x, y))
    favourable = 0
    total = 0
    for perm in itertools.permutations(y):
        total += 1
        if abs(kendall_s_statistic(x, perm)) >= s_obs:
            favourable += 1
    return favourable / total


def spearman_exact_p_loop(x, y) -> float:
    """Exact two-sided permutation p for Spearman; keep n <= 7."""
    rho_obs = abs(spearman_brute(x, y))
    favourable = 0
    total = 0
    for perm in itertools.permutations(y):
        total += 1
        if abs(spearman_brute(x, list(perm))) >= rho_obs - 1e-9:
            favourable += 1
    return favourable / total


def haversine_law_of_cosines(lat1, lon1, lat2, lon2, radius_km=6371.0088) -> float:
    """Great-circle distance via the spherical law of cosines (independent formula)."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return radius_km * math.acos(max(-1.0, min(1.0, c)))


def point_in_polygon_winding(x, y, ring) -> bool:
    """Nonzero winding-number containment for a simple closed ring (no holes).

    Boundary points are resolved by an explicit on-edge scan, mirroring the
    production convention (boundary counts as inside) via independent code.
    """
    for (ax, ay), (bx, by) in zip(ring, ring[1:]):
        cross = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
        if abs(cross) < 1e-12 and min(ax, bx) - 1e-12 <= x <= max(ax, bx) + 1e-12 \
                and min(ay, by) - 1e-12 <= y <= max(ay, by) + 1e-12:
            return True
    winding = 0
    for (ax, ay), (bx, by) in zip(ring, ring[1:]):
        if ay <= y:
            if by > y and (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0:
                winding += 1
        elif by <= y and (bx - ax) * (y - ay) - (by - ay) * (x - ax) < 0:
            winding -= 1
    return winding != 0


ON_EDGE_EPS = 1e-9  # the package's boundary tolerance, in degrees


def _on_segment(px, py, ax, ay, bx, by) -> bool:
    if not (min(ax, bx) - ON_EDGE_EPS <= px <= max(ax, bx) + ON_EDGE_EPS):
        return False
    if not (min(ay, by) - ON_EDGE_EPS <= py <= max(ay, by) + ON_EDGE_EPS):
        return False
    dx, dy = bx - ax, by - ay
    cross = dx * (py - ay) - dy * (px - ax)
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        return math.hypot(px - ax, py - ay) <= ON_EDGE_EPS
    return abs(cross) / norm <= ON_EDGE_EPS


def point_in_region_scalar(p, region) -> bool:
    """Even-odd containment over all rings, one edge at a time; boundary counts as inside.

    The package's scalar predicate as it stood before the join was
    vectorized, frozen here as the reference for the batched kernel.
    """
    x, y = p.lon, p.lat
    min_lon, min_lat, max_lon, max_lat = region.bbox
    if not (min_lon - ON_EDGE_EPS <= x <= max_lon + ON_EDGE_EPS):
        return False
    if not (min_lat - ON_EDGE_EPS <= y <= max_lat + ON_EDGE_EPS):
        return False
    inside = False
    for ring in region.rings:
        for (ax, ay), (bx, by) in zip(ring, ring[1:]):
            if _on_segment(x, y, ax, ay, bx, by):
                return True
            if (ay > y) != (by > y):
                x_cross = ax + (y - ay) * (bx - ax) / (by - ay)
                if x < x_cross:
                    inside = not inside
    return inside


def brute_force_join(points, regions) -> dict[str, str | None]:
    """Index-free join: scan every region for every point, smallest id wins.

    ``regions`` are RegionBoundary objects; a region_id given twice keeps the
    last region. Containment is :func:`point_in_region_scalar`, so this shares
    neither the grid nor the batched kernel with the package.
    """
    by_id = {r.region_id: r for r in regions}
    ordered = [by_id[region_id] for region_id in sorted(by_id)]
    out = {}
    for point_id, point in points:
        assigned = None
        for region in ordered:
            if point_in_region_scalar(point, region):
                assigned = region.region_id
                break
        out[point_id] = assigned
    return out


# ---------------------------------------------------------------------------
# Message parsing and activity summaries as they stood before the columnar
# table: one MessageRecord per row from a per-row converter, and summaries
# from per-object loops. Frozen here as the references for the bulk parser and
# the grouped counts.

_MESSAGE_COLUMNS = (
    "message_id", "user_id", "timestamp", "lat", "lon", "keywords", "is_retweet", "retweeted_count", "sentiment",
)


@dataclass
class ReferenceParse:
    records: list
    diagnostics: list = field(default_factory=list)
    rows_total: int = 0
    rows_rejected: int = 0
    rows_filtered: int = 0


def _reference_timestamp(text: str) -> datetime:
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


def _reference_tags(text: str) -> frozenset:
    return frozenset(t.strip().lower() for t in text.split(";") if t.strip())


def _reference_message(row, col, seen_ids) -> MessageRecord:
    def cell(name):
        i = col[name]
        return row[i].strip() if i < len(row) else ""

    message_id = cell("message_id")
    user_id = cell("user_id")
    if not message_id or not user_id:
        raise ValueError("missing message_id or user_id")
    if message_id in seen_ids:
        raise ValueError(f"duplicate message_id {message_id!r}")
    stamp = _reference_timestamp(cell("timestamp"))
    lat_text, lon_text = cell("lat"), cell("lon")
    if bool(lat_text) != bool(lon_text):
        raise ValueError("location requires both lat and lon")
    location = None
    if lat_text:
        lat, lon = float(lat_text), float(lon_text)
        if not -90.0 <= lat <= 90.0:
            raise ValueError("latitude out of range")
        if not -180.0 <= lon <= 180.0:
            raise ValueError("longitude out of range")
        location = (lat, lon)
    keywords = _reference_tags(cell("keywords"))
    if not keywords:
        raise ValueError("no keywords after tag filtering")
    retweet_text = cell("is_retweet")
    if retweet_text not in ("0", "1"):
        raise ValueError(f"is_retweet must be 0 or 1, got {retweet_text!r}")
    retweeted_count = int(cell("retweeted_count"))
    if retweeted_count < 0:
        raise ValueError("retweeted_count negative")
    sentiment_text = cell("sentiment")
    sentiment = None
    if sentiment_text:
        sentiment = float(sentiment_text)
        if not -1.0 <= sentiment <= 1.0:
            raise ValueError("sentiment out of range")
    return MessageRecord(message_id, user_id, stamp, location, keywords, retweet_text == "1",
                         retweeted_count, sentiment)


def parse_messages_reference(text: str, keyword_filter=None) -> ReferenceParse:
    """``messages.csv`` text parsed one row at a time into MessageRecords."""
    wanted = frozenset(t.strip().lower() for t in keyword_filter or () if t.strip())
    result = ReferenceParse(records=[])
    numbered = [
        (lineno, line) for lineno, line in enumerate(io.StringIO(text, newline=""), start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    current = [0]

    def lines():
        for lineno, line in numbered:
            current[0] = lineno
            yield line

    rows = csv.reader(lines())
    header = next(rows)
    col = {name.strip().lower(): i for i, name in enumerate(header)}
    seen_ids = set()
    for row in rows:
        result.rows_total += 1
        try:
            record = _reference_message(row, col, seen_ids)
        except (ValueError, IndexError) as exc:
            result.rows_rejected += 1
            result.diagnostics.append(f"messages line {current[0]}: {exc}")
            continue
        seen_ids.add(record.message_id)
        if wanted and not (record.keywords & wanted):
            result.rows_filtered += 1
            continue
        result.records.append(record)
    return result


def normalized_activity(summary, mode="per_period_user", original_only=False):
    """Message count divided by the chosen denominator; None when undefined."""
    count = summary.n_original if original_only else summary.n_messages
    if mode == "per_period_user":
        denominator = summary.active_users_period
    elif mode == "per_capita":
        denominator = summary.population or 0
    else:
        raise ValueError(f"unknown normalization mode {mode!r}")
    if denominator <= 0:
        return None
    return count / denominator


def compute_activity_summary_reference(messages, region_id, window, period_users, population=None):
    """One region's summary over a window (every message when None), object by object."""
    n_messages = n_original = n_retweets = n_popular = 0
    users = set()
    sentiment_sum = 0.0
    sentiment_n = 0
    for m in messages:
        if window is not None and not window.start <= m.timestamp < window.end:
            continue
        n_messages += 1
        users.add(m.user_id)
        if m.is_retweet:
            n_retweets += 1
        else:
            n_original += 1
            if m.retweeted_count >= 1:
                n_popular += 1
        if m.sentiment is not None:
            sentiment_sum += m.sentiment
            sentiment_n += 1
    return ActivitySummary(
        region_id=region_id, window=window, n_messages=n_messages, n_original=n_original,
        n_retweets=n_retweets, n_popular=n_popular, active_users_window=len(users),
        active_users_period=period_users,
        mean_sentiment=sentiment_sum / sentiment_n if sentiment_n else None, population=population,
    )


def _reference_assigned(messages, assignments, keywords):
    per_region = {}
    for m in messages:
        region = assignments.get(m.message_id)
        if region is None:
            continue
        if keywords is not None and not (m.keywords & keywords):
            continue
        per_region.setdefault(region, []).append(m)
    return per_region


def summarize_regions_reference(messages, assignments, window, keywords=None, population=None, region_ids=None):
    """Per-region summaries of MessageRecords, one pass over the messages per call."""
    per_region = _reference_assigned(messages, assignments, keywords)
    wanted = set(region_ids) if region_ids is not None else set(per_region)
    wanted.update(per_region)
    out = {}
    for region_id in sorted(wanted):
        region_messages = per_region.get(region_id, [])
        out[region_id] = compute_activity_summary_reference(
            region_messages, region_id, window, period_users=len({m.user_id for m in region_messages}),
            population=(population or {}).get(region_id),
        )
    return out


def summarize_daily_reference(messages, assignments, epoch, width, bins, keywords=None, population=None):
    """Per-(region, bin) summaries of MessageRecords."""
    per_region = _reference_assigned(messages, assignments, keywords)
    width_us = width // timedelta(microseconds=1)
    out = {}
    for region_id in sorted(per_region):
        region_messages = per_region[region_id]
        by_bin = {}
        for m in region_messages:
            k = ((m.timestamp - epoch) // timedelta(microseconds=1)) // width_us
            by_bin.setdefault(k, []).append(m)
        for k in bins:
            out[(region_id, k)] = compute_activity_summary_reference(
                by_bin.get(k, []), region_id, bin_window(epoch, width, k),
                period_users=len({m.user_id for m in region_messages}),
                population=(population or {}).get(region_id),
            )
    return out


def daily_correlation_series_reference(daily_summaries, damage_usd, population, bins,
                                       normalization="per_capita", epoch=None, width=timedelta(hours=24)):
    """The daily series read region by region from per-(region, bin) summary objects."""
    regions = sorted(population)
    entries = []
    for b in bins:
        activity, damage, sentiment, sentiment_damage = [], [], [], []
        active = 0
        messages = 0
        for region in regions:
            summary = daily_summaries.get((region, b))
            if summary is None or summary.n_messages < 1:
                continue
            active += 1
            messages += summary.n_messages
            value = normalized_activity(summary, normalization, original_only=True)
            damage_pc = damage_usd.get(region, 0.0) / population[region]
            if value is not None:
                activity.append(value)
                damage.append(damage_pc)
            if summary.mean_sentiment is not None:
                sentiment.append(summary.mean_sentiment)
                sentiment_damage.append(damage_pc)
        entries.append(SeriesEntry(
            bin_index=b,
            bin_start=epoch + b * width if epoch is not None else None,
            active_regions=active,
            n_messages=messages,
            activity_damage_kendall=_guarded(activity, damage, "kendall"),
            activity_damage_spearman=_guarded(activity, damage, "spearman"),
            sentiment_damage_kendall=_guarded(sentiment, sentiment_damage, "kendall"),
        ))
    return CorrelationSeries(entries=tuple(entries))


# ---------------------------------------------------------------------------
# The region-level analyses as they stood before the summary grid: one summary
# object per region, read in Python loops. Frozen here as the references for
# the grid slices; the ranking skips a keyword no subset city has a summary for.

def rank_keywords_reference(city_summaries, distances_km, city_subset=None, original_only=False):
    """The keyword ranking read city by city from (city, keyword) -> summary objects."""
    cities = set(city_subset) if city_subset is not None else {c for c, _ in city_summaries}
    missing = [c for c in sorted(cities) if c not in distances_km]
    if missing:
        raise ValueError(f"no track distance for city {missing[0]!r}")
    entries = []
    for keyword in sorted({k for c, k in city_summaries if c in cities}):
        activity, distance = [], []
        for city in sorted(cities):
            summary = city_summaries.get((city, keyword))
            if summary is None or summary.n_messages < 1:
                continue
            value = normalized_activity(summary, "per_period_user", original_only)
            if value is None:
                continue
            activity.append(value)
            distance.append(distances_km[city])
        kendall = _guarded(activity, distance, "kendall")
        entries.append(KeywordRelevance(keyword, kendall, _guarded(activity, distance, "spearman"), len(activity),
                                        kendall.degenerate))
    entries.sort(key=_relevance_sort_key)
    return KeywordRanking(entries=tuple(entries))


def damage_correlation_report_reference(scope_summaries, damage_by_source, population,
                                        normalizations=("census_population", "twitter_users"),
                                        transforms=("raw", "log10"), methods=("kendall", "spearman", "pearson"),
                                        original_only=False, include_sentiment=True):
    """The report grid read region by region from per-scope region -> summary objects."""
    cells = []
    for scope in sorted(scope_summaries):
        summaries = scope_summaries[scope]
        for source in sorted(damage_by_source):
            damage = damage_by_source[source]
            for norm in normalizations:
                mode = "per_capita" if norm == "census_population" else "per_period_user"
                activity, damage_pc, sentiment, sentiment_damage = [], [], [], []
                active = 0
                for region in sorted(summaries):
                    summary = summaries[region]
                    if summary.n_messages < 1 or region not in population:
                        continue
                    active += 1
                    value = normalized_activity(summary, mode, original_only)
                    if value is not None:
                        activity.append(value)
                        damage_pc.append(damage.get(region, 0.0) / population[region])
                    if summary.mean_sentiment is not None:
                        denom = population[region] if norm == "census_population" else summary.active_users_period
                        if denom > 0:
                            sentiment.append(summary.mean_sentiment)
                            sentiment_damage.append(damage.get(region, 0.0) / denom)
                for transform in transforms:
                    for method in methods:
                        cells.append(ReportCell("activity", scope, source, norm,
                                                _guarded(activity, damage_pc, method, transform), active))
                if include_sentiment:
                    for method in methods:
                        cells.append(ReportCell("sentiment", scope, source, norm,
                                                _guarded(sentiment, sentiment_damage, method), active))
    return DamageCorrelationReport(cells=tuple(cells))


def nowcast_reference(summaries, original_only=True, damage_usd=None):
    """The nowcast ranking read region by region from region -> summary objects."""
    scored, excluded = [], []
    for region in sorted(summaries):
        summary = summaries[region]
        count = summary.n_original if original_only else summary.n_messages
        if count < 1:
            excluded.append((region, "inactive"))
        elif not summary.population or summary.population <= 0:
            excluded.append((region, "no population"))
        else:
            scored.append((count / summary.population, region, summary))
    scored.sort(key=lambda item: (-item[0], item[1]))
    damage_rank = {}
    if damage_usd is not None:
        per_capita = sorted((-(damage_usd.get(region, 0.0) / summary.population), region)
                            for _, region, summary in scored)
        damage_rank = {region: position for position, (_, region) in enumerate(per_capita, start=1)}
    entries = tuple(
        NowcastEntry(i, region, value, summary.n_original, summary.population, damage_rank.get(region))
        for i, (value, region, summary) in enumerate(scored, start=1)
    )
    return NowcastReport(entries, tuple(excluded))


# ---------------------------------------------------------------------------
# The simulator as it stood before its columnar draws: one tuple, one shifted
# datetime and one MessageRecord per message, a Python sort per region and a
# per-record CSV writer. Frozen here as the reference for whole bundles; it
# borrows the package's config types and constants, region grid and GeoJSON feature.

def _reference_stamp_text(stamp: datetime) -> str:
    utc = stamp.astimezone(timezone.utc)
    text = f"{utc.year:04d}-{utc.month:02d}-{utc.day:02d}T{utc.hour:02d}:{utc.minute:02d}:{utc.second:02d}"
    if utc.microsecond:
        text += f".{utc.microsecond:06d}".rstrip("0")
    return text + "Z"


def _reference_write_messages(records, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_MESSAGE_COLUMNS)
        for r in records:
            writer.writerow([
                r.message_id,
                r.user_id,
                _reference_stamp_text(r.timestamp),
                repr(r.location[0]) if r.location else "",
                repr(r.location[1]) if r.location else "",
                ";".join(sorted(r.keywords)),
                "1" if r.is_retweet else "0",
                str(r.retweeted_count),
                "" if r.sentiment is None else repr(r.sentiment),
            ])


def message_table(records, keyword_filter=None):
    """The message table ``parse_messages`` reads back from the records written as CSV,
    holding the rows whose tags meet ``keyword_filter`` (every row when empty or None)."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "messages.csv"
        _reference_write_messages(records, path)
        return parse_messages(path, keyword_filter).records


def _reference_region(config, spec, seed_seq):
    """One region's draws: (population, messages, window_count, latent_rate, damage_usd)."""
    rng = np.random.default_rng(seed_seq)
    pop_lo, pop_hi = config.population_range
    population = int(rng.integers(pop_lo, pop_hi + 1))
    n_users = max(1, int(population * USER_FRACTION))
    retweet_p = config.retweet.probability(spec.distance_km)
    burst_rate = config.media_burst * float(rng.exponential(1.0))
    window_lo, window_hi = config.damage.window_bins
    drawn = []
    window_count = 0
    latent_rate = 0.0
    for day in config.day_bins():
        day_start = LANDFALL + timedelta(days=day)
        for keyword, profile in config.keywords:
            proximity = max(0.0, 1.0 - spec.distance_km / profile.decay_cutoff_km)
            if day < 0:
                shape = profile.pre_event_ramp ** (-day)
            elif day > 0:
                shape = profile.post_event_persistence**day
            else:
                shape = 1.0
            rate = profile.base_rate + profile.event_amplitude * proximity * shape
            if day == 0:
                rate += burst_rate
            if window_lo <= day < window_hi:
                latent_rate += rate
            count = int(rng.poisson(population * rate))
            if count == 0:
                continue
            seconds = rng.integers(0, 86400, size=count)
            lats = rng.uniform(spec.min_lat, spec.max_lat, size=count)
            lons = rng.uniform(spec.min_lon, spec.max_lon, size=count)
            user_idx = rng.integers(0, n_users, size=count)
            retweet_flags = rng.random(size=count) < retweet_p
            rebroadcasts = rng.poisson(POPULARITY_RATE * max(proximity, 0.02), size=count)
            sentiments = np.clip(
                rng.normal(SENTIMENT_BASE - SENTIMENT_SLOPE * proximity, SENTIMENT_NOISE, size=count),
                -1.0,
                1.0,
            )
            if window_lo <= day < window_hi:
                window_count += count
            tags = frozenset({keyword})
            for j in range(count):
                is_retweet = bool(retweet_flags[j])
                drawn.append((
                    f"{spec.region_id}-u{int(user_idx[j]):05d}",
                    day_start + timedelta(seconds=int(seconds[j])),
                    (float(lats[j]), float(lons[j])),
                    tags,
                    is_retweet,
                    0 if is_retweet else int(rebroadcasts[j]),
                    float(sentiments[j]),
                ))
    noise = math.exp(config.damage.noise_sigma * float(rng.standard_normal()))
    damage_usd = config.damage.coupling * window_count * noise
    drawn.sort(key=lambda fields: fields[1])
    messages = [MessageRecord(f"{spec.region_id}-m{i:06d}", *fields) for i, fields in enumerate(drawn)]
    return population, messages, window_count, latent_rate, damage_usd


def simulate_reference(config, out_dir) -> None:
    """Write the six bundle files for ``config`` into ``out_dir``, record by record."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    specs = _region_grid(config, [GeoPoint(lat=lat, lon=lon) for lat, lon in TRACK])
    seeds = np.random.SeedSequence(config.seed).spawn(len(specs))
    draws = [(spec, *_reference_region(config, spec, seq)) for spec, seq in zip(specs, seeds)]
    _reference_write_messages([m for draw in draws for m in draw[2]], out / "messages.csv")
    collection = {"type": "FeatureCollection", "features": [_region_feature(draw[0]) for draw in draws]}
    (out / "regions.geojson").write_text(
        json.dumps(collection, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8"
    )

    def write(name, header, rows):
        with open(out / name, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

    write("population.csv", ["region_id", "population"], [[spec.region_id, pop] for spec, pop, *_ in draws])
    write("damage.csv", ["region_id", "amount_usd", "source"],
          [[spec.region_id, repr(damage), "insurance"] for spec, *_, damage in draws])
    half = len(TRACK) // 2
    write("track.csv", ["timestamp", "lat", "lon"], [
        [_reference_stamp_text(LANDFALL + timedelta(hours=6 * (i - half))), repr(lat), repr(lon)]
        for i, (lat, lon) in enumerate(TRACK)
    ])
    write("ground_truth.csv", ["region_id", "latent_rate", "expected_damage_pc", "realized_damage_pc"], [
        [spec.region_id, repr(latent), repr(config.damage.coupling * window / pop), repr(damage / pop)]
        for spec, pop, _, window, latent, damage in draws
    ])
