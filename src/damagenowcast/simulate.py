"""Seeded synthetic generator for end-to-end pipeline testing.

Produces a bundle of input files (messages, regions, population, damage,
track) in the exact ingest formats, plus a ground-truth table with the latent
rates and the pre-noise damage so recovered correlations can be scored
against the generative ones.

Regional message counts per daily bin follow a Poisson law whose per-person
rate decays linearly with distance to the track up to a cutoff and is flat
beyond it; the retweet probability rises with distance; damage couples
per-capita to realized post-event activity with optional lognormal noise.
Identical config and seed give byte-identical bundles: each region draws
from its own substream spawned from the master seed, and outputs are
canonically ordered by (region_id, timestamp).

A region draws each (day, keyword) batch as arrays, joins its batches once
and orders them with one stable sort on the timestamps, so messages posted in
the same second keep their draw order. The messages go to the writer as one
:class:`~damagenowcast.ingest.MessageTable`; no object is built per message.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .geo import GeoPoint, point_to_track_km
from .ingest import MICROSECOND, UNIX_EPOCH, MessageTable, format_timestamp, write_messages_csv

__all__ = [
    "KeywordProfile",
    "RetweetModel",
    "DamageModel",
    "SimConfig",
    "SimBundle",
    "generate",
]

_UTC = timezone.utc
_TEXT = np.dtypes.StringDType()
_DAY_US = 86_400_000_000

TRACK = ((33.0, -77.5), (39.5, -74.5), (44.0, -73.0))  # storm track (lat, lon), 6 h apart around landfall
LANDFALL = datetime(2012, 10, 30, tzinfo=_UTC)
USER_FRACTION = 0.1  # distinct users per resident
POPULARITY_RATE = 0.3  # mean rebroadcasts of an original message at full proximity
SENTIMENT_BASE = 0.1  # mean sentiment far from the track ...
SENTIMENT_SLOPE = 0.4  # ... minus this much at full proximity
SENTIMENT_NOISE = 0.2  # standard deviation of a message's sentiment


@dataclass(frozen=True)
class KeywordProfile:
    """Per-person daily message rate: base + amplitude * proximity * profile(day)."""

    base_rate: float = 0.0005
    event_amplitude: float = 0.01
    decay_cutoff_km: float = 1350.0
    post_event_persistence: float = 0.7  # per-day decay after the event day
    pre_event_ramp: float = 0.5  # per-day decay going back before the event


@dataclass(frozen=True)
class RetweetModel:
    """Retweet probability grows with distance (far regions rebroadcast more)."""

    base: float = 0.15
    slope: float = 0.5
    reference_km: float = 1350.0

    def probability(self, distance_km: float) -> float:
        p = self.base + self.slope * min(distance_km / self.reference_km, 1.0)
        return min(max(p, 0.0), 0.95)


@dataclass(frozen=True)
class DamageModel:
    """Per-capita damage = coupling * per-capita window activity * lognormal noise."""

    coupling: float = 1000.0
    noise_sigma: float = 0.0
    window_bins: tuple[int, int] = (1, 13)  # half-open day-offset window


@dataclass(frozen=True)
class SimConfig:
    """Generator knobs.

    ``media_burst`` is the expected extra per-person rate on the landfall day.
    It is distance-independent but lands with a random mean-one multiplier per
    region (media uptake varies from place to place without tracking damage),
    which is what washes out the landfall-day activity-damage correlation; a
    deterministic bump would leave the regional ranking intact.
    """

    seed: int
    n_regions: int = 100
    extent: tuple[float, float, float, float] = (-76.0, 35.0, -66.0, 43.0)
    population_range: tuple[int, int] = (1000, 5000)
    timeline_start: datetime = datetime(2012, 10, 20, tzinfo=_UTC)
    timeline_end: datetime = datetime(2012, 11, 12, tzinfo=_UTC)
    keywords: tuple[tuple[str, KeywordProfile], ...] = (("storm", KeywordProfile()),)
    media_burst: float = 0.0
    retweet: RetweetModel = field(default_factory=RetweetModel)
    damage: DamageModel = field(default_factory=DamageModel)

    def day_bins(self) -> range:
        first = (self.timeline_start - LANDFALL) // timedelta(days=1)
        last = math.ceil((self.timeline_end - LANDFALL) / timedelta(days=1))
        return range(first, last)


@dataclass(frozen=True)
class SimBundle:
    out_dir: Path
    messages_csv: Path
    regions_geojson: Path
    population_csv: Path
    damage_csv: Path
    track_csv: Path
    ground_truth_csv: Path
    n_messages: int
    n_regions: int


@dataclass(frozen=True)
class _RegionSpec:
    region_id: str
    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float
    distance_km: float


@dataclass
class _RegionDraw:
    """One region's draws; its messages are columns in canonical (time) order."""

    spec: _RegionSpec
    population: int
    window_count: int
    latent_rate: float
    damage_usd: float
    time_us: np.ndarray  # int64, µs since the Unix epoch
    lat: np.ndarray
    lon: np.ndarray
    user: np.ndarray  # int64 index of the region's user
    keyword: np.ndarray  # int64 index into SimConfig.keywords
    is_retweet: np.ndarray
    retweeted_count: np.ndarray
    sentiment: np.ndarray


def _region_grid(config: SimConfig, track_points: list[GeoPoint]) -> list[_RegionSpec]:
    min_lon, min_lat, max_lon, max_lat = config.extent
    ncols = math.ceil(math.sqrt(config.n_regions))
    nrows = math.ceil(config.n_regions / ncols)
    cell_w = (max_lon - min_lon) / ncols
    cell_h = (max_lat - min_lat) / nrows
    gap_w, gap_h = cell_w * 0.05, cell_h * 0.05
    specs = []
    for i in range(config.n_regions):
        row, col = divmod(i, ncols)
        lon0 = min_lon + col * cell_w + gap_w
        lat0 = min_lat + row * cell_h + gap_h
        lon1 = min_lon + (col + 1) * cell_w - gap_w
        lat1 = min_lat + (row + 1) * cell_h - gap_h
        center = GeoPoint(lat=(lat0 + lat1) / 2.0, lon=(lon0 + lon1) / 2.0)
        specs.append(
            _RegionSpec(
                region_id=f"r{i:04d}",
                min_lon=lon0,
                min_lat=lat0,
                max_lon=lon1,
                max_lat=lat1,
                distance_km=point_to_track_km(center, track_points),
            )
        )
    return specs


def _temporal_profile(day: int, profile: KeywordProfile) -> float:
    if day < 0:
        return profile.pre_event_ramp ** (-day)
    if day > 0:
        return profile.post_event_persistence**day
    return 1.0


def _per_person_rate(
    config: SimConfig,
    profile: KeywordProfile,
    proximity: float,
    day: int,
    burst_rate: float,
) -> float:
    rate = profile.base_rate + profile.event_amplitude * proximity * _temporal_profile(day, profile)
    if day == 0:
        rate += burst_rate
    return rate


def _simulate_region(config: SimConfig, spec: _RegionSpec, seed_seq: np.random.SeedSequence) -> _RegionDraw:
    rng = np.random.default_rng(seed_seq)
    pop_lo, pop_hi = config.population_range
    population = int(rng.integers(pop_lo, pop_hi + 1))
    n_users = max(1, int(population * USER_FRACTION))
    retweet_p = config.retweet.probability(spec.distance_km)
    burst_rate = config.media_burst * float(rng.exponential(1.0))
    landfall_us = (LANDFALL - UNIX_EPOCH) // MICROSECOND

    window_lo, window_hi = config.damage.window_bins
    # per batch: second of the day, lat, lon, user, retweet uniform, rebroadcasts, unclipped sentiment
    batches: list[tuple[np.ndarray, ...]] = []
    batch_day_us: list[int] = []
    batch_keyword: list[int] = []
    window_count = 0
    latent_rate = 0.0
    for day in config.day_bins():
        day_us = landfall_us + day * _DAY_US
        for k, (_, profile) in enumerate(config.keywords):
            proximity = max(0.0, 1.0 - spec.distance_km / profile.decay_cutoff_km)
            rate = _per_person_rate(config, profile, proximity, day, burst_rate)
            if window_lo <= day < window_hi:
                latent_rate += rate
            try:
                count = int(rng.poisson(population * rate))
            except ValueError as exc:  # numpy draws no rate above about 9.2e18
                raise ValueError(f"an expected {population * rate:g} messages in one region on one day is too "
                                 f"many to draw ({exc}); lower --base-rate, --amplitude or --media-burst") from None
            if count == 0:
                continue
            batches.append((
                rng.integers(0, 86400, size=count),
                rng.uniform(spec.min_lat, spec.max_lat, size=count),
                rng.uniform(spec.min_lon, spec.max_lon, size=count),
                rng.integers(0, n_users, size=count),
                rng.random(size=count),
                rng.poisson(POPULARITY_RATE * max(proximity, 0.02), size=count),
                rng.normal(SENTIMENT_BASE - SENTIMENT_SLOPE * proximity, SENTIMENT_NOISE, size=count),
            ))
            batch_day_us.append(day_us)
            batch_keyword.append(k)
            if window_lo <= day < window_hi:
                window_count += count

    noise = math.exp(config.damage.noise_sigma * float(rng.standard_normal()))
    damage_usd = config.damage.coupling * window_count * noise

    dtypes = (np.int64, float, float, np.int64, float, np.int64, float)
    second, lat, lon, user, uniform, rebroadcasts, sentiment = (
        np.concatenate([np.empty(0, dtype=dtype), *parts])
        for dtype, parts in zip(dtypes, list(zip(*batches)) or [()] * len(dtypes))
    )
    counts = [len(batch[0]) for batch in batches]
    day_us, keyword = (np.repeat(np.array(values, dtype=np.int64), counts) for values in (batch_day_us, batch_keyword))
    stamp = day_us + second * 1_000_000
    order = np.argsort(stamp, kind="stable")  # equal timestamps keep their draw order
    is_retweet = uniform[order] < retweet_p
    return _RegionDraw(
        spec=spec,
        population=population,
        window_count=window_count,
        latent_rate=latent_rate,
        damage_usd=damage_usd,
        time_us=stamp[order],
        lat=lat[order],
        lon=lon[order],
        user=user[order],
        keyword=keyword[order],
        is_retweet=is_retweet,
        retweeted_count=np.where(is_retweet, 0, rebroadcasts[order]),
        sentiment=np.clip(sentiment[order], -1.0, 1.0),
    )


def _message_table(config: SimConfig, draws: list[_RegionDraw]) -> MessageTable:
    """Every region's messages in one table; ids number each region's messages in order."""
    counts = np.array([len(draw.time_us) for draw in draws], dtype=np.int64)
    region = np.repeat(np.arange(len(draws)), counts)
    index = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)

    def ids(suffix: str, numbers: np.ndarray, width: int) -> np.ndarray:
        prefix = np.array([f"{draw.spec.region_id}-{suffix}" for draw in draws], dtype=_TEXT)
        return np.strings.add(prefix[region], np.strings.zfill(numbers.astype(_TEXT), width))

    def column(name: str) -> np.ndarray:
        return np.concatenate([getattr(draw, name) for draw in draws])

    sets: dict[frozenset[str], int] = {}
    set_code = np.array([sets.setdefault(frozenset({keyword}), len(sets)) for keyword, _ in config.keywords],
                        dtype=np.int64)
    return MessageTable.from_columns(
        message_id=ids("m", index, 6),
        user_id=ids("u", column("user"), 5),
        time_us=column("time_us"),
        lat=column("lat"),
        lon=column("lon"),
        keyword_set=set_code[column("keyword")],
        keyword_sets=list(sets),
        is_retweet=column("is_retweet"),
        retweeted_count=column("retweeted_count"),
        sentiment=column("sentiment"),
    )


def _region_feature(spec: _RegionSpec) -> dict:
    ring = [
        [spec.min_lon, spec.min_lat],
        [spec.max_lon, spec.min_lat],
        [spec.max_lon, spec.max_lat],
        [spec.min_lon, spec.max_lat],
        [spec.min_lon, spec.min_lat],
    ]
    return {
        "type": "Feature",
        "properties": {"region_id": spec.region_id, "name": spec.region_id, "level": "zcta"},
        "geometry": {"type": "Polygon", "coordinates": [ring]},
    }


def generate(config: SimConfig, out_dir: str | Path) -> SimBundle:
    """Write the full synthetic bundle into ``out_dir`` and return its paths.

    Every draw is made before ``out_dir`` is created, so a failing draw
    leaves no directory behind.
    """
    track_points = [GeoPoint(lat=lat, lon=lon) for lat, lon in TRACK]
    specs = _region_grid(config, track_points)
    seeds = np.random.SeedSequence(config.seed).spawn(len(specs))

    draws = [_simulate_region(config, spec, seq) for spec, seq in zip(specs, seeds)]
    messages = _message_table(config, draws)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    messages_csv = out / "messages.csv"
    write_messages_csv(messages, messages_csv)

    regions_geojson = out / "regions.geojson"
    collection = {
        "type": "FeatureCollection",
        "features": [_region_feature(draw.spec) for draw in draws],
    }
    regions_geojson.write_text(json.dumps(collection, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")

    population_csv = out / "population.csv"
    with open(population_csv, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["region_id", "population"])
        for draw in draws:
            writer.writerow([draw.spec.region_id, draw.population])

    damage_csv = out / "damage.csv"
    with open(damage_csv, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["region_id", "amount_usd", "source"])
        for draw in draws:
            writer.writerow([draw.spec.region_id, repr(draw.damage_usd), "insurance"])

    track_csv = out / "track.csv"
    half = len(TRACK) // 2
    with open(track_csv, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["timestamp", "lat", "lon"])
        for i, (lat, lon) in enumerate(TRACK):
            stamp = LANDFALL + timedelta(hours=6 * (i - half))
            writer.writerow([format_timestamp(stamp), repr(lat), repr(lon)])

    ground_truth_csv = out / "ground_truth.csv"
    with open(ground_truth_csv, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["region_id", "latent_rate", "expected_damage_pc", "realized_damage_pc"])
        for draw in draws:
            expected_pc = config.damage.coupling * draw.window_count / draw.population
            realized_pc = draw.damage_usd / draw.population
            writer.writerow(
                [draw.spec.region_id, repr(draw.latent_rate), repr(expected_pc), repr(realized_pc)]
            )

    return SimBundle(
        out_dir=out,
        messages_csv=messages_csv,
        regions_geojson=regions_geojson,
        population_csv=population_csv,
        damage_csv=damage_csv,
        track_csv=track_csv,
        ground_truth_csv=ground_truth_csv,
        n_messages=len(messages),
        n_regions=len(draws),
    )
