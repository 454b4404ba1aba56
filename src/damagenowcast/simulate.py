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
from .ingest import MessageRecord, format_timestamp, write_messages_csv

__all__ = [
    "KeywordProfile",
    "RetweetModel",
    "DamageModel",
    "SimConfig",
    "SimBundle",
    "generate",
]

_UTC = timezone.utc


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
    user_fraction: float = 0.1
    track: tuple[tuple[float, float], ...] = ((33.0, -77.5), (39.5, -74.5), (44.0, -73.0))
    timeline_start: datetime = datetime(2012, 10, 20, tzinfo=_UTC)
    timeline_end: datetime = datetime(2012, 11, 12, tzinfo=_UTC)
    landfall: datetime = datetime(2012, 10, 30, tzinfo=_UTC)
    keywords: tuple[tuple[str, KeywordProfile], ...] = (("storm", KeywordProfile()),)
    media_burst: float = 0.0
    retweet: RetweetModel = field(default_factory=RetweetModel)
    damage: DamageModel = field(default_factory=DamageModel)
    popularity_rate: float = 0.3
    sentiment_base: float = 0.1
    sentiment_slope: float = 0.4
    sentiment_noise: float = 0.2

    def day_bins(self) -> range:
        first = (self.timeline_start - self.landfall) // timedelta(days=1)
        last = math.ceil((self.timeline_end - self.landfall) / timedelta(days=1))
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
    spec: _RegionSpec
    population: int
    messages: list[MessageRecord]
    window_count: int
    latent_rate: float
    damage_usd: float


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
    n_users = max(1, int(population * config.user_fraction))
    retweet_p = config.retweet.probability(spec.distance_km)
    burst_rate = config.media_burst * float(rng.exponential(1.0))

    window_lo, window_hi = config.damage.window_bins
    # MessageRecord fields after message_id, which follows the canonical sort
    drawn: list[tuple[str, datetime, tuple[float, float], frozenset[str], bool, int, float]] = []
    window_count = 0
    latent_rate = 0.0
    for day in config.day_bins():
        day_start = config.landfall + timedelta(days=day)
        for keyword, profile in config.keywords:
            proximity = max(0.0, 1.0 - spec.distance_km / profile.decay_cutoff_km)
            rate = _per_person_rate(config, profile, proximity, day, burst_rate)
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
            rebroadcasts = rng.poisson(config.popularity_rate * max(proximity, 0.02), size=count)
            sentiments = np.clip(
                rng.normal(
                    config.sentiment_base - config.sentiment_slope * proximity,
                    config.sentiment_noise,
                    size=count,
                ),
                -1.0,
                1.0,
            )
            if window_lo <= day < window_hi:
                window_count += count
            tags = frozenset({keyword})
            for j in range(count):
                is_retweet = bool(retweet_flags[j])
                drawn.append(
                    (
                        f"{spec.region_id}-u{int(user_idx[j]):05d}",
                        day_start + timedelta(seconds=int(seconds[j])),
                        (float(lats[j]), float(lons[j])),
                        tags,
                        is_retweet,
                        0 if is_retweet else int(rebroadcasts[j]),
                        float(sentiments[j]),
                    )
                )

    noise = math.exp(config.damage.noise_sigma * float(rng.standard_normal()))
    damage_usd = config.damage.coupling * window_count * noise

    drawn.sort(key=lambda fields: fields[1])  # stable, so equal timestamps keep draw order
    messages = [MessageRecord(f"{spec.region_id}-m{i:06d}", *fields) for i, fields in enumerate(drawn)]
    return _RegionDraw(
        spec=spec,
        population=population,
        messages=messages,
        window_count=window_count,
        latent_rate=latent_rate,
        damage_usd=damage_usd,
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
    """Write the full synthetic bundle into ``out_dir`` and return its paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    track_points = [GeoPoint(lat=lat, lon=lon) for lat, lon in config.track]
    specs = _region_grid(config, track_points)
    seeds = np.random.SeedSequence(config.seed).spawn(len(specs))

    draws = [_simulate_region(config, spec, seq) for spec, seq in zip(specs, seeds)]

    messages_csv = out / "messages.csv"
    all_messages = [m for draw in draws for m in draw.messages]
    write_messages_csv(all_messages, messages_csv)

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
    half = len(config.track) // 2
    with open(track_csv, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["timestamp", "lat", "lon"])
        for i, (lat, lon) in enumerate(config.track):
            stamp = config.landfall + timedelta(hours=6 * (i - half))
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
        n_messages=len(all_messages),
        n_regions=len(draws),
    )
