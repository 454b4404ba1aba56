"""Seeded input generator for the pipeline benchmark.

Writes one workload's input bundle (messages.csv, regions.geojson,
population.csv, damage.csv, track.csv) plus ``truth.npz``, the ground truth
the checks in ``oracle.py`` compute from: the region each message was placed
in (-1 outside every region, -2 unlocated), its user, time, tags, retweet flag
and sentiment, and each region's population and damage exactly as written.

The generator never imports the program. Every located point is verified
here, with the benchmark's own even-odd test, to lie inside the region it was
placed in (or in none) and at least ``CLEARANCE_DEG`` from every edge, so the
join has a single right answer.

    python3 perfbench/gen.py --workload dense_city --seed 1 --out perfbench/out/x
"""

from __future__ import annotations

import argparse
import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import (
    DAY_S,
    DECAY_TAG,
    FIRST_DAY,
    FLAT_TAG,
    LANDFALL_S,
    LAST_DAY,
    POOL,
    TRACK,
    VOCABULARY,
    WORKLOADS,
    Shape,
)

CLEARANCE_DEG = 1e-6
SLOT_S = 6 * 3600  # messages are structured into 6 h slots
WINDOW_DAYS = (1, 13)  # the CLI's default correlate/nowcast window, inclusive days after landfall
DAMAGE_SOURCE = "insurance"
REGULAR_TAGS = tuple(t for t in VOCABULARY if t not in (DECAY_TAG, FLAT_TAG))
TAG_BIT = {t: 1 << i for i, t in enumerate(VOCABULARY)}
POOL_MASK = sum(TAG_BIT[t] for t in POOL)


def _tag_weights() -> np.ndarray:
    weights = np.array([1.0 / (1 + i) for i in range(len(REGULAR_TAGS))])
    for tag in POOL:
        weights[REGULAR_TAGS.index(tag)] *= 3.0
    return weights / weights.sum()


def _profiles(n: int, per_unit: tuple[int, int], srng: np.random.Generator) -> dict:
    """Fixed activity structure: ``n`` units, each with its own message list."""
    counts = srng.integers(per_unit[0], per_unit[1] + 1, size=n)
    total = int(counts.sum())
    unit = np.repeat(np.arange(n), counts)
    days = np.arange(FIRST_DAY, LAST_DAY + 1)
    day_w = 0.3 + 2.0 * np.exp(-np.abs(days) / 3.0)
    day = srng.choice(days, size=total, p=day_w / day_w.sum())
    slot = srng.integers(0, DAY_S // SLOT_S, size=total)
    # 1-3 distinct tags per message: Gumbel top-k over weighted tags
    keys = np.log(_tag_weights())[None, :] + srng.gumbel(size=(total, len(REGULAR_TAGS)))
    order = np.argsort(-keys, axis=1)
    n_tags = srng.choice([1, 2, 3], size=total, p=[0.6, 0.3, 0.1])
    bits = np.array([TAG_BIT[t] for t in REGULAR_TAGS])
    tags = np.zeros(total, dtype=np.int64)
    for j in range(3):
        tags |= np.where(n_tags > j, bits[order[:, j]], 0)
    users_in_unit = np.maximum(1, counts // 3)
    user = (srng.random(total) * users_in_unit[unit]).astype(np.int64)
    return {
        "unit": unit,
        "day": day,
        "slot": slot,
        "tags": tags,
        "retweet": srng.random(total) < 0.3,
        "has_sentiment": srng.random(total) < 0.95,
        "user": user,
    }


def _track_km(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Planar (equirectangular) distance to the track polyline; only its order matters."""
    k = 111.2
    lat0 = math.radians(40.0)
    px, py = lon * k * math.cos(lat0), lat * k
    best = np.full(len(lat), np.inf)
    for (alat, alon), (blat, blon) in zip(TRACK, TRACK[1:]):
        ax, ay = alon * k * math.cos(lat0), alat * k
        bx, by = blon * k * math.cos(lat0), blat * k
        dx, dy = bx - ax, by - ay
        t = np.clip(((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
        best = np.minimum(best, np.hypot(px - (ax + t * dx), py - (ay + t * dy)))
    return best


def _ring(cx, cy, rx, ry, angles, radii) -> np.ndarray:
    pts = np.column_stack([cx + rx * radii * np.cos(angles), cy + ry * radii * np.sin(angles)])
    pts = np.round(pts, 7)
    return np.vstack([pts, pts[:1]])


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]


def _sample_in_ring(cx, cy, rx, ry, angles, radii, n, rng) -> np.ndarray:
    """Points strictly inside a ring that is star-shaped about (cx, cy)."""
    if n == 0:
        return np.empty((0, 2))
    a = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    b = np.roll(a, -1, axis=0)
    phi = rng.uniform(angles[0], angles[0] + 2 * math.pi, size=n)
    k = (np.searchsorted(angles, phi, side="right") - 1) % len(angles)
    k = np.where(phi >= angles[0] + 2 * math.pi, len(angles) - 1, k)
    d = np.column_stack([np.cos(phi), np.sin(phi)])
    e = b[k] - a[k]
    boundary = _cross(a[k], e) / _cross(d, e)  # where the ray at phi leaves the ring
    rho = boundary * 0.9 * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    return np.column_stack([cx + rx * rho * d[:, 0], cy + ry * rho * d[:, 1]])


def _inside_and_clearance(points: np.ndarray, rings: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Even-odd containment over all rings, and distance to the nearest edge."""
    x, y = points[:, 0:1], points[:, 1:2]
    inside = np.zeros(len(points), dtype=bool)
    clearance = np.full(len(points), np.inf)
    for ring in rings:
        ax, ay = ring[:-1, 0][None, :], ring[:-1, 1][None, :]
        bx, by = ring[1:, 0][None, :], ring[1:, 1][None, :]
        straddle = (ay > y) != (by > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = ax + (y - ay) * (bx - ax) / (by - ay)
        inside ^= (np.sum(straddle & (x < x_cross), axis=1) % 2).astype(bool)
        dx, dy = bx - ax, by - ay
        t = np.clip(((x - ax) * dx + (y - ay) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
        dist = np.hypot(x - (ax + t * dx), y - (ay + t * dy)).min(axis=1)
        clearance = np.minimum(clearance, dist)
    return inside, clearance


def generate(shape: Shape, seed: int, out_dir: Path) -> None:
    srng = np.random.default_rng(shape.structure_seed)
    rng = np.random.default_rng([shape.structure_seed, seed])
    n_regions = shape.n_regions
    min_lon, min_lat, max_lon, max_lat = shape.extent
    cw = (max_lon - min_lon) / shape.cols
    ch = (max_lat - min_lat) / shape.rows
    region_ids = [f"{shape.region_prefix}{i:05d}" for i in range(n_regions)]
    col = np.arange(n_regions) % shape.cols
    row = np.arange(n_regions) // shape.cols
    cx = min_lon + (col + 0.5) * cw
    cy = min_lat + (row + 0.5) * ch

    # --- structure (fixed per workload), then seeded assignment to regions
    regular = _profiles(n_regions, shape.messages, srng)
    strays = _profiles(1, (shape.unlocated + shape.outside,) * 2, srng)
    no_pop_profile = np.zeros(n_regions, dtype=bool)
    no_pop_profile[srng.choice(n_regions, shape.no_population, replace=False)] = True
    zero_damage_profile = np.zeros(n_regions, dtype=bool)
    zero_damage_profile[srng.choice(n_regions, shape.zero_damage, replace=False)] = True
    profile_of = rng.permutation(n_regions)  # region r gets profile profile_of[r]
    region_of_profile = np.argsort(profile_of)

    # --- region geometry
    rings_of: list[list[np.ndarray]] = []
    shapes_of: list[list[tuple]] = []  # (cx, cy, rx, ry, angles, radii) per sampled ring
    n = shape.vertices
    step = 2 * math.pi / n
    for r in range(n_regions):
        angles = step * np.arange(n) + rng.uniform(-0.2, 0.2, size=n) * step
        if shape.star:
            radii = np.where(np.arange(n) % 2 == 0, 1.0, 0.5) * rng.uniform(0.9, 1.1, size=n)
            rx, ry = 0.3 * cw, 0.3 * ch
        else:
            radii = rng.uniform(0.85, 1.0, size=n)
            rx, ry = 0.42 * cw, 0.42 * ch
        parts = [(cx[r], cy[r], rx, ry, angles, radii)]
        if shape.island_every and r % shape.island_every == 0:
            for sign in (1.0, -1.0):  # hexagonal islands in opposite corners of the cell
                parts.append(
                    (cx[r] + sign * 0.38 * cw, cy[r] + sign * 0.38 * ch, 0.07 * cw, 0.07 * ch,
                     (math.pi / 3) * np.arange(6), np.ones(6))
                )
        shapes_of.append(parts)
        rings_of.append([_ring(*p) for p in parts])

    # --- regular messages, placed in the region that holds their profile
    msg_region = region_of_profile[regular["unit"]]
    m_total = len(msg_region)
    points = np.empty((m_total, 2))
    for r in range(n_regions):
        idx = np.flatnonzero(msg_region == r)
        parts = shapes_of[r]
        part = rng.integers(0, len(parts), size=len(idx)) if len(parts) > 1 else np.zeros(len(idx), int)
        part = np.where(rng.random(len(idx)) < 0.6, 0, part)  # most messages on the main ring
        for p, spec in enumerate(parts):
            sel = idx[part == p]
            points[sel] = _sample_in_ring(*spec, len(sel), rng)
    users = [f"{region_ids[r]}-u{u:04d}" for r, u in zip(msg_region, regular["user"])]

    # --- planted tags: messages per user fall with distance (decay) or are random (flat)
    dist = _track_km(cy, cx)
    near = (dist - dist.min()) / (dist.max() - dist.min())
    m = shape.plant_messages
    decay_users = np.minimum(m, 1 + np.floor(near * m).astype(int))
    flat_users = rng.integers(1, m + 1, size=n_regions)
    plant_region = np.repeat(np.arange(n_regions), 2 * m)
    plant_tag = np.tile(np.repeat([TAG_BIT[DECAY_TAG], TAG_BIT[FLAT_TAG]], m), n_regions)
    plant_users = []
    for r in range(n_regions):
        plant_users += [f"{region_ids[r]}-pd{i % decay_users[r]}" for i in range(m)]
        plant_users += [f"{region_ids[r]}-pf{i % flat_users[r]}" for i in range(m)]
    plant_points = np.vstack([_sample_in_ring(*shapes_of[r][0], 2 * m, rng) for r in range(n_regions)])
    plant_time = LANDFALL_S + rng.integers(FIRST_DAY * DAY_S, (LAST_DAY + 1) * DAY_S, size=len(plant_region))

    # --- strays: unlocated, and located in gaps between regions
    stray_region = np.where(np.arange(len(strays["unit"])) < shape.unlocated, -2, -1)
    host = rng.integers(0, n_regions, size=shape.outside)
    stray_points = np.full((len(stray_region), 2), np.nan)
    if shape.star:  # beyond an inner vertex of the host's star, where the ring folds in
        k = 2 * rng.integers(0, n // 2, size=shape.outside) + 1
        for j, (r, v) in enumerate(zip(host, k)):
            x0, y0, rx, ry, angles, radii = shapes_of[r][0]
            rho = 1.35 * radii[v]
            stray_points[shape.unlocated + j] = (x0 + rx * rho * math.cos(angles[v]), y0 + ry * rho * math.sin(angles[v]))
    else:  # near the corner shared by four cells
        jitter = rng.uniform(-0.03, 0.03, size=(shape.outside, 2))
        stray_points[shape.unlocated:, 0] = cx[host] + (0.5 + jitter[:, 0]) * cw
        stray_points[shape.unlocated:, 1] = cy[host] + (0.5 + jitter[:, 1]) * ch
    stray_users = [f"x-u{u:04d}" for u in strays["user"]]

    # --- combine, verify placement, order by time
    region = np.concatenate([msg_region, plant_region, stray_region]).astype(np.int32)
    xy = np.round(np.vstack([points, plant_points, stray_points]), 7)
    day = np.concatenate([regular["day"], np.zeros(len(plant_region), int), strays["day"]])
    slot = np.concatenate([regular["slot"], np.zeros(len(plant_region), int), strays["slot"]])
    seconds = LANDFALL_S + day * DAY_S + slot * SLOT_S + rng.integers(0, SLOT_S, size=len(day))
    seconds[m_total:m_total + len(plant_region)] = plant_time
    tags = np.concatenate([regular["tags"], plant_tag, strays["tags"]])
    retweet = np.concatenate([regular["retweet"], np.zeros(len(plant_region), bool), strays["retweet"]])
    has_sent = np.concatenate([regular["has_sentiment"], np.ones(len(plant_region), bool), strays["has_sentiment"]])
    sentiment = np.clip(np.round(rng.normal(-0.1, 0.35, size=len(region)) * 64), -64, 64) / 64.0
    sentiment[~has_sent] = np.nan
    popular = rng.integers(0, 4, size=len(region)) * ~retweet
    all_users = users + plant_users + stray_users
    _verify_placement(shape, region, xy, rings_of, cw, ch)

    order = np.lexsort((np.arange(len(region)), seconds))
    region, xy, seconds, tags = region[order], xy[order], seconds[order], tags[order]
    retweet, sentiment, popular = retweet[order], sentiment[order], popular[order]
    user_names = [all_users[i] for i in order]
    _, user_code = np.unique(np.array(user_names), return_inverse=True)

    # --- per-region tables
    population = rng.integers(2000, 30000, size=n_regions)
    population[no_pop_profile[profile_of]] = 0
    in_window = (seconds >= LANDFALL_S + WINDOW_DAYS[0] * DAY_S) & (seconds < LANDFALL_S + (WINDOW_DAYS[1] + 1) * DAY_S)
    pooled = (region >= 0) & ((tags & POOL_MASK) != 0) & in_window
    window_count = np.bincount(region[pooled], minlength=n_regions)
    noise = np.exp(0.6 * rng.standard_normal(n_regions))
    damage_text = [f"{1000.0 * c * z:.2f}" for c, z in zip(window_count, noise)]
    for r in np.flatnonzero(zero_damage_profile[profile_of]):
        damage_text[r] = "0.00"

    bundle = out_dir / "bundle"
    bundle.mkdir(parents=True, exist_ok=True)
    _write_messages(bundle / "messages.csv", region, xy, seconds, tags, retweet, sentiment, popular, user_names)
    collection = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {"region_id": rid, "name": f"area {rid}", "level": shape.level},
                "geometry": (
                    {"type": "Polygon", "coordinates": [rings[0].tolist()]}
                    if len(rings) == 1
                    else {"type": "MultiPolygon", "coordinates": [[ring.tolist()] for ring in rings]}
                ),
            }
            for rid, rings in zip(region_ids, rings_of)
        ],
    }
    (bundle / "regions.geojson").write_text(json.dumps(collection, separators=(",", ":")) + "\n", encoding="utf-8")
    _write_csv(bundle / "population.csv", ["region_id", "population"],
               [[rid, int(p)] for rid, p in zip(region_ids, population) if p > 0])
    _write_csv(bundle / "damage.csv", ["region_id", "amount_usd", "source"],
               [[rid, text, DAMAGE_SOURCE] for rid, text in zip(region_ids, damage_text)])
    track_rows = []
    for i, (lat, lon) in enumerate(TRACK):
        stamp = np.datetime64(LANDFALL_S + 6 * 3600 * (i - len(TRACK) // 2), "s")
        track_rows.append([f"{stamp}Z", repr(lat), repr(lon)])
    _write_csv(bundle / "track.csv", ["timestamp", "lat", "lon"], track_rows)

    np.savez(
        out_dir / "truth.npz",
        region_ids=np.array(region_ids),
        population=population,
        damage=np.array([float(t) for t in damage_text]),
        msg_region=region,
        msg_user=user_code.astype(np.int64),
        msg_time=seconds.astype(np.int64),
        msg_tags=tags.astype(np.int64),
        msg_retweet=retweet,
        msg_sentiment=sentiment,
    )


def _verify_placement(shape, region, xy, rings_of, cw, ch) -> None:
    """Every region lies inside its own grid cell, so only that cell's rings can hold a point."""
    min_lon, min_lat = shape.extent[0], shape.extent[1]
    located = np.flatnonzero(region != -2)
    cell_col = np.floor((xy[located, 0] - min_lon) / cw).astype(int)
    cell_row = np.floor((xy[located, 1] - min_lat) / ch).astype(int)
    on_grid = (cell_col >= 0) & (cell_col < shape.cols) & (cell_row >= 0) & (cell_row < shape.rows)
    cell = np.where(on_grid, cell_row * shape.cols + cell_col, -1)
    if np.any(region[located][~on_grid] >= 0):
        raise AssertionError("a placed point fell off the grid")
    for r in np.unique(cell[cell >= 0]):
        idx = located[cell == r]
        inside, clearance = _inside_and_clearance(xy[idx], rings_of[r])
        if not np.array_equal(inside, region[idx] == r):
            raise AssertionError(f"placement disagrees with containment in region {r}")
        if clearance.min() < CLEARANCE_DEG:
            raise AssertionError(f"point within {CLEARANCE_DEG} deg of an edge in region {r}")


def _write_messages(path, region, xy, seconds, tags, retweet, sentiment, popular, users) -> None:
    stamps = np.datetime_as_string(seconds.astype("datetime64[s]"), unit="s")
    tag_text = {}
    rows = []
    for i in range(len(region)):
        mask = int(tags[i])
        if mask not in tag_text:
            tag_text[mask] = ";".join(sorted(t for t in VOCABULARY if mask & TAG_BIT[t]))
        lat = lon = ""
        if region[i] != -2:
            lat, lon = repr(float(xy[i, 1])), repr(float(xy[i, 0]))
        sent = "" if math.isnan(sentiment[i]) else repr(float(sentiment[i]))
        rows.append([f"m{i:07d}", users[i], f"{stamps[i]}Z", lat, lon, tag_text[mask],
                     "1" if retweet[i] else "0", str(int(popular[i])), sent])
    _write_csv(path, ["message_id", "user_id", "timestamp", "lat", "lon", "keywords",
                      "is_retweet", "retweeted_count", "sentiment"], rows)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(WORKLOADS[args.workload], args.seed, Path(args.out))


if __name__ == "__main__":
    main()
