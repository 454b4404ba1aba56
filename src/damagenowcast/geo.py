"""Spherical geometry and the point-to-region spatial join.

Distances are great-circle kilometres on a sphere of radius 6371.0088 km.
Containment is planar even-odd ray casting in the lon/lat plane, with parity
taken over all rings of a region, which is accurate for small mid-latitude
polygons; polygons spanning the poles or the antimeridian are out of scope.
A point within ``_ON_EDGE_EPS`` degrees of an edge is on the boundary and
counts as inside.

The join is batched numpy work with no Python loop per point:

- ``SpatialIndex`` flattens every ring of every region into one edge table
  (float64 ``ax, ay, bx, by`` plus each edge's region, regions numbered in
  region_id order) and registers each region in every cell of a uniform
  lon/lat grid that its bbox, widened by the boundary tolerance, overlaps.
  The widening keeps points in the tolerance band across a cell line, so the
  result does not depend on the cell size.
- ``spatial_join`` groups the points by cell, pairs each point with the
  cell's regions whose widened bbox holds it, and runs one even-odd kernel
  over (pair, edge) rows in fixed-size batches, visiting only the edges whose
  y-extent reaches the point. A point goes to the smallest region_id that
  contains it.
- ``point_in_region`` runs the same kernel for one point and one region.

``region_centroid`` is the planar area-weighted centroid of a region's outer
rings minus its holes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

from .ingest import RegionBoundary

__all__ = [
    "EARTH_RADIUS_KM",
    "GeoPoint",
    "SpatialIndex",
    "haversine_km",
    "point_to_track_km",
    "point_in_region",
    "region_centroid",
    "spatial_join",
]

EARTH_RADIUS_KM = 6371.0088

_ON_EDGE_EPS = 1e-9  # degrees of perpendicular offset still counted as "on the boundary"
_BATCH_ROWS = 1 << 12  # (point, edge) or (point, region) rows tested per batch; bounds the temporaries


class _HasLatLon(Protocol):
    lat: float
    lon: float


@dataclass(frozen=True)
class GeoPoint:
    lat: float
    lon: float


def _central_angle(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle central angle in radians (haversine form, stable for small angles)."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * math.asin(min(1.0, math.sqrt(h)))


def haversine_km(a: _HasLatLon, b: _HasLatLon) -> float:
    """Great-circle distance between two points, in kilometres."""
    return EARTH_RADIUS_KM * _central_angle(a.lat, a.lon, b.lat, b.lon)


def _initial_bearing(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dlam = math.radians(lon2 - lon1)
    y = math.sin(dlam) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlam)
    return math.atan2(y, x)


def _segment_distance_rad(p: _HasLatLon, a: _HasLatLon, b: _HasLatLon) -> float:
    """Angular distance from p to the great-circle arc a-b, clamped to the endpoints.

    When the perpendicular foot lies outside the arc, the minimum over the arc
    is attained at an endpoint; both endpoints are considered because for
    distant points the circularly nearer endpoint is not the one the local
    bearing test suggests.
    """
    d13 = _central_angle(a.lat, a.lon, p.lat, p.lon)
    if d13 == 0.0:
        return 0.0
    d23 = _central_angle(b.lat, b.lon, p.lat, p.lon)
    endpoint_min = min(d13, d23)
    d12 = _central_angle(a.lat, a.lon, b.lat, b.lon)
    if d12 == 0.0:
        return endpoint_min
    theta12 = _initial_bearing(a.lat, a.lon, b.lat, b.lon)
    theta13 = _initial_bearing(a.lat, a.lon, p.lat, p.lon)
    relative = theta13 - theta12
    if math.cos(relative) < 0.0:
        # Foot falls behind the first endpoint.
        return endpoint_min
    sin_xt = math.sin(d13) * math.sin(relative)
    sin_xt = max(-1.0, min(1.0, sin_xt))
    dxt = math.asin(sin_xt)
    cos_xt = math.cos(dxt)
    if cos_xt == 0.0:
        return min(abs(dxt), endpoint_min)
    cos_at = max(-1.0, min(1.0, math.cos(d13) / cos_xt))
    dat = math.acos(cos_at)
    if dat > d12:
        # Foot falls beyond the second endpoint.
        return endpoint_min
    return abs(dxt)


def point_to_track_km(p: _HasLatLon, track: Sequence[_HasLatLon]) -> float:
    """Shortest great-circle distance from a point to a track polyline, in km.

    A single-point track degrades to plain point distance; an empty track is
    an error.
    """
    if not track:
        raise ValueError("track must contain at least one point")
    if len(track) == 1:
        return haversine_km(p, track[0])
    best = min(_segment_distance_rad(p, a, b) for a, b in zip(track, track[1:]))
    return EARTH_RADIUS_KM * best


def _hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    # math.hypot, not np.hypot: the two may round differently in the last bit,
    # which would move points that sit right at the tolerance
    return np.array(list(map(math.hypot, dx.tolist(), dy.tolist())), dtype=float)


def _runs(
    group: np.ndarray, value: np.ndarray, query_group: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort items by (group, value) and find, for each query, its items in a value range.

    Query ``q`` holds the items ``order[start[q]:start[q] + count[q]]``: those
    of group ``query_group[q]`` with ``lo[q] <= value <= hi[q]``. A value is
    keyed by its rank among all values, so one int64 key orders the items.
    """
    ranked = np.sort(value)
    scale = len(value) + 1
    key = group * scale + np.searchsorted(ranked, value)
    order = np.argsort(key, kind="stable")
    key = key[order]
    base = query_group * scale
    start = np.searchsorted(key, base + np.searchsorted(ranked, lo, side="left"))
    stop = np.searchsorted(key, base + np.searchsorted(ranked, hi, side="right"))
    return order, start, stop - start


def _batches(count: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Walk runs of ``count`` rows laid end to end, ``_BATCH_ROWS`` rows at a time.

    Yields, per row of the batch, its run and its offset within that run.
    """
    end = np.cumsum(count)
    total = int(end[-1]) if len(end) else 0
    for first in range(0, total, _BATCH_ROWS):
        row = np.arange(first, min(first + _BATCH_ROWS, total))
        run = np.searchsorted(end, row, side="right")
        yield run, row - (end[run] - count[run])


class _EdgeTable:
    """Every edge of every ring of a sequence of regions, as flat float64 arrays.

    Region ``k`` owns the edges where ``region == k``, in ring order. Region
    bboxes and edge extents are stored widened by ``_ON_EDGE_EPS``, the band
    within which a point still counts as on the boundary.
    """

    def __init__(self, regions: Sequence[RegionBoundary]):
        self.region_ids = [r.region_id for r in regions]
        bbox = np.array([r.bbox for r in regions], dtype=float).reshape(-1, 4)
        self.x0, self.y0 = bbox[:, 0] - _ON_EDGE_EPS, bbox[:, 1] - _ON_EDGE_EPS
        self.x1, self.y1 = bbox[:, 2] + _ON_EDGE_EPS, bbox[:, 3] + _ON_EDGE_EPS

        rings = [ring for r in regions for ring in r.rings]
        vertices = np.array([v for ring in rings for v in ring], dtype=float).reshape(-1, 2)
        opens_edge = np.ones(len(vertices), dtype=bool)
        opens_edge[np.cumsum([len(ring) for ring in rings], dtype=np.intp) - 1] = False
        a = np.flatnonzero(opens_edge)
        self.ax, self.ay = vertices[a, 0], vertices[a, 1]
        self.bx, self.by = vertices[a + 1, 0], vertices[a + 1, 1]
        self.region = np.repeat(
            np.arange(len(regions)), [sum(len(ring) - 1 for ring in r.rings) for r in regions]
        )
        self.dx, self.dy = self.bx - self.ax, self.by - self.ay
        self.norm = _hypot(self.dx, self.dy)
        self.ex0 = np.minimum(self.ax, self.bx) - _ON_EDGE_EPS
        self.ex1 = np.maximum(self.ax, self.bx) + _ON_EDGE_EPS
        self.ey0 = np.minimum(self.ay, self.by) - _ON_EDGE_EPS
        self.ey1 = np.maximum(self.ay, self.by) + _ON_EDGE_EPS

    def in_bbox(self, x: np.ndarray, y: np.ndarray, region: np.ndarray) -> np.ndarray:
        """Whether point ``(x[i], y[i])`` lies in the widened bbox of ``region[i]``."""
        return (
            (self.x0[region] <= x) & (x <= self.x1[region]) & (self.y0[region] <= y) & (y <= self.y1[region])
        )

    def contains(self, x: np.ndarray, y: np.ndarray, region: np.ndarray) -> np.ndarray:
        """Even-odd containment of point ``(x[i], y[i])`` in ``region[i]``.

        A point within ``_ON_EDGE_EPS`` of an edge is inside. Only an edge
        whose widened y-extent holds the point's y can cross its rightward
        ray or pass that close, so each point meets just those edges, in
        batches of ``_BATCH_ROWS`` (point, edge) rows.
        """
        on_edge = np.zeros(len(x), dtype=bool)
        crossings = np.zeros(len(x), dtype=np.intp)
        order, start, count = _runs(region, y, self.region, self.ey0, self.ey1)
        for e, k in _batches(count):
            i = order[start[e] + k]
            px, py = x[i], y[i]
            ax, ay, dx, dy = self.ax[e], self.ay[e], self.dx[e], self.dy[e]
            near = (self.ex0[e] <= px) & (px <= self.ex1[e])
            with np.errstate(divide="ignore", invalid="ignore"):
                # a zero-length edge gives 0/0 here and is measured as a vertex below
                on = near & (np.abs(dx * (py - ay) - dy * (px - ax)) / self.norm[e] <= _ON_EDGE_EPS)
                crossing = ((ay > py) != (self.by[e] > py)) & (px < ax + (py - ay) * dx / dy)
            vertex = np.flatnonzero(near & (self.norm[e] == 0.0))
            on[vertex] = _hypot(px[vertex] - ax[vertex], py[vertex] - ay[vertex]) <= _ON_EDGE_EPS
            on_edge[i[on]] = True
            np.add.at(crossings, i[crossing], 1)
        return on_edge | (crossings % 2 == 1)


def region_centroid(region: RegionBoundary) -> GeoPoint:
    """Area-weighted centroid of the outer rings minus the holes, in the lon/lat
    plane; ring orientation does not matter. A region with no positive area
    falls back to its bbox midpoint."""
    min_lon, min_lat, max_lon, max_lat = region.bbox
    area = moment_x = moment_y = 0.0
    for k, ring in enumerate(region.rings):
        twice_area = ring_x = ring_y = 0.0
        for (ax, ay), (bx, by) in zip(ring, ring[1:] + ring[:1]):
            # relative to the bbox corner, so the cross products do not cancel
            ax, ay, bx, by = ax - min_lon, ay - min_lat, bx - min_lon, by - min_lat
            cross = ax * by - bx * ay
            twice_area += cross
            ring_x += (ax + bx) * cross
            ring_y += (ay + by) * cross
        sign = math.copysign(1.0, twice_area) * (-1.0 if k in region.holes else 1.0)
        area += sign * twice_area / 2.0
        moment_x += sign * ring_x / 6.0
        moment_y += sign * ring_y / 6.0
    if not area > 0.0:
        return GeoPoint(lat=(min_lat + max_lat) / 2.0, lon=(min_lon + max_lon) / 2.0)
    return GeoPoint(lat=min_lat + moment_y / area, lon=min_lon + moment_x / area)


def point_in_region(p: _HasLatLon, region: RegionBoundary) -> bool:
    """Even-odd containment over all rings; boundary points count as inside."""
    edges = _EdgeTable([region])
    x, y, only = np.array([p.lon]), np.array([p.lat]), np.zeros(1, dtype=np.intp)
    return bool(edges.in_bbox(x, y, only)[0] and edges.contains(x, y, only)[0])


class SpatialIndex:
    """Edge table and uniform lon/lat grid over a set of regions.

    Regions sharing a region_id keep the last one given. Each region is
    registered in every grid cell its bbox, widened by the boundary
    tolerance, overlaps, so ``candidates`` is always a superset of the
    regions truly containing a point. Immutable once built.
    """

    def __init__(self, regions: Iterable[RegionBoundary], cell_deg: float = 0.25):
        if cell_deg <= 0:
            raise ValueError("cell_deg must be positive")
        self.cell_deg = cell_deg
        by_id = {r.region_id: r for r in regions}
        edges = self._edges = _EdgeTable([by_id[region_id] for region_id in sorted(by_id)])
        self.region_ids: list[str] = edges.region_ids
        cells: dict[tuple[int, int], list[int]] = {}
        for k, (min_lon, min_lat, max_lon, max_lat) in enumerate(
            zip(edges.x0.tolist(), edges.y0.tolist(), edges.x1.tolist(), edges.y1.tolist())
        ):
            for ix in range(math.floor(min_lon / cell_deg), math.floor(max_lon / cell_deg) + 1):
                for iy in range(math.floor(min_lat / cell_deg), math.floor(max_lat / cell_deg) + 1):
                    cells.setdefault((ix, iy), []).append(k)
        self._cells = cells

    def candidates(self, p: _HasLatLon) -> tuple[str, ...]:
        """Region ids whose bbox cell covers the point, sorted; possibly empty."""
        key = (math.floor(p.lon / self.cell_deg), math.floor(p.lat / self.cell_deg))
        return tuple(self.region_ids[k] for k in self._cells.get(key, ()))

    def _assign(self, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
        """Position in ``region_ids`` of the first region containing each point, or -1."""
        edges = self._edges
        # group the points by grid cell: one id per occupied cell
        cell_x = np.floor(lon / self.cell_deg).astype(np.int64)
        cell_y = np.floor(lat / self.cell_deg).astype(np.int64)
        by_cell = np.lexsort((cell_y, cell_x))
        cell_x, cell_y = cell_x[by_cell], cell_y[by_cell]
        opens = np.ones(len(lon), dtype=bool)
        opens[1:] = (cell_x[1:] != cell_x[:-1]) | (cell_y[1:] != cell_y[:-1])
        cell = np.empty(len(lon), dtype=np.int64)
        cell[by_cell] = np.cumsum(opens) - 1
        # one query per (occupied cell, region registered there)
        query_cell: list[int] = []
        query_region: list[int] = []
        for c, key in enumerate(zip(cell_x[opens].tolist(), cell_y[opens].tolist())):
            registered = self._cells.get(key, ())
            query_cell.extend([c] * len(registered))
            query_region.extend(registered)
        registered = np.array(query_region, dtype=np.intp)

        # candidate pairs: the cell's points within the region's widened bbox
        order, start, count = _runs(
            cell, lon, np.array(query_cell, dtype=np.int64), edges.x0[registered], edges.x1[registered]
        )
        pair_point, pair_region = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
        for q, k in _batches(count):
            i, r = order[start[q] + k], registered[q]
            keep = edges.in_bbox(lon[i], lat[i], r)
            pair_point.append(i[keep])
            pair_region.append(r[keep])
        point, region = np.concatenate(pair_point), np.concatenate(pair_region)

        inside = edges.contains(lon[point], lat[point], region)
        # regions are numbered in region_id order, so the smallest number wins
        first = np.full(len(lon), len(self.region_ids), dtype=np.intp)
        np.minimum.at(first, point[inside], region[inside])
        first[first == len(self.region_ids)] = -1
        return first


def spatial_join(
    points: Iterable[tuple[str, _HasLatLon]],
    regions: Sequence[RegionBoundary],
    index: SpatialIndex | None = None,
) -> dict[str, str | None]:
    """Assign each point to the region containing it (None when uncontained).

    Overlapping boundaries are tie-broken to the lexicographically smallest
    region_id, so the result is independent of point order, region order, and
    index cell size. A given ``index`` must have been built over ``regions``.
    """
    if index is None:
        index = SpatialIndex(regions)
    elif sorted({r.region_id for r in regions}) != index.region_ids:
        raise ValueError("spatial_join: index was built over other regions")
    points = list(points)
    lat = np.array([p.lat for _, p in points], dtype=float)
    lon = np.array([p.lon for _, p in points], dtype=float)
    if not (np.isfinite(lat).all() and np.isfinite(lon).all()):
        raise ValueError("spatial_join: point coordinates must be finite")
    # position -1 picks the trailing None: contained by no region
    names = np.array(index.region_ids + [None], dtype=object)
    assigned = names[index._assign(lon, lat)].tolist()
    return dict(zip((point_id for point_id, _ in points), assigned))
