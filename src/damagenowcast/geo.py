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
  result does not depend on the cell size. The registrations are sorted
  arrays: one key per (cell, region) entry plus each cell's offsets.
- ``spatial_join`` groups the points by cell, pairs each point with the
  cell's regions whose widened bbox holds it, and runs one even-odd kernel
  over (pair, edge) rows in fixed-size batches, visiting only the edges whose
  y-extent reaches the point. A point goes to the smallest region_id that
  contains it.

``region_centroid`` is the planar area-weighted centroid of a region's outer
rings minus its holes; ``region_centroids`` gives it for every region of a
table from the table's arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Protocol, Sequence

import numpy as np

from .ingest import MessageTable, RegionBoundary, RegionTable

__all__ = [
    "EARTH_RADIUS_KM",
    "GeoPoint",
    "JoinedRows",
    "SpatialIndex",
    "haversine_km",
    "point_to_track_km",
    "region_centroid",
    "region_centroids",
    "spatial_join",
]

EARTH_RADIUS_KM = 6371.0088

_ON_EDGE_EPS = 1e-9  # degrees of perpendicular offset still counted as "on the boundary"
_BATCH_ROWS = 1 << 12  # (point, edge) or (point, region) rows tested per batch; bounds the temporaries
_MAX_CELL_ENTRIES = 1 << 22  # (cell, region) registrations a SpatialIndex may hold
_POINT_BLOCK = 1 << 17  # points joined at once; bounds the per-point temporaries


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
    """Every edge of every ring of some regions of a table, as flat float64 arrays.

    The regions ``chosen`` are numbered in that order, and region ``k`` owns
    the edges where ``region == k``, in ring order. Region bboxes and edge
    extents are stored widened by ``_ON_EDGE_EPS``, the band within which a
    point still counts as on the boundary.
    """

    def __init__(self, regions: RegionTable, chosen: Sequence[int]):
        chosen = np.asarray(chosen, dtype=np.intp)
        self.region_ids = regions.region_id[chosen].tolist()
        bbox = regions.bbox[chosen]
        self.x0, self.y0 = bbox[:, 0] - _ON_EDGE_EPS, bbox[:, 1] - _ON_EDGE_EPS
        self.x1, self.y1 = bbox[:, 2] + _ON_EDGE_EPS, bbox[:, 3] + _ON_EDGE_EPS

        number = np.full(len(regions), -1, dtype=np.intp)
        number[chosen] = np.arange(len(chosen))
        ring_number = np.repeat(number, np.diff(regions.ring_offsets))
        vertex_number = np.repeat(ring_number, np.diff(regions.vertex_offsets))
        opens_edge = vertex_number >= 0
        opens_edge[regions.vertex_offsets[1:] - 1] = False
        a = np.flatnonzero(opens_edge)
        a = a[np.argsort(vertex_number[a], kind="stable")]
        vertices = regions.vertices
        self.ax, self.ay = vertices[a, 0], vertices[a, 1]
        self.bx, self.by = vertices[a + 1, 0], vertices[a + 1, 1]
        self.region = vertex_number[a]
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
    return _centroid(region.rings, region.holes, region.bbox)


def region_centroids(regions: RegionTable) -> Iterator[GeoPoint]:
    """:func:`region_centroid` of each region of a table, in table order, read from its arrays."""
    ring_offsets, vertex_offsets = regions.ring_offsets.tolist(), regions.vertex_offsets.tolist()
    hole = regions.hole.tolist()
    for first, last, bbox in zip(ring_offsets, ring_offsets[1:], regions.bbox.tolist()):
        rings = [regions.vertices[vertex_offsets[k] : vertex_offsets[k + 1]].tolist() for k in range(first, last)]
        yield _centroid(rings, {k - first for k in range(first, last) if hole[k]}, bbox)


def _centroid(rings: Sequence[Sequence[Sequence[float]]], holes: Container[int],
              bbox: Sequence[float]) -> GeoPoint:
    min_lon, min_lat, max_lon, max_lat = bbox
    area = moment_x = moment_y = 0.0
    for k, ring in enumerate(rings):
        twice_area = ring_x = ring_y = 0.0
        for (ax, ay), (bx, by) in zip(ring, ring[1:] + ring[:1]):
            # relative to the bbox corner, so the cross products do not cancel
            ax, ay, bx, by = ax - min_lon, ay - min_lat, bx - min_lon, by - min_lat
            cross = ax * by - bx * ay
            twice_area += cross
            ring_x += (ax + bx) * cross
            ring_y += (ay + by) * cross
        sign = math.copysign(1.0, twice_area) * (-1.0 if k in holes else 1.0)
        area += sign * twice_area / 2.0
        moment_x += sign * ring_x / 6.0
        moment_y += sign * ring_y / 6.0
    if not area > 0.0:
        return GeoPoint(lat=(min_lat + max_lat) / 2.0, lon=(min_lon + max_lon) / 2.0)
    return GeoPoint(lat=min_lat + moment_y / area, lon=min_lon + moment_x / area)


class SpatialIndex:
    """Edge table and uniform lon/lat grid over a set of regions.

    Regions sharing a region_id keep the last one given. Each region is
    registered in every grid cell its bbox, widened by the boundary
    tolerance, overlaps, so the regions registered in a point's cell are
    always a superset of those truly containing it. The registrations are
    compressed rows: the occupied cells' keys, sorted, and per cell a run of
    region numbers. A grid that would need more than ``_MAX_CELL_ENTRIES``
    registrations raises ValueError before anything is allocated.
    Immutable once built.
    """

    def __init__(self, regions: RegionTable | Iterable[RegionBoundary], cell_deg: float = 0.25):
        if cell_deg <= 0:
            raise ValueError("cell_deg must be positive")
        self.cell_deg = cell_deg
        if not isinstance(regions, RegionTable):
            regions = RegionTable.from_regions(regions)
        last = {region_id: k for k, region_id in enumerate(regions.region_id.tolist())}
        edges = self._edges = _EdgeTable(regions, [last[region_id] for region_id in sorted(last)])
        self.region_ids: list[str] = edges.region_ids
        first_x, last_x = np.floor(edges.x0 / cell_deg), np.floor(edges.x1 / cell_deg)
        first_y, last_y = np.floor(edges.y0 / cell_deg), np.floor(edges.y1 / cell_deg)
        with np.errstate(over="ignore", invalid="ignore"):
            entries = float(((last_x - first_x + 1) * (last_y - first_y + 1)).sum())
        if not entries <= _MAX_CELL_ENTRIES:  # also catches an overflow to inf or NaN
            raise ValueError(
                f"spatial index: cell size {cell_deg} deg would register {entries:.3g} (cell, region) "
                f"entries, more than {_MAX_CELL_ENTRIES}; use a larger cell size"
            )
        first_x, last_x, first_y, last_y = (a.astype(np.int64) for a in (first_x, last_x, first_y, last_y))
        # the key of cell (ix, iy) counts rows of the grid spanned by all bboxes
        self._x0 = int(first_x.min()) if len(first_x) else 0
        self._y0 = int(first_y.min()) if len(first_y) else 0
        self._height = int(last_y.max()) - self._y0 + 1 if len(last_y) else 1
        columns, heights = last_x - first_x + 1, last_y - first_y + 1
        count = columns * heights
        region = np.repeat(np.arange(len(count)), count)
        k = np.arange(len(region)) - np.repeat(np.cumsum(count) - count, count)
        key = self._key(first_x[region] + k // heights[region], first_y[region] + k % heights[region])
        order = np.argsort(key, kind="stable")  # keeps each cell's regions in region order
        self._cell_keys, starts = np.unique(key[order], return_index=True)
        self._cell_start = np.append(starts, len(key))
        self._cell_regions = region[order]

    def _key(self, cell_x: np.ndarray, cell_y: np.ndarray) -> np.ndarray:
        return (cell_x - self._x0) * self._height + (cell_y - self._y0)

    def _registered(self, cell_x: np.ndarray, cell_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (cell, region) registrations of the given cells, as query number and
        region number, in cell order and region order within a cell."""
        key = self._key(cell_x, cell_y)
        at = np.searchsorted(self._cell_keys, key)
        found = at < len(self._cell_keys)
        found[found] = self._cell_keys[at[found]] == key[found]
        found &= (cell_y >= self._y0) & (cell_y < self._y0 + self._height)
        start = self._cell_start[np.where(found, at, 0)]
        count = np.where(found, self._cell_start[np.minimum(at + 1, len(self._cell_keys))] - start, 0)
        query = np.repeat(np.arange(len(key)), count)
        offset = np.arange(len(query)) - np.repeat(np.cumsum(count) - count, count)
        return query, self._cell_regions[np.repeat(start, count) + offset]

    def _assign(self, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
        """Position in ``region_ids`` of the first region containing each point, or -1.

        Points go through ``_assign_block`` ``_POINT_BLOCK`` at a time, which
        bounds the kernel's temporaries whatever the number of points.
        """
        blocks = range(0, len(lon), _POINT_BLOCK)
        return np.concatenate([np.empty(0, dtype=np.intp)] + [
            self._assign_block(lon[i : i + _POINT_BLOCK], lat[i : i + _POINT_BLOCK]) for i in blocks
        ])

    def _assign_block(self, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
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
        query_cell, registered = self._registered(cell_x[opens], cell_y[opens])

        # candidate pairs: the cell's points within the region's widened bbox
        order, start, count = _runs(cell, lon, query_cell, edges.x0[registered], edges.x1[registered])
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


class JoinedRows:
    """The join of the located rows of a message table, in row order:
    ``codes[i]`` is the position in ``region_ids`` of the region holding the
    ``i``-th of them, or -1 for none."""

    # a plain class: building a dataclass adds about 1 ms to the package import
    def __init__(self, codes: np.ndarray, region_ids: list[str]):
        self.codes, self.region_ids = codes, region_ids

    def values(self) -> list[str | None]:
        # position -1 picks the trailing None: contained by no region
        return np.array(self.region_ids + [None], dtype=object)[self.codes].tolist()


def spatial_join(
    points: Iterable[tuple[str, _HasLatLon]] | MessageTable,
    regions: RegionTable | Sequence[RegionBoundary],
    index: SpatialIndex | None = None,
) -> dict[str, str | None] | JoinedRows:
    """Assign each point to the region containing it (None when uncontained).

    ``points`` are (point_id, point) pairs, which give a dict, or a message
    table, which gives the :class:`JoinedRows` of its located rows.
    Overlapping boundaries are tie-broken to the lexicographically smallest
    region_id, so the result is independent of point order, region order,
    and index cell size. A given ``index`` must have been built over
    ``regions``.
    """
    if index is None:
        index = SpatialIndex(regions)
    else:
        region_ids = regions.region_id.tolist() if isinstance(regions, RegionTable) else [r.region_id for r in regions]
        if sorted(set(region_ids)) != index.region_ids:
            raise ValueError("spatial_join: index was built over other regions")
    if isinstance(points, MessageTable):
        located = ~np.isnan(points.lat)
        lat, lon = points.lat[located], points.lon[located]
    else:
        pairs = list(points)
        lat = np.array([p.lat for _, p in pairs], dtype=float)
        lon = np.array([p.lon for _, p in pairs], dtype=float)
    if not (np.isfinite(lat).all() and np.isfinite(lon).all()):
        raise ValueError("spatial_join: point coordinates must be finite")
    joined = JoinedRows(index._assign(lon, lat), index.region_ids)
    if isinstance(points, MessageTable):
        return joined
    return dict(zip([point_id for point_id, _ in pairs], joined.values()))
