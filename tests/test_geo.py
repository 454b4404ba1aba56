import io
import json
import math
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from damagenowcast.geo import (
    EARTH_RADIUS_KM,
    GeoPoint,
    SpatialIndex,
    haversine_km,
    point_to_track_km,
    region_centroids,
    spatial_join,
)
from damagenowcast.ingest import MessageRecord, RegionBoundary, TrackPoint, parse_regions
from damagenowcast.metrics import RegionCodes

from oracles import (
    brute_force_join,
    haversine_law_of_cosines,
    join_points,
    message_table,
    point_in_polygon_winding,
    point_in_region_scalar,
    region_table,
)

coords = st.tuples(st.floats(-80, 80), st.floats(-170, 170))


def region_of(region_id, *rings):
    xs = [x for ring in rings for x, _ in ring]
    ys = [y for ring in rings for _, y in ring]
    bbox = (min(xs), min(ys), max(xs), max(ys))
    return RegionBoundary(region_id, region_id, "county", tuple(rings), bbox)


def rect_region(region_id, min_lon, min_lat, max_lon, max_lat, holes=()):
    ring = (
        (min_lon, min_lat),
        (max_lon, min_lat),
        (max_lon, max_lat),
        (min_lon, max_lat),
        (min_lon, min_lat),
    )
    return region_of(region_id, ring, *holes)


UNIT = rect_region("unit", 0.0, 0.0, 1.0, 1.0)


def inside(p, region) -> bool:
    """Containment of one point in one region, through a one-region join."""
    return join_points([("p", p)], [region])["p"] is not None


def region_centroid(region):
    """The centroid of one region, through a one-region table."""
    return next(region_centroids(region_table([region])))


def _segment_gap(px, py, a, b):
    """Planar distance from (px, py) to segment a-b."""
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    length_sq = dx * dx + dy * dy
    if length_sq == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / length_sq))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


class TestHaversine:
    def test_coincident_points(self):
        assert haversine_km(GeoPoint(12.3, 45.6), GeoPoint(12.3, 45.6)) == 0.0

    def test_half_circumference(self):
        d = haversine_km(GeoPoint(0, 0), GeoPoint(0, 180))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM, abs=1e-9)
        assert d == pytest.approx(20015.1, abs=0.1)

    def test_nyc_to_brigantine(self):
        d = haversine_km(GeoPoint(40.7128, -74.0060), GeoPoint(39.4026, -74.3646))
        assert d == pytest.approx(149.0, abs=1.0)

    @given(coords, coords)
    @settings(max_examples=100, deadline=None)
    def test_matches_independent_formula(self, a, b):
        mine = haversine_km(GeoPoint(*a), GeoPoint(*b))
        ref = haversine_law_of_cosines(a[0], a[1], b[0], b[1])
        # the law-of-cosines oracle itself is only good to ~1e-3 km near zero
        assert mine == pytest.approx(ref, abs=1e-3, rel=1e-9)

    @given(coords, coords)
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, a, b):
        assert haversine_km(GeoPoint(*a), GeoPoint(*b)) == haversine_km(GeoPoint(*b), GeoPoint(*a))

    @given(coords, coords, coords)
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        ab = haversine_km(GeoPoint(*a), GeoPoint(*b))
        bc = haversine_km(GeoPoint(*b), GeoPoint(*c))
        ac = haversine_km(GeoPoint(*a), GeoPoint(*c))
        assert ac <= ab + bc + 1e-9 * max(1.0, ac)


EQUATOR_TRACK = [GeoPoint(0.0, 0.0), GeoPoint(0.0, 20.0)]


class TestPointToTrack:
    def test_point_equal_to_vertex(self):
        assert point_to_track_km(GeoPoint(0.0, 0.0), EQUATOR_TRACK) == 0.0

    def test_point_on_path(self):
        assert point_to_track_km(GeoPoint(0.0, 10.0), EQUATOR_TRACK) == pytest.approx(0.0, abs=1e-6)

    def test_one_degree_off_equator(self):
        d = point_to_track_km(GeoPoint(1.0, 10.0), EQUATOR_TRACK)
        assert d == pytest.approx(EARTH_RADIUS_KM * math.pi / 180.0, abs=0.5)
        assert d == pytest.approx(111.2, abs=0.5)

    def test_clamps_to_endpoints(self):
        p = GeoPoint(0.0, -10.0)
        assert point_to_track_km(p, EQUATOR_TRACK) == pytest.approx(
            haversine_km(p, EQUATOR_TRACK[0]), abs=1e-9
        )
        q = GeoPoint(2.0, 30.0)
        assert point_to_track_km(q, EQUATOR_TRACK) == pytest.approx(
            haversine_km(q, EQUATOR_TRACK[1]), abs=1e-9
        )

    def test_single_point_track(self):
        p = GeoPoint(10.0, 10.0)
        assert point_to_track_km(p, [GeoPoint(0.0, 0.0)]) == haversine_km(p, GeoPoint(0.0, 0.0))

    def test_empty_track_is_error(self):
        with pytest.raises(ValueError):
            point_to_track_km(GeoPoint(0, 0), [])

    def test_accepts_track_points(self, utc):
        track = [
            TrackPoint(utc(2012, 10, 29, 12), 39.4, -74.4),
            TrackPoint(utc(2012, 10, 29, 18), 40.5, -75.0),
        ]
        assert point_to_track_km(GeoPoint(39.4, -74.4), track) == 0.0

    @given(st.floats(-60, 60), st.floats(-60, 60), st.integers(2, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_never_exceeds_vertex_distance(self, lat, lon, n_points, seed):
        rng = np.random.default_rng(seed)
        track = [GeoPoint(float(a), float(b))
                 for a, b in zip(rng.uniform(-60, 60, n_points), rng.uniform(-60, 60, n_points))]
        p = GeoPoint(lat, lon)
        d = point_to_track_km(p, track)
        for vertex in track:
            assert d <= haversine_km(p, vertex) + 1e-9 * max(1.0, d)


class TestPointInRegion:
    def test_inside_unit_square(self):
        assert inside(GeoPoint(0.5, 0.5), UNIT)

    def test_outside_unit_square(self):
        assert not inside(GeoPoint(0.5, 1.5), UNIT)

    def test_boundary_counts_as_inside(self):
        assert inside(GeoPoint(0.0, 0.5), UNIT)
        assert inside(GeoPoint(0.5, 1.0), UNIT)
        assert inside(GeoPoint(0.0, 0.0), UNIT)

    def test_point_inside_hole_is_outside(self):
        hole = ((0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75), (0.25, 0.25))
        donut = rect_region("donut", 0.0, 0.0, 1.0, 1.0, holes=(hole,))
        assert not inside(GeoPoint(0.5, 0.5), donut)
        assert inside(GeoPoint(0.1, 0.1), donut)
        # hole boundary is still region boundary
        assert inside(GeoPoint(0.25, 0.5), donut)

    def test_invariant_under_ring_rotation(self):
        ring = ((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 2.0), (0.0, 1.0), (0.0, 0.0))
        probes = [GeoPoint(0.5, 0.5), GeoPoint(1.9, 1.05), GeoPoint(-0.1, 0.5), GeoPoint(1.5, 1.2)]
        open_ring = ring[:-1]
        results = []
        for shift in range(len(open_ring)):
            rotated = open_ring[shift:] + open_ring[:shift]
            closed = rotated + (rotated[0],)
            xs = [x for x, _ in closed]
            ys = [y for _, y in closed]
            region = RegionBoundary("rot", "rot", "county", (closed,), (min(xs), min(ys), max(xs), max(ys)))
            results.append([inside(p, region) for p in probes])
        assert all(r == results[0] for r in results)

    @given(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5))
    @settings(max_examples=200, deadline=None)
    def test_matches_winding_oracle_on_simple_polygon(self, lon, lat):
        ring = ((0.0, 0.0), (1.0, 0.2), (0.9, 1.0), (0.4, 0.8), (0.0, 1.0), (0.0, 0.0))
        # stay out of the boundary tolerance band, where on-edge snapping is by design
        assume(all(_segment_gap(lon, lat, a, b) > 1e-8 for a, b in zip(ring, ring[1:])))
        xs = [x for x, _ in ring]
        ys = [y for _, y in ring]
        region = RegionBoundary("poly", "poly", "county", (ring,), (min(xs), min(ys), max(xs), max(ys)))
        assert inside(GeoPoint(lat, lon), region) == point_in_polygon_winding(lon, lat, ring)


def square_ring(min_lon, min_lat, max_lon, max_lat, clockwise=False):
    ring = [(min_lon, min_lat), (max_lon, min_lat), (max_lon, max_lat), (min_lon, max_lat)]
    if clockwise:
        ring.reverse()
    return [list(v) for v in ring + ring[:1]]


def parsed_region(geometry):
    text = json.dumps({"type": "FeatureCollection", "features": [{
        "type": "Feature",
        "properties": {"region_id": "r", "level": "county"},
        "geometry": geometry,
    }]})
    (region,) = parse_regions(io.StringIO(text)).records
    return region


class TestRegionCentroid:
    def test_square_with_distant_island_lies_in_the_square(self):
        square = square_ring(-74.0, 40.6, -73.8, 40.8)
        island = square_ring(-72.9, 40.3, -72.89, 40.31)
        region = parsed_region({"type": "MultiPolygon", "coordinates": [[square], [island]]})
        center = region_centroid(region)
        assert inside(center, region)
        assert -74.0 < center.lon < -73.8 and 40.6 < center.lat < 40.8

    @pytest.mark.parametrize("clockwise", [False, True])
    def test_hole_is_subtracted_whatever_its_orientation(self, clockwise):
        outer = square_ring(0.0, 0.0, 2.0, 2.0)
        hole = square_ring(1.0, 0.2, 1.8, 1.8, clockwise=clockwise)
        region = parsed_region({"type": "Polygon", "coordinates": [outer, hole]})
        assert region.holes == frozenset({1})
        center = region_centroid(region)
        # (4 * 1.0 - 1.28 * 1.4) / (4 - 1.28) along lon; symmetric along lat
        assert center.lon == pytest.approx((4.0 - 1.28 * 1.4) / 2.72, abs=1e-12)
        assert center.lat == pytest.approx(1.0, abs=1e-12)

    def test_multipolygon_hole_indices_follow_the_flattened_rings(self):
        region = parsed_region({"type": "MultiPolygon", "coordinates": [
            [square_ring(0.0, 0.0, 1.0, 1.0)],
            [square_ring(2.0, 0.0, 3.0, 1.0), square_ring(2.4, 0.4, 2.6, 0.6)],
        ]})
        assert region.holes == frozenset({2})
        center = region_centroid(region)
        assert center.lon == pytest.approx((0.5 + 2.5 * 0.96) / 1.96, abs=1e-12)
        assert center.lat == pytest.approx(0.5, abs=1e-12)

    def test_table_centroids_are_each_region_centroid(self):
        geometries = [
            {"type": "MultiPolygon", "coordinates": [[square_ring(-74.0, 40.6, -73.8, 40.8)],
                                                     [square_ring(-72.9, 40.3, -72.89, 40.31)]]},
            {"type": "Polygon", "coordinates": [square_ring(0.0, 0.0, 2.0, 2.0),
                                                square_ring(1.0, 0.2, 1.8, 1.8, clockwise=True)]},
            {"type": "MultiPolygon", "coordinates": [
                [square_ring(0.0, 0.0, 1.0, 1.0)],
                [square_ring(2.0, 0.0, 3.0, 1.0), square_ring(2.4, 0.4, 2.6, 0.6)],
            ]},
            {"type": "Polygon", "coordinates": [[[1.0, 2.0]] * 4]},
        ]
        text = json.dumps({"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": {"region_id": f"r{i}", "level": "county"}, "geometry": geometry}
            for i, geometry in enumerate(geometries)
        ]})
        table = parse_regions(io.StringIO(text)).records
        assert len(table) == 4
        assert list(region_centroids(table)) == [region_centroid(region) for region in table]

    def test_zero_area_falls_back_to_bbox_midpoint(self):
        point = ((1.0, 2.0), (1.0, 2.0), (1.0, 2.0), (1.0, 2.0))
        center = region_centroid(region_of("p", point))
        assert (center.lat, center.lon) == (2.0, 1.0)


def random_disjoint_rects(rng, count, span=40.0):
    """Rectangles on a jittered grid, guaranteed disjoint."""
    side = math.ceil(math.sqrt(count))
    cell = span / side
    regions = []
    for i in range(count):
        row, col = divmod(i, side)
        x0 = -20.0 + col * cell + rng.uniform(0.02, 0.1) * cell
        y0 = -20.0 + row * cell + rng.uniform(0.02, 0.1) * cell
        x1 = -20.0 + (col + 1) * cell - rng.uniform(0.02, 0.1) * cell
        y1 = -20.0 + (row + 1) * cell - rng.uniform(0.02, 0.1) * cell
        regions.append(rect_region(f"g{i:03d}", x0, y0, x1, y1))
    return regions


class TestSpatialJoin:
    def test_single_point_in_single_region(self):
        assert join_points([("p", GeoPoint(0.5, 0.5))], [UNIT]) == {"p": "unit"}

    def test_point_in_no_region(self):
        assert join_points([("p", GeoPoint(5.0, 5.0))], [UNIT]) == {"p": None}

    def test_overlap_tie_breaks_to_smallest_id(self):
        a = rect_region("b-region", 0.0, 0.0, 1.0, 1.0)
        b = rect_region("a-region", 0.5, 0.5, 1.5, 1.5)
        result = join_points([("p", GeoPoint(0.75, 0.75))], [a, b])
        assert result == {"p": "a-region"}

    def test_shared_edge_is_deterministic(self):
        left = rect_region("left", 0.0, 0.0, 1.0, 1.0)
        right = rect_region("right", 1.0, 0.0, 2.0, 1.0)
        result = join_points([("p", GeoPoint(0.5, 1.0))], [left, right])
        assert result == {"p": "left"}

    def test_tolerance_band_across_a_cell_line(self):
        # the region stops 5e-10 short of the 0.25 cell line, so a point on the
        # line is within the boundary tolerance and inside at every cell size
        a = rect_region("a", 0.1, 0.1, 0.25 - 5e-10, 0.2)
        p = GeoPoint(0.15, 0.25)
        for cell in (0.1, 0.25, 1.0):
            assert join_points([("p", p)], [a], cell_deg=cell) == {"p": "a"}

    def test_non_finite_point_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            join_points([("p", GeoPoint(float("nan"), 0.5))], [UNIT])

    def test_matches_brute_force_at_scale(self):
        rng = np.random.default_rng(42)
        regions = random_disjoint_rects(rng, 100)
        points = [
            (f"p{i}", GeoPoint(float(lat), float(lon)))
            for i, (lat, lon) in enumerate(
                zip(rng.uniform(-25, 25, 2000), rng.uniform(-25, 25, 2000))
            )
        ]
        expected = brute_force_join(points, regions)
        for cell in (0.1, 0.25, 1.0):
            assert join_points(points, regions, cell_deg=cell) == expected

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.07, 0.25, 0.9, 3.0]))
    @settings(max_examples=25, deadline=None)
    def test_index_equivalence_property(self, seed, cell):
        rng = np.random.default_rng(seed)
        regions = random_disjoint_rects(rng, rng.integers(3, 12))
        points = [
            (f"p{i}", GeoPoint(float(lat), float(lon)))
            for i, (lat, lon) in enumerate(
                zip(rng.uniform(-22, 22, 60), rng.uniform(-22, 22, 60))
            )
        ]
        assert join_points(points, regions, cell_deg=cell) == brute_force_join(points, regions)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.25, 3.0]))
    @settings(max_examples=25, deadline=None)
    def test_table_view_matches_brute_force(self, seed, cell):
        rng = np.random.default_rng(seed)
        regions = random_disjoint_rects(rng, rng.integers(3, 12))
        lat, lon = rng.uniform(-22, 22, 60), rng.uniform(-22, 22, 60)
        lat[rng.random(60) < 0.2] = np.nan  # unlocated rows are not points
        table = message_table([
            MessageRecord(f"m{i}", "u", datetime(2012, 10, 30, tzinfo=timezone.utc),
                          None if math.isnan(y) else (float(y), float(x)), frozenset({"sandy"}), False, 0)
            for i, (y, x) in enumerate(zip(lat, lon))
        ])
        expected = brute_force_join(
            [(f"m{i}", GeoPoint(float(y), float(x))) for i, (y, x) in enumerate(zip(lat, lon)) if not math.isnan(y)],
            regions,
        )
        located = ~np.isnan(table.lat)
        index = SpatialIndex(region_table(regions), cell_deg=cell)
        joined = spatial_join(table.lat[located], table.lon[located], index)
        assert isinstance(joined, RegionCodes)
        assert table.message_id[~np.isnan(table.lat)].tolist() == list(expected)  # the located rows, in row order
        assert joined.values() == list(expected.values())  # None where uncontained
        assert [joined.region_ids[c] if c >= 0 else None for c in joined.codes.tolist()] == list(expected.values())

    def test_result_independent_of_point_order(self):
        rng = np.random.default_rng(3)
        regions = random_disjoint_rects(rng, 9)
        points = [
            (f"p{i}", GeoPoint(float(lat), float(lon)))
            for i, (lat, lon) in enumerate(zip(rng.uniform(-22, 22, 50), rng.uniform(-22, 22, 50)))
        ]
        forward = join_points(points, regions)
        backward = join_points(list(reversed(points)), regions)
        assert forward == backward

    def test_partitioned_join_merges_to_same_result(self):
        """Splitting the point set across workers and merging changes nothing."""
        rng = np.random.default_rng(17)
        regions = random_disjoint_rects(rng, 12)
        points = [
            (f"p{i}", GeoPoint(float(lat), float(lon)))
            for i, (lat, lon) in enumerate(zip(rng.uniform(-22, 22, 90), rng.uniform(-22, 22, 90)))
        ]
        whole = join_points(points, regions)
        for parts in (2, 3, 7):
            merged: dict[str, str | None] = {}
            for chunk in range(parts):
                merged.update(join_points(points[chunk::parts], regions))
            assert merged == whole

    def test_index_entry_bound_checked_before_allocating(self):
        big = rect_region("big", -60.0, -60.0, 60.0, 60.0)
        with pytest.raises(ValueError, match="larger cell size"):
            SpatialIndex(region_table([big]), cell_deg=0.01)  # 12,000 x 12,000 cells
        with pytest.raises(ValueError, match="larger cell size"):
            SpatialIndex(region_table([big]), cell_deg=1e-300)  # the cell count overflows to inf
        p = GeoPoint(0.05, 0.05)
        assert join_points([("p", p)], [big], cell_deg=0.1) == {"p": "big"}

    @pytest.mark.parametrize("cell_deg", [0.0, -1.0, float("nan")])
    def test_cell_size_must_be_positive(self, cell_deg):
        with pytest.raises(ValueError, match="cell_deg must be positive"):
            SpatialIndex(region_table([UNIT]), cell_deg=cell_deg)

    def test_repeated_region_id_rejected(self):
        # a second geometry under one id would be dropped, and its messages with it
        with pytest.raises(ValueError, match="region_id is repeated"):
            SpatialIndex(region_table([UNIT, rect_region("unit", 10.0, 10.0, 11.0, 11.0)]))

    def test_index_candidates_match_bbox_scan(self):
        rng = np.random.default_rng(5)
        regions = random_disjoint_rects(rng, 9) + [rect_region("wide", -25.0, -3.0, 25.0, 3.0)]
        for cell in (0.3, 1.0, 7.0):
            index = SpatialIndex(region_table(regions), cell_deg=cell)
            lat, lon = rng.uniform(-30, 30, 300), rng.uniform(-30, 30, 300)
            cell_x, cell_y = np.floor(lon / cell).astype(np.int64), np.floor(lat / cell).astype(np.int64)
            query, registered = index._registered(cell_x, cell_y)
            for q, (cx, cy) in enumerate(zip(cell_x.tolist(), cell_y.tolist())):
                expected = sorted(
                    r.region_id for r in regions
                    if math.floor((r.bbox[0] - 1e-9) / cell) <= cx <= math.floor((r.bbox[2] + 1e-9) / cell)
                    and math.floor((r.bbox[1] - 1e-9) / cell) <= cy <= math.floor((r.bbox[3] + 1e-9) / cell)
                )
                assert [index.region_ids[k] for k in registered[query == q].tolist()] == expected

    def test_index_candidates_cover_containing_regions(self):
        rng = np.random.default_rng(11)
        regions = random_disjoint_rects(rng, 16)
        index = SpatialIndex(region_table(regions), cell_deg=0.3)
        lat, lon = rng.uniform(-22, 22, 200), rng.uniform(-22, 22, 200)
        cell_x, cell_y = np.floor(lon / 0.3).astype(np.int64), np.floor(lat / 0.3).astype(np.int64)
        query, registered = index._registered(cell_x, cell_y)
        candidates = {(q, index.region_ids[k]) for q, k in zip(query.tolist(), registered.tolist())}
        points = [(q, GeoPoint(float(y), float(x))) for q, (y, x) in enumerate(zip(lat, lon))]
        for r in regions:
            truly_containing = {(q, r.region_id) for q, found in join_points(points, [r]).items() if found}
            assert truly_containing <= candidates


def polygon_ring(cx, cy, radii, phase):
    """Closed ring through one vertex per radius, evenly spaced in angle."""
    angles = phase + np.linspace(0.0, 2.0 * math.pi, len(radii), endpoint=False)
    ring = [(float(cx + r * math.cos(a)), float(cy + r * math.sin(a))) for r, a in zip(radii, angles)]
    return tuple(ring + ring[:1])


def boundary_scene(rng):
    """Regions covering every containment rule, laid across 0.1-degree cell lines.

    A non-convex star with a repeated vertex (a zero-length edge); a ring
    collapsed to one point at the star's centre; a MultiPolygon of two
    islands, one with a hole, overlapping the star; two rectangles sharing
    part of an edge, named so the right one wins the tie.
    """
    cx, cy = (float(v) for v in rng.uniform(0.3, 0.7, 2))
    spikes = int(rng.integers(5, 9))
    radii = np.where(np.arange(2 * spikes) % 2 == 0, rng.uniform(0.15, 0.3), rng.uniform(0.04, 0.1))
    star = list(polygon_ring(cx, cy, radii, rng.uniform(0.0, 1.0))[:-1])
    repeat = int(rng.integers(len(star)))
    star.insert(repeat, star[repeat])
    star = tuple(star + star[:1])
    phase = rng.uniform(0.0, 1.0)
    island = polygon_ring(cx + 0.3, cy, [0.1] * 6, phase)
    hole = polygon_ring(cx + 0.3, cy, [0.04] * 6, phase)
    far_island = polygon_ring(cx - 0.4, cy + 0.2, [0.08] * 6, rng.uniform(0.0, 1.0))
    x_mid = cx + float(rng.uniform(-0.1, 0.1))
    left = rect_region("b-left", x_mid - 0.2, cy - 0.5, x_mid, cy - 0.3)
    right = rect_region("a-right", x_mid, cy - 0.45, x_mid + 0.15, cy - 0.25)
    dot = region_of("dot", ((cx, cy),) * 4)
    return [region_of("star", star), dot, region_of("islands", island, hole, far_island), left, right]


def boundary_probes(regions, rng):
    """Vertices, edge midpoints, points 0.5e-9 and 2e-9 either side of each edge, random points."""
    probes = []
    for region in regions:
        for ring in region.rings:
            for (ax, ay), (bx, by) in zip(ring, ring[1:]):
                mx, my = (ax + bx) / 2.0, (ay + by) / 2.0
                length = math.hypot(bx - ax, by - ay)
                # a zero-length edge is a point: step off it along x
                nx, ny = (-(by - ay) / length, (bx - ax) / length) if length else (1.0, 0.0)
                probes.extend([(ax, ay), (mx, my)])
                probes.extend((mx + d * nx, my + d * ny) for d in (-2e-9, -0.5e-9, 0.5e-9, 2e-9))
    probes.extend(zip(rng.uniform(-0.3, 1.3, 50).tolist(), rng.uniform(-0.4, 1.2, 50).tolist()))
    return [(f"p{i}", GeoPoint(lat=y, lon=x)) for i, (x, y) in enumerate(probes)]


class TestKernelMatchesScalarReference:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_join_on_boundary_probes(self, seed):
        rng = np.random.default_rng(seed)
        regions = boundary_scene(rng)
        points = boundary_probes(regions, rng)
        expected = brute_force_join(points, regions)
        assert {"a-right", "dot"} <= set(expected.values())
        for cell in (0.1, 0.25, 1.0):
            assert join_points(points, regions, cell_deg=cell) == expected
        sample = points[:: max(1, len(points) // 15)]
        for region in regions:
            found = join_points(sample, [region])
            assert [found[i] is not None for i, _ in sample] == [point_in_region_scalar(p, region) for _, p in sample]

    def test_point_at_the_far_end_of_the_tolerance_band(self):
        # on the line through the edge (0,0)-(1,1), exactly at the top of its widened extent
        triangle = region_of("t", ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)))
        end = 1.0 + 1e-9
        p = GeoPoint(end, end)
        assert point_in_region_scalar(p, triangle)
        assert join_points([("p", p)], [triangle]) == {"p": "t"}

    def test_join_memory_stays_within_budget(self):
        """50,000 points in one region of 2,000 edges: the kernel's temporaries are batched."""
        # a comb: 1,997 zigzag edges over a solid base, 3 more edges around it;
        # the ray from a point among the teeth crosses about 2,000 edges, so
        # testing all (point, edge) rows at once would take hundreds of MB
        teeth = 1997
        width = teeth * 0.001
        zigzag = [(i * 0.001, 1.0 + i % 2) for i in range(teeth + 1)]
        comb = region_of("comb", tuple([(0.0, 0.0)] + zigzag + [(width, 0.0), (0.0, 0.0)]))
        assert sum(len(ring) - 1 for ring in comb.rings) == 2000
        rng = np.random.default_rng(5)
        base = zip(rng.uniform(0.01, 0.99, 48_000), rng.uniform(0.0005, width - 0.0005, 48_000))
        # below the middle of a zigzag edge, which is at height 1.5
        among_teeth = zip(
            1.0 + rng.uniform(0.05, 0.45, 2_000), (rng.integers(0, teeth, 2_000) + 0.5) * 0.001
        )
        points = [
            (f"p{i}", GeoPoint(float(lat), float(lon)))
            for i, (lat, lon) in enumerate([*base, *among_teeth])
        ]

        tracemalloc.start()
        try:
            result = join_points(points, [comb])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result) == 50_000 and set(result.values()) == {"comb"}
        assert peak < 16 * 2**20
