import io
import json
from datetime import timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damagenowcast.ingest import (
    IngestError,
    parse_county_table,
    parse_keyed_table,
    parse_messages,
    parse_regions,
    parse_track,
    write_messages_csv,
)

HEADER = "message_id,user_id,timestamp,lat,lon,keywords,is_retweet,retweeted_count,sentiment\n"


def messages_csv(*rows: str) -> io.StringIO:
    return io.StringIO(HEADER + "".join(r + "\n" for r in rows))


class TestParseMessages:
    def test_direct_field_mapping(self):
        result = parse_messages(messages_csv("m1,u1,2012-10-30T00:00:00Z,40.71,-74.01,sandy;storm,0,3,-0.2"))
        assert result.rows_rejected == 0
        (m,) = result.records
        assert m.keywords == frozenset({"sandy", "storm"})
        assert m.retweeted_count == 3
        assert m.location == (40.71, -74.01)
        assert m.sentiment == -0.2
        assert not m.is_retweet
        assert m.timestamp.tzinfo == timezone.utc

    def test_latitude_out_of_range_dropped(self):
        result = parse_messages(messages_csv("m1,u1,2012-10-30T00:00:00Z,91.0,-74.01,sandy,0,0,"))
        assert result.records == []
        assert result.rows_rejected == 1
        assert "latitude out of range" in result.diagnostics[0]
        assert "line 2" in result.diagnostics[0]

    def test_keyword_filter_set_intersection(self):
        stream = messages_csv(
            "m1,u1,2012-10-30T00:00:00Z,,,sandy,0,0,",
            "m2,u2,2012-10-30T00:00:00Z,,,gas,0,0,",
            "m3,u3,2012-10-30T00:00:00Z,,,sandy;gas,0,0,",
        )
        result = parse_messages(stream, {"sandy"})
        assert [m.message_id for m in result.records] == ["m1", "m3"]
        assert result.rows_filtered == 1

    def test_empty_filter_keeps_all(self):
        stream = messages_csv("m1,u1,2012-10-30T00:00:00Z,,,sandy,0,0,")
        assert len(parse_messages(stream, set()).records) == 1

    def test_missing_optional_fields_kept(self):
        result = parse_messages(messages_csv("m1,u1,2012-10-30T00:00:00Z,,,sandy,1,0,"))
        (m,) = result.records
        assert m.location is None
        assert m.sentiment is None
        assert m.is_retweet

    def test_naive_timestamp_rejected(self):
        result = parse_messages(messages_csv("m1,u1,2012-10-30T00:00:00,,,sandy,0,0,"))
        assert result.rows_rejected == 1
        assert "offset" in result.diagnostics[0]

    def test_non_utc_offset_normalized(self):
        result = parse_messages(messages_csv("m1,u1,2012-10-30T05:00:00+05:00,,,sandy,0,0,"))
        assert result.records[0].timestamp.hour == 0

    def test_half_location_rejected(self):
        result = parse_messages(messages_csv("m1,u1,2012-10-30T00:00:00Z,40.0,,sandy,0,0,"))
        assert result.rows_rejected == 1

    def test_duplicate_message_id_rejected(self):
        stream = messages_csv(
            "m1,u1,2012-10-30T00:00:00Z,,,sandy,0,0,",
            "m1,u2,2012-10-30T01:00:00Z,,,sandy,0,0,",
        )
        result = parse_messages(stream)
        assert len(result.records) == 1
        assert result.rows_rejected == 1

    def test_empty_keywords_rejected(self):
        result = parse_messages(messages_csv("m1,u1,2012-10-30T00:00:00Z,,, ; ,0,0,"))
        assert result.rows_rejected == 1

    def test_extra_followees_column_tolerated(self):
        header = "message_id,user_id,timestamp,lat,lon,keywords,is_retweet,retweeted_count,sentiment,followees\n"
        stream = io.StringIO(header + "m1,u1,2012-10-30T00:00:00Z,,,sandy,0,0,,123\n")
        assert len(parse_messages(stream).records) == 1

    def test_comment_lines_skipped_and_line_numbers_preserved(self):
        stream = io.StringIO(HEADER + "# a comment\n\nm1,u1,bad,,,sandy,0,0,\n")
        result = parse_messages(stream)
        assert "line 4" in result.diagnostics[0]

    def test_unreadable_source_fatal(self, tmp_path):
        with pytest.raises(IngestError):
            parse_messages(tmp_path / "missing.csv")

    def test_round_trip(self, tmp_path):
        stream = messages_csv(
            "m1,u1,2012-10-30T00:00:00Z,40.71,-74.01,sandy;storm,0,3,-0.2",
            "m2,u2,2012-10-29T23:59:59Z,,,gas,1,0,",
            "m3,u1,2012-11-01T12:30:00Z,39.4026,-74.3646,power,0,1,0.75",
        )
        records = parse_messages(stream).records
        path = tmp_path / "out.csv"
        write_messages_csv(records, path)
        assert parse_messages(path).records == records


@st.composite
def message_rows(draw):
    message_id = draw(st.uuids()).hex
    user_id = draw(st.text(alphabet="abcdef0123456789", min_size=1, max_size=8))
    second = draw(st.integers(0, 86399))
    lat = draw(st.one_of(st.none(), st.floats(-90, 90, allow_nan=False)))
    lon = draw(st.floats(-180, 180, allow_nan=False))
    keywords = draw(st.lists(st.sampled_from(["sandy", "storm", "gas", "power"]), min_size=1, max_size=3))
    is_retweet = draw(st.integers(0, 1))
    count = draw(st.integers(0, 50))
    sentiment = draw(st.one_of(st.none(), st.floats(-1, 1, allow_nan=False)))
    loc = "," if lat is None else f"{lat!r},{lon!r}"
    sent = "" if sentiment is None else repr(sentiment)
    stamp = f"2012-10-{draw(st.integers(20, 30)):02d}T{second // 3600:02d}:{second % 3600 // 60:02d}:{second % 60:02d}Z"
    return f"{message_id},{user_id},{stamp},{loc},{';'.join(keywords)},{is_retweet},{count},{sent}"


class TestMessageInvariants:
    @given(st.lists(message_rows(), min_size=1, max_size=20, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_accepted_records_satisfy_invariants_and_counts_balance(self, rows):
        result = parse_messages(messages_csv(*rows))
        assert len(result.records) + result.rows_rejected + result.rows_filtered == result.rows_total
        assert result.rows_total == len(rows)
        for m in result.records:
            assert m.keywords
            assert m.retweeted_count >= 0
            if m.location is not None:
                assert -90 <= m.location[0] <= 90
                assert -180 <= m.location[1] <= 180
            if m.sentiment is not None:
                assert -1 <= m.sentiment <= 1

    @given(st.lists(message_rows(), min_size=1, max_size=20, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_is_identity(self, rows):
        records = parse_messages(messages_csv(*rows)).records
        buffer = io.StringIO()
        write_messages_csv(records, buffer)
        buffer.seek(0)
        assert parse_messages(buffer).records == records


def region_feature(region_id, rings, level="county", gtype="Polygon"):
    return {
        "type": "Feature",
        "properties": {"region_id": region_id, "name": region_id, "level": level},
        "geometry": {"type": gtype, "coordinates": rings},
    }


def collection(*features):
    return io.StringIO(json.dumps({"type": "FeatureCollection", "features": list(features)}))


UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]


class TestParseRegions:
    def test_unit_square_bbox(self):
        result = parse_regions(collection(region_feature("r1", [UNIT_SQUARE])))
        (region,) = result.records
        assert region.bbox == (0.0, 0.0, 1.0, 1.0)
        assert region.rings[0][0] == region.rings[0][-1]

    def test_multipolygon_flattened(self):
        part2 = [[2.0, 2.0], [3.0, 2.0], [3.0, 3.0], [2.0, 3.0], [2.0, 2.0]]
        feature = region_feature("r1", [[UNIT_SQUARE], [part2]], gtype="MultiPolygon")
        (region,) = parse_regions(collection(feature)).records
        assert len(region.rings) == 2
        assert region.bbox == (0.0, 0.0, 3.0, 3.0)

    def test_open_ring_auto_closed_with_diagnostic(self):
        open_ring = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        result = parse_regions(collection(region_feature("r1", [open_ring])))
        (region,) = result.records
        assert len(region.rings[0]) == 4
        assert region.rings[0][0] == region.rings[0][-1]
        assert any("auto-closed" in d for d in result.diagnostics)

    def test_missing_region_id_drops_feature(self):
        bad = {"type": "Feature", "properties": {"level": "zcta"},
               "geometry": {"type": "Polygon", "coordinates": [UNIT_SQUARE]}}
        result = parse_regions(collection(bad, region_feature("r2", [UNIT_SQUARE])))
        assert [r.region_id for r in result.records] == ["r2"]
        assert result.rows_rejected == 1

    def test_duplicate_id_same_level_fatal(self):
        with pytest.raises(IngestError):
            parse_regions(
                collection(region_feature("r1", [UNIT_SQUARE]), region_feature("r1", [UNIT_SQUARE]))
            )

    def test_bad_level_rejected(self):
        result = parse_regions(collection(region_feature("r1", [UNIT_SQUARE], level="tract")))
        assert result.rows_rejected == 1

    def test_non_finite_and_out_of_range_vertices_rejected(self):
        nan_ring = [[0.0, 0.0], [1.0, 0.0], [float("nan"), 1.0], [0.0, 1.0], [0.0, 0.0]]
        far_ring = [[0.0, 0.0], [500.0, 0.0], [1.0, 95.0], [0.0, 1.0], [0.0, 0.0]]
        result = parse_regions(
            collection(
                region_feature("r1", [nan_ring]),
                region_feature("r2", [far_ring]),
                region_feature("r3", [UNIT_SQUARE]),
            )
        )
        assert [r.region_id for r in result.records] == ["r3"]
        assert result.rows_rejected == 2
        assert result.diagnostics[0].startswith("regions feature 0: ")
        assert result.diagnostics[1].startswith("regions feature 1: ")

    @pytest.mark.parametrize(
        "feature",
        [
            region_feature("r1", [[[0.0, 0.0], None, [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]]),
            region_feature("r1", [[0, 0]]),
            region_feature("r1", [[[0.0, 0.0], [None, 0.0], [1.0, 1.0], [0.0, 0.0]]]),
            region_feature("r1", [[[0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]]]),
            region_feature("r1", None),
            region_feature("r1", 5, gtype="MultiPolygon"),
            {"type": "Feature", "properties": {"region_id": "r1", "level": "county"}, "geometry": [1, 2]},
            {"type": "Feature", "properties": [1], "geometry": None},
            5,
        ],
        ids=[
            "null-position", "bare-numbers", "null-number", "short-position", "null-coordinates",
            "number-multipolygon", "geometry-list", "properties-list", "feature-number",
        ],
    )
    def test_structurally_wrong_feature_rejected(self, feature):
        result = parse_regions(collection(feature, region_feature("r2", [UNIT_SQUARE])))
        assert [r.region_id for r in result.records] == ["r2"]
        assert result.rows_rejected == 1
        (diagnostic,) = result.diagnostics
        assert diagnostic.startswith("regions feature 0: ")

    def test_features_not_a_list_fatal(self):
        with pytest.raises(IngestError, match="features"):
            parse_regions(io.StringIO(json.dumps({"type": "FeatureCollection", "features": 5})))


class TestParseTrack:
    def test_two_points(self):
        stream = io.StringIO("timestamp,lat,lon\n2012-10-29T12:00:00Z,39.4,-74.4\n2012-10-29T18:00:00Z,40.0,-74.8\n")
        result = parse_track(stream)
        assert len(result.records) == 2
        assert result.records[0].timestamp < result.records[1].timestamp

    def test_non_monotone_fatal(self):
        stream = io.StringIO("timestamp,lat,lon\n2012-10-29T18:00:00Z,39.4,-74.4\n2012-10-29T12:00:00Z,40.0,-74.8\n")
        with pytest.raises(IngestError):
            parse_track(stream)


class TestParseKeyedTable:
    def test_damage_summed_per_source(self):
        stream = io.StringIO("region_id,amount_usd,source\nr1,10,fema_ia\nr1,5,fema_ia\nr1,7,insurance\n")
        records = parse_keyed_table(stream, "damage").records
        totals = {(r.region_id, r.source): r.amount_usd for r in records}
        assert totals[("r1", "fema_ia")] == 15
        assert totals[("r1", "insurance")] == 7

    def test_duplicate_population_fatal(self):
        stream = io.StringIO("region_id,population\nr1,100\nr1,200\n")
        with pytest.raises(IngestError):
            parse_keyed_table(stream, "population")

    def test_nonpositive_population_rejected(self):
        stream = io.StringIO("region_id,population\nr1,0\nr2,10\n")
        result = parse_keyed_table(stream, "population")
        assert [e.region_id for e in result.records] == ["r2"]
        assert result.rows_rejected == 1

    def test_unknown_damage_source_rejected(self):
        stream = io.StringIO("region_id,amount_usd,source\nr1,10,guess\n")
        result = parse_keyed_table(stream, "damage")
        assert result.records == []
        assert result.rows_rejected == 1


class TestCountyTable:
    def test_fixture_loads_verbatim(self, sandy_counties_path):
        result = parse_county_table(sandy_counties_path)
        assert result.rows_total == 27
        assert result.rows_rejected == 0
        by_county = {s.county: s for s in result.records}
        atlantic = by_county["Atlantic"]
        assert (atlantic.population, atlantic.tweets, atlantic.users) == (275422, 1580, 574)
        assert atlantic.expost_damage_usd == 954e6
        assert atlantic.hazus_damage_usd == 1630e6
        ny = by_county["New York"]
        assert (ny.population, ny.tweets, ny.users) == (1619090, 50767, 15558)


# One case per CSV parser: (what, parse, header, good row, malformed row,
# row the parser filters or None, required column to drop from the header).
CSV_PARSERS = [
    (
        "messages",
        lambda source: parse_messages(source, {"sandy"}),
        HEADER.strip(),
        "m1,u1,2012-10-30T00:00:00Z,,,sandy,0,0,",
        "m2,u1,bad,,,sandy,0,0,",
        "m3,u1,2012-10-30T00:00:00Z,,,gas,0,0,",
        "retweeted_count",
    ),
    (
        "population",
        lambda source: parse_keyed_table(source, "population"),
        "region_id,population",
        "r1,100",
        "r2,zero",
        None,
        "region_id",
    ),
    (
        "damage",
        lambda source: parse_keyed_table(source, "damage"),
        "region_id,amount_usd,source",
        "r1,10,fema_ia",
        "r2,-1,fema_ia",
        None,
        "source",
    ),
    (
        "track",
        parse_track,
        "timestamp,lat,lon",
        "2012-10-29T12:00:00Z,39.4,-74.4",
        "2012-10-29T13:00:00Z,95.0,-74.4",
        None,
        "lon",
    ),
    (
        "county table",
        parse_county_table,
        "county,population,tweets,users,expost_damage_musd,hazus_damage_musd",
        "Atlantic,275422,1580,574,954,1630",
        "Bergen,many,1,1,1,1",
        None,
        "users",
    ),
]


@pytest.mark.parametrize(
    "what,parse,header,good,bad,filtered,missing", CSV_PARSERS, ids=[c[0] for c in CSV_PARSERS]
)
class TestCsvReaderContract:
    def test_malformed_row_rejected_with_line_number(self, what, parse, header, good, bad, filtered, missing):
        rows = [header, good, bad] + ([filtered] if filtered else [])
        result = parse(io.StringIO("\n".join(rows) + "\n"))
        assert result.rows_rejected == 1
        assert len(result.diagnostics) == 1
        assert result.diagnostics[0].startswith(f"{what} line 3: ")
        assert result.rows_total == len(rows) - 1
        assert result.rows_filtered == (1 if filtered else 0)
        assert len(result.records) + result.rows_rejected + result.rows_filtered == result.rows_total

    def test_empty_input_fatal(self, what, parse, header, good, bad, filtered, missing):
        with pytest.raises(IngestError) as excinfo:
            parse(io.StringIO(""))
        assert str(excinfo.value) == f"{what}: empty input"

    def test_missing_required_column_fatal(self, what, parse, header, good, bad, filtered, missing):
        columns = [c for c in header.split(",") if c != missing]
        with pytest.raises(IngestError) as excinfo:
            parse(io.StringIO(",".join(columns) + "\n" + good + "\n"))
        prefix, _, detail = str(excinfo.value).partition(": ")
        assert prefix == what
        assert missing in detail

