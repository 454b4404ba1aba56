import csv
import gc
import io
import json
import math
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from damagenowcast import ingest
from damagenowcast.ingest import (
    MICROSECOND,
    UNIX_EPOCH,
    IngestError,
    parse_county_table,
    parse_keyed_table,
    parse_messages,
    parse_regions,
    parse_track,
    write_messages_csv,
)
from damagenowcast.metrics import summarize_regions
from damagenowcast.simulate import KeywordProfile, SimConfig, generate
from oracles import codes_of, parse_messages_reference

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

    def test_user_ids_holding_a_nul_stay_distinct(self):
        # numpy's StringDType comparisons stop at a NUL, so "a\0b" == "a\0c" there
        users = ["a\0b", "a\0c", "ab", "ac", "a"]
        table = parse_messages(messages_csv(
            *(f"m{k},{user},2012-10-30T00:00:00Z,40.5,-74.5,sandy,0,0," for k, user in enumerate(users))
        )).records
        assert table.user_ids.tolist() == sorted(users)
        assert [table.user_ids[u] for u in table.user.tolist()] == users
        codes = codes_of(table, dict.fromkeys(table.message_id.tolist(), "r1"))
        summary = summarize_regions(table, codes, None)["r1", None]
        assert summary.active_users_period == 5

    def test_latitude_out_of_range_dropped(self):
        result = parse_messages(messages_csv("m1,u1,2012-10-30T00:00:00Z,91.0,-74.01,sandy,0,0,"))
        assert list(result.records) == []
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

    def test_quoted_newline_then_comment_like_line_is_one_field(self):
        # the '#' and blank lines continue the quoted user id; comments between records are still skipped
        stream = messages_csv(
            '"m1","u1\n#x",2012-10-30T00:00:00Z,,,sandy,0,0,', "# a comment", "",
            '"m2"," u2\n\n ",2012-10-30T01:00:00Z,,,sandy,0,0,', "m3,u3,bad,,,sandy,0,0,",
        )
        result = parse_messages(stream)
        assert (len(result.records), result.rows_total) == (2, 3)
        assert result.records.message_id.tolist() == ["m1", "m2"]
        assert result.records.user_ids[result.records.user].tolist() == ["u1\n#x", "u2"]
        assert result.diagnostics == ["messages line 9: unparseable timestamp 'bad'"]

    def test_unreadable_source_fatal(self, tmp_path):
        with pytest.raises(IngestError):
            parse_messages(tmp_path / "missing.csv")

    def test_cell_over_the_field_limit_fatal_with_line(self):
        # csv's default field limit is 131,072 characters; the limit itself is left alone
        stream = messages_csv("m1,u1,2012-10-30T00:00:00Z,,,sandy,0,0,", f"m2,{'u' * 140_000},2012-10-30,,,sandy,0,0,")
        with pytest.raises(IngestError, match=r"^messages line 3: field larger than field limit"):
            parse_messages(stream)

    def test_round_trip(self, tmp_path):
        stream = messages_csv(
            "m1,u1,2012-10-30T00:00:00Z,40.71,-74.01,sandy;storm,0,3,-0.2",
            "m2,u2,2012-10-29T23:59:59Z,,,gas,1,0,",
            "m3,u1,2012-11-01T12:30:00Z,39.4026,-74.3646,power,0,1,0.75",
        )
        records = parse_messages(stream).records
        path = tmp_path / "out.csv"
        write_messages_csv(records.blocks(), path)
        assert list(parse_messages(path).records) == list(records)


    def test_round_trip_before_year_1000(self):
        records = parse_messages(messages_csv("m1,u1,0999-01-02T03:04:05Z,,,sandy,0,0,")).records
        buffer = io.StringIO()
        write_messages_csv(records.blocks(), buffer)
        assert "0999-01-02T03:04:05Z" in buffer.getvalue()
        buffer.seek(0)
        result = parse_messages(buffer)
        assert result.diagnostics == []
        assert list(result.records) == list(records)

    def test_format_timestamp_pads_the_year(self, utc):
        assert ingest.format_timestamp(utc(999, 1, 2, 3, 4, 5)) == "0999-01-02T03:04:05Z"
        assert ingest.format_timestamp(utc(5, 1, 2, 3, 4, 5, 120)) == "0005-01-02T03:04:05.00012Z"
        assert ingest.format_timestamp(utc(2012, 10, 30)) == "2012-10-30T00:00:00Z"


def _csv_line(cells, quoting=csv.QUOTE_MINIMAL) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="", quoting=quoting).writerow(cells)
    return buffer.getvalue()


@st.composite
def message_rows(draw):
    # ids and users may hold a comma, a quote or a space, which the writer must quote; an id may
    # start with '#', which the writer must quote too, or the line would read as a comment
    quoted = st.text(alphabet='ab,"; ', max_size=4)
    message_id = draw(st.sampled_from(["", "#"])) + draw(st.uuids()).hex + draw(quoted)
    user_id = draw(st.text(alphabet="abcdef0123456789", min_size=1, max_size=8)) + draw(quoted)
    # years 1-9999, so both sides of the Unix epoch, to the microsecond
    stamp = draw(st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59, 999999)))
    lat = draw(st.one_of(st.none(), st.floats(-90, 90, allow_nan=False)))
    lon = draw(st.floats(-180, 180, allow_nan=False))
    keywords = draw(st.lists(st.sampled_from(["sandy", "storm", "gas", "power"]), min_size=1, max_size=3))
    is_retweet = draw(st.integers(0, 1))
    count = draw(st.integers(0, 50))
    sentiment = draw(st.one_of(st.none(), st.floats(-1, 1, allow_nan=False)))
    return _csv_line([
        message_id, user_id, stamp.isoformat() + "Z", "" if lat is None else repr(lat),
        "" if lat is None else repr(lon), ";".join(keywords), is_retweet, count,
        "" if sentiment is None else repr(sentiment),
    ], quoting=csv.QUOTE_ALL if message_id.startswith("#") else csv.QUOTE_MINIMAL)


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
        write_messages_csv(records.blocks(), buffer)
        buffer.seek(0)
        assert list(parse_messages(buffer).records) == list(records)


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

    def test_duplicate_id_at_another_level_fatal(self):
        # population and damage rows are keyed by region_id alone, so the two could not be told apart
        with pytest.raises(IngestError, match="duplicate region_id 'r1' at levels 'zcta' and 'county'"):
            parse_regions(collection(
                region_feature("r1", [UNIT_SQUARE], level="zcta"), region_feature("r1", [UNIT_SQUARE], level="county")
            ))

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


class TestParseMemory:
    """What a parse holds stays near what it returns."""

    def test_message_parse_peak_is_within_three_tables(self, tmp_path):
        # the accepted-id set and 16,384-row blocks peaked at about 7x the table
        config = SimConfig(seed=1, n_regions=240,
                           keywords=(("storm", KeywordProfile(base_rate=0.0012, event_amplitude=0.012)),))
        path = generate(config, tmp_path / "sim").messages_csv
        parse_messages(path)  # one-time allocations of the first parse are not the parse's own
        tracemalloc.start()
        try:
            table = parse_messages(path).records
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        nbytes = sum(value.nbytes for value in vars(table).values() if isinstance(value, np.ndarray))
        assert len(table) > 40_000
        assert peak <= 3 * nbytes

    def test_regions_retain_at_most_40_bytes_per_vertex(self):
        # tuple rings retained about 230 bytes per vertex of a grid of small regions
        features = []
        for i in range(2500):
            x, y = i % 50 * 0.12 - 77.0, i // 50 * 0.1 + 37.5
            ring = [[x + 0.05 * math.cos(a), y + 0.04 * math.sin(a)] for a in np.linspace(0.1, 6.0, 5).tolist()]
            features.append(region_feature(f"z{i:05d}", [ring + ring[:1]], level="zcta"))
            features[-1]["properties"]["name"] = f"area z{i:05d}"
        text = collection(*features)
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            result = parse_regions(text)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(result.records) == 2500
        assert retained <= 40 * 2500 * 6


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
        totals = parse_keyed_table(stream, "damage").records
        assert totals[("r1", "fema_ia")] == 15
        assert totals[("r1", "insurance")] == 7

    def test_duplicate_population_fatal(self):
        stream = io.StringIO("region_id,population\nr1,100\nr1,200\n")
        with pytest.raises(IngestError):
            parse_keyed_table(stream, "population")

    def test_nonpositive_population_rejected(self):
        stream = io.StringIO("region_id,population\nr1,0\nr2,10\n")
        result = parse_keyed_table(stream, "population")
        assert list(result.records) == ["r2"]
        assert result.rows_rejected == 1

    @pytest.mark.parametrize("population", ["9223372036854775808", "100000000000000000000",
                                            pytest.param("9" * 401, id="401-digits")])
    def test_population_beyond_int64_rejected(self, population):
        stream = io.StringIO(f"region_id,population\nr1,{population}\nr2,9223372036854775807\n")
        result = parse_keyed_table(stream, "population")
        assert list(result.records.items()) == [("r2", 2**63 - 1)]
        assert result.diagnostics == ["population line 2: population out of range"]

    def test_unknown_damage_source_rejected(self):
        stream = io.StringIO("region_id,amount_usd,source\nr1,10,guess\n")
        result = parse_keyed_table(stream, "damage")
        assert result.records == {}
        assert result.rows_rejected == 1

    def test_non_finite_or_negative_damage_rejected(self):
        amounts = ["inf", "-inf", "nan", "1e999", "-5", "0", "1e300"]
        rows = "".join(f"r{i},{amount},fema_ia\n" for i, amount in enumerate(amounts))
        result = parse_keyed_table(io.StringIO("region_id,amount_usd,source\n" + rows), "damage")
        assert list(result.records.items()) == [(("r5", "fema_ia"), 0.0), (("r6", "fema_ia"), 1e300)]
        assert result.diagnostics == [
            f"damage line {line}: amount_usd must be finite and non-negative" for line in range(2, 7)
        ]

    def test_damage_total_overflow_rejected(self):
        stream = io.StringIO("region_id,amount_usd,source\nr1,1e308,fema_ia\nr1,1e308,fema_ia\nr1,1e308,insurance\n"
                             "r1,1e308,hazus\nr2,1e308,insurance\n")
        result = parse_keyed_table(stream, "damage")
        assert [(*key, amount) for key, amount in result.records.items()] == [
            ("r1", "fema_ia", 1e308), ("r1", "hazus", 1e308), ("r2", "insurance", 1e308)]
        # line 4 overflows the ex-post (fema_ia + insurance) total; hazus is not ex-post
        assert result.diagnostics == [
            "damage line 3: amount_usd overflows the fema_ia total of 'r1'",
            "damage line 4: amount_usd overflows the ex-post total of 'r1'",
        ]


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

    def test_non_finite_or_negative_damage_rejected(self):
        damages = [("inf", "1"), ("1", "-inf"), ("nan", "1"), ("-5", "1"), ("1", "1e303"), ("0", "1e300")]
        rows = "".join(f"c{i},100,1,1,{expost},{hazus}\n" for i, (expost, hazus) in enumerate(damages))
        result = parse_county_table(io.StringIO(",".join(ingest._COUNTY_COLUMNS) + "\n" + rows))
        assert [s.county for s in result.records] == ["c5"]
        assert result.diagnostics == [
            f"county table line {line}: damage must be finite and non-negative" for line in range(2, 7)
        ]


    @pytest.mark.parametrize("column", ["population", "tweets", "users"])
    def test_count_beyond_int64_rejected(self, column):
        cells = dict.fromkeys(ingest._COUNTY_COLUMNS, "1")
        rows = [{**cells, "county": "c1", column: "100000000000000000000"},
                {**cells, "county": "c2", column: "9223372036854775808"},
                {**cells, "county": "c3", column: "9223372036854775807"}]
        text = "".join(",".join(row.values()) + "\n" for row in [dict(zip(cells, cells)), *rows])
        result = parse_county_table(io.StringIO(text))
        assert [getattr(s, column) for s in result.records] == [2**63 - 1]
        assert result.diagnostics == [f"county table line {line}: counts out of range" for line in (2, 3)]


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



TAG_POOL = tuple(f"t{k:02d}" for k in range(70)) + ("sandy", "storm", "stay safe", "no power")


@st.composite
def mutated_messages_csv(draw):
    """A messages.csv text: canonical rows, many of them mutated into forms the
    bulk path must hand to the per-row converter, plus comments and blank lines."""
    n = draw(st.integers(0, 40))
    lines = [draw(st.sampled_from([HEADER.strip(), "MESSAGE_ID, user_id,timestamp,lat,lon,keywords,"
                                   "is_retweet,retweeted_count,sentiment,extra"]))]
    ids = []
    for i in range(n):
        message_id = f"m{i}"
        if ids and draw(st.integers(0, 9)) == 0:
            message_id = draw(st.sampled_from(ids))  # reuses an id, accepted or rejected
        ids.append(message_id)
        stamp = f"2012-{draw(st.integers(10, 11)):02d}-{draw(st.integers(1, 31)):02d}T" \
                f"{draw(st.integers(0, 23)):02d}:{draw(st.integers(0, 59)):02d}:{draw(st.integers(0, 59)):02d}Z"
        located = draw(st.booleans())
        lat = repr(draw(st.floats(-90, 90))) if located else ""
        lon = repr(draw(st.floats(-180, 180))) if located else ""
        tags = draw(st.lists(st.sampled_from(TAG_POOL), min_size=1, max_size=3))
        sentiment = draw(st.one_of(st.just(""), st.floats(-1, 1).map(repr)))
        cells = [message_id, f"u{draw(st.integers(0, 4))}", stamp, lat, lon, ";".join(tags),
                 str(draw(st.integers(0, 1))), str(draw(st.integers(0, 30))), sentiment]
        mutation = draw(st.integers(0, 30))
        if mutation == 1:
            cells = cells[: draw(st.integers(1, 8))]
        elif mutation == 2:
            cells.append("extra")
        elif mutation == 3:
            k = draw(st.integers(0, 8))
            cells[k] = f" {cells[k]}\t"
        elif mutation == 4:
            cells[2] = cells[2][:-1] + draw(st.sampled_from(["+05:00", ".25Z", ".000001Z", "z", "", "-00:30"]))
        elif mutation == 5:
            k = draw(st.sampled_from([3, 4, 8]))
            cells[k] = draw(st.sampled_from(["nan", "inf", "-inf", "1_0", "1e999", "NaN", "1-2", "0x1", "5.", "-0"]))
        elif mutation == 6:
            cells[5] = draw(st.sampled_from(["", " ; ", ";", "STORM; Sandy"]))
        elif mutation == 7:
            cells[6] = draw(st.sampled_from(["2", "", " 1", "true"]))
        elif mutation == 8:
            cells[7] = draw(st.sampled_from(["-1", "1_0", "+3", "", "999999999999999999", "٣"]))
        elif mutation == 9:
            cells[5] = f'"{cells[5]}\n{draw(st.sampled_from(TAG_POOL))}"'
        elif mutation == 10:
            cells[0] = ""
        elif mutation == 11:
            cells[2] = draw(st.sampled_from(["2012-02-30T00:00:00Z", "2012-10-30T24:00:00Z", "2012-10-30T00:00:60Z",
                                             "0000-01-01T00:00:00Z", "2012-10-30 00:00:00Z", "2012-1O-30T00:00:00Z"]))
        elif mutation == 12:
            k = draw(st.sampled_from([0, 1, 5]))
            cells[k] = cells[k][:1] + '"' + cells[k][1:]  # a stray quote inside an unquoted cell
        elif mutation == 13:
            k = draw(st.sampled_from([0, 1, 2, 5, 8]))
            cells[k] = draw(st.sampled_from(["\0", "x\0", ""])) + cells[k] + draw(st.sampled_from(["\0", ""]))
        elif mutation == 14:
            k = draw(st.sampled_from([0, 3, 6, 9, 12, 15, 18]))
            cells[2] = cells[2][:k] + draw(st.sampled_from(["\u0663", "\uff13", "\u00b2"])) + cells[2][k + 1:]
        lines.append(",".join(cells))
        if draw(st.integers(0, 12)) == 0:
            lines.append(draw(st.sampled_from(["# a comment", "", "   ", "#m0,u0"])))
    if draw(st.booleans()):
        # a quoted '#'-leading id late in the file, after lines that need no quoting
        at = draw(st.integers((len(lines) + 1) // 2, len(lines)))
        lines.insert(at, '"#late",u1,2012-10-30T00:00:00Z,,,sandy,0,0,')
    ends = draw(st.lists(st.sampled_from(["\n"] * 8 + ["\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


def _float_bits(values):
    return np.array([math.nan if v is None else v for v in values], dtype=float).view(np.uint64).tolist()


# The first valid row of an id is accepted; every later row of that id, valid
# or not, is a duplicate; a failing row before the first valid one keeps its
# own diagnostic. With "storm" as the filter, the accepted "a" (line 3) is
# filtered out and still makes lines 5 and 7 duplicates.
DUPLICATE_RULE_CSV = HEADER + "".join(f"{row}\n" for row in (
    "b,u1,yesterday,,,storm,0,0,",
    "a,u1,2012-10-30T01:00:00Z,,,sandy,0,0,",
    "c,u2,2012-10-30T02:00:00Z,,,storm,0,0,",
    "a,u2,noon,,,storm,0,0,",
    "b,u3,2012-10-30T04:00:00Z,,,storm,0,0,",
    "a,u3,2012-10-30T05:00:00Z,,,storm,0,0,",
))


class TestBulkMatchesPerRowReference:
    """The table, counts and diagnostics equal those of the frozen per-row parser."""

    @given(mutated_messages_csv(), st.sampled_from([1, 3, 1 << 12, 1 << 14]),
           st.one_of(st.none(), st.sets(st.sampled_from(TAG_POOL), max_size=3)))
    @example(HEADER + "m0,x\0u0,2012-10-30T00:00:00Z,,,sandy,0,0,\nm1,x\0u2,2012-10-30T00:00:00Z,,,sandy,0,0,\n",
             1 << 14, None)
    @example(DUPLICATE_RULE_CSV, 1, None)
    @example(DUPLICATE_RULE_CSV, 2, None)
    @example(DUPLICATE_RULE_CSV, ingest._BLOCK_ROWS, None)
    @example(DUPLICATE_RULE_CSV, 1, {"storm"})
    @example(DUPLICATE_RULE_CSV, 2, {"storm"})
    @example(DUPLICATE_RULE_CSV, ingest._BLOCK_ROWS, {"storm"})
    @settings(max_examples=100, deadline=None)
    def test_table_equals_reference(self, text, block_rows, keyword_filter):
        expected = parse_messages_reference(text, keyword_filter)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_BLOCK_ROWS", block_rows)
            result = parse_messages(io.StringIO(text, newline=""), keyword_filter)
        assert (result.rows_total, result.rows_rejected, result.rows_filtered) == (
            expected.rows_total, expected.rows_rejected, expected.rows_filtered)
        assert result.diagnostics == expected.diagnostics
        table, records = result.records, expected.records
        assert list(table) == records
        assert table.message_id.tolist() == [r.message_id for r in records]
        assert [table.user_ids[u] for u in table.user.tolist()] == [r.user_id for r in records]
        assert table.time_us.tolist() == [(r.timestamp - UNIX_EPOCH) // MICROSECOND for r in records]
        assert table.lat.view(np.uint64).tolist() == _float_bits(r.location[0] if r.location else None for r in records)
        assert table.lon.view(np.uint64).tolist() == _float_bits(r.location[1] if r.location else None for r in records)
        assert table.sentiment.view(np.uint64).tolist() == _float_bits(r.sentiment for r in records)
        assert [table.keyword_sets[k] for k in table.keyword_set.tolist()] == [r.keywords for r in records]
        assert table.tags == tuple(sorted({t for r in records for t in r.keywords}))
        for k, tags in enumerate(table.keyword_sets):
            assert {table.tags[j] for j in np.flatnonzero(table.tag_matrix[k])} == tags

    def test_more_than_64_tags(self):
        rows = [f"m{k},u1,2012-10-30T00:00:00Z,,,{TAG_POOL[k]};sandy,0,0," for k in range(70)]
        table = parse_messages(messages_csv(*rows)).records
        assert len(table.tags) == 71
        assert table.tag_matrix.shape == (70, 71)
        assert table.tag_matrix.sum() == 140
        assert list(table) == parse_messages_reference(HEADER + "\n".join(rows) + "\n").records

    def test_canonical_rows_taken_in_bulk(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("per-row converter called on a canonical row")

        monkeypatch.setattr(ingest, "_message_fields", refuse)
        result = parse_messages(messages_csv(
            "m1,u1,2012-10-30T00:00:00Z,40.71,-74.01,sandy;storm,0,3,-0.2",
            "m2,u2,2012-02-29T23:59:59Z,,,gas,1,0,",
        ))
        assert len(result.records) == 2

    def test_non_canonical_rows_go_to_the_converter(self, monkeypatch):
        converted = []
        convert = ingest._message_fields

        def spy(row, col):
            converted.append(row[0].strip())
            return convert(row, col)

        monkeypatch.setattr(ingest, "_message_fields", spy)
        result = parse_messages(messages_csv(
            "m1,u1,2012-10-30T00:00:00Z,1_0,-74.01,sandy,0,3,",
            "m2,u1,2012-10-30T00:00:00Z,40.5,-74.01,sandy,0,3, 0.5",
            "m3,u1,2012-10-30T05:00:00+05:00,,,sandy,0,3,",
            "m4,u1,2012-10-30T00:00:00.5Z,,,sandy,0,3,",
            "m5,u1,2012-10-30T00:00:00Z,,,sandy,0,1_0,",
            "m6,u1,2012-10-30T00:00:00Z,,,sandy,0,3",
            "m7,u1,2012-10-30T00:00:00Z,,,sandy,0,3,",
            "m7,u1,2012-10-30T00:00:00Z,,,sandy,0,3,",
        ))
        # a canonical row that repeats an id is taken in bulk and rejected once the file is read
        assert converted == ["m1", "m2", "m3", "m4", "m5", "m6"]
        assert len(result.records) == 7
        assert result.diagnostics == ["messages line 9: duplicate message_id 'm7'"]

    @pytest.mark.parametrize("block_rows", [1, 3, 1 << 14])
    def test_quoted_hash_id_late_in_the_file(self, block_rows, monkeypatch):
        rows = [f"m{k},u{k % 3},2012-10-30T0{k}:00:00Z,40.5,-74.01,sandy,0,{k}," for k in range(7)]
        rows[5] = '"#m5",u1,2012-10-30T05:00:00Z,,,storm,1,0,0.5'
        text = HEADER + "\n".join(rows) + "\n"
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", block_rows)
        result = parse_messages(io.StringIO(text))
        assert result.records.message_id.tolist() == ["m0", "m1", "m2", "m3", "m4", "#m5", "m6"]
        assert list(result.records) == parse_messages_reference(text).records

    @pytest.mark.parametrize("block_rows", [1, 3, 1 << 14])
    def test_line_over_a_lowered_field_limit(self, block_rows, monkeypatch):
        # every line is over the lowered limit and parses; the one cell over it is fatal, with its line
        rows = [f"m{k},u{k},2012-10-30T00:00:00Z,40.5,-74.01,sandy,0,{k},0.25" for k in range(6)]
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", block_rows)
        limit = csv.field_size_limit(48)
        try:
            result = parse_messages(messages_csv(*rows))
            assert len(result.records) == 6 and result.diagnostics == []
            rows[4] = rows[4].replace(",u4,", f",{'u' * 60},")
            with pytest.raises(IngestError, match=r"^messages line 6: field larger than field limit"):
                parse_messages(messages_csv(*rows))
        finally:
            csv.field_size_limit(limit)
        assert csv.field_size_limit() == limit

    def test_simulated_bundle_needs_neither_csv_reader_nor_the_per_row_converter(self, tmp_path, monkeypatch):
        # csv.reader reads the header and nothing else; every data row is split and converted in bulk
        config = SimConfig(seed=3, n_regions=16, population_range=(500, 1500),
                           keywords=(("storm", KeywordProfile(base_rate=0.001, event_amplitude=0.01)),))
        bundle = generate(config, tmp_path / "sim")
        reader, records = csv.reader, []

        def counting_reader(lines):
            for row in reader(lines):
                records.append(row)
                yield row

        def refuse(*args):
            raise AssertionError("per-row converter called on a simulated row")

        monkeypatch.setattr(csv, "reader", counting_reader)
        monkeypatch.setattr(ingest, "_message_fields", refuse)
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", 64)
        result = parse_messages(bundle.messages_csv)
        assert records == [list(ingest.MESSAGE_COLUMNS)]
        assert len(result.records) == result.rows_total > 3 * 64

    def test_timestamp_past_the_datetime_range_in_utc_rejected(self):
        # the offset moves each instant past year 9999 or before year 1; that was an OverflowError traceback
        result = parse_messages(messages_csv("m1,u1,9999-12-31T23:59:59-05:00,,,sandy,0,0,",
                                             "m2,u1,2012-10-30T00:00:00Z,,,sandy,0,0,"))
        assert [m.message_id for m in result.records] == ["m2"]
        assert result.diagnostics == ["messages line 2: timestamp '9999-12-31T23:59:59-05:00' out of range in UTC"]
        track = parse_track(io.StringIO("timestamp,lat,lon\n0001-01-01T00:00:00+05:00,30,-70\n"))
        assert track.diagnostics == ["track line 2: timestamp '0001-01-01T00:00:00+05:00' out of range in UTC"]

    def test_retweeted_count_beyond_int64_rejected(self):
        result = parse_messages(messages_csv("m1,u1,2012-10-30T00:00:00Z,,,sandy,0,9223372036854775808,"))
        assert result.diagnostics == ["messages line 2: retweeted_count out of range"]
