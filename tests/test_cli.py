import csv
import hashlib
import json
from pathlib import Path

import pytest

from damagenowcast.cli import main

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "sandy_counties.csv"


def run(*argv) -> int:
    return main([str(a) for a in argv])


def read_report(path: Path):
    """Split a report into (header-block dict, DictReader rows)."""
    config = {}
    data_lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            config[key.strip()] = value.strip()
        else:
            data_lines.append(line)
    return config, list(csv.DictReader(data_lines))


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def sim_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle") / "sim"
    code = run("simulate", "--seed", 99, "--out", out, "--regions", 25,
               "--amplitude", "0.02", "--base-rate", "0.001")
    assert code == 0
    return out


class TestSimulateCommand:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        assert run("simulate", "--seed", 7, "--out", tmp_path / "a", "--regions", 9) == 0
        assert run("simulate", "--seed", 7, "--out", tmp_path / "b", "--regions", 9) == 0
        for name in ("messages.csv", "regions.geojson", "population.csv",
                     "damage.csv", "track.csv", "ground_truth.csv"):
            assert sha(tmp_path / "a" / name) == sha(tmp_path / "b" / name)


class TestCorrelateCommand:
    def test_full_grid_and_determinism(self, sim_bundle, tmp_path):
        argv = (
            "correlate",
            "--messages", sim_bundle / "messages.csv",
            "--regions", sim_bundle / "regions.geojson",
            "--population", sim_bundle / "population.csv",
            "--damage", sim_bundle / "damage.csv",
            "--keywords", "storm",
            "--window", "2012-10-31..2012-11-11",
        )
        assert run(*argv, "--out", tmp_path / "r1") == 0
        assert run(*argv, "--out", tmp_path / "r2") == 0
        a = (tmp_path / "r1" / "correlations.csv").read_text()
        b = (tmp_path / "r2" / "correlations.csv").read_text()
        assert a.replace("r1", "rX") == b.replace("r2", "rX")  # differ only in echoed out dir

        config, rows = read_report(tmp_path / "r1" / "correlations.csv")
        assert config["command"] == "correlate"
        methods = {r["method"] for r in rows}
        assert methods == {"kendall", "spearman", "pearson"}
        scopes = {r["scope"] for r in rows}
        assert scopes == {"activity", "sentiment"}
        keywords = {r["keyword"] for r in rows}
        assert keywords == {"pooled", "storm"}
        for row in rows:
            assert row["n"] != ""
            assert row["excluded"] != ""

    def test_county_table_mode(self, tmp_path):
        assert run("correlate", "--county-table", FIXTURE, "--out", tmp_path) == 0
        _, rows = read_report(tmp_path / "correlations.csv")
        cell = next(
            r for r in rows
            if r["damage_source"] == "ex_post" and r["method"] == "kendall"
            and r["normalization"] == "census_population" and r["transform"] == "raw"
        )
        assert float(cell["coefficient"]) == pytest.approx(0.339031, abs=1e-5)
        assert cell["n"] == "27"

    def test_overlay_geojson(self, sim_bundle, tmp_path):
        overlay = tmp_path / "overlay.geojson"
        assert run(
            "correlate",
            "--messages", sim_bundle / "messages.csv",
            "--regions", sim_bundle / "regions.geojson",
            "--population", sim_bundle / "population.csv",
            "--damage", sim_bundle / "damage.csv",
            "--keywords", "storm",
            "--out", tmp_path,
            "--overlay", overlay,
        ) == 0
        doc = json.loads(overlay.read_text())
        assert doc["type"] == "FeatureCollection"
        assert len(doc["features"]) == 25
        props = doc["features"][0]["properties"]
        assert set(props) >= {"region_id", "activity_pc", "damage_pc", "rank_discrepancy"}
        values = [f["properties"]["rank_discrepancy"] for f in doc["features"]]
        present = [v for v in values if v is not None]
        assert present and max(present) <= 1.0

    def test_degenerate_only_exits_2(self, sim_bundle, tmp_path):
        code = run(
            "correlate",
            "--messages", sim_bundle / "messages.csv",
            "--regions", sim_bundle / "regions.geojson",
            "--population", sim_bundle / "population.csv",
            "--damage", sim_bundle / "damage.csv",
            "--keywords", "nosuchkeyword",
            "--out", tmp_path,
        )
        assert code == 2


class TestNowcastCommand:
    def test_fixture_ranking(self, tmp_path):
        assert run("nowcast", "--county-table", FIXTURE, "--out", tmp_path) == 0
        _, rows = read_report(tmp_path / "nowcast.csv")
        assert rows[0]["region_id"] == "New York"
        assert rows[0]["rank"] == "1"
        assert float(rows[0]["per_capita_activity"]) == pytest.approx(0.0313553, abs=1e-6)
        assert len(rows) == 27

    def test_determinism(self, tmp_path):
        run("nowcast", "--county-table", FIXTURE, "--out", tmp_path / "a")
        run("nowcast", "--county-table", FIXTURE, "--out", tmp_path / "b")
        a = (tmp_path / "a" / "nowcast.csv").read_text().replace(str(tmp_path / "a"), "O")
        b = (tmp_path / "b" / "nowcast.csv").read_text().replace(str(tmp_path / "b"), "O")
        assert a == b

    def test_excluded_regions_reported(self, sim_bundle, tmp_path):
        assert run(
            "nowcast",
            "--messages", sim_bundle / "messages.csv",
            "--regions", sim_bundle / "regions.geojson",
            "--population", sim_bundle / "population.csv",
            "--keywords", "storm",
            "--window", "2012-10-31..2012-11-11",
            "--out", tmp_path,
        ) in (0, 2)
        assert (tmp_path / "nowcast_excluded.csv").exists()

    def test_all_inactive_exits_2(self, sim_bundle, tmp_path):
        code = run(
            "nowcast",
            "--messages", sim_bundle / "messages.csv",
            "--regions", sim_bundle / "regions.geojson",
            "--population", sim_bundle / "population.csv",
            "--keywords", "nosuchkeyword",
            "--out", tmp_path,
        )
        assert code == 2


class TestSeriesCommand:
    def test_series_rows_per_method(self, sim_bundle, tmp_path):
        assert run(
            "series",
            "--messages", sim_bundle / "messages.csv",
            "--regions", sim_bundle / "regions.geojson",
            "--population", sim_bundle / "population.csv",
            "--damage", sim_bundle / "damage.csv",
            "--keywords", "storm",
            "--span", "2012-10-22..2012-11-11",
            "--out", tmp_path,
        ) == 0
        _, rows = read_report(tmp_path / "series.csv")
        # 21 daily bins x 3 statistic rows
        assert len(rows) == 63
        assert {r["method"] for r in rows} == {"kendall", "spearman", "sentiment_kendall"}
        starts = [r["bin_start"] for r in rows]
        assert starts[0].startswith("2012-10-22")
        assert starts[-1].startswith("2012-11-11")


class TestJoinSummarize:
    def test_join_output(self, sim_bundle, tmp_path):
        assert run(
            "join",
            "--messages", sim_bundle / "messages.csv",
            "--regions", sim_bundle / "regions.geojson",
            "--out", tmp_path,
        ) == 0
        _, rows = read_report(tmp_path / "join.csv")
        assert rows
        # simulator ids encode the generating region; the join must agree
        for row in rows[:200]:
            assert row["region_id"] == row["message_id"].rsplit("-", 1)[0]

    def test_summarize_counts_balance(self, sim_bundle, tmp_path):
        assert run(
            "summarize",
            "--messages", sim_bundle / "messages.csv",
            "--regions", sim_bundle / "regions.geojson",
            "--population", sim_bundle / "population.csv",
            "--out", tmp_path,
        ) == 0
        _, rows = read_report(tmp_path / "summaries.csv")
        assert len(rows) == 25
        for row in rows:
            assert int(row["n_original"]) + int(row["n_retweets"]) == int(row["n_messages"])


class TestRankKeywordsCommand:
    def test_ranking_runs(self, sim_bundle, tmp_path):
        assert run(
            "rank-keywords",
            "--messages", sim_bundle / "messages.csv",
            "--regions", sim_bundle / "regions.geojson",
            "--track", sim_bundle / "track.csv",
            "--min-lon", "-180",
            "--out", tmp_path,
        ) == 0
        _, rows = read_report(tmp_path / "keywords.csv")
        assert rows[0]["keyword"] == "storm"
        assert float(rows[0]["kendall"]) < 0  # activity decays with distance


class TestValidateCommand:
    def test_validate_bundle(self, sim_bundle):
        assert run(
            "validate",
            "--messages", sim_bundle / "messages.csv",
            "--regions", sim_bundle / "regions.geojson",
            "--population", sim_bundle / "population.csv",
            "--damage", sim_bundle / "damage.csv",
            "--track", sim_bundle / "track.csv",
            "--county-table", FIXTURE,
        ) == 0

    def test_validate_without_inputs_errors(self):
        assert run("validate") == 1

    def test_validate_reports_malformed_geometry(self, tmp_path, capsys):
        feature = {
            "type": "Feature",
            "properties": {"region_id": "r1", "level": "county"},
            "geometry": {"type": "Polygon", "coordinates": [[[0, 0], None, [1, 1], [0, 1], [0, 0]]]},
        }
        path = tmp_path / "regions.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": [feature]}))
        assert run("validate", "--regions", path) == 0
        out = capsys.readouterr().out
        assert "regions: 0 records, 1 rejected" in out
        assert "regions feature 0: malformed ring coordinates" in out


class TestErrorHandling:
    def test_unknown_flag_exits_1(self, capsys):
        assert run("correlate", "--nonsense") == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self):
        assert run("frobnicate") == 1

    def test_no_subcommand_exits_1(self):
        assert run() == 1

    def test_missing_required_inputs_exit_1(self, tmp_path):
        assert run("correlate", "--out", tmp_path) == 1

    def test_missing_file_exits_1(self, tmp_path):
        assert run(
            "correlate",
            "--messages", tmp_path / "nope.csv",
            "--regions", tmp_path / "nope.geojson",
            "--population", tmp_path / "nope.csv",
            "--damage", tmp_path / "nope.csv",
            "--out", tmp_path,
        ) == 1

    def test_bad_window_exits_1(self, sim_bundle, tmp_path):
        assert run(
            "correlate",
            "--messages", sim_bundle / "messages.csv",
            "--regions", sim_bundle / "regions.geojson",
            "--population", sim_bundle / "population.csv",
            "--damage", sim_bundle / "damage.csv",
            "--window", "notawindow",
            "--out", tmp_path,
        ) == 1

    def test_bad_epoch_exits_1(self, sim_bundle, tmp_path, capsys):
        assert run(
            "series",
            "--messages", sim_bundle / "messages.csv",
            "--regions", sim_bundle / "regions.geojson",
            "--population", sim_bundle / "population.csv",
            "--damage", sim_bundle / "damage.csv",
            "--epoch", "not-a-timestamp",
            "--out", tmp_path,
        ) == 1
        assert "error" in capsys.readouterr().err


class TestReportRoundTrip:
    def test_simulated_messages_roundtrip_through_ingest(self, sim_bundle, tmp_path):
        from damagenowcast.ingest import parse_messages, write_messages_csv

        records = parse_messages(sim_bundle / "messages.csv").records
        out = tmp_path / "again.csv"
        write_messages_csv(records, out)
        assert (sim_bundle / "messages.csv").read_text() == out.read_text()
