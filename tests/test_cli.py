import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import damagenowcast
from damagenowcast import metrics
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

    @pytest.mark.parametrize("option, value, message", [
        ("--regions", "0", "--regions must be at least 1"),
        ("--regions", "-3", "--regions must be at least 1"),
        ("--base-rate", "-1", "--base-rate must be finite and non-negative"),
        ("--keyword", "", "--keyword must be one tag"),
        ("--keyword", "a;b", "--keyword must be one tag"),
        ("--sigma", "nan", "--sigma must be finite and non-negative"),
        ("--base-rate", "1e300", "lower --base-rate, --amplitude or --media-burst"),
        ("--amplitude", "1e300", "lower --base-rate, --amplitude or --media-burst"),
    ])
    def test_bad_argument_is_a_usage_error_before_writing(self, tmp_path, capsys, option, value, message):
        out = tmp_path / "sim"
        assert run("simulate", "--seed", 1, "--out", out, "--regions", 4, option, value) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("damage", ["inf", "-5"])
    def test_county_row_with_unusable_damage_is_dropped(self, tmp_path, capsys, damage):
        # an inf gave Pearson 1, p 0 for raw and log10; a negative amount was read silently
        lines = FIXTURE.read_text().splitlines(keepends=True)
        (tmp_path / "bad.csv").write_text("".join(lines[:1] + [lines[1].replace(",954,", f",{damage},")] + lines[2:]))
        (tmp_path / "dropped.csv").write_text("".join(lines[:1] + lines[2:]))
        assert run("correlate", "--county-table", tmp_path / "bad.csv", "--out", tmp_path / "bad") == 0
        assert "county table: 1 of 27 rows rejected" in capsys.readouterr().err
        assert run("correlate", "--county-table", tmp_path / "dropped.csv", "--out", tmp_path / "dropped") == 0

        def data(report):
            return [line for line in (report / "correlations.csv").read_text().splitlines() if line[:1] != "#"]

        assert data(tmp_path / "bad") == data(tmp_path / "dropped")

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

    def test_county_table_with_overlay_is_a_usage_error(self, tmp_path, capsys):
        overlay = tmp_path / "overlay.geojson"
        code = run("correlate", "--county-table", FIXTURE, "--overlay", overlay, "--out", tmp_path)
        assert code == 1
        assert "--overlay" in capsys.readouterr().err
        assert not overlay.exists()
        assert not (tmp_path / "correlations.csv").exists()

    @pytest.mark.parametrize("command", ["correlate", "nowcast"])
    def test_county_table_with_window_or_keywords_is_a_usage_error(self, command, tmp_path, capsys):
        # both were echoed in the header of a report they did not change
        for option, value in (("--window", "2099-01-01..2099-01-02"), ("--keywords", "gas")):
            assert run(command, "--county-table", FIXTURE, option, value, "--out", tmp_path / option) == 1
            assert option in capsys.readouterr().err
            assert not (tmp_path / option).exists()
        assert run(command, "--county-table", FIXTURE, "--out", tmp_path / "plain") == 0
        report = tmp_path / "plain" / ("correlations.csv" if command == "correlate" else "nowcast.csv")
        config, _ = read_report(report)
        assert "county-table" in config and "window" not in config and "keywords" not in config

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

    def test_damage_adds_damage_rank_column(self, sim_bundle, tmp_path):
        inputs = ("--messages", sim_bundle / "messages.csv", "--regions", sim_bundle / "regions.geojson",
                  "--population", sim_bundle / "population.csv", "--keywords", "storm")
        assert run("nowcast", *inputs, "--out", tmp_path / "plain") == 0
        assert run("nowcast", *inputs, "--damage", sim_bundle / "damage.csv", "--out", tmp_path / "damage") == 0
        _, plain = read_report(tmp_path / "plain" / "nowcast.csv")
        _, ranked = read_report(tmp_path / "damage" / "nowcast.csv")
        assert "damage_rank" not in plain[0]
        assert [{k: v for k, v in row.items() if k != "damage_rank"} for row in ranked] == plain
        with open(sim_bundle / "population.csv", encoding="utf-8", newline="") as handle:
            population = {r["region_id"]: int(r["population"]) for r in csv.DictReader(handle)}
        damage = {}
        with open(sim_bundle / "damage.csv", encoding="utf-8", newline="") as handle:
            for r in csv.DictReader(handle):
                damage[r["region_id"]] = damage.get(r["region_id"], 0.0) + float(r["amount_usd"])
        by_damage = sorted((-damage.get(row["region_id"], 0.0) / population[row["region_id"]], row["region_id"])
                           for row in ranked)
        expected = {region_id: str(i) for i, (_, region_id) in enumerate(by_damage, start=1)}
        assert {row["region_id"]: row["damage_rank"] for row in ranked} == expected

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


def _with_hazus_row(bundle: Path, tmp_path: Path) -> Path:
    """A copy of the bundle's damage.csv with one large modeled hazus row."""
    damage = tmp_path / "damage_with_hazus.csv"
    text = (bundle / "damage.csv").read_text(encoding="utf-8")
    damage.write_text(text + "r0000,1e12,hazus\n", encoding="utf-8")
    return damage


def _hazus_only(bundle: Path, tmp_path: Path) -> Path:
    """A copy of the bundle's damage.csv with every row relabelled hazus."""
    damage = tmp_path / "damage_hazus_only.csv"
    header, *rows = (bundle / "damage.csv").read_text(encoding="utf-8").splitlines()
    rows = [row.rsplit(",", 1)[0] + ",hazus" for row in rows]
    damage.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return damage


class TestExPostDamage:
    def series(self, bundle, damage, out):
        return run(
            "series",
            "--messages", bundle / "messages.csv",
            "--regions", bundle / "regions.geojson",
            "--population", bundle / "population.csv",
            "--damage", damage,
            "--keywords", "storm",
            "--out", out,
        )

    def correlate(self, bundle, damage, out, overlay):
        return run(
            "correlate",
            "--messages", bundle / "messages.csv",
            "--regions", bundle / "regions.geojson",
            "--population", bundle / "population.csv",
            "--damage", damage,
            "--keywords", "storm",
            "--out", out,
            "--overlay", overlay,
        )

    def test_hazus_row_leaves_series_unchanged(self, sim_bundle, tmp_path):
        assert self.series(sim_bundle, sim_bundle / "damage.csv", tmp_path / "a") == 0
        assert self.series(sim_bundle, _with_hazus_row(sim_bundle, tmp_path), tmp_path / "b") == 0
        assert read_report(tmp_path / "b" / "series.csv")[1] == (
            read_report(tmp_path / "a" / "series.csv")[1]
        )

    def test_series_without_ex_post_rows_exits_1(self, sim_bundle, tmp_path, capsys):
        assert self.series(sim_bundle, _hazus_only(sim_bundle, tmp_path), tmp_path) == 1
        assert "no ex-post rows" in capsys.readouterr().err
        assert not (tmp_path / "series.csv").exists()

    def test_hazus_row_leaves_nowcast_unchanged(self, sim_bundle, tmp_path):
        for name, damage in (
            ("a", sim_bundle / "damage.csv"),
            ("b", _with_hazus_row(sim_bundle, tmp_path)),
            ("c", _hazus_only(sim_bundle, tmp_path)),
        ):
            assert run(
                "nowcast",
                "--messages", sim_bundle / "messages.csv",
                "--regions", sim_bundle / "regions.geojson",
                "--population", sim_bundle / "population.csv",
                "--damage", damage,
                "--keywords", "storm",
                "--out", tmp_path / name,
            ) == 0
        reference = read_report(tmp_path / "a" / "nowcast.csv")[1]
        assert read_report(tmp_path / "b" / "nowcast.csv")[1] == reference
        # with no ex-post rows the ranking stays and damage_rank is empty
        hazus_only = read_report(tmp_path / "c" / "nowcast.csv")[1]
        assert [row["damage_rank"] for row in hazus_only] == [""] * len(reference)
        assert [dict(row, damage_rank="") for row in reference] == hazus_only

    def test_overlay_without_ex_post_rows_keeps_correlations(self, sim_bundle, tmp_path, capsys):
        damage = _hazus_only(sim_bundle, tmp_path)
        overlay = tmp_path / "overlay.geojson"
        assert self.correlate(sim_bundle, damage, tmp_path / "a", overlay) == 0
        assert "no ex-post damage rows" in capsys.readouterr().err
        _, rows = read_report(tmp_path / "a" / "correlations.csv")
        assert rows and {r["damage_source"] for r in rows} == {"hazus"}
        props = [f["properties"] for f in json.loads(overlay.read_text())["features"]]
        assert any(p["activity_pc"] is not None for p in props)
        assert all(p["damage_pc"] is None and p["rank_discrepancy"] is None for p in props)

    def test_ex_post_sum_overflow_rejected(self, sim_bundle, tmp_path, capsys):
        # each row is finite and within its own source's total; their ex-post sum is not
        text = (sim_bundle / "damage.csv").read_text(encoding="utf-8")
        fema, both = tmp_path / "fema.csv", tmp_path / "both.csv"
        fema.write_text(text + "r0000,1e308,fema_ia\n", encoding="utf-8")
        both.write_text(text + "r0000,1e308,fema_ia\nr0000,1e308,insurance\n", encoding="utf-8")
        assert run("validate", "--damage", both) == 0
        line = len(text.splitlines()) + 2
        assert f"damage line {line}: amount_usd overflows the ex-post total of 'r0000'" in capsys.readouterr().out

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        reports = {}
        for name, damage in (("fema", fema), ("both", both)):
            overlay = tmp_path / name / "overlay.geojson"
            assert self.correlate(sim_bundle, damage, tmp_path / name, overlay) == 0
            assert run("nowcast", "--messages", sim_bundle / "messages.csv",
                       "--regions", sim_bundle / "regions.geojson", "--population", sim_bundle / "population.csv",
                       "--damage", damage, "--keywords", "storm", "--out", tmp_path / name) == 0
            reports[name] = (json.loads(overlay.read_text(encoding="utf-8"), parse_constant=refuse),
                             read_report(tmp_path / name / "nowcast.csv")[1])
        # the rejected row changes nothing: the overlay and the damage ranks are those of the accepted rows
        assert reports["both"] == reports["fema"]

    def test_overlay_uses_ex_post_total(self, sim_bundle, tmp_path):
        overlay = tmp_path / "overlay.geojson"
        assert self.correlate(sim_bundle, _with_hazus_row(sim_bundle, tmp_path), tmp_path, overlay) == 0
        insurance = {}
        with open(sim_bundle / "damage.csv", encoding="utf-8", newline="") as handle:
            for row in csv.DictReader(handle):
                insurance[row["region_id"]] = float(row["amount_usd"])
        population = {}
        with open(sim_bundle / "population.csv", encoding="utf-8", newline="") as handle:
            for row in csv.DictReader(handle):
                population[row["region_id"]] = int(row["population"])
        props = {
            f["properties"]["region_id"]: f["properties"]
            for f in json.loads(overlay.read_text())["features"]
        }
        assert props["r0000"]["damage_pc"] == insurance["r0000"] / population["r0000"]


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


def test_analysis_commands_build_no_summary_objects_or_id_dicts(sim_bundle, tmp_path, monkeypatch):
    # correlate, nowcast, rank-keywords and summarize read the join codes and the summary grid as arrays
    def refuse(*args, **kwargs):
        raise AssertionError("per-region summary or message_id lookup on a command path")

    monkeypatch.setattr(metrics, "ActivitySummary", refuse)
    monkeypatch.setattr(metrics.RegionCodes, "from_mapping", refuse)
    inputs = ("--messages", sim_bundle / "messages.csv", "--regions", sim_bundle / "regions.geojson")
    tables = ("--population", sim_bundle / "population.csv", "--damage", sim_bundle / "damage.csv")
    assert run("correlate", *inputs, *tables, "--overlay", tmp_path / "overlay.geojson", "--out", tmp_path) == 0
    assert run("nowcast", *inputs, *tables, "--out", tmp_path) == 0
    assert run("rank-keywords", *inputs, "--track", sim_bundle / "track.csv", "--out", tmp_path) == 0
    assert run("summarize", *inputs, tables[0], tables[1], "--window", "2012-10-29..2012-11-02", "--out", tmp_path) == 0


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported on the first p-value; join, nowcast and simulate never need it
    env = dict(os.environ, PYTHONPATH=str(Path(damagenowcast.__file__).parents[1]))
    probe = "import sys, damagenowcast.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout.strip() == "False"


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


class TestRejectedRowsWarning:
    def test_one_line_per_input_with_rejected_rows(self, sim_bundle, tmp_path, capsys):
        messages = tmp_path / "messages.csv"
        lines = (sim_bundle / "messages.csv").read_text().splitlines()
        messages.write_text("\n".join(lines + ["bad,row", "m-x,u,not-a-time,,,storm,0,0,"]) + "\n")
        population = tmp_path / "population.csv"
        population.write_text((sim_bundle / "population.csv").read_text() + "r-x,zero\n")
        inputs = ("--messages", messages, "--regions", sim_bundle / "regions.geojson")
        tables = ("--population", population, "--damage", sim_bundle / "damage.csv")
        commands = {
            "join": ("join", *inputs),
            "correlate": ("correlate", *inputs, *tables),
            "series": ("series", *inputs, *tables),
            "nowcast": ("nowcast", *inputs, *tables),
            "rank-keywords": ("rank-keywords", *inputs, "--track", sim_bundle / "track.csv"),
        }
        total = len(lines) + 1
        for name, argv in commands.items():
            capsys.readouterr()
            assert run(*argv, "--out", tmp_path / name) in (0, 2)
            warnings = [line for line in capsys.readouterr().err.splitlines() if "rejected" in line]
            expected = [f"messages: 2 of {total} rows rejected (run validate for details)"]
            if name in ("correlate", "series", "nowcast"):
                population_rows = len((sim_bundle / "population.csv").read_text().splitlines())
                expected.append(f"population: 1 of {population_rows} rows rejected (run validate for details)")
            assert warnings == expected, name

    def test_clean_inputs_print_no_warning(self, sim_bundle, tmp_path, capsys):
        assert run("join", "--messages", sim_bundle / "messages.csv", "--regions", sim_bundle / "regions.geojson",
                   "--out", tmp_path) == 0
        assert capsys.readouterr().err == ""

    def test_report_unchanged_by_rejected_rows(self, sim_bundle, tmp_path):
        messages = tmp_path / "messages.csv"
        messages.write_text((sim_bundle / "messages.csv").read_text() + "bad,row\n")
        for name, path in (("clean", sim_bundle / "messages.csv"), ("dirty", messages)):
            assert run("join", "--messages", path, "--regions", sim_bundle / "regions.geojson",
                       "--out", tmp_path / name) == 0
        clean, dirty = (read_report(tmp_path / name / "join.csv")[1] for name in ("clean", "dirty"))
        assert clean == dirty


class TestIndexBound:
    def test_tiny_cell_size_exits_1(self, sim_bundle, tmp_path, capsys):
        code = run("join", "--messages", sim_bundle / "messages.csv", "--regions", sim_bundle / "regions.geojson",
                   "--cell-deg", "1e-6", "--out", tmp_path)
        assert code == 1
        assert "larger cell size" in capsys.readouterr().err


class TestReportRoundTrip:
    def test_simulated_messages_roundtrip_through_ingest(self, sim_bundle, tmp_path):
        from damagenowcast.ingest import parse_messages, write_messages_csv

        records = parse_messages(sim_bundle / "messages.csv").records
        out = tmp_path / "again.csv"
        write_messages_csv(records, out)
        assert (sim_bundle / "messages.csv").read_text() == out.read_text()
