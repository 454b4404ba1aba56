"""Self-tests of the benchmark's checks: each passes on the program's real
reports and fails once a report is corrupted.

Runs on a tiny bundle in a few seconds:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = replace(
    WORKLOADS["dense_city"],
    name="tiny",
    cols=6,
    rows=5,
    island_every=4,
    messages=(20, 40),
    plant_messages=4,
    unlocated=12,
    outside=15,
    no_population=2,
    zero_damage=3,
    simulate_args=("--regions", "12", "--base-rate", "0.002", "--amplitude", "0.02"),
    structure_seed=7,
)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The tiny bundle, its truth, and one untraced pass of every command."""
    work = tmp_path_factory.mktemp("tiny")
    gen.generate(TINY, seed=3, out_dir=work / "gen")
    cli, _ = run._import_program()
    lines = run.command_lines(TINY, 3, work / "gen" / "bundle", work / "reports", work / "sim")
    _, codes, _ = run.run_pass(cli, lines)
    assert codes == dict.fromkeys(run.COMMANDS, 0)
    return {"cli": cli, "lines": lines, "work": work, "truth": oracle.Truth.load(work / "gen" / "truth.npz")}


def _check(pipeline, reports: Path, sim: Path) -> list[str]:
    return oracle.check_all(pipeline["truth"], reports, sim, TINY, set(run.COMMANDS))


def test_checks_pass_on_program_output(pipeline):
    work = pipeline["work"]
    assert _check(pipeline, work / "reports", work / "sim") == []


def _rewrite_csv(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    head = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(head)
        csv.writer(handle, lineterminator="\n").writerows(rows)


def _swap_nowcast_rows(reports, sim):
    def edit(rows):
        rows[1][1:], rows[2][1:] = rows[2][1:], rows[1][1:]
    _rewrite_csv(reports / "nowcast.csv", edit)


def _coefficient_fourth_digit(reports, sim):
    def edit(rows):
        col = rows[0].index("coefficient")
        row = next(r for r in rows[1:] if r[col] and abs(float(r[col])) > 0.01)
        value = float(row[col])
        row[col] = f"{value + 10.0 ** (math.floor(math.log10(abs(value))) - 3):.6g}"
    _rewrite_csv(reports / "correlations.csv", edit)


def _join_row_to_neighbour(reports, sim):
    def edit(rows):
        row = next(r for r in rows[1:] if r[1])
        index = int(row[1][len(TINY.region_prefix):])
        row[1] = f"{TINY.region_prefix}{index + 1:05d}"
    _rewrite_csv(reports / "join.csv", edit)


def _series_active_regions(reports, sim):
    def edit(rows):
        row = next(r for r in rows[1:] if int(r[1]) > 0)
        row[1] = str(int(row[1]) + 1)
    _rewrite_csv(reports / "series.csv", edit)


def _series_p_value(reports, sim):
    def edit(rows):
        row = next(r for r in rows[1:] if r[5] and 1e-6 < float(r[5]) < 0.5)
        row[5] = f"{float(row[5]) * 1.01:.6g}"
    _rewrite_csv(reports / "series.csv", edit)


def _correlate_excluded(reports, sim):
    def edit(rows):
        row = next(r for r in rows[1:] if r[4] == "log10")
        row[9] = str(int(row[9]) + 1)
    _rewrite_csv(reports / "correlations.csv", edit)


def _overlay_damage(reports, sim):
    path = reports / "overlay.geojson"
    doc = json.loads(path.read_text(encoding="utf-8"))
    props = next(f["properties"] for f in doc["features"] if f["properties"]["damage_pc"])
    props["damage_pc"] *= 1.000001
    path.write_text(json.dumps(doc), encoding="utf-8")


def _rank_keywords_n_cities(reports, sim):
    def edit(rows):
        rows[3][2] = str(int(rows[3][2]) + 1)
    _rewrite_csv(reports / "keywords.csv", edit)


def _rank_keywords_order(reports, sim):
    def edit(rows):
        rows[1][1:], rows[2][1:] = rows[2][1:], rows[1][1:]
    _rewrite_csv(reports / "keywords.csv", edit)


def _simulate_damage(reports, sim):
    def edit(rows):
        rows[1][1] = repr(float(rows[1][1]) + 1000.0)
    _rewrite_csv(sim / "damage.csv", edit)


def _simulate_point_outside(reports, sim):
    def edit(rows):
        rows[1][3] = repr(float(rows[1][3]) + 5.0)
    _rewrite_csv(sim / "messages.csv", edit)


@pytest.mark.parametrize(
    "corrupt",
    [
        _swap_nowcast_rows,
        _coefficient_fourth_digit,
        _join_row_to_neighbour,
        _series_active_regions,
        _series_p_value,
        _correlate_excluded,
        _overlay_damage,
        _rank_keywords_n_cities,
        _rank_keywords_order,
        _simulate_damage,
        _simulate_point_outside,
    ],
)
def test_check_fails_on_corrupted_report(pipeline, tmp_path, corrupt):
    reports, sim = tmp_path / "reports", tmp_path / "sim"
    shutil.copytree(pipeline["work"] / "reports", reports)
    shutil.copytree(pipeline["work"] / "sim", sim)
    corrupt(reports, sim)
    assert _check(pipeline, reports, sim) != []


def test_traced_run_accounts_for_every_span(pipeline):
    work = pipeline["work"]
    passes = run.measure(pipeline["cli"], pipeline["lines"], work / "reports", work / "sim", seconds=0, trace=True)
    assert passes.failed == 0 and passes.problems == []
    assert len(passes.samples["join"]) == 1 and len(passes.traced) == 1 and passes.peak_alloc_mb > 0
    assert len(passes.imports) == run.IMPORTS_PER_PASS
    tracer = passes.tracer
    roots = [i for i, span in enumerate(tracer.spans) if span.parent is None]
    assert [tracer.spans[r].name for r in roots] == [f"cli.{name}" for name in run.COMMANDS]
    for root in roots:  # self times of a command's spans add up to its traced time
        total = sum(tracer.self_time(s) for s in tracer.subtree(root))
        assert total == pytest.approx(tracer.spans[root].duration, abs=1e-9)
    region = pipeline["truth"].region
    counts = passes.counts[0]
    assert counts["geo.points_joined"] == int((region >= 0).sum())
    assert counts["geo.points_unassigned"] == int((region == -1).sum())
    assert counts["ingest.parse_messages_rows"] == len(run.ANALYSIS) * len(region)
    assert counts["ingest.rows_rejected"] == 0
    layer = run.per_layer(passes)
    assert layer["geo.spatial_join_s"] > 0 and layer["cli.self_s"] > 0
    # the wrappers are gone again
    assert pipeline["cli"].parse_messages.__module__ == "damagenowcast.ingest"


def test_trace_check_fails_on_a_layer_it_stops_seeing(pipeline):
    tracer = Tracer()
    tracer.install()
    cli = pipeline["cli"]
    wrapped = cli.spatial_join
    cli.spatial_join = wrapped.__wrapped__  # as if cli now called the join under another name
    try:
        _, codes, roots = run.run_pass(cli, pipeline["lines"], tracer)
    finally:
        cli.spatial_join = wrapped
        tracer.uninstall()
    assert codes == dict.fromkeys(run.COMMANDS, 0)
    missing = tracer.missing_spans(roots)
    assert "trace: join recorded no geo.spatial_join span" in missing
    assert len(missing) == len(run.ANALYSIS)


def test_generator_is_deterministic(tmp_path):
    for k in (1, 2):
        gen.generate(TINY, seed=11, out_dir=tmp_path / str(k))
    assert oracle.digest(tmp_path / "1" / "bundle") == oracle.digest(tmp_path / "2" / "bundle")


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    from tracing import DURATION_METRICS, SELF_METRICS, COUNT_METRICS

    traced = set(DURATION_METRICS.values()) | set(SELF_METRICS.values()) | set(COUNT_METRICS)
    traced |= {"stats.peak_alloc_mb", "trace.overhead_pct"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert all(m["unit"] == run._layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
