"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured values. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import csv
import hashlib
import math
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from damagenowcast.analysis import POOLED, daily_correlation_series, damage_correlation_report, rank_keywords
from damagenowcast.cli import main as cli_main
from damagenowcast.geo import EARTH_RADIUS_KM, GeoPoint, haversine_km
from damagenowcast.ingest import (
    parse_county_table,
    parse_keyed_table,
    parse_messages,
    parse_regions,
)
from damagenowcast.metrics import ActivitySummary, SummaryGrid, TimeWindow, summarize_daily, summarize_regions
from damagenowcast.simulate import DamageModel, KeywordProfile, SimConfig, generate
from damagenowcast.stats import correlate

from oracles import (
    brute_force_join,
    codes_of,
    join_points,
    kendall_exact_p_enumerated,
    kendall_exact_p_loop,
    pearson_brute,
    report_cell,
    spearman_brute,
    tau_b_brute,
)

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "sandy_counties.csv"
EPOCH = datetime(2012, 10, 30, tzinfo=timezone.utc)
DAY = timedelta(hours=24)

# Brute-force oracle values for the 27-county fixture, computed with
# tau_b_brute / spearman_brute / pearson_brute over per-capita tweets against
# per-capita damage, then frozen. The published reference values for this
# table are 0.34 / 0.50 (ex-post) and 0.29 / 0.45 (Hazus); the published
# Pearson entries carry p-values 0.036 and 0.056, which the log10 per-capita
# computation reproduces exactly.
ORACLE_TAU_EXPOST = 0.33903133903133903
ORACLE_RHO_EXPOST = 0.5048840048840049
ORACLE_TAU_HAZUS = 0.28774928774928776
ORACLE_RHO_HAZUS = 0.44505494505494503
ORACLE_PEARSON_RAW_EXPOST = 0.08247269366676438
ORACLE_PEARSON_LOG_EXPOST = 0.4049015174782534
ORACLE_PEARSON_RAW_HAZUS = 0.3078875715596843
ORACLE_PEARSON_LOG_HAZUS = 0.3716714800963283

PAPER_TAU_EXPOST, PAPER_RHO_EXPOST = 0.34, 0.50
PAPER_TAU_HAZUS, PAPER_RHO_HAZUS = 0.29, 0.45


def fixture_vectors():
    stats = parse_county_table(FIXTURE).records
    assert len(stats) == 27
    activity = [s.tweets / s.population for s in stats]
    expost = [s.expost_damage_usd / s.population for s in stats]
    hazus = [s.hazus_damage_usd / s.population for s in stats]
    return activity, expost, hazus


def test_criterion_1_table_reproduction():
    started = time.perf_counter()
    activity, expost, hazus = fixture_vectors()

    # the frozen oracle constants must themselves re-derive from the fixture
    assert tau_b_brute(activity, expost) == ORACLE_TAU_EXPOST
    assert spearman_brute(activity, expost) == ORACLE_RHO_EXPOST
    assert tau_b_brute(activity, hazus) == ORACLE_TAU_HAZUS
    assert spearman_brute(activity, hazus) == ORACLE_RHO_HAZUS
    assert pearson_brute(activity, expost) == ORACLE_PEARSON_RAW_EXPOST
    logs = lambda v: [math.log10(u) for u in v]
    assert pearson_brute(logs(activity), logs(expost)) == pytest.approx(ORACLE_PEARSON_LOG_EXPOST, abs=1e-12)

    tau_e = correlate(activity, expost, "kendall")
    rho_e = correlate(activity, expost, "spearman")
    tau_h = correlate(activity, hazus, "kendall")
    rho_h = correlate(activity, hazus, "spearman")

    for result, oracle, paper in (
        (tau_e, ORACLE_TAU_EXPOST, PAPER_TAU_EXPOST),
        (rho_e, ORACLE_RHO_EXPOST, PAPER_RHO_EXPOST),
        (tau_h, ORACLE_TAU_HAZUS, PAPER_TAU_HAZUS),
        (rho_h, ORACLE_RHO_HAZUS, PAPER_RHO_HAZUS),
    ):
        assert abs(result.coefficient - oracle) <= 0.02
        assert abs(result.coefficient - paper) <= 0.05
        assert result.p_value < 0.05
        assert result.n == 27

    # Pearson reported for raw and log10 per-capita values. The raw dollar
    # values are heavy-tailed (raw r = 0.08 / 0.31); the published 0.40 / 0.37
    # reference figures (p = 0.036 / 0.056) are only reproduced by the log10
    # variant, which is the one held to the [0.35, 0.50] band.
    pearson_raw = correlate(activity, expost, "pearson")
    pearson_log = correlate(activity, expost, "pearson", transform="log10")
    pearson_log_h = correlate(activity, hazus, "pearson", transform="log10")
    assert pearson_raw.coefficient == pytest.approx(ORACLE_PEARSON_RAW_EXPOST, abs=1e-12)
    assert pearson_log.coefficient == pytest.approx(ORACLE_PEARSON_LOG_EXPOST, abs=1e-12)
    assert 0.35 <= pearson_log.coefficient <= 0.50
    assert 0.35 <= pearson_log_h.coefficient <= 0.50
    assert pearson_log.p_value == pytest.approx(0.036, abs=5e-4)
    assert pearson_log_h.p_value == pytest.approx(0.056, abs=5e-4)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1 PASS table-reproduction: "
        f"tau_expost={tau_e.coefficient:.4f} rho_expost={rho_e.coefficient:.4f} "
        f"tau_hazus={tau_h.coefficient:.4f} rho_hazus={rho_h.coefficient:.4f} "
        f"pearson_raw={pearson_raw.coefficient:.4f} pearson_log10={pearson_log.coefficient:.4f} "
        f"({elapsed:.2f}s)"
    )


def test_criterion_2_statistics_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20121030)
    checked = exact_checked = 0
    for trial in range(1000):
        n = int(rng.integers(3, 13))
        if trial % 2 == 0:
            x = rng.permutation(n).astype(float) + rng.uniform(-0.3, 0.3, n)
            y = rng.permutation(n).astype(float) + rng.uniform(-0.3, 0.3, n)
        else:
            x = rng.integers(0, max(2, n - 2), n).astype(float)
            y = rng.integers(0, max(2, n - 2), n).astype(float)

        kendall = correlate(x, y, "kendall")
        spearman = correlate(x, y, "spearman")
        pearson = correlate(x, y, "pearson")
        if kendall.degenerate:
            assert len(set(x.tolist())) == 1 or len(set(y.tolist())) == 1
            continue
        checked += 1
        assert abs(kendall.coefficient - tau_b_brute(x, y)) <= 1e-12
        assert abs(spearman.coefficient - spearman_brute(list(x), list(y))) <= 1e-12
        assert abs(pearson.coefficient - pearson_brute(list(x), list(y))) <= 1e-12

        tie_free = len(set(x.tolist())) == n and len(set(y.tolist())) == n
        if tie_free and n <= 10:
            exact_checked += 1
            assert kendall.p_value == kendall_exact_p_enumerated(list(x), list(y))

    # the vectorized enumeration itself must agree with a literal loop
    for n in (3, 4, 5, 6, 7):
        x = rng.permutation(n).astype(float)
        y = rng.permutation(n).astype(float)
        assert kendall_exact_p_enumerated(list(x), list(y)) == kendall_exact_p_loop(list(x), list(y))

    elapsed = time.perf_counter() - started
    assert checked >= 900
    assert exact_checked >= 200
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 2 PASS stats-oracle: {checked} pairs at 1e-12, "
        f"{exact_checked} exact Kendall p enumerations exact-equal ({elapsed:.1f}s)"
    )


def test_criterion_3_geometry_oracles():
    started = time.perf_counter()

    antipodal = haversine_km(GeoPoint(0, 0), GeoPoint(0, 180))
    assert abs(antipodal - math.pi * EARTH_RADIUS_KM) <= 0.1
    quarter = haversine_km(GeoPoint(0, 0), GeoPoint(90, 0))
    assert abs(quarter - math.pi * EARTH_RADIUS_KM / 2) <= 0.1
    nyc_brigantine = haversine_km(GeoPoint(40.7128, -74.0060), GeoPoint(39.4026, -74.3646))
    assert abs(nyc_brigantine - 148.85) <= 0.1
    one_degree = haversine_km(GeoPoint(0, 0), GeoPoint(0, 1))
    assert abs(one_degree - EARTH_RADIUS_KM * math.pi / 180) <= 0.1

    rng = np.random.default_rng(7)
    side = 10
    cell = 40.0 / side
    regions = []
    for i in range(100):
        row, col = divmod(i, side)
        x0 = -20.0 + col * cell + float(rng.uniform(0.02, 0.08)) * cell
        y0 = -20.0 + row * cell + float(rng.uniform(0.02, 0.08)) * cell
        x1 = x0 + float(rng.uniform(0.6, 0.9)) * cell
        y1 = y0 + float(rng.uniform(0.6, 0.9)) * cell
        ring = ((x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0))
        from damagenowcast.ingest import RegionBoundary

        regions.append(RegionBoundary(f"g{i:03d}", f"g{i:03d}", "county", (ring,), (x0, y0, x1, y1)))

    points = [
        (f"p{i}", GeoPoint(float(lat), float(lon)))
        for i, (lat, lon) in enumerate(zip(rng.uniform(-25, 25, 10000), rng.uniform(-25, 25, 10000)))
    ]
    expected = brute_force_join(points, regions)
    assert sum(1 for v in expected.values() if v is not None) > 1000
    for cell_deg in (0.1, 0.25, 1.0):
        result = join_points(points, regions, cell_deg=cell_deg)
        assert result == expected

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 3 PASS geometry: antipodal={antipodal:.3f}km "
        f"nyc-brigantine={nyc_brigantine:.2f}km; indexed join == brute force "
        f"on 10000x100 at 3 cell sizes ({elapsed:.1f}s)"
    )


def _pipeline_activity_damage(bundle_dir: Path, window: TimeWindow):
    messages = parse_messages(bundle_dir / "messages.csv").records
    regions = parse_regions(bundle_dir / "regions.geojson").records
    population = parse_keyed_table(bundle_dir / "population.csv", "population").records
    damage: dict[str, float] = {}
    for (region_id, _), amount in parse_keyed_table(bundle_dir / "damage.csv", "damage").records.items():
        damage[region_id] = damage.get(region_id, 0.0) + amount
    located = [(m.message_id, GeoPoint(*m.location)) for m in messages if m.location]
    assignments = {m.message_id: None for m in messages}
    assignments.update(join_points(located, regions))
    grid = summarize_regions(
        messages, codes_of(messages, assignments), window, population=population,
        region_ids=[r.region_id for r in regions], scopes={POOLED: None},
    )
    cells = damage_correlation_report(grid, {"insurance": damage}, include_sentiment=False)
    return report_cell(cells, "activity", POOLED, "insurance", "census_population", "kendall", "raw").result


def _ground_truth_tau(bundle_dir: Path) -> float:
    with open(bundle_dir / "ground_truth.csv", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    expected = [float(r["expected_damage_pc"]) for r in rows]
    realized = [float(r["realized_damage_pc"]) for r in rows]
    return tau_b_brute(expected, realized)


def test_criterion_4_end_to_end_simulator_recovery(tmp_path):
    started = time.perf_counter()
    window = TimeWindow(EPOCH + DAY, EPOCH + 13 * DAY)  # the generator's damage window

    # noiseless, event-only: recovery must be exact
    config = SimConfig(
        seed=424242,
        n_regions=60,
        population_range=(500, 1500),
        keywords=(("storm", KeywordProfile(base_rate=0.0, event_amplitude=0.02)),),
        damage=DamageModel(coupling=1000.0, noise_sigma=0.0),
    )
    generate(config, tmp_path / "exact")
    result = _pipeline_activity_damage(tmp_path / "exact", window)
    assert result.coefficient == 1.0

    # sigma = 0.5 at 300 regions: recovered tau within 0.1 of the generative
    # tau recorded in ground_truth.csv, for at least 18 of 20 seeds
    hits = 0
    deltas = []
    for seed in range(20):
        config = SimConfig(
            seed=seed,
            n_regions=300,
            population_range=(500, 1500),
            keywords=(("storm", KeywordProfile(base_rate=0.001, event_amplitude=0.02)),),
            damage=DamageModel(coupling=1000.0, noise_sigma=0.5),
        )
        out = tmp_path / f"noisy{seed}"
        generate(config, out)
        recovered = _pipeline_activity_damage(out, window).coefficient
        generative = _ground_truth_tau(out)
        delta = abs(recovered - generative)
        deltas.append(delta)
        hits += delta <= 0.1

    elapsed = time.perf_counter() - started
    assert hits >= 18
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 4 PASS simulator-recovery: noiseless tau == 1.0 exactly; "
        f"sigma=0.5 {hits}/20 within 0.1 (max delta {max(deltas):.4f}) ({elapsed:.1f}s)"
    )


def test_criterion_5_landfall_dip_shape(tmp_path):
    started = time.perf_counter()
    dips = 0
    for seed in range(20):
        config = SimConfig(
            seed=seed,
            n_regions=100,
            population_range=(800, 1200),
            keywords=(
                (
                    "storm",
                    KeywordProfile(
                        base_rate=0.0005,
                        event_amplitude=0.02,
                        post_event_persistence=0.85,
                        pre_event_ramp=0.8,
                    ),
                ),
            ),
            media_burst=0.1,
            damage=DamageModel(coupling=1000.0, noise_sigma=0.2),
        )
        out = tmp_path / f"burst{seed}"
        generate(config, out)

        messages = parse_messages(out / "messages.csv").records
        regions = parse_regions(out / "regions.geojson").records
        population = parse_keyed_table(out / "population.csv", "population").records
        damage: dict[str, float] = {}
        for (region_id, _), amount in parse_keyed_table(out / "damage.csv", "damage").records.items():
            damage[region_id] = damage.get(region_id, 0.0) + amount
        located = [(m.message_id, GeoPoint(*m.location)) for m in messages if m.location]
        assignments = {m.message_id: None for m in messages}
        assignments.update(join_points(located, regions))
        bins = range(-4, 5)
        daily = summarize_daily(messages, codes_of(messages, assignments), EPOCH, DAY, bins, population=population)
        series = daily_correlation_series(daily, damage, bins, EPOCH, DAY)
        taus = {e.bin_index: e.activity_damage_kendall.coefficient for e in series}
        assert all(not math.isnan(taus[k]) for k in range(-3, 4))
        pre = sum(taus[k] for k in (-3, -2, -1)) / 3
        post = sum(taus[k] for k in (1, 2, 3)) / 3
        if taus[0] < pre and taus[0] < post:
            dips += 1

    elapsed = time.perf_counter() - started
    assert dips >= 18
    print(f"\nACCEPTANCE 5 PASS landfall-dip: {dips}/20 seeds dipped strictly ({elapsed:.1f}s)")


def _keyword_city_summaries(counts: dict[tuple[str, str], int], users: int = 10):
    out = {}
    for (city, keyword), count in counts.items():
        out[(city, keyword)] = ActivitySummary(
            region_id=city,
            window=None,
            n_messages=count,
            n_original=count,
            n_retweets=0,
            n_popular=0,
            active_users_window=min(users, count),
            active_users_period=users,
        )
    return out


def test_criterion_6_keyword_ranking():
    started = time.perf_counter()
    n_cities = 30
    distances = {f"c{i:02d}": 50.0 + 2900.0 * i / (n_cities - 1) for i in range(n_cities)}

    # noiseless: strictly decaying activity must give tau exactly -1
    counts = {}
    for i, city in enumerate(sorted(distances)):
        counts[(city, "decayed")] = 300 - 9 * i
        counts[(city, "flat")] = 50
    ranking = rank_keywords(SummaryGrid.from_mapping(_keyword_city_summaries(counts)), distances)
    assert ranking[0].keyword == "decayed"
    assert ranking[0].kendall.coefficient == -1.0

    # Poisson noise at 30 cities: ordering holds 20/20 and the decayed
    # keyword is significant at 5%
    ordered = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        noisy = {}
        for city, distance in distances.items():
            decayed_rate = 5.0 + 200.0 * max(0.0, 1.0 - distance / 1500.0)
            noisy[(city, "decayed")] = int(rng.poisson(decayed_rate))
            noisy[(city, "flat")] = int(rng.poisson(80.0))
        result = rank_keywords(SummaryGrid.from_mapping(_keyword_city_summaries(noisy)), distances)
        top = result[0]
        if top.keyword == "decayed" and top.kendall.p_value < 0.05:
            ordered += 1
    elapsed = time.perf_counter() - started
    assert ordered == 20
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 6 PASS keyword-ranking: noiseless tau=-1.0 first; "
        f"Poisson ordering+significance {ordered}/20 ({elapsed:.1f}s)"
    )


def _tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_criterion_7_determinism(tmp_path, monkeypatch):
    started = time.perf_counter()

    # simulate: repeated runs are byte-identical
    argv = ["simulate", "--seed", "7", "--regions", "25", "--amplitude", "0.02"]
    assert cli_main(argv + ["--out", str(tmp_path / "sim_a")]) == 0
    assert cli_main(argv + ["--out", str(tmp_path / "sim_b")]) == 0
    assert _tree_digest(tmp_path / "sim_a") == _tree_digest(tmp_path / "sim_b")

    # correlate and nowcast: identical argv from identical cwd twice
    bundle = tmp_path / "sim_a"
    for name, argv in {
        "correlate": [
            "correlate",
            "--messages", "sim_a/messages.csv",
            "--regions", "sim_a/regions.geojson",
            "--population", "sim_a/population.csv",
            "--damage", "sim_a/damage.csv",
            "--keywords", "storm",
            "--window", "2012-10-31..2012-11-11",
            "--out", "report",
        ],
        "nowcast": [
            "nowcast",
            "--messages", "sim_a/messages.csv",
            "--regions", "sim_a/regions.geojson",
            "--population", "sim_a/population.csv",
            "--keywords", "storm",
            "--window", "2012-10-31..2012-11-11",
            "--out", "report",
        ],
    }.items():
        digests = []
        for attempt in ("x", "y"):
            workdir = tmp_path / f"{name}_{attempt}"
            workdir.mkdir()
            (workdir / "sim_a").symlink_to(bundle)
            monkeypatch.chdir(workdir)
            assert cli_main(argv) in (0, 2)
            digests.append(_tree_digest(workdir / "report"))
        assert digests[0] == digests[1]

    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE 7 PASS determinism: simulate/correlate/nowcast byte-identical ({elapsed:.1f}s)")
