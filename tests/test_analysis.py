from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from damagenowcast.analysis import (
    POOLED,
    daily_correlation_series,
    damage_correlation_report,
    nowcast,
    rank_keywords,
    region_rank_discrepancy,
)
from damagenowcast.ingest import parse_county_table
from oracles import (
    ActivitySummary,
    codes_of,
    grid_from_mapping,
    grid_of,
    join_points,
    message_records,
    region_boundaries,
    report_cell,
)

EPOCH = datetime(2012, 10, 30, tzinfo=timezone.utc)
DAY = timedelta(hours=24)


def summary(region, n_messages, users=10, population=None, n_original=None,
            n_retweets=None, n_popular=0, sentiment=None, window=None):
    if n_original is None:
        n_original = n_messages
    if n_retweets is None:
        n_retweets = n_messages - n_original
    return ActivitySummary(
        region_id=region,
        window=window,
        n_messages=n_messages,
        n_original=n_original,
        n_retweets=n_retweets,
        n_popular=n_popular,
        active_users_window=min(users, n_messages),
        active_users_period=users,
        mean_sentiment=sentiment,
        population=population,
    )


class TestRankKeywords:
    def test_decayed_keyword_outranks_flat(self):
        cities = [f"c{i}" for i in range(8)]
        distances = {c: 100.0 * (i + 1) for i, c in enumerate(cities)}
        summaries = {}
        for i, c in enumerate(cities):
            summaries[(c, "decayed")] = summary(c, n_messages=80 - 10 * i, users=10)
            summaries[(c, "flat")] = summary(c, n_messages=40, users=10)
        ranking = rank_keywords(grid_from_mapping(summaries), distances)
        assert ranking[0].keyword == "decayed"
        top = ranking[0]
        assert top.kendall.coefficient == pytest.approx(-1.0, abs=1e-15)
        # a constant keyword has no defined rank correlation
        assert ranking[-1].keyword == "flat"
        assert ranking[-1].kendall.degenerate

    def test_under_three_active_cities_ranked_last_degenerate(self):
        distances = {"a": 10.0, "b": 20.0, "c": 30.0}
        summaries = {
            ("a", "busy"): summary("a", 30),
            ("b", "busy"): summary("b", 20),
            ("c", "busy"): summary("c", 10),
            ("a", "sparse"): summary("a", 5),
            ("b", "sparse"): summary("b", 0),
        }
        ranking = rank_keywords(grid_from_mapping(summaries), distances)
        sparse = ranking[-1]
        assert sparse.keyword == "sparse"
        assert sparse.kendall.degenerate
        assert sparse.n_cities == 1

    def test_equal_coefficients_tie_break_alphabetical(self):
        distances = {"a": 10.0, "b": 20.0, "c": 30.0, "d": 40.0}
        summaries = {}
        for i, c in enumerate(["a", "b", "c", "d"]):
            for kw in ("zeta", "alpha"):
                summaries[(c, kw)] = summary(c, n_messages=40 - 10 * i)
        ranking = rank_keywords(grid_from_mapping(summaries), distances)
        assert [e.keyword for e in ranking] == ["alpha", "zeta"]

    def test_city_subset_restricts(self):
        # a city without a track distance is left out of the ranking
        distances = {"a": 10.0, "b": 20.0, "c": 30.0, "far": 9000.0}
        summaries = {(c, "kw"): summary(c, 10 * (4 - i)) for i, c in enumerate(["a", "b", "c", "far"])}
        full = rank_keywords(grid_from_mapping(summaries), distances)
        subset = rank_keywords(grid_from_mapping(summaries), {c: distances[c] for c in ("a", "b", "c")})
        assert full[0].n_cities == 4
        assert subset[0].n_cities == 3

    def test_ordering_invariant_under_input_permutation(self):
        rng = np.random.default_rng(0)
        cities = [f"c{i}" for i in range(6)]
        distances = {c: float(d) for c, d in zip(cities, rng.uniform(10, 2000, 6))}
        items = []
        for c in cities:
            for kw in ("one", "two", "three"):
                items.append(((c, kw), summary(c, int(rng.integers(1, 50)))))
        a = rank_keywords(grid_from_mapping(dict(items)), distances)
        b = rank_keywords(grid_from_mapping(dict(reversed(items))), distances)
        assert [e.keyword for e in a] == [e.keyword for e in b]


class TestSeriesFromNoiselessCoupling:
    def test_post_landfall_tau_above_point_eight_each_day(self, tmp_path):
        """Damage coupled 1:1 to window activity keeps every post-event day strongly correlated."""
        from damagenowcast.geo import GeoPoint
        from damagenowcast.ingest import parse_keyed_table, parse_messages, parse_regions
        from damagenowcast.metrics import summarize_daily
        from damagenowcast.simulate import DamageModel, KeywordProfile, SimConfig, generate

        config = SimConfig(
            seed=5,
            n_regions=40,
            population_range=(6000, 10000),
            timeline_start=datetime(2012, 10, 29, tzinfo=timezone.utc),
            timeline_end=datetime(2012, 11, 7, tzinfo=timezone.utc),
            keywords=(
                ("storm", KeywordProfile(base_rate=0.0, event_amplitude=0.05,
                                         post_event_persistence=0.95)),
            ),
            damage=DamageModel(coupling=1000.0, noise_sigma=0.0, window_bins=(1, 8)),
        )
        generate(config, tmp_path)
        messages = parse_messages(tmp_path / "messages.csv").records
        regions = parse_regions(tmp_path / "regions.geojson").records
        population = parse_keyed_table(tmp_path / "population.csv", "population").records
        damage = {}
        for (region_id, _), amount in parse_keyed_table(tmp_path / "damage.csv", "damage").records.items():
            damage[region_id] = damage.get(region_id, 0.0) + amount
        located = [(m.message_id, GeoPoint(*m.location)) for m in message_records(messages) if m.location]
        assignments = {m.message_id: None for m in message_records(messages)}
        assignments.update(join_points(located, region_boundaries(regions)))
        bins = range(1, 8)
        daily = summarize_daily(messages, codes_of(messages, assignments), EPOCH, DAY, bins, population=population)
        series = daily_correlation_series(daily, damage, bins, EPOCH, DAY)
        for entry in series:
            assert entry.activity_damage_kendall.coefficient > 0.8


class TestDailyCorrelationSeries:
    def test_damage_equal_to_activity_gives_unit_coefficient(self):
        damage = {}
        summaries = {}
        for b in (0, 1, 2):
            for i in range(6):
                region = f"r{i}"
                count = (i + 1) * (b + 1)
                summaries[(region, b)] = summary(region, count, population=1000)
        # damage proportional to the (identical across bins) regional ordering
        damage = {f"r{i}": float(i + 1) for i in range(6)}
        series = daily_correlation_series(grid_from_mapping(summaries), damage, (0, 1, 2), EPOCH, DAY)
        for entry in series:
            assert entry.activity_damage_kendall.coefficient == pytest.approx(1.0)
            assert entry.activity_damage_spearman.coefficient == pytest.approx(1.0)
            assert entry.active_regions == 6

    def test_silent_bin_recorded_as_degenerate(self):
        summaries = {(f"r{i}", 0): summary(f"r{i}", i + 1, population=100) for i in range(3)}
        series = daily_correlation_series(grid_from_mapping(summaries), {"r0": 1.0}, (0, 1), EPOCH, DAY)
        silent = series[1]
        assert silent.active_regions == 0
        assert silent.n_messages == 0
        assert silent.activity_damage_kendall.degenerate

    def test_under_three_active_regions_degenerate_but_continues(self):
        summaries = {(f"r{i}", 0): summary(f"r{i}", 5, population=100) for i in range(2)}
        series = daily_correlation_series(grid_from_mapping(summaries), {}, (0,), EPOCH, DAY)
        assert series[0].activity_damage_kendall.degenerate
        assert series[0].active_regions == 2

    def test_sentiment_pairs_use_scored_regions_only(self):
        summaries = {
            ("r0", 0): summary("r0", 3, population=100, sentiment=-0.5),
            ("r1", 0): summary("r1", 5, population=100, sentiment=0.1),
            ("r2", 0): summary("r2", 7, population=100, sentiment=0.4),
            ("r3", 0): summary("r3", 9, population=100),  # unscored
        }
        series = daily_correlation_series(grid_from_mapping(summaries), {"r0": 9.0, "r1": 5.0, "r2": 1.0},
                                          (0,), EPOCH, DAY)
        entry = series[0]
        assert entry.sentiment_damage_kendall.n == 3
        assert entry.sentiment_damage_kendall.coefficient == pytest.approx(-1.0)

    def test_bin_start_labels(self):
        summaries = {("r0", -2): summary("r0", 1, population=10)}
        series = daily_correlation_series(grid_from_mapping(summaries), {}, (-2,), EPOCH, DAY)
        assert series[0].bin_start == EPOCH - 2 * DAY


def county_inputs(sandy_counties_path):
    stats = parse_county_table(sandy_counties_path).records
    summaries = {
        s.county: summary(s.county, s.tweets, users=s.users, population=s.population)
        for s in stats
    }
    damage = {
        "ex_post": {s.county: s.expost_damage_usd for s in stats},
        "hazus": {s.county: s.hazus_damage_usd for s in stats},
    }
    return summaries, damage


class TestDamageCorrelationReport:
    def test_identity_vectors_give_unit_cells(self):
        summaries = {POOLED: {f"r{i}": summary(f"r{i}", i + 1, population=100) for i in range(8)}}
        damage = {"insurance": {f"r{i}": float(i + 1) * 100.0 for i in range(8)}}
        report = damage_correlation_report(grid_of(summaries), damage, include_sentiment=False)
        for cell in report:
            if cell.normalization == "census_population" and cell.result.transform == "raw":
                assert cell.result.coefficient == pytest.approx(1.0)

    def test_fixture_reproduces_rank_cells(self, sandy_counties_path):
        summaries, damage = county_inputs(sandy_counties_path)
        report = damage_correlation_report(grid_of({POOLED: summaries}), damage, include_sentiment=False)
        tau = report_cell(report, "activity", POOLED, "ex_post", "census_population", "kendall", "raw")
        rho = report_cell(report, "activity", POOLED, "ex_post", "census_population", "spearman", "raw")
        assert tau.result.coefficient == pytest.approx(0.339031, abs=1e-6)
        assert rho.result.coefficient == pytest.approx(0.504884, abs=1e-6)
        assert tau.active_regions == 27

    def test_scaling_damage_leaves_rank_cells_and_nowcast_unchanged(self, sandy_counties_path):
        summaries, damage = county_inputs(sandy_counties_path)
        scaled = {src: {r: v * 7.25 for r, v in d.items()} for src, d in damage.items()}
        base = damage_correlation_report(grid_of({POOLED: summaries}), damage, include_sentiment=False)
        big = damage_correlation_report(grid_of({POOLED: summaries}), scaled, include_sentiment=False)
        for a, b in zip(base, big):
            if a.result.method in ("kendall", "spearman") and not a.result.degenerate:
                assert a.result.coefficient == pytest.approx(b.result.coefficient, abs=1e-12)
                assert a.result.p_value == pytest.approx(b.result.p_value, abs=1e-12)
        before = nowcast(grid_of({None: summaries}))
        after = nowcast(grid_of({None: summaries}), damage_usd=scaled["ex_post"])
        assert [e.region_id for e in before.entries] == [e.region_id for e in after.entries]

    def test_scaling_population_leaves_rank_cells_unchanged(self, sandy_counties_path):
        summaries, damage = county_inputs(sandy_counties_path)
        scaled_summaries = {
            region: summary(
                s.region_id, s.n_messages, users=s.active_users_period,
                population=s.population * 3,
            )
            for region, s in summaries.items()
        }
        base = damage_correlation_report(grid_of({POOLED: summaries}), damage, include_sentiment=False)
        scaled = damage_correlation_report(grid_of({POOLED: scaled_summaries}), damage, include_sentiment=False)
        for a, b in zip(base, scaled):
            if a.result.method in ("kendall", "spearman") and not a.result.degenerate:
                assert a.result.coefficient == pytest.approx(b.result.coefficient, abs=1e-12)

    def test_sentiment_cells_raw_only(self):
        summaries = {
            POOLED: {
                f"r{i}": summary(f"r{i}", 5, population=100, sentiment=0.1 * i - 0.3)
                for i in range(6)
            }
        }
        damage = {"insurance": {f"r{i}": float(i) for i in range(6)}}
        report = damage_correlation_report(grid_of(summaries), damage)
        sentiment_cells = [c for c in report if c.variable == "sentiment"]
        assert sentiment_cells
        assert all(c.result.transform == "raw" for c in sentiment_cells)

    def test_log_transform_reports_exclusions(self):
        summaries = {POOLED: {f"r{i}": summary(f"r{i}", i + 1, population=100) for i in range(6)}}
        damage = {"insurance": {f"r{i}": float(i) * 10 for i in range(6)}}  # r0 damage 0
        report = damage_correlation_report(grid_of(summaries), damage, include_sentiment=False)
        cell = report_cell(report, "activity", POOLED, "insurance", "census_population", "pearson", "log10")
        assert cell.result.excluded == 1
        assert cell.result.n == 5

    def test_empty_scope_degenerate_cells(self):
        summaries = {"ghost": {}}
        damage = {"insurance": {}}
        report = damage_correlation_report(grid_of(summaries), damage)
        assert all(c.result.degenerate for c in report if c.variable == "activity")


class TestNowcast:
    def test_ranking_and_exclusions(self):
        summaries = {
            "r1": summary("r1", 20, population=1000),
            "r2": summary("r2", 5, population=1000),
            "r3": summary("r3", 0, population=1000),
        }
        report = nowcast(grid_of({None: summaries}))
        assert [e.region_id for e in report.entries] == ["r1", "r2"]
        assert report.excluded == (("r3", "inactive"),)
        assert report.entries[0].rank == 1
        assert report.entries[0].per_capita_activity == pytest.approx(0.02)

    def test_missing_population_excluded(self):
        summaries = {"r1": summary("r1", 5, population=None)}
        report = nowcast(grid_of({None: summaries}))
        assert report.entries == ()
        assert report.excluded == (("r1", "no population"),)

    def test_fixture_puts_new_york_first(self, sandy_counties_path):
        stats = parse_county_table(sandy_counties_path).records
        summaries = {
            s.county: summary(s.county, s.tweets, users=s.users, population=s.population)
            for s in stats
        }
        report = nowcast(grid_of({None: summaries}))
        assert report.entries[0].region_id == "New York"
        assert report.entries[0].per_capita_activity == pytest.approx(0.0314, abs=1e-4)
        assert len(report.entries) == 27

    def test_tie_broken_by_region_id(self):
        summaries = {
            "zeta": summary("zeta", 10, population=1000),
            "alpha": summary("alpha", 10, population=1000),
        }
        report = nowcast(grid_of({None: summaries}))
        assert [e.region_id for e in report.entries] == ["alpha", "zeta"]

    def test_damage_ranks_attached(self):
        summaries = {
            "r1": summary("r1", 20, population=100),
            "r2": summary("r2", 10, population=100),
        }
        report = nowcast(grid_of({None: summaries}), damage_usd={"r1": 5.0, "r2": 50.0})
        by_region = {e.region_id: e for e in report.entries}
        assert by_region["r2"].damage_rank == 1
        assert by_region["r1"].damage_rank == 2

    def test_all_inactive_empty_ranking(self):
        summaries = {"r1": summary("r1", 0, population=10)}
        report = nowcast(grid_of({None: summaries}))
        assert report.entries == ()

    def test_original_only_default(self):
        summaries = {
            "r1": summary("r1", 10, n_original=2, n_retweets=8, population=100),
            "r2": summary("r2", 5, n_original=5, population=100),
        }
        report = nowcast(grid_of({None: summaries}))
        assert [e.region_id for e in report.entries] == ["r2", "r1"]


class TestRegionRankDiscrepancy:
    def test_matching_orders_zero(self):
        activity = {"a": 1.0, "b": 2.0, "c": 3.0}
        damage = {"a": 10.0, "b": 20.0, "c": 30.0}
        assert region_rank_discrepancy(activity, damage) == {"a": 0.0, "b": 0.0, "c": 0.0}

    def test_reversed_orders(self):
        activity = {"a": 1.0, "b": 2.0, "c": 3.0}
        damage = {"a": 30.0, "b": 20.0, "c": 10.0}
        result = region_rank_discrepancy(activity, damage)
        assert result["a"] == 1.0
        assert result["b"] == 0.0

    def test_disjoint_regions_empty(self):
        assert region_rank_discrepancy({"a": 1.0}, {"b": 1.0}) == {}
