import csv
import hashlib
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damagenowcast.geo import GeoPoint, point_to_track_km
from damagenowcast.ingest import parse_messages, parse_regions, parse_track
from damagenowcast.simulate import (
    DamageModel,
    KeywordProfile,
    RetweetModel,
    SimConfig,
    generate,
)

from oracles import join_points, message_records, region_boundaries, simulate_reference, tau_b_brute

BUNDLE_FILES = (
    "messages.csv",
    "regions.geojson",
    "population.csv",
    "damage.csv",
    "track.csv",
    "ground_truth.csv",
)


def digest_dir(path: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((path / name).read_bytes()).hexdigest() for name in BUNDLE_FILES
    }


def small_config(seed, **overrides):
    defaults = dict(
        seed=seed,
        n_regions=16,
        population_range=(500, 1500),
        keywords=(("storm", KeywordProfile(base_rate=0.001, event_amplitude=0.01)),),
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def read_ground_truth(path: Path) -> dict[str, dict[str, float]]:
    with open(path, encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    return {
        r["region_id"]: {
            "latent_rate": float(r["latent_rate"]),
            "expected_damage_pc": float(r["expected_damage_pc"]),
            "realized_damage_pc": float(r["realized_damage_pc"]),
        }
        for r in rows
    }


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        a = generate(small_config(7), tmp_path / "a")
        b = generate(small_config(7), tmp_path / "b")
        assert digest_dir(a.out_dir) == digest_dir(b.out_dir)

    def test_different_seed_differs(self, tmp_path):
        a = generate(small_config(7), tmp_path / "a")
        b = generate(small_config(8), tmp_path / "b")
        assert digest_dir(a.out_dir)["messages.csv"] != digest_dir(b.out_dir)["messages.csv"]


class TestBundleWellFormed:
    def test_files_parse_with_ingest(self, tmp_path):
        bundle = generate(small_config(3), tmp_path / "sim")
        messages = parse_messages(bundle.messages_csv)
        assert messages.rows_rejected == 0
        assert messages.records
        regions = parse_regions(bundle.regions_geojson)
        assert regions.rows_rejected == 0
        assert len(regions.records) == 16
        track = parse_track(bundle.track_csv)
        assert len(track.records) == 3

    def test_every_message_falls_inside_its_region(self, tmp_path):
        bundle = generate(small_config(5), tmp_path / "sim")
        regions = {r.region_id: r for r in region_boundaries(parse_regions(bundle.regions_geojson).records)}

        points = {}
        for m in message_records(parse_messages(bundle.messages_csv).records):
            points.setdefault(m.message_id.rsplit("-", 1)[0], []).append((m.message_id, GeoPoint(*m.location)))
        for region_id, located in points.items():
            assert None not in join_points(located, [regions[region_id]]).values()

    def test_canonical_ordering(self, tmp_path):
        bundle = generate(small_config(9), tmp_path / "sim")
        records = message_records(parse_messages(bundle.messages_csv).records)
        keys = [(m.message_id.rsplit("-", 1)[0], m.timestamp) for m in records]
        assert keys == sorted(keys)

    def test_empty_rates_yield_valid_bundle(self, tmp_path):
        config = small_config(
            1, keywords=(("storm", KeywordProfile(base_rate=0.0, event_amplitude=0.0)),)
        )
        bundle = generate(config, tmp_path / "sim")
        assert bundle.n_messages == 0
        assert message_records(parse_messages(bundle.messages_csv).records) == []
        gt = read_ground_truth(bundle.ground_truth_csv)
        assert all(v["realized_damage_pc"] == 0.0 for v in gt.values())


# per-person daily rates: mostly zero or small enough that a region draws few messages
_RATES = st.sampled_from([0.0, 0.0, 1e-4, 1e-3, 0.01])


@st.composite
def sim_configs(draw):
    names = draw(st.lists(st.sampled_from(["storm", "power", "Gas", "flood"]), min_size=1, max_size=3))
    keywords = tuple(
        (name, KeywordProfile(base_rate=draw(_RATES), event_amplitude=draw(_RATES),
                              post_event_persistence=draw(st.sampled_from([0.0, 0.7, 1.0]))))
        for name in names
    )
    return SimConfig(
        seed=draw(st.integers(0, 2**32)),
        n_regions=draw(st.integers(1, 30)),
        population_range=draw(st.sampled_from([(1, 1), (1, 50), (200, 600)])),
        keywords=keywords,
        media_burst=draw(st.sampled_from([0.0, 0.0, 1e-3])),
        damage=DamageModel(noise_sigma=draw(st.sampled_from([0.0, 0.5]))),
    )


class TestMatchesReference:
    @given(sim_configs())
    @settings(max_examples=25, deadline=None)
    def test_bundle_matches_record_by_record_reference(self, config):
        with tempfile.TemporaryDirectory() as root:
            bundle = generate(config, Path(root) / "columns")
            simulate_reference(config, Path(root) / "records")
            assert digest_dir(bundle.out_dir) == digest_dir(Path(root) / "records")
            with open(bundle.messages_csv, encoding="utf-8") as handle:
                assert bundle.n_messages == sum(1 for _ in handle) - 1

    def test_messages_in_the_same_second_keep_draw_order(self, tmp_path):
        config = small_config(
            4,
            n_regions=1,
            population_range=(5000, 5000),
            keywords=(("storm", KeywordProfile(base_rate=0.3, event_amplitude=0.0)),
                      ("power", KeywordProfile(base_rate=0.3, event_amplitude=0.0))),
            **SHORT_TIMELINE,
        )
        bundle = generate(config, tmp_path / "columns")
        simulate_reference(config, tmp_path / "records")
        stamps = [m.timestamp for m in message_records(parse_messages(bundle.messages_csv).records)]
        assert len(set(stamps)) < len(stamps) - 100
        assert digest_dir(bundle.out_dir) == digest_dir(tmp_path / "records")


class TestGenerativeCoupling:
    def test_noiseless_damage_exactly_proportional_to_window_activity(self, tmp_path):
        config = small_config(
            21,
            keywords=(("storm", KeywordProfile(base_rate=0.0, event_amplitude=0.02)),),
            damage=DamageModel(coupling=1000.0, noise_sigma=0.0),
        )
        bundle = generate(config, tmp_path / "sim")
        gt = read_ground_truth(bundle.ground_truth_csv)
        for values in gt.values():
            assert values["realized_damage_pc"] == values["expected_damage_pc"]

    def test_lognormal_noise_perturbs_damage(self, tmp_path):
        config = small_config(
            21,
            keywords=(("storm", KeywordProfile(base_rate=0.0, event_amplitude=0.02)),),
            damage=DamageModel(coupling=1000.0, noise_sigma=0.5),
        )
        bundle = generate(config, tmp_path / "sim")
        gt = read_ground_truth(bundle.ground_truth_csv)
        ratios = [
            v["realized_damage_pc"] / v["expected_damage_pc"]
            for v in gt.values()
            if v["expected_damage_pc"] > 0
        ]
        assert any(abs(r - 1.0) > 0.05 for r in ratios)

    def test_ground_truth_tau_equals_activity_damage_tau(self, tmp_path):
        config = small_config(
            33,
            n_regions=40,
            keywords=(("storm", KeywordProfile(base_rate=0.001, event_amplitude=0.02)),),
            damage=DamageModel(coupling=500.0, noise_sigma=0.4),
        )
        bundle = generate(config, tmp_path / "sim")
        gt = read_ground_truth(bundle.ground_truth_csv)
        expected = [v["expected_damage_pc"] for v in gt.values()]
        realized = [v["realized_damage_pc"] for v in gt.values()]
        tau = tau_b_brute(expected, realized)
        assert 0.0 < tau <= 1.0


def _per_person_rates(bundle) -> dict[str, tuple[float, float]]:
    """region_id -> (distance_km, realized messages per person)."""
    track = [GeoPoint(p.lat, p.lon) for p in parse_track(bundle.track_csv).records]
    regions = region_boundaries(parse_regions(bundle.regions_geojson).records)
    populations = {}
    with open(bundle.population_csv, encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            populations[row["region_id"]] = int(row["population"])
    counts = {r.region_id: 0 for r in regions}
    for m in message_records(parse_messages(bundle.messages_csv).records):
        counts[m.message_id.rsplit("-", 1)[0]] += 1
    out = {}
    for r in regions:
        min_lon, min_lat, max_lon, max_lat = r.bbox
        center = GeoPoint((min_lat + max_lat) / 2, (min_lon + max_lon) / 2)
        out[r.region_id] = (
            point_to_track_km(center, track),
            counts[r.region_id] / populations[r.region_id],
        )
    return out


SHORT_TIMELINE = dict(
    timeline_start=datetime(2012, 10, 28, tzinfo=timezone.utc),
    timeline_end=datetime(2012, 11, 1, tzinfo=timezone.utc),
)


class TestEmpiricalRegularities:
    def test_null_model_uncorrelated_with_distance(self, tmp_path):
        """amplitude 0: activity carries no distance signal, 20/20 seeds."""
        for seed in range(20):
            config = small_config(
                seed,
                n_regions=100,
                keywords=(("storm", KeywordProfile(base_rate=0.005, event_amplitude=0.0)),),
                **SHORT_TIMELINE,
            )
            bundle = generate(config, tmp_path / f"sim{seed}")
            rates = _per_person_rates(bundle)
            distance = [d for d, _ in rates.values()]
            activity = [a for _, a in rates.values()]
            assert abs(tau_b_brute(activity, distance)) < 0.3

    def test_mean_activity_nonincreasing_up_to_cutoff_constant_beyond(self, tmp_path):
        """Realized per-person means over 50 seeds follow the latent decay shape."""
        cutoff = 700.0
        n_seeds = 50
        sums: dict[str, list[float]] = {}
        distances: dict[str, float] = {}
        for seed in range(n_seeds):
            config = small_config(
                100 + seed,
                n_regions=16,
                extent=(-76.0, 35.0, -56.0, 43.0),
                keywords=(("storm", KeywordProfile(base_rate=0.01, event_amplitude=0.05,
                                                   decay_cutoff_km=cutoff)),),
                **SHORT_TIMELINE,
            )
            bundle = generate(config, tmp_path / f"sim{seed}")
            for region_id, (d, rate) in _per_person_rates(bundle).items():
                sums.setdefault(region_id, []).append(rate)
                distances[region_id] = d
        by_distance = sorted(distances, key=lambda r: distances[r])
        means = {r: float(np.mean(sums[r])) for r in by_distance}
        errs = {r: float(np.std(sums[r], ddof=1) / np.sqrt(n_seeds)) for r in by_distance}

        within = [r for r in by_distance if distances[r] <= cutoff]
        beyond = [r for r in by_distance if distances[r] > cutoff]
        assert len(within) >= 3 and len(beyond) >= 3
        for near, far in zip(within, within[1:]):
            tolerance = 4.0 * (errs[near] + errs[far])
            assert means[near] >= means[far] - tolerance
        flat_base = means[beyond[0]]
        for r in beyond:
            assert means[r] == pytest.approx(flat_base, abs=4.0 * (errs[r] + errs[beyond[0]]))

    def test_retweet_fraction_rises_with_distance(self, tmp_path):
        near_fracs = []
        far_fracs = []
        for seed in range(6):
            config = small_config(
                200 + seed,
                n_regions=25,
                extent=(-76.0, 35.0, -60.0, 43.0),
                keywords=(("storm", KeywordProfile(base_rate=0.01, event_amplitude=0.0)),),
                retweet=RetweetModel(base=0.1, slope=0.6, reference_km=900.0),
            )
            bundle = generate(config, tmp_path / f"sim{seed}")
            track = [GeoPoint(p.lat, p.lon) for p in parse_track(bundle.track_csv).records]
            regions = {r.region_id: r for r in region_boundaries(parse_regions(bundle.regions_geojson).records)}
            totals: dict[str, list[int]] = {rid: [0, 0] for rid in regions}
            for m in message_records(parse_messages(bundle.messages_csv).records):
                rid = m.message_id.rsplit("-", 1)[0]
                totals[rid][0] += 1
                totals[rid][1] += int(m.is_retweet)
            for rid, (n, rt) in totals.items():
                if n == 0:
                    continue
                min_lon, min_lat, max_lon, max_lat = regions[rid].bbox
                center = GeoPoint((min_lat + max_lat) / 2, (min_lon + max_lon) / 2)
                d = point_to_track_km(center, track)
                (near_fracs if d < 400 else far_fracs).append(rt / n)
        assert np.mean(far_fracs) > np.mean(near_fracs)
