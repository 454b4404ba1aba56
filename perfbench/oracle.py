"""Independent checks of every report the benchmark makes the program write.

Each ``check_*`` function recomputes a report from the generator's ground
truth (``truth.npz``) with numpy and ``scipy.stats``, never from the program
or from a stored copy of its output, and returns a list of problems (empty
when the report is right). Comparison rules:

* counts, ids, order, and values that are a single division of exact inputs
  (per-capita activity, per-capita damage) must match exactly;
* coefficients must equal the reference to the report's 6 significant digits
  (half a unit in the sixth digit, plus 0.01 % of that for rounding);
* p-values must agree to a relative 1e-4, or both be below 1e-12.

Sentiments are generated as multiples of 1/64, so their sums are exact in any
order and mean sentiments match the program's bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from workloads import DAY_S, DECAY_TAG, FLAT_TAG, LANDFALL_S, POOL, VOCABULARY, Shape

TAG_BIT = {t: 1 << i for i, t in enumerate(VOCABULARY)}
POOL_MASK = sum(TAG_BIT[t] for t in POOL)
# The CLI defaults the benchmark relies on: correlate/nowcast window
# 2012-10-31..2012-11-12 (inclusive days), series span 2012-10-22..2012-11-11.
WINDOW = (LANDFALL_S + 1 * DAY_S, LANDFALL_S + 14 * DAY_S)
SPAN = (LANDFALL_S - 8 * DAY_S, LANDFALL_S + 13 * DAY_S)
EPOCH = datetime(2012, 10, 30, tzinfo=timezone.utc)
MIN_ACTIVE = 3  # the CLI reports a correlation only with at least 3 regions
P_REL_TOL = 1e-4
P_ABS_FLOOR = 1e-12
# The simulator's documented damage model: coupling 1000 per message posted in
# days [1, 13) after its default landfall of 2012-10-30.
SIM_COUPLING = 1000.0
SIM_DAMAGE_WINDOW = ("2012-10-31T00:00:00+00:00", "2012-11-12T00:00:00+00:00")


@dataclass
class Truth:
    region_ids: list[str]
    population: np.ndarray  # 0 = no population row
    damage: np.ndarray
    region: np.ndarray  # -1 outside every region, -2 unlocated
    user: np.ndarray
    time: np.ndarray
    tags: np.ndarray
    retweet: np.ndarray
    sentiment: np.ndarray  # NaN = no score

    @classmethod
    def load(cls, path: Path) -> "Truth":
        with np.load(path) as z:
            return cls(
                region_ids=[str(r) for r in z["region_ids"]],
                population=z["population"],
                damage=z["damage"],
                region=z["msg_region"],
                user=z["msg_user"],
                time=z["msg_time"],
                tags=z["msg_tags"],
                retweet=z["msg_retweet"],
                sentiment=z["msg_sentiment"],
            )

    @property
    def n_regions(self) -> int:
        return len(self.region_ids)

    def selected(self, mask: int) -> np.ndarray:
        return (self.region >= 0) & ((self.tags & mask) != 0)

    def per_region(self, selected: np.ndarray, window: tuple[int, int] | None = None) -> dict:
        """Per-region counts over ``window`` for the messages in ``selected``.

        ``users`` counts distinct users over the whole corpus (the per-user
        denominator), not just the window.
        """
        n = self.n_regions
        stride = int(self.user.max()) + 1
        pairs = np.unique(self.region[selected] * stride + self.user[selected])
        users = np.bincount(pairs // stride, minlength=n)
        any_message = np.bincount(self.region[selected], minlength=n) > 0
        if window is not None:
            selected = selected & (self.time >= window[0]) & (self.time < window[1])
        scored = selected & ~np.isnan(self.sentiment)
        sentiment_n = np.bincount(self.region[scored], minlength=n)
        sentiment_sum = np.bincount(self.region[scored], weights=self.sentiment[scored], minlength=n)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = np.where(sentiment_n > 0, sentiment_sum / sentiment_n, np.nan)
        return {
            "messages": np.bincount(self.region[selected], minlength=n),
            "original": np.bincount(self.region[selected & ~self.retweet], minlength=n),
            "users": users,
            "any": any_message,
            "sentiment": mean,
        }


# ---------------------------------------------------------------------------
# reference statistics


def _permutation_spearman_p(x: np.ndarray, y: np.ndarray) -> float:
    from scipy.stats import rankdata

    ax = rankdata(x) - (len(x) + 1) / 2.0
    ay = rankdata(y) - (len(y) + 1) / 2.0
    observed = abs(float(ax @ ay))
    perms = np.array(list(itertools.permutations(range(len(x)))))
    dots = np.abs(ay[perms] @ ax)
    return float(np.mean(dots >= observed - 1e-9))


def reference(x, y, method: str, transform: str = "raw") -> tuple[int, float | None, float | None, int]:
    """(n, coefficient, p_value, excluded) as ``scipy.stats`` computes them.

    ``None`` marks the empty cell the CLI writes for a degenerate result.
    """
    from scipy import stats

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    excluded = 0
    if transform == "log10":
        keep = (x > 0) & (y > 0)
        excluded = int(len(x) - keep.sum())
        x, y = np.log10(x[keep]), np.log10(y[keep])
    n = len(x)
    if n < 2 or np.all(x == x[0]) or np.all(y == y[0]):
        return n, None, None, excluded
    ties = len(np.unique(x)) < n or len(np.unique(y)) < n
    if method == "kendall":
        result = stats.kendalltau(x, y, method="exact" if n <= 10 and not ties else "asymptotic")
        return n, float(result.statistic), float(result.pvalue), excluded
    if method == "spearman":
        rho = float(stats.spearmanr(x, y).statistic)
        if n <= 8:
            return n, rho, _permutation_spearman_p(x, y), excluded
        p = 0.0 if abs(rho) == 1.0 else float(stats.spearmanr(x, y).pvalue)
        return n, rho, p, excluded
    result = stats.pearsonr(x, y)
    return n, float(result.statistic), 1.0 if n == 2 else float(result.pvalue), excluded


def guarded(x, y, method: str) -> tuple[int, float | None, float | None, int]:
    if len(x) < MIN_ACTIVE:
        return len(x), None, None, 0
    return reference(x, y, method)


def _same_coefficient(text: str, value: float | None) -> bool:
    if value is None or text == "":
        return value is None and text == ""
    reported = float(text)
    if value == 0.0:
        return abs(reported) <= 1e-12
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 5)
    return abs(reported - value) <= half_unit * 1.0001


def _same_p(text: str, value: float | None) -> bool:
    if value is None or text == "":
        return value is None and text == ""
    reported = float(text)
    if reported < P_ABS_FLOOR and value < P_ABS_FLOOR:
        return True
    return abs(reported - value) <= P_REL_TOL * max(reported, value)


def _compare_stat(where: str, row: dict, expected, problems: list[str]) -> None:
    _, value, p_value, _ = expected
    if not _same_coefficient(row["coefficient"], value):
        problems.append(f"{where}: coefficient {row['coefficient']!r}, expected {value!r}")
    if not _same_p(row["p_value"], p_value):
        problems.append(f"{where}: p_value {row['p_value']!r}, expected {p_value!r}")


def read_report(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.DictReader(lines))


# ---------------------------------------------------------------------------
# report checks


def check_join(truth: Truth, path: Path) -> list[str]:
    rows = read_report(path)
    problems = []
    if len(rows) != len(truth.region):
        return [f"join: {len(rows)} rows, expected {len(truth.region)}"]
    for i, row in enumerate(rows):
        r = int(truth.region[i])
        expected = truth.region_ids[r] if r >= 0 else ""
        if row["message_id"] != f"m{i:07d}" or row["region_id"] != expected:
            problems.append(f"join row {i + 1}: {row['message_id']} -> {row['region_id']!r}, expected {expected!r}")
    return problems


def _scopes() -> dict[str, int]:
    scopes = {"pooled": POOL_MASK}
    scopes.update({tag: TAG_BIT[tag] for tag in POOL})
    return dict(sorted(scopes.items()))


def expected_correlations(truth: Truth) -> list[tuple[tuple[str, ...], tuple]]:
    """Every row of correlations.csv, keyed by its label columns, in report order."""
    pop = truth.population
    rows = []
    for scope, mask in _scopes().items():
        s = truth.per_region(truth.selected(mask), WINDOW)
        active = (s["messages"] >= 1) & (pop > 0)
        for norm in ("census_population", "twitter_users"):
            denom = pop if norm == "census_population" else s["users"]
            act = active & (denom > 0)
            activity = [int(s["messages"][r]) / int(denom[r]) for r in np.flatnonzero(act)]
            damage_pc = [float(truth.damage[r]) / int(pop[r]) for r in np.flatnonzero(act)]
            for transform in ("raw", "log10"):
                for method in ("kendall", "spearman", "pearson"):
                    key = ("activity", scope, "insurance", norm, transform, method)
                    if len(activity) < MIN_ACTIVE:
                        rows.append((key, (len(activity), None, None, 0)))
                    else:
                        rows.append((key, reference(activity, damage_pc, method, transform)))
            scored = active & ~np.isnan(s["sentiment"]) & (denom > 0)
            sentiment = [float(s["sentiment"][r]) for r in np.flatnonzero(scored)]
            sentiment_damage = [float(truth.damage[r]) / int(denom[r]) for r in np.flatnonzero(scored)]
            for method in ("kendall", "spearman", "pearson"):
                key = ("sentiment", scope, "insurance", norm, "raw", method)
                rows.append((key, guarded(sentiment, sentiment_damage, method)))
    return rows


def check_correlate(truth: Truth, path: Path) -> list[str]:
    rows = read_report(path)
    expected = expected_correlations(truth)
    if len(rows) != len(expected):
        return [f"correlate: {len(rows)} rows, expected {len(expected)}"]
    problems = []
    labels = ("scope", "keyword", "damage_source", "normalization", "transform", "method")
    for row, (key, cell) in zip(rows, expected):
        got = tuple(row[c] for c in labels)
        if got != key:
            problems.append(f"correlate: row {got}, expected {key}")
            continue
        where = "correlate " + "/".join(key)
        if int(row["n"]) != cell[0] or int(row["excluded"]) != cell[3]:
            problems.append(f"{where}: n={row['n']} excluded={row['excluded']}, expected {cell[0]} and {cell[3]}")
        _compare_stat(where, row, cell, problems)
    return problems


def check_overlay(truth: Truth, path: Path) -> list[str]:
    from scipy.stats import rankdata

    features = json.loads(path.read_text(encoding="utf-8"))["features"]
    s = truth.per_region(truth.selected(POOL_MASK), WINDOW)
    pop = truth.population
    active = [r for r in range(truth.n_regions) if pop[r] > 0 and s["messages"][r] >= 1]
    activity = {r: int(s["messages"][r]) / int(pop[r]) for r in active}
    damage_pc = {r: float(truth.damage[r]) / int(pop[r]) for r in active}
    gaps = np.abs(rankdata([activity[r] for r in active]) - rankdata([damage_pc[r] for r in active]))
    if gaps.max() > 0:
        gaps = gaps / gaps.max()
    discrepancy = dict(zip(active, gaps))
    if len(features) != truth.n_regions:
        return [f"overlay: {len(features)} features, expected {truth.n_regions}"]
    problems = []
    for r, feature in enumerate(features):
        props = feature["properties"]
        if props["region_id"] != truth.region_ids[r]:
            problems.append(f"overlay feature {r}: region {props['region_id']!r}")
            continue
        if props["activity_pc"] != activity.get(r) or props["damage_pc"] != damage_pc.get(r):
            problems.append(
                f"overlay {props['region_id']}: activity_pc={props['activity_pc']!r} damage_pc={props['damage_pc']!r}, "
                f"expected {activity.get(r)!r} and {damage_pc.get(r)!r}"
            )
        got, want = props["rank_discrepancy"], discrepancy.get(r)
        if (got is None) != (want is None) or (want is not None and abs(got - want) > 1e-12):
            problems.append(f"overlay {props['region_id']}: rank_discrepancy {got!r}, expected {want!r}")
    return problems


def expected_series(truth: Truth, bin_hours: int) -> list[tuple[tuple, tuple]]:
    width = bin_hours * 3600
    epoch = LANDFALL_S
    selected = truth.selected(POOL_MASK)
    everywhere = truth.per_region(selected)
    pop = truth.population
    first = (SPAN[0] - epoch) // width
    last = (SPAN[1] - 1 - epoch) // width
    rows = []
    for b in range(first, last + 1):
        s = truth.per_region(selected, (epoch + b * width, epoch + (b + 1) * width))
        active = np.flatnonzero((pop > 0) & everywhere["any"] & (s["messages"] >= 1))
        activity = [int(s["original"][r]) / int(pop[r]) for r in active]
        damage = [float(truth.damage[r]) / int(pop[r]) for r in active]
        scored = [r for r in active if not np.isnan(s["sentiment"][r])]
        sentiment = [float(s["sentiment"][r]) for r in scored]
        sentiment_damage = [float(truth.damage[r]) / int(pop[r]) for r in scored]
        label = (EPOCH + timedelta(hours=bin_hours * b)).isoformat()
        head = (label, str(len(active)), str(int(s["messages"][active].sum())))
        rows.append((head + ("kendall",), guarded(activity, damage, "kendall")))
        rows.append((head + ("spearman",), guarded(activity, damage, "spearman")))
        rows.append((head + ("sentiment_kendall",), guarded(sentiment, sentiment_damage, "kendall")))
    return rows


def check_series(truth: Truth, path: Path, bin_hours: int) -> list[str]:
    rows = read_report(path)
    expected = expected_series(truth, bin_hours)
    if len(rows) != len(expected):
        return [f"series: {len(rows)} rows, expected {len(expected)}"]
    problems = []
    for row, (key, cell) in zip(rows, expected):
        got = (row["bin_start"], row["active_regions"], row["messages"], row["method"])
        if got != key:
            problems.append(f"series: row {got}, expected {key}")
            continue
        _compare_stat(f"series {key[0]} {key[3]}", row, cell, problems)
    return problems


def check_nowcast(truth: Truth, path: Path, excluded_path: Path) -> list[str]:
    s = truth.per_region(truth.selected(POOL_MASK), WINDOW)
    scored, excluded = [], []
    for r, rid in enumerate(truth.region_ids):
        count = int(s["original"][r])
        if count < 1:
            excluded.append([rid, "inactive"])
        elif truth.population[r] <= 0:
            excluded.append([rid, "no population"])
        else:
            scored.append((count / int(truth.population[r]), rid, count, int(truth.population[r])))
    scored.sort(key=lambda item: (-item[0], item[1]))
    expected = [[str(i), rid, f"{v:.6g}", str(c), str(p)] for i, (v, rid, c, p) in enumerate(scored, start=1)]
    got = [[row[c] for c in ("rank", "region_id", "per_capita_activity", "n_original", "population")]
           for row in read_report(path)]
    problems = []
    if got != expected:
        bad = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), None)
        where = f"row {bad + 1}: {got[bad]}, expected {expected[bad]}" if bad is not None else "row count"
        problems.append(f"nowcast: {len(got)} rows, expected {len(expected)}; first difference at {where}")
    got_excluded = [[row["region_id"], row["reason"]] for row in read_report(excluded_path)]
    if got_excluded != excluded:
        problems.append(f"nowcast_excluded: {len(got_excluded)} rows, expected {len(excluded)}")
    return problems


def check_rank_keywords(truth: Truth, path: Path, shape: Shape) -> list[str]:
    rows = read_report(path)
    problems = []
    if shape.extent[0] <= -90.0:  # the counts below take every region as a city
        problems.append("rank-keywords: workload reaches west of the CLI's default --min-lon -90")
    present = {t for t in VOCABULARY if np.any((truth.tags & TAG_BIT[t]) != 0)}
    if {row["keyword"] for row in rows} != present or len(rows) != len(present):
        problems.append(f"rank-keywords: keywords {sorted(row['keyword'] for row in rows)}, expected {sorted(present)}")
    if [row["rank"] for row in rows] != [str(i) for i in range(1, len(rows) + 1)]:
        problems.append("rank-keywords: ranks are not 1..n")
    for row in rows:
        if row["keyword"] not in TAG_BIT:
            continue
        cities = int(truth.per_region(truth.selected(TAG_BIT[row["keyword"]]))["any"].sum())
        if int(row["n_cities"]) != cities:
            problems.append(f"rank-keywords {row['keyword']}: n_cities {row['n_cities']}, expected {cities}")
    order = [row["keyword"] for row in rows]
    if not order or order[0] != DECAY_TAG or not rows[0]["kendall"] or float(rows[0]["kendall"]) >= 0:
        problems.append(f"rank-keywords: planted {DECAY_TAG!r} is not first with a negative Kendall ({order[:3]})")
    if FLAT_TAG not in order or DECAY_TAG not in order or order.index(FLAT_TAG) < order.index(DECAY_TAG):
        problems.append(f"rank-keywords: planted flat {FLAT_TAG!r} ranks ahead of {DECAY_TAG!r}")
    return problems


def check_simulate(sim_dir: Path) -> list[str]:
    """Re-read the simulator's bundle with csv/json alone and recount its damage (run with --sigma 0)."""
    problems = []
    collection = json.loads((sim_dir / "regions.geojson").read_text(encoding="utf-8"))
    boxes = {}
    for feature in collection["features"]:
        ring = feature["geometry"]["coordinates"][0]
        lons, lats = [v[0] for v in ring], [v[1] for v in ring]
        boxes[feature["properties"]["region_id"]] = (min(lons), min(lats), max(lons), max(lats))
    start, end = (datetime.fromisoformat(t) for t in SIM_DAMAGE_WINDOW)
    in_window = dict.fromkeys(boxes, 0)
    with open(sim_dir / "messages.csv", encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            region_id = row["message_id"].rsplit("-m", 1)[0]
            min_lon, min_lat, max_lon, max_lat = boxes[region_id]
            if not (min_lat <= float(row["lat"]) <= max_lat and min_lon <= float(row["lon"]) <= max_lon):
                problems.append(f"simulate: {row['message_id']} lies outside {region_id}")
            stamp = datetime.fromisoformat(row["timestamp"].replace("Z", "+00:00"))
            if start <= stamp < end:
                in_window[region_id] += 1
    with open(sim_dir / "damage.csv", encoding="utf-8", newline="") as handle:
        damage = {row["region_id"]: float(row["amount_usd"]) for row in csv.DictReader(handle)}
    if set(damage) != set(boxes):
        problems.append("simulate: damage.csv regions differ from regions.geojson")
    for region_id, count in in_window.items():
        if damage.get(region_id) != SIM_COUPLING * count:
            problems.append(f"simulate {region_id}: damage {damage.get(region_id)!r}, expected {SIM_COUPLING * count!r}")
    for name in ("population.csv", "track.csv", "ground_truth.csv"):
        with open(sim_dir / name, encoding="utf-8", newline="") as handle:
            if len(list(csv.reader(handle))) < 2:
                problems.append(f"simulate: {name} has no data rows")
    return problems


def check_all(truth: Truth, reports: Path, sim_dir: Path, shape: Shape, commands: set[str]) -> list[str]:
    """Run the check of every command in ``commands`` (those that did not fail)."""
    checks = {
        "simulate": lambda: check_simulate(sim_dir),
        "join": lambda: check_join(truth, reports / "join.csv"),
        "correlate": lambda: check_correlate(truth, reports / "correlations.csv")
        + check_overlay(truth, reports / "overlay.geojson"),
        "series": lambda: check_series(truth, reports / "series.csv", shape.bin_hours),
        "nowcast": lambda: check_nowcast(truth, reports / "nowcast.csv", reports / "nowcast_excluded.csv"),
        "rank-keywords": lambda: check_rank_keywords(truth, reports / "keywords.csv", shape),
    }
    problems = []
    for name, check in checks.items():
        if name in commands:
            problems += check()
    return problems


def digest(directory: Path) -> dict[str, str]:
    """sha256 of every file in a directory, for the byte-identity check across passes."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir()) if p.is_file()}
