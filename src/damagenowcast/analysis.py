"""Analysis pipelines over regional activity summaries: keyword relevance
ranking, daily correlation series, the damage-correlation report grid, and
the nowcast ranking.

Every ordering produced here is deterministic under permutation of the
inputs; ties break on the keyword or region identifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable, Mapping, Sequence

import numpy as np

from .metrics import ActivitySummary, GridColumn, SummaryGrid
from .stats import CorrelationResult, correlate, rank_discrepancy

__all__ = [
    "DEFAULT_KEYWORD_POOL",
    "POOLED",
    "KeywordRelevance",
    "KeywordRanking",
    "SeriesEntry",
    "CorrelationSeries",
    "ReportCell",
    "DamageCorrelationReport",
    "NowcastEntry",
    "NowcastReport",
    "rank_keywords",
    "daily_correlation_series",
    "damage_correlation_report",
    "nowcast",
    "region_rank_discrepancy",
]

DEFAULT_KEYWORD_POOL = ("sandy", "hurricane", "storm", "power", "flooding")

POOLED = "pooled"

MIN_ACTIVE = 3  # paired samples below this produce a degenerate cell


@dataclass(frozen=True)
class KeywordRelevance:
    keyword: str
    kendall: CorrelationResult
    spearman: CorrelationResult
    n_cities: int
    degenerate: bool


@dataclass(frozen=True)
class KeywordRanking:
    """Keywords ordered most-relevant first (strongest negative distance coupling)."""

    entries: tuple[KeywordRelevance, ...]

    def keywords(self) -> list[str]:
        return [e.keyword for e in self.entries]


def _relevance_sort_key(entry: KeywordRelevance):
    if entry.degenerate:
        return (1, 0.0, 0, entry.keyword)
    tau = entry.kendall.coefficient
    # Strong magnitude first; at equal magnitude the negative (distance-decaying)
    # keyword outranks the positive one.
    return (0, -abs(tau), 0 if tau < 0 else 1, entry.keyword)


def rank_keywords(
    city_summaries: Mapping[tuple[str, str], ActivitySummary],
    distances_km: Mapping[str, float],
    city_subset: Iterable[str] | None = None,
    original_only: bool = False,
) -> KeywordRanking:
    """Rank keywords by the strength of their activity-vs-distance correlation.

    ``city_summaries`` is keyed by (city_id, keyword) and holds whole-period
    summaries; a plain mapping is first gathered into a :class:`SummaryGrid`.
    Cities outside ``city_subset`` are ignored, and so is a keyword with no
    summary in a subset city; a keyword active in fewer than three subset
    cities is flagged degenerate and ranked last.
    """
    grid = SummaryGrid.from_mapping(city_summaries)
    cities = sorted(set(city_subset) if city_subset is not None else grid.region_ids)
    missing = [c for c in cities if c not in distances_km]
    if missing:
        raise ValueError(f"no track distance for city {missing[0]!r}")

    position = grid.positions[0]
    rows = np.array([position[c] for c in cities if c in position], dtype=np.intp)
    distance = np.array([distances_km[grid.region_ids[k]] for k in rows.tolist()], dtype=float)
    count = (grid.n_original if original_only else grid.n_messages)[rows]
    users = grid.active_users_period[rows]
    present = grid.present[rows]
    valued = present & (grid.n_messages[rows] >= 1) & (users > 0)
    entries = []
    for j in np.flatnonzero(present.any(axis=0)).tolist():
        on = valued[:, j]
        activity = count[on, j] / users[on, j]
        kendall = _guarded(activity, distance[on], "kendall")
        entries.append(
            KeywordRelevance(
                keyword=grid.columns[j],
                kendall=kendall,
                spearman=_guarded(activity, distance[on], "spearman"),
                n_cities=len(activity),
                degenerate=kendall.degenerate,
            )
        )
    entries.sort(key=_relevance_sort_key)
    return KeywordRanking(entries=tuple(entries))


@dataclass(frozen=True)
class SeriesEntry:
    bin_index: int
    bin_start: datetime | None
    active_regions: int
    n_messages: int
    activity_damage_kendall: CorrelationResult
    activity_damage_spearman: CorrelationResult
    sentiment_damage_kendall: CorrelationResult


@dataclass(frozen=True)
class CorrelationSeries:
    entries: tuple[SeriesEntry, ...]


def daily_correlation_series(
    daily_summaries: SummaryGrid | Mapping[tuple[str, int], ActivitySummary],
    damage_usd: Mapping[str, float],
    population: Mapping[str, int],
    bins: Sequence[int],
    normalization: str = "per_capita",
    epoch: datetime | None = None,
    width: timedelta = timedelta(hours=24),
) -> CorrelationSeries:
    """Per-day correlation of regional activity (and sentiment) against damage.

    Damage is a fixed snapshot: per-capita by census population in every bin.
    Inactive regions (no messages that day) are discarded per bin; bins with
    fewer than three active regions yield degenerate entries but the series
    continues. Regions without a population entry never participate. A plain
    mapping is first gathered into a :class:`SummaryGrid`; each bin's vectors
    are then slices of its arrays, regions in sorted order.
    """
    if normalization not in ("per_capita", "per_period_user"):
        raise ValueError(f"unknown normalization mode {normalization!r}")
    daily = SummaryGrid.from_mapping(daily_summaries)
    rows = [k for k, region in enumerate(daily.region_ids) if region in population]
    regions = [daily.region_ids[k] for k in rows]
    column = daily.positions[1]
    # a bin with no summaries reads the zero column appended below; like a missing key, it has no active region
    columns = [column.get(b, len(daily.columns)) for b in bins]

    def per_bin(values: np.ndarray, fill) -> np.ndarray:
        """Requested bins x the regions in ``population``."""
        return np.hstack([values[rows], np.full((len(rows), 1), fill, dtype=values.dtype)])[:, columns].T

    n_messages = per_bin(daily.n_messages, 0)
    active = n_messages >= 1
    denominator = per_bin(daily.population if normalization == "per_capita" else daily.active_users_period, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        activity = per_bin(daily.n_original, 0) / denominator
        damage_pc = np.array([damage_usd.get(r, 0.0) for r in regions], dtype=float) / np.array(
            [population[r] for r in regions], dtype=float)
    valued = active & (denominator > 0)
    sentiment = per_bin(daily.mean_sentiment, np.nan)
    scored = active & ~np.isnan(sentiment)
    entries = tuple(
        SeriesEntry(
            bin_index=b,
            bin_start=epoch + b * width if epoch is not None else None,
            active_regions=int(on.sum()),
            n_messages=int(n[on].sum()),
            activity_damage_kendall=_guarded(x[v], damage_pc[v], "kendall"),
            activity_damage_spearman=_guarded(x[v], damage_pc[v], "spearman"),
            sentiment_damage_kendall=_guarded(mood[s], damage_pc[s], "kendall"),
        )
        for b, n, on, x, v, mood, s in zip(bins, n_messages, active, activity, valued, sentiment, scored)
    )
    return CorrelationSeries(entries=entries)


def _guarded(
    x: Sequence[float], y: Sequence[float], method: str, transform: str = "raw"
) -> CorrelationResult:
    if len(x) < MIN_ACTIVE:
        return CorrelationResult(
            method=method,
            coefficient=float("nan"),
            p_value=float("nan"),
            n=len(x),
            transform=transform,
            degenerate=True,
        )
    return correlate(x, y, method, transform)


@dataclass(frozen=True)
class ReportCell:
    variable: str  # "activity" | "sentiment"
    keyword: str  # POOLED or a single keyword
    damage_source: str
    normalization: str  # "census_population" | "twitter_users"
    result: CorrelationResult
    active_regions: int


@dataclass(frozen=True)
class DamageCorrelationReport:
    cells: tuple[ReportCell, ...]

    def cell(
        self, variable: str, keyword: str, damage_source: str, normalization: str,
        method: str, transform: str,
    ) -> ReportCell | None:
        for c in self.cells:
            if (
                c.variable == variable
                and c.keyword == keyword
                and c.damage_source == damage_source
                and c.normalization == normalization
                and c.result.method == method
                and c.result.transform == transform
            ):
                return c
        return None


def _columns(per_column: Mapping[object, Mapping[str, ActivitySummary]]) -> tuple[SummaryGrid, list[int]]:
    """One grid holding each region -> summary mapping of ``per_column`` as a
    column, and their column numbers, names in sorted order. Columns of one
    grid are used as they are; plain mappings are gathered first."""
    names = sorted(per_column)
    views = [per_column[name] for name in names]
    if views and all(isinstance(v, GridColumn) and v.grid is views[0].grid for v in views):
        return views[0].grid, [v.column for v in views]
    summaries = {(region, name): s for name in names for region, s in per_column[name].items()}
    return SummaryGrid.from_mapping(summaries, columns=names), list(range(len(names)))


def _by_region(values: Mapping[str, float], region_ids: Sequence[str]) -> np.ndarray:
    return np.array([values.get(region, 0.0) for region in region_ids], dtype=float)


def damage_correlation_report(
    scope_summaries: Mapping[str, Mapping[str, ActivitySummary]],
    damage_by_source: Mapping[str, Mapping[str, float]],
    population: Mapping[str, int],
    normalizations: Sequence[str] = ("census_population", "twitter_users"),
    transforms: Sequence[str] = ("raw", "log10"),
    methods: Sequence[str] = ("kendall", "spearman", "pearson"),
    original_only: bool = False,
    include_sentiment: bool = True,
) -> DamageCorrelationReport:
    """Every correlation cell for the keyword x source x normalization x transform grid.

    ``scope_summaries`` maps a scope name (a keyword, or :data:`POOLED`) to
    per-region summaries over the analysis window: the columns of one
    :class:`SummaryGrid`, or plain mappings, which are gathered into one
    first. The activity side follows the normalization toggle; per-capita
    damage always divides by census population except in sentiment cells,
    where the toggle selects the damage denominator (sentiment itself has no
    count to normalize). Sentiment cells are emitted raw-only. Each cell's
    vectors are slices of the grid's arrays, regions in sorted order.
    """
    grid, columns = _columns(scope_summaries)
    census = _by_region(population, grid.region_ids)
    known = np.array([region in population for region in grid.region_ids], dtype=bool)
    damages = {source: _by_region(damage_by_source[source], grid.region_ids) for source in sorted(damage_by_source)}
    count = grid.n_original if original_only else grid.n_messages
    own_population = np.nan_to_num(grid.population, nan=0.0)
    cells: list[ReportCell] = []
    for scope, j in zip(sorted(scope_summaries), columns):
        on = grid.present[:, j] & known & (grid.n_messages[:, j] >= 1)
        active = int(np.count_nonzero(on))
        users, mood = grid.active_users_period[on, j], grid.mean_sentiment[on, j]
        for source, damage in damages.items():
            for norm in normalizations:
                per_capita = norm == "census_population"
                denominator = own_population[on, j] if per_capita else users
                valued = denominator > 0
                activity = count[on, j][valued] / denominator[valued]
                damage_pc = (damage[on] / census[on])[valued]
                mood_denominator = census[on] if per_capita else users
                scored = ~np.isnan(mood) & (mood_denominator > 0)
                sentiment = mood[scored]
                sentiment_damage = damage[on][scored] / mood_denominator[scored]
                for transform in transforms:
                    for method in methods:
                        cells.append(
                            ReportCell(
                                variable="activity",
                                keyword=scope,
                                damage_source=source,
                                normalization=norm,
                                result=_guarded(activity, damage_pc, method, transform),
                                active_regions=active,
                            )
                        )
                if include_sentiment:
                    for method in methods:
                        cells.append(
                            ReportCell(
                                variable="sentiment",
                                keyword=scope,
                                damage_source=source,
                                normalization=norm,
                                result=_guarded(sentiment, sentiment_damage, method),
                                active_regions=active,
                            )
                        )
    return DamageCorrelationReport(cells=tuple(cells))


@dataclass(frozen=True)
class NowcastEntry:
    rank: int
    region_id: str
    per_capita_activity: float
    n_original: int
    population: int
    damage_rank: int | None = None


@dataclass(frozen=True)
class NowcastReport:
    entries: tuple[NowcastEntry, ...]
    excluded: tuple[tuple[str, str], ...]  # (region_id, reason)


def nowcast(
    summaries: Mapping[str, ActivitySummary],
    original_only: bool = True,
    damage_usd: Mapping[str, float] | None = None,
) -> NowcastReport:
    """Rank regions by per-capita activity over the post-event window.

    Inactive regions and regions without a usable population denominator are
    listed separately with reasons. When a damage snapshot is supplied, each
    ranked region also reports its rank in the per-capita damage ordering (1
    is the hardest hit), for rank-discrepancy inspection. ``summaries`` is a
    column of a :class:`SummaryGrid` or a plain mapping gathered into one.
    """
    grid, (j,) = _columns({None: summaries})
    rows = np.flatnonzero(grid.present[:, j])
    regions = [grid.region_ids[k] for k in rows.tolist()]
    count = (grid.n_original if original_only else grid.n_messages)[rows, j]
    population = grid.population[rows, j]
    inactive = count < 1
    usable = ~inactive & (population > 0)
    excluded = [(regions[i], "inactive" if inactive[i] else "no population") for i in np.flatnonzero(~usable).tolist()]
    ranked = np.flatnonzero(usable)  # regions in sorted order, so the stable sorts break ties on region_id
    value = count[ranked] / population[ranked]
    by_value = np.argsort(-value, kind="stable")
    order = ranked[by_value]

    damage_rank = np.zeros(len(rows), dtype=np.int64)  # 0: no damage snapshot
    if damage_usd is not None:
        per_capita = _by_region(damage_usd, [regions[i] for i in ranked.tolist()]) / population[ranked]
        damage_rank[ranked[np.argsort(-per_capita, kind="stable")]] = np.arange(1, len(ranked) + 1)

    entries = tuple(map(
        NowcastEntry, range(1, len(order) + 1), [regions[k] for k in order.tolist()], value[by_value].tolist(),
        grid.n_original[rows[order], j].tolist(), list(map(int, population[order].tolist())),
        [rank or None for rank in damage_rank[order].tolist()],
    ))
    return NowcastReport(entries=entries, excluded=tuple(excluded))


def region_rank_discrepancy(
    activity_pc: Mapping[str, float], damage_pc: Mapping[str, float]
) -> dict[str, float]:
    """Normalized |activity rank - damage rank| per region (shared regions only)."""
    regions = sorted(set(activity_pc) & set(damage_pc))
    if not regions:
        return {}
    gaps = rank_discrepancy(
        [activity_pc[r] for r in regions], [damage_pc[r] for r in regions]
    )
    return {region: float(gap) for region, gap in zip(regions, gaps)}
