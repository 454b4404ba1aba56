"""Analysis pipelines over regional activity summaries: keyword relevance
ranking, daily correlation series, the damage-correlation report grid, and
the nowcast ranking.

Each reads one :class:`SummaryGrid`, population included, as numpy slices
over the regions in sorted order; none builds a summary object per region.
Every ordering produced here is deterministic under permutation of the
inputs; ties break on the keyword or region identifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Mapping, Sequence

import numpy as np

from .metrics import SummaryGrid
from .stats import METHODS, TRANSFORMS, CorrelationResult, _degenerate, correlate, rank_discrepancy

__all__ = [
    "DEFAULT_KEYWORD_POOL",
    "POOLED",
    "KeywordRelevance",
    "SeriesEntry",
    "ReportCell",
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

# the report's cells: every normalization, and every transform and method of stats
NORMALIZATIONS = ("census_population", "twitter_users")


@dataclass(frozen=True)
class KeywordRelevance:
    keyword: str
    kendall: CorrelationResult
    spearman: CorrelationResult
    n_cities: int


def _relevance_sort_key(entry: KeywordRelevance):
    if entry.kendall.degenerate:
        return (1, 0.0, 0, entry.keyword)
    tau = entry.kendall.coefficient
    # Strong magnitude first; at equal magnitude the negative (distance-decaying)
    # keyword outranks the positive one.
    return (0, -abs(tau), 0 if tau < 0 else 1, entry.keyword)


def rank_keywords(
    grid: SummaryGrid,
    distances_km: Mapping[str, float],
) -> tuple[KeywordRelevance, ...]:
    """Keywords most-relevant first, by the strength of their activity-vs-distance correlation.

    ``grid`` holds whole-period summaries, one column per keyword. Only the
    cities of ``distances_km`` are ranked over, and a keyword with no summary
    in one of them is ignored; a keyword active in fewer than three of them has
    a degenerate Kendall result and ranks last.
    """
    position = grid.positions[0]
    rows = np.array([position[c] for c in sorted(distances_km) if c in position], dtype=np.intp)
    distance = np.array([distances_km[grid.region_ids[k]] for k in rows.tolist()], dtype=float)
    count = grid.n_messages[rows]
    users = grid.active_users_period[rows]
    present = grid.present[rows]
    valued = present & (count >= 1) & (users > 0)
    entries = []
    for j in np.flatnonzero(present.any(axis=0)).tolist():
        on = valued[:, j]
        activity = count[on, j] / users[on, j]
        entries.append(
            KeywordRelevance(
                keyword=grid.columns[j],
                kendall=_guarded(activity, distance[on], "kendall"),
                spearman=_guarded(activity, distance[on], "spearman"),
                n_cities=len(activity),
            )
        )
    entries.sort(key=_relevance_sort_key)
    return tuple(entries)


@dataclass(frozen=True)
class SeriesEntry:
    bin_index: int
    bin_start: datetime
    active_regions: int
    n_messages: int
    activity_damage_kendall: CorrelationResult
    activity_damage_spearman: CorrelationResult
    sentiment_damage_kendall: CorrelationResult


def daily_correlation_series(
    daily: SummaryGrid,
    damage_usd: Mapping[str, float],
    bins: Sequence[int],
    epoch: datetime,
    width: timedelta,
    normalization: str = "per_capita",
) -> tuple[SeriesEntry, ...]:
    """Per-bin correlation of regional activity (and sentiment) against damage.

    ``daily`` holds one column per bin index. Damage is a fixed snapshot:
    per-capita by census population in every bin. Inactive regions (no
    messages in the bin) are discarded per bin; bins with fewer than three
    active regions yield degenerate entries but the series continues.
    Regions without a population never participate. Each bin's vectors are
    slices of its own column, regions in sorted order; a bin with no column
    has no active region.
    """
    if normalization not in ("per_capita", "per_period_user"):
        raise ValueError(f"unknown normalization mode {normalization!r}")
    column = daily.positions[1]
    damage = _by_region(damage_usd, daily.region_ids)
    entries = []
    for b in bins:
        activity = damage_pc = mood = mood_damage = np.zeros(0)
        active = n_messages = 0
        if (j := column.get(b)) is not None:
            on = np.flatnonzero((daily.population[:, j] > 0) & (daily.n_messages[:, j] >= 1))
            active, n_messages = len(on), int(daily.n_messages[on, j].sum())
            population = daily.population[on, j]
            denominator = population if normalization == "per_capita" else daily.active_users_period[on, j]
            valued = denominator > 0
            activity = daily.n_original[on, j][valued] / denominator[valued]
            per_capita = damage[on] / population
            mood = daily.mean_sentiment[on, j]
            scored = ~np.isnan(mood)
            damage_pc, mood, mood_damage = per_capita[valued], mood[scored], per_capita[scored]
        entries.append(SeriesEntry(
            bin_index=b,
            bin_start=epoch + b * width,
            active_regions=active,
            n_messages=n_messages,
            activity_damage_kendall=_guarded(activity, damage_pc, "kendall"),
            activity_damage_spearman=_guarded(activity, damage_pc, "spearman"),
            sentiment_damage_kendall=_guarded(mood, mood_damage, "kendall"),
        ))
    return tuple(entries)


def _guarded(
    x: Sequence[float], y: Sequence[float], method: str, transform: str = "raw"
) -> CorrelationResult:
    if len(x) < MIN_ACTIVE:
        return _degenerate(method, transform, len(x), 0)
    return correlate(x, y, method, transform)


@dataclass(frozen=True)
class ReportCell:
    variable: str  # "activity" | "sentiment"
    keyword: str  # POOLED or a single keyword
    damage_source: str
    normalization: str  # "census_population" | "twitter_users"
    result: CorrelationResult
    active_regions: int


def _by_region(values: Mapping[str, float], region_ids: Sequence[str]) -> np.ndarray:
    return np.array([values.get(region, 0.0) for region in region_ids], dtype=float)


def damage_correlation_report(
    grid: SummaryGrid,
    damage_by_source: Mapping[str, Mapping[str, float]],
    original_only: bool = False,
    include_sentiment: bool = True,
) -> tuple[ReportCell, ...]:
    """Every correlation cell for the scope x source x normalization x transform x method grid.

    Each column of ``grid`` is a scope (a keyword, or :data:`POOLED`) of
    per-region summaries over the analysis window; scopes come in sorted
    order. Regions without a population never participate. The activity
    side follows the normalization toggle; per-capita damage always divides
    by census population except in sentiment cells, where the toggle selects
    the damage denominator (sentiment itself has no count to normalize).
    Sentiment cells are emitted raw-only. Each cell's vectors are slices of
    the grid's arrays, regions in sorted order.
    """
    damages = {source: _by_region(damage_by_source[source], grid.region_ids) for source in sorted(damage_by_source)}
    count = grid.n_original if original_only else grid.n_messages
    cells: list[ReportCell] = []
    for j in sorted(range(len(grid.columns)), key=grid.columns.__getitem__):
        scope = grid.columns[j]
        on = grid.present[:, j] & (grid.population[:, j] > 0) & (grid.n_messages[:, j] >= 1)
        active = int(np.count_nonzero(on))
        users, mood, census = grid.active_users_period[on, j], grid.mean_sentiment[on, j], grid.population[on, j]
        for source, damage in damages.items():
            for norm in NORMALIZATIONS:
                per_capita = norm == "census_population"
                denominator = census if per_capita else users
                valued = denominator > 0
                activity = count[on, j][valued] / denominator[valued]
                damage_pc = (damage[on] / census)[valued]
                scored = ~np.isnan(mood) & valued
                sentiment = mood[scored]
                sentiment_damage = damage[on][scored] / denominator[scored]
                for transform in TRANSFORMS:
                    for method in METHODS:
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
                    for method in METHODS:
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
    return tuple(cells)


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
    grid: SummaryGrid,
    original_only: bool = True,
    damage_usd: Mapping[str, float] | None = None,
) -> NowcastReport:
    """Rank regions by per-capita activity over the post-event window.

    ``grid`` holds one column of per-region summaries. Inactive regions and
    regions without a usable population denominator are listed separately
    with reasons. When a damage snapshot is supplied, each ranked region also
    reports its rank in the per-capita damage ordering (1 is the hardest
    hit), for rank-discrepancy inspection.
    """
    rows = np.flatnonzero(grid.present[:, 0])
    regions = [grid.region_ids[k] for k in rows.tolist()]
    count = (grid.n_original if original_only else grid.n_messages)[rows, 0]
    population = grid.population[rows, 0]
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
        grid.n_original[rows[order], 0].tolist(), population[order].tolist(),
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
