"""Analysis pipelines over regional activity summaries: keyword relevance
ranking, activity-distance curves, the city-by-keyword heatmap, daily
correlation series, the damage-correlation report grid, and the nowcast
ranking.

Every ordering produced here is deterministic under permutation of the
inputs; ties break on the keyword or region identifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable, Mapping, Sequence

import numpy as np

from .metrics import (
    ActivitySummary,
    DailySummaries,
    TimeWindow,
    local_popularity,
    normalized_activity,
    retweet_fraction,
)
from .stats import CorrelationResult, correlate, rank_discrepancy

__all__ = [
    "DEFAULT_KEYWORD_POOL",
    "COLLECTION_KEYWORDS",
    "POOLED",
    "KeywordRelevance",
    "KeywordRanking",
    "CurvePoint",
    "ActivityDistanceCurve",
    "HeatmapMatrix",
    "SeriesEntry",
    "CorrelationSeries",
    "ReportCell",
    "DamageCorrelationReport",
    "NowcastEntry",
    "NowcastReport",
    "rank_keywords",
    "activity_distance_curve",
    "heatmap_matrix",
    "daily_correlation_series",
    "damage_correlation_report",
    "nowcast",
    "region_rank_discrepancy",
]

DEFAULT_KEYWORD_POOL = ("sandy", "hurricane", "storm", "power", "flooding")

# Full collection vocabulary of the Hurricane Sandy corpus, most-posted first.
COLLECTION_KEYWORDS = (
    "power", "sandy", "hurricane", "weather", "storm", "gas", "governor",
    "stay safe", "recovery", "climate", "fema", "flooding", "no power",
    "climate change", "wall st", "blackout", "mta", "frankenstorm", "cuomo",
    "prayforusa",
)

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
    summaries. Cities outside ``city_subset`` are ignored; a keyword active in
    fewer than three subset cities is flagged degenerate and ranked last.
    """
    cities = set(city_subset) if city_subset is not None else {c for c, _ in city_summaries}
    missing = [c for c in sorted(cities) if c not in distances_km]
    if missing:
        raise ValueError(f"no track distance for city {missing[0]!r}")

    keywords = sorted({k for _, k in city_summaries})
    entries = []
    for keyword in keywords:
        activity: list[float] = []
        distance: list[float] = []
        for city in sorted(cities):
            summary = city_summaries.get((city, keyword))
            if summary is None or summary.n_messages < 1:
                continue
            value = normalized_activity(summary, "per_period_user", original_only)
            if value is None:
                continue
            activity.append(value)
            distance.append(distances_km[city])
        n_cities = len(activity)
        kendall = _guarded(activity, distance, "kendall")
        spearman = _guarded(activity, distance, "spearman")
        entries.append(
            KeywordRelevance(
                keyword=keyword,
                kendall=kendall,
                spearman=spearman,
                n_cities=n_cities,
                degenerate=kendall.degenerate,
            )
        )
    entries.sort(key=_relevance_sort_key)
    return KeywordRanking(entries=tuple(entries))


@dataclass(frozen=True)
class CurvePoint:
    city_id: str
    distance_km: float
    activity: float
    retweet_fraction: float | None
    popularity: float | None


@dataclass(frozen=True)
class ActivityDistanceCurve:
    keyword: str
    points: tuple[CurvePoint, ...]
    excluded: tuple[tuple[str, str], ...]  # (city_id, reason)


def activity_distance_curve(
    city_summaries: Mapping[tuple[str, str], ActivitySummary],
    distances_km: Mapping[str, float],
    keyword: str,
    original_only: bool = False,
) -> ActivityDistanceCurve:
    """Raw plot-ready points (one per city) sorted by distance; no smoothing."""
    points: list[CurvePoint] = []
    excluded: list[tuple[str, str]] = []
    for city in sorted({c for c, k in city_summaries if k == keyword}):
        if city not in distances_km:
            excluded.append((city, "no distance"))
            continue
        summary = city_summaries[(city, keyword)]
        value = normalized_activity(summary, "per_period_user", original_only)
        if value is None:
            excluded.append((city, "zero period users"))
            continue
        points.append(
            CurvePoint(
                city_id=city,
                distance_km=distances_km[city],
                activity=value,
                retweet_fraction=retweet_fraction(summary),
                popularity=local_popularity(summary),
            )
        )
    points.sort(key=lambda p: (p.distance_km, p.city_id))
    return ActivityDistanceCurve(keyword=keyword, points=tuple(points), excluded=tuple(excluded))


@dataclass(frozen=True)
class HeatmapMatrix:
    """Dense city x keyword x bin grid of per-user normalized daily activity."""

    cities: tuple[str, ...]  # columns, nearest city first
    keywords: tuple[str, ...]  # rows, highest total message count first
    bins: tuple[int, ...]
    values: np.ndarray  # shape (len(cities), len(keywords), len(bins))


def heatmap_matrix(
    bin_summaries: Mapping[tuple[str, str, int], ActivitySummary],
    distances_km: Mapping[str, float],
    keywords: Iterable[str] | None = None,
    bins: Sequence[int] | None = None,
) -> HeatmapMatrix:
    """Assemble the daily activity heatmap from (city, keyword, bin) summaries.

    Cities order by proximity to the track, keywords by total message count;
    both tie-break on the identifier. Missing cells are zero.
    """
    cities = sorted(distances_km, key=lambda c: (distances_km[c], c))
    kw = sorted(keywords) if keywords is not None else sorted({k for _, k, _ in bin_summaries})
    bin_list = tuple(bins) if bins is not None else tuple(sorted({b for _, _, b in bin_summaries}))

    totals = {k: 0 for k in kw}
    for (city, keyword, b), summary in bin_summaries.items():
        if keyword in totals and city in distances_km and b in bin_list:
            totals[keyword] += summary.n_messages
    kw_sorted = sorted(kw, key=lambda k: (-totals[k], k))

    values = np.zeros((len(cities), len(kw_sorted), len(bin_list)))
    bin_pos = {b: i for i, b in enumerate(bin_list)}
    for ci, city in enumerate(cities):
        for ki, keyword in enumerate(kw_sorted):
            for b in bin_list:
                summary = bin_summaries.get((city, keyword, b))
                if summary is None:
                    continue
                value = normalized_activity(summary, "per_period_user")
                values[ci, ki, bin_pos[b]] = value if value is not None else 0.0
    return HeatmapMatrix(
        cities=tuple(cities), keywords=tuple(kw_sorted), bins=bin_list, values=values
    )


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
    normalization: str


def daily_correlation_series(
    daily_summaries: DailySummaries | Mapping[tuple[str, int], ActivitySummary],
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
    mapping is first gathered into :class:`DailySummaries`; each bin's vectors
    are then slices of its arrays, regions in sorted order.
    """
    if normalization not in ("per_capita", "per_period_user"):
        raise ValueError(f"unknown normalization mode {normalization!r}")
    daily = DailySummaries.from_mapping(daily_summaries)
    rows = [k for k, region in enumerate(daily.region_ids) if region in population]
    regions = [daily.region_ids[k] for k in rows]
    column = {b: j for j, b in enumerate(daily.bins)}
    # a bin with no summaries reads the zero column appended below; like a missing key, it has no active region
    columns = [column.get(b, len(daily.bins)) for b in bins]

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
    return CorrelationSeries(entries=entries, normalization=normalization)


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
    window: TimeWindow | None

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


def damage_correlation_report(
    scope_summaries: Mapping[str, Mapping[str, ActivitySummary]],
    damage_by_source: Mapping[str, Mapping[str, float]],
    population: Mapping[str, int],
    window: TimeWindow | None = None,
    normalizations: Sequence[str] = ("census_population", "twitter_users"),
    transforms: Sequence[str] = ("raw", "log10"),
    methods: Sequence[str] = ("kendall", "spearman", "pearson"),
    original_only: bool = False,
    include_sentiment: bool = True,
) -> DamageCorrelationReport:
    """Every correlation cell for the keyword x source x normalization x transform grid.

    ``scope_summaries`` maps a scope name (a keyword, or :data:`POOLED`) to
    per-region summaries over the analysis window. The activity side follows
    the normalization toggle; per-capita damage always divides by census
    population except in sentiment cells, where the toggle selects the damage
    denominator (sentiment itself has no count to normalize). Sentiment cells
    are emitted raw-only.
    """
    cells: list[ReportCell] = []
    for scope in sorted(scope_summaries):
        summaries = scope_summaries[scope]
        for source in sorted(damage_by_source):
            damage = damage_by_source[source]
            for norm in normalizations:
                mode = "per_capita" if norm == "census_population" else "per_period_user"
                activity: list[float] = []
                damage_pc: list[float] = []
                sentiment: list[float] = []
                sentiment_damage: list[float] = []
                active = 0
                for region in sorted(summaries):
                    summary = summaries[region]
                    if summary.n_messages < 1 or region not in population:
                        continue
                    active += 1
                    value = normalized_activity(summary, mode, original_only)
                    pc = damage.get(region, 0.0) / population[region]
                    if value is not None:
                        activity.append(value)
                        damage_pc.append(pc)
                    if summary.mean_sentiment is not None:
                        denom = (
                            population[region]
                            if norm == "census_population"
                            else summary.active_users_period
                        )
                        if denom > 0:
                            sentiment.append(summary.mean_sentiment)
                            sentiment_damage.append(damage.get(region, 0.0) / denom)
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
    return DamageCorrelationReport(cells=tuple(cells), window=window)


@dataclass(frozen=True)
class NowcastEntry:
    rank: int
    region_id: str
    per_capita_activity: float
    n_original: int
    n_messages: int
    population: int
    damage_rank: int | None = None


@dataclass(frozen=True)
class NowcastReport:
    entries: tuple[NowcastEntry, ...]
    excluded: tuple[tuple[str, str], ...]  # (region_id, reason)
    window: TimeWindow | None
    normalization: str
    keywords: tuple[str, ...]


def nowcast(
    summaries: Mapping[str, ActivitySummary],
    window: TimeWindow | None = None,
    keywords: Sequence[str] = DEFAULT_KEYWORD_POOL,
    original_only: bool = True,
    damage_usd: Mapping[str, float] | None = None,
) -> NowcastReport:
    """Rank regions by per-capita activity over the post-event window.

    Inactive regions and regions without a usable population denominator are
    listed separately with reasons. When a damage snapshot is supplied, each
    ranked region also reports its rank in the per-capita damage ordering (1
    is the hardest hit), for rank-discrepancy inspection.
    """
    scored: list[tuple[float, str, ActivitySummary]] = []
    excluded: list[tuple[str, str]] = []
    for region in sorted(summaries):
        summary = summaries[region]
        count = summary.n_original if original_only else summary.n_messages
        if count < 1:
            excluded.append((region, "inactive"))
            continue
        if not summary.population or summary.population <= 0:
            excluded.append((region, "no population"))
            continue
        scored.append((count / summary.population, region, summary))
    scored.sort(key=lambda item: (-item[0], item[1]))

    damage_rank: dict[str, int] = {}
    if damage_usd is not None and scored:
        per_capita = [
            (-(damage_usd.get(region, 0.0) / summary.population), region)
            for _, region, summary in scored
        ]
        for position, (_, region) in enumerate(sorted(per_capita), start=1):
            damage_rank[region] = position

    entries = tuple(
        NowcastEntry(
            rank=i,
            region_id=region,
            per_capita_activity=value,
            n_original=summary.n_original,
            n_messages=summary.n_messages,
            population=summary.population or 0,
            damage_rank=damage_rank.get(region),
        )
        for i, (value, region, summary) in enumerate(scored, start=1)
    )
    return NowcastReport(
        entries=entries,
        excluded=tuple(excluded),
        window=window,
        normalization="per_capita",
        keywords=tuple(keywords),
    )


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
