"""Temporal binning and per-region activity summaries.

Bins are half-open ``[epoch + k*width, epoch + (k+1)*width)`` with signed
indices, so "hours since the event" is just ``bin * width``. Per-user
normalization always divides by the count of distinct users active at any
point of the whole collection period, not just the window under analysis.

Summaries are grouped counts over a :class:`MessageTable`: each message's
(scope, region) or (region, bin) cell is one integer, ``np.bincount`` over
those integers gives every count of every cell at once, and one sort of the
(cell, user) pairs gives the distinct users. A message counts in every scope
whose tags it carries, so one call serves the pool and each keyword.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import cached_property
from typing import Iterable, Iterator, Literal, Mapping, Sequence

import numpy as np

from .ingest import MICROSECOND, UNIX_EPOCH, MessageTable

__all__ = [
    "TimeWindow",
    "ActivitySummary",
    "RegionCodes",
    "DailySummaries",
    "bin_offsets",
    "bin_window",
    "normalized_activity",
    "retweet_fraction",
    "local_popularity",
    "summarize_regions",
    "summarize_daily",
]

NormalizationMode = Literal["per_period_user", "per_capita"]


@dataclass(frozen=True)
class TimeWindow:
    """Half-open UTC interval [start, end)."""

    start: datetime
    end: datetime

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ValueError("window start must precede end")

    def contains(self, stamp: datetime) -> bool:
        return self.start <= stamp < self.end


@dataclass(frozen=True)
class ActivitySummary:
    """Counts for one region over one window.

    ``active_users_period`` is the distinct-user count over the full
    collection period (the per-user denominator); ``active_users_window``
    is retained for diagnostics only. ``mean_sentiment`` averages only the
    messages that carry a score.
    """

    region_id: str
    window: TimeWindow | None
    n_messages: int
    n_original: int
    n_retweets: int
    n_popular: int
    active_users_window: int
    active_users_period: int
    mean_sentiment: float | None = None
    population: int | None = None


def bin_offsets(
    timestamps: Iterable[datetime], epoch: datetime, width: timedelta
) -> list[int]:
    """Signed bin index per timestamp; bin k covers [epoch+k*width, epoch+(k+1)*width)."""
    if width <= timedelta(0):
        raise ValueError("bin width must be positive")
    width_us = width // timedelta(microseconds=1)
    return [((t - epoch) // timedelta(microseconds=1)) // width_us for t in timestamps]


def bin_window(epoch: datetime, width: timedelta, index: int) -> TimeWindow:
    """The half-open window covered by one bin index."""
    return TimeWindow(start=epoch + index * width, end=epoch + (index + 1) * width)


def normalized_activity(
    summary: ActivitySummary,
    mode: NormalizationMode = "per_period_user",
    original_only: bool = False,
) -> float | None:
    """Message count divided by the chosen denominator; None when undefined."""
    count = summary.n_original if original_only else summary.n_messages
    if mode == "per_period_user":
        denominator = summary.active_users_period
    elif mode == "per_capita":
        denominator = summary.population or 0
    else:
        raise ValueError(f"unknown normalization mode {mode!r}")
    if denominator <= 0:
        return None
    return count / denominator


def retweet_fraction(summary: ActivitySummary) -> float | None:
    """Share of the window's messages that are rebroadcasts; None when empty."""
    if summary.n_messages == 0:
        return None
    return summary.n_retweets / summary.n_messages


def local_popularity(summary: ActivitySummary) -> float | None:
    """Locally authored messages rebroadcast at least once, per period-active user."""
    if summary.active_users_period <= 0:
        return None
    return summary.n_popular / summary.active_users_period


@dataclass(frozen=True)
class RegionCodes:
    """The region of each row of a :class:`MessageTable`: row ``i`` lies in
    ``region_ids[codes[i]]``, or in no region when ``codes[i]`` is -1."""

    codes: np.ndarray
    region_ids: Sequence[str]

    @classmethod
    def from_mapping(cls, table: MessageTable, assignments: Mapping[str, str | None]) -> "RegionCodes":
        """Codes from a message_id -> region_id (or None) mapping; absent ids lie in no region."""
        region_ids = sorted({r for r in assignments.values() if r is not None})
        position = {region_id: k for k, region_id in enumerate(region_ids)}
        regions = map(assignments.get, table.message_id.tolist())
        codes = np.fromiter(map(position.get, regions, itertools.repeat(-1)), np.int64, len(table))
        return cls(codes, region_ids)


def _region_codes(table: MessageTable, assignments: RegionCodes | Mapping[str, str | None]) -> RegionCodes:
    if isinstance(assignments, RegionCodes):
        return assignments
    return RegionCodes.from_mapping(table, assignments)


def _to_us(stamp: datetime) -> int:
    return (stamp - UNIX_EPOCH) // MICROSECOND


def _scoped_rows(
    table: MessageTable, codes: np.ndarray, scopes: Sequence[frozenset[str] | None]
) -> tuple[np.ndarray, np.ndarray]:
    """Every (row, scope) pair of an assigned row and a scope holding one of its tags.

    ``scopes[s]`` is a tag set, or None for every tag. Returns the rows and
    the scope numbers, ordered by row and then scope, so each scope's rows
    stay in file order.
    """
    position = {tag: j for j, tag in enumerate(table.tags)}
    member = np.ones((len(table.keyword_sets), len(scopes)), dtype=bool)
    for s, scope in enumerate(scopes):
        if scope is not None:
            member[:, s] = table.tag_matrix[:, [position[t] for t in scope if t in position]].any(axis=1)
    per_set = member.sum(axis=1)
    first = np.cumsum(per_set) - per_set  # where each set's scopes start in the flat list
    rows = np.flatnonzero(codes >= 0)
    sets = table.keyword_set[rows]
    repeats = per_set[sets]
    # the k-th pair of a row takes the k-th scope of the row's tag set
    shift = np.repeat(first[sets] - (np.cumsum(repeats) - repeats), repeats)
    scope = np.nonzero(member)[1][shift + np.arange(len(shift))]
    return np.repeat(rows, repeats), scope


def _distinct(cell: np.ndarray, user: np.ndarray, n_users: int, n_cells: int) -> np.ndarray:
    """Distinct users per cell."""
    pairs = np.sort(cell * max(n_users, 1) + user)
    first = np.ones(len(pairs), dtype=bool)
    first[1:] = pairs[1:] != pairs[:-1]
    return np.bincount(pairs[first] // max(n_users, 1), minlength=n_cells)


class _Cells:
    """Counts of the messages ``row`` per ``cell``; ``mean_sentiment`` is NaN
    where no message carries a score. Sentiment sums run in ``row`` order."""

    def __init__(self, table: MessageTable, row: np.ndarray, cell: np.ndarray, n_cells: int):
        retweet = table.is_retweet[row]
        popular = ~retweet & (table.retweeted_count[row] >= 1)
        sentiment = table.sentiment[row]
        scored = ~np.isnan(sentiment)
        # bincount adds each cell's weights one by one in array order, as a Python loop would
        total = np.bincount(cell[scored], weights=sentiment[scored], minlength=n_cells)
        with np.errstate(invalid="ignore"):
            self.mean_sentiment = total / np.bincount(cell[scored], minlength=n_cells)
        self.n_messages = np.bincount(cell, minlength=n_cells)
        self.n_retweets = np.bincount(cell[retweet], minlength=n_cells)
        self.n_popular = np.bincount(cell[popular], minlength=n_cells)
        self.users = _distinct(cell, table.user[row], len(table.user_ids), n_cells)

    def summaries(self, cells: list[int], region_ids: Iterable[str], windows: Iterable[TimeWindow | None],
                  period_users: Iterable[int], population: Iterable[int | None]) -> list[ActivitySummary]:
        c = np.array(cells, dtype=np.intp)
        n_messages, n_retweets = self.n_messages[c], self.n_retweets[c]
        means = [None if math.isnan(m) else m for m in self.mean_sentiment[c].tolist()]
        return list(map(
            ActivitySummary, region_ids, windows, n_messages.tolist(), (n_messages - n_retweets).tolist(),
            n_retweets.tolist(), self.n_popular[c].tolist(), self.users[c].tolist(), period_users, means,
            population,
        ))


def summarize_regions(
    messages: MessageTable,
    assignments: RegionCodes | Mapping[str, str | None],
    window: TimeWindow | None,
    keywords: frozenset[str] | None = None,
    population: Mapping[str, int] | None = None,
    region_ids: Iterable[str] | None = None,
    scopes: Mapping[str, frozenset[str] | None] | None = None,
) -> dict[str, ActivitySummary] | dict[str, dict[str, ActivitySummary]]:
    """One summary per region over ``window`` (all messages when None).

    A region has a summary when it is listed in ``region_ids`` or has a
    message in the tag scope at any time; listed regions silent in the
    corpus get all-zero summaries. The per-user denominator counts distinct
    users of the region's in-scope messages over the whole input, not just
    the window. The scope is ``keywords`` (None for every tag). Given
    ``scopes`` (name -> tag set, None for every tag) instead, the result is
    one such dict per scope name, all from one grouped count.
    """
    if scopes is None:
        return summarize_regions(
            messages, assignments, window, population=population, region_ids=region_ids,
            scopes={None: keywords},
        )[None]
    if keywords is not None:
        raise ValueError("summarize_regions: give keywords or scopes, not both")
    table, codes = messages, _region_codes(messages, assignments)
    listed = set(region_ids or ())
    names = [*codes.region_ids, *sorted(listed.difference(codes.region_ids))]  # the rest hold no message
    row, scope = _scoped_rows(table, codes.codes, list(scopes.values()))
    cell = scope * len(names) + codes.codes[row]
    n_cells = len(scopes) * len(names)
    # presence in a scope and the per-user denominator ignore the window
    present = np.bincount(cell, minlength=n_cells).reshape(len(scopes), len(names)) > 0
    period_users = _distinct(cell, table.user[row], len(table.user_ids), n_cells)
    if window is not None:
        stamp = table.time_us[row]
        inside = (_to_us(window.start) <= stamp) & (stamp < _to_us(window.end))
        row, cell = row[inside], cell[inside]
    counts = _Cells(table, row, cell, n_cells)

    shown = present | np.array([region_id in listed for region_id in names], dtype=bool)
    by_name = sorted(range(len(names)), key=names.__getitem__)
    population = population or {}
    out: dict = {}
    for s, name in enumerate(scopes):
        regions = [names[k] for k in by_name if shown[s, k]]
        cells = [s * len(names) + k for k in by_name if shown[s, k]]
        out[name] = dict(zip(regions, counts.summaries(
            cells, regions, itertools.repeat(window), period_users[cells].tolist(),
            map(population.get, regions),
        )))
    return out


@dataclass(frozen=True, eq=False)
class DailySummaries(MappingABC):
    """Per-(region, bin) summaries held as region × bin arrays.

    Row ``k`` of every array is ``region_ids[k]`` and column ``j`` is
    ``bins[j]``; the key ``(region_ids[k], bins[j])`` exists where
    ``present[k, j]``; the counts are 0 where it does not. ``mean_sentiment``
    is NaN where no message carries a score and ``population`` is NaN where
    it is unknown. An array that holds
    one value per region or per bin is a broadcast view, not a copy.

    Indexing gives one :class:`ActivitySummary`, built on lookup, for callers
    that want objects; the daily series works on the arrays.
    """

    region_ids: tuple[str, ...]
    bins: tuple[int, ...]
    windows: np.ndarray  # object: TimeWindow or None
    n_messages: np.ndarray  # int64
    n_original: np.ndarray  # int64
    n_retweets: np.ndarray  # int64
    n_popular: np.ndarray  # int64
    active_users_window: np.ndarray  # int64
    active_users_period: np.ndarray  # int64
    mean_sentiment: np.ndarray  # float64
    population: np.ndarray  # float64
    present: np.ndarray  # bool

    @classmethod
    def from_mapping(cls, summaries: Mapping[tuple[str, int], ActivitySummary]) -> DailySummaries:
        """The arrays of a (region_id, bin) -> summary mapping; regions and bins in sorted order."""
        if isinstance(summaries, DailySummaries):
            return summaries
        region_ids = tuple(sorted({region_id for region_id, _ in summaries}))
        bins = tuple(sorted({b for _, b in summaries}))
        row = {region_id: k for k, region_id in enumerate(region_ids)}
        column = {b: j for j, b in enumerate(bins)}
        cell = (
            np.fromiter((row[region_id] for region_id, _ in summaries), np.intp, len(summaries)),
            np.fromiter((column[b] for _, b in summaries), np.intp, len(summaries)),
        )
        values = list(summaries.values())

        def grid(field: str, dtype, fill) -> np.ndarray:
            out = np.full((len(region_ids), len(bins)), fill, dtype=dtype)
            out[cell] = [fill if (v := getattr(s, field)) is None else v for s in values]
            return out

        present = np.zeros((len(region_ids), len(bins)), dtype=bool)
        present[cell] = True
        return cls(
            region_ids, bins, grid("window", object, None),
            *(grid(field, np.int64, 0) for field in (
                "n_messages", "n_original", "n_retweets", "n_popular", "active_users_window",
                "active_users_period",
            )),
            grid("mean_sentiment", float, math.nan), grid("population", float, math.nan), present,
        )

    @cached_property
    def _cell(self) -> tuple[dict[str, int], dict[int, int]]:
        return {r: k for k, r in enumerate(self.region_ids)}, {b: j for j, b in enumerate(self.bins)}

    def __len__(self) -> int:
        return int(np.count_nonzero(self.present))

    def __iter__(self) -> Iterator[tuple[str, int]]:
        for k, j in zip(*np.nonzero(self.present)):
            yield self.region_ids[k], self.bins[j]

    def __getitem__(self, key: tuple[str, int]) -> ActivitySummary:
        rows, columns = self._cell
        try:
            region_id, b = key
            k, j = rows[region_id], columns[b]
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None
        if not self.present[k, j]:
            raise KeyError(key)
        mean, population = self.mean_sentiment[k, j].item(), self.population[k, j].item()
        return ActivitySummary(
            region_id, self.windows[k, j], self.n_messages[k, j].item(), self.n_original[k, j].item(),
            self.n_retweets[k, j].item(), self.n_popular[k, j].item(), self.active_users_window[k, j].item(),
            self.active_users_period[k, j].item(), None if math.isnan(mean) else mean,
            None if math.isnan(population) else int(population),
        )


def summarize_daily(
    messages: MessageTable,
    assignments: RegionCodes | Mapping[str, str | None],
    epoch: datetime,
    width: timedelta,
    bins: Sequence[int],
    keywords: frozenset[str] | None = None,
    population: Mapping[str, int] | None = None,
) -> DailySummaries:
    """Summaries keyed by (region_id, bin index) for each requested bin, for
    every region with a message in the tag scope, held as region × bin arrays."""
    if width <= timedelta(0):
        raise ValueError("bin width must be positive")
    table, codes = messages, _region_codes(messages, assignments)
    names = list(codes.region_ids)
    row, _ = _scoped_rows(table, codes.codes, [keywords])
    region = codes.codes[row]
    period_users = _distinct(region, table.user[row], len(table.user_ids), len(names))

    wanted = np.array(sorted(set(bins)), dtype=np.int64)
    index = (table.time_us[row] - _to_us(epoch)) // (width // MICROSECOND)
    slot = np.minimum(np.searchsorted(wanted, index), max(len(wanted) - 1, 0))
    inside = wanted[slot] == index if len(wanted) else np.zeros(len(row), dtype=bool)
    n_bins = len(wanted)
    counts = _Cells(table, row[inside], region[inside] * n_bins + slot[inside], len(names) * n_bins)

    requested = list(dict.fromkeys(bins))
    in_scope = np.bincount(region, minlength=len(names)) > 0
    active = np.array([k for k in sorted(range(len(names)), key=names.__getitem__) if in_scope[k]], dtype=np.intp)
    cells = np.ix_(active, np.searchsorted(wanted, requested).astype(np.intp))
    shape = (len(active), len(requested))

    def grid(per_cell: np.ndarray) -> np.ndarray:
        return per_cell.reshape(len(names), n_bins)[cells]

    def per_region(values: np.ndarray) -> np.ndarray:
        return np.broadcast_to(values[:, None], shape)

    windows = np.empty(len(requested), dtype=object)
    windows[:] = [bin_window(epoch, width, b) for b in requested]
    population = population or {}
    return DailySummaries(
        tuple(names[k] for k in active.tolist()), tuple(requested), np.broadcast_to(windows, shape),
        grid(counts.n_messages), grid(counts.n_messages - counts.n_retweets), grid(counts.n_retweets),
        grid(counts.n_popular), grid(counts.users), per_region(period_users[active]), grid(counts.mean_sentiment),
        per_region(np.array([population.get(names[k], math.nan) for k in active.tolist()], dtype=float)),
        np.broadcast_to(True, shape),
    )
