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
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .ingest import MICROSECOND, UNIX_EPOCH, MessageTable

__all__ = [
    "TimeWindow",
    "ActivitySummary",
    "RegionCodes",
    "SummaryGrid",
    "GridColumn",
    "bin_offsets",
    "bin_window",
    "summarize_regions",
    "summarize_daily",
]


@dataclass(frozen=True)
class TimeWindow:
    """Half-open UTC interval [start, end)."""

    start: datetime
    end: datetime

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ValueError("window start must precede end")


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


def _scope_members(table: MessageTable, scopes: Sequence[frozenset[str] | None]) -> np.ndarray:
    """Whether keyword set ``k`` holds a tag of ``scopes[s]``, as ``member[k, s]``;
    a scope of None holds every tag."""
    position = {tag: j for j, tag in enumerate(table.tags)}
    member = np.ones((len(table.keyword_sets), len(scopes)), dtype=bool)
    for s, scope in enumerate(scopes):
        if scope is not None:
            member[:, s] = table.tag_matrix[:, [position[t] for t in scope if t in position]].any(axis=1)
    return member


def _distinct(cell: np.ndarray, user: np.ndarray, n_users: int, n_cells: int) -> np.ndarray:
    """Distinct users per cell."""
    # in place where it can be: at ZCTA scale each temporary here is as large as a table column
    width = max(n_users, 1)
    pairs = cell * width
    pairs += user
    pairs.sort()
    first = np.ones(len(pairs), dtype=bool)
    np.not_equal(pairs[1:], pairs[:-1], out=first[1:])
    pairs = pairs[first]
    pairs //= width
    return np.bincount(pairs, minlength=n_cells)


class _Cells:
    """Counts of the messages ``row`` per ``cell``; ``mean_sentiment`` is NaN
    where no message carries a score. Sentiment sums run in ``row`` order."""

    def __init__(self, table: MessageTable, row: np.ndarray, cell: np.ndarray, n_cells: int):
        # each per-message temporary is dropped once used: at ZCTA scale each is as large as a table column
        sentiment = table.sentiment[row]
        scored = ~np.isnan(sentiment)
        scored_cell, weights = cell[scored], sentiment[scored]
        del sentiment, scored
        # bincount adds each cell's weights one by one in array order, as a Python loop would
        total = np.bincount(scored_cell, weights=weights, minlength=n_cells)
        del weights
        with np.errstate(invalid="ignore"):
            self.mean_sentiment = total / np.bincount(scored_cell, minlength=n_cells)
        del scored_cell, total
        self.users = _distinct(cell, table.user[row], len(table.user_ids), n_cells)
        self.n_messages = np.bincount(cell, minlength=n_cells)
        retweet = table.is_retweet[row]
        self.n_retweets = np.bincount(cell[retweet], minlength=n_cells)
        popular = table.retweeted_count[row] >= 1
        popular &= ~retweet
        self.n_popular = np.bincount(cell[popular], minlength=n_cells)

    @classmethod
    def stacked(cls, parts: Sequence[_Cells]) -> _Cells:
        """The counts of ``parts``, their cells laid end to end."""
        cells = cls.__new__(cls)
        for name in ("mean_sentiment", "n_messages", "n_retweets", "n_popular", "users"):
            setattr(cells, name, np.concatenate([getattr(part, name) for part in parts]))
        return cells

    def grid(self, region_ids: Sequence[str], columns: Sequence, cells: np.ndarray, windows: np.ndarray,
             period_users: np.ndarray, population: np.ndarray, present: np.ndarray) -> SummaryGrid:
        """A grid whose entry ``[k, j]`` is cell ``cells[k, j]``; the other arrays broadcast to its shape.

        Each count moves into the grid, so the two are not held at once: this object is empty afterwards.
        """
        def shaped(values: np.ndarray) -> np.ndarray:
            return np.broadcast_to(values, cells.shape)

        def take(name: str) -> np.ndarray:
            values = getattr(self, name)[cells]
            delattr(self, name)
            return values

        n_messages, n_retweets = take("n_messages"), take("n_retweets")
        return SummaryGrid(
            tuple(region_ids), tuple(columns), shaped(windows), n_messages, n_messages - n_retweets, n_retweets,
            take("n_popular"), take("users"), shaped(period_users), take("mean_sentiment"),
            shaped(population[:, None]), shaped(present),
        )


def summarize_regions(
    messages: MessageTable,
    assignments: RegionCodes | Mapping[str, str | None],
    window: TimeWindow | None,
    population: Mapping[str, int] | None = None,
    region_ids: Iterable[str] | None = None,
    scopes: Mapping[str, frozenset[str] | None] | None = None,
) -> GridColumn | dict[str, GridColumn]:
    """One summary per region over ``window`` (all messages when None).

    A region has a summary when it is listed in ``region_ids`` or has a
    message in the tag scope at any time; listed regions silent in the
    corpus get all-zero summaries. The per-user denominator counts distinct
    users of the region's in-scope messages over the whole input, not just
    the window. Without ``scopes`` every message is in scope. Given
    ``scopes`` (name -> tag set, None for every tag), the result is one such
    mapping per scope name, all columns of one region × scope
    :class:`SummaryGrid`, from one grouped count per scope.
    """
    if scopes is None:
        return summarize_regions(
            messages, assignments, window, population=population, region_ids=region_ids, scopes={None: None},
        )[None]
    if not scopes:
        return {}
    table, codes = messages, _region_codes(messages, assignments)
    listed = set(region_ids or ())
    names = [*codes.region_ids, *sorted(listed.difference(codes.region_ids))]  # the rest hold no message
    located = np.flatnonzero(codes.codes >= 0)
    present, period_users, counts = [], [], []
    # one scope at a time, so each temporary has one entry per message, not one per (message, scope)
    for member in _scope_members(table, list(scopes.values())).T:
        row = located[member[table.keyword_set[located]]]
        region = codes.codes[row]
        # presence in a scope and the per-user denominator ignore the window
        present.append(np.bincount(region, minlength=len(names)) > 0)
        period_users.append(_distinct(region, table.user[row], len(table.user_ids), len(names)))
        if window is not None:
            stamp = table.time_us[row]
            inside = (_to_us(window.start) <= stamp) & (stamp < _to_us(window.end))
            del stamp
            row, region = row[inside], region[inside]
        counts.append(_Cells(table, row, region, len(names)))
    del located, row, region
    present = np.concatenate(present).reshape(len(scopes), len(names))
    period_users = np.concatenate(period_users)

    by_name = np.array(sorted(range(len(names)), key=names.__getitem__), dtype=np.intp)
    sorted_names = [names[k] for k in by_name.tolist()]
    cells = by_name[:, None] + len(names) * np.arange(len(scopes))  # region x scope -> cell
    present |= np.array([region_id in listed for region_id in names], dtype=bool)
    population = population or {}
    grid = _Cells.stacked(counts).grid(
        sorted_names, scopes, cells, np.array(window, dtype=object), period_users[cells],
        np.array([population.get(region_id, math.nan) for region_id in sorted_names], dtype=float),
        present.T[by_name],
    )
    return {name: GridColumn(grid, j) for j, name in enumerate(scopes)}


@dataclass(frozen=True, eq=False)
class SummaryGrid(MappingABC):
    """Per-(region, column) summaries held as region × column arrays; a
    column is a time bin (``summarize_daily``) or a tag scope
    (``summarize_regions``).

    Row ``k`` of every array is ``region_ids[k]`` and column ``j`` is
    ``columns[j]``; the key ``(region_ids[k], columns[j])`` exists where
    ``present[k, j]``; the counts are 0 where it does not. ``mean_sentiment``
    is NaN where no message carries a score and ``population`` is NaN where
    it is unknown. An array that holds one value per region or per column,
    or one value in all, is a broadcast view, not a copy.

    Indexing gives one :class:`ActivitySummary`, built on lookup, for callers
    that want objects; the analyses work on the arrays.
    """

    region_ids: tuple[str, ...]
    columns: tuple
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
    def from_mapping(cls, summaries: Mapping[tuple[str, object], ActivitySummary],
                     columns: Sequence | None = None) -> SummaryGrid:
        """The arrays of a (region_id, column) -> summary mapping; regions in sorted
        order, columns in the given order or else sorted."""
        if isinstance(summaries, SummaryGrid):
            return summaries
        region_ids = tuple(sorted({region_id for region_id, _ in summaries}))
        columns = tuple(sorted({c for _, c in summaries}) if columns is None else columns)
        row = {region_id: k for k, region_id in enumerate(region_ids)}
        column = {c: j for j, c in enumerate(columns)}
        cell = (
            np.fromiter((row[region_id] for region_id, _ in summaries), np.intp, len(summaries)),
            np.fromiter((column[c] for _, c in summaries), np.intp, len(summaries)),
        )
        values = list(summaries.values())

        def grid(field: str, dtype, fill) -> np.ndarray:
            out = np.full((len(region_ids), len(columns)), fill, dtype=dtype)
            out[cell] = [fill if (v := getattr(s, field)) is None else v for s in values]
            return out

        present = np.zeros((len(region_ids), len(columns)), dtype=bool)
        present[cell] = True
        return cls(
            region_ids, columns, grid("window", object, None),
            *(grid(field, np.int64, 0) for field in (
                "n_messages", "n_original", "n_retweets", "n_popular", "active_users_window",
                "active_users_period",
            )),
            grid("mean_sentiment", float, math.nan), grid("population", float, math.nan), present,
        )

    @cached_property
    def positions(self) -> tuple[dict[str, int], dict[object, int]]:
        """Row of each region id and column of each column key."""
        return {r: k for k, r in enumerate(self.region_ids)}, {c: j for j, c in enumerate(self.columns)}

    def __len__(self) -> int:
        return int(np.count_nonzero(self.present))

    def __iter__(self) -> Iterator[tuple[str, object]]:
        for k, j in zip(*np.nonzero(self.present)):
            yield self.region_ids[k], self.columns[j]

    def __getitem__(self, key: tuple[str, object]) -> ActivitySummary:
        rows, columns = self.positions
        try:
            region_id, c = key
            k, j = rows[region_id], columns[c]
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


class GridColumn(MappingABC):
    """Read-only region_id -> summary view of column ``column`` of ``grid``:
    the regions present there, in sorted order."""

    # a plain class: building a dataclass adds about 1 ms to the package import
    def __init__(self, grid: SummaryGrid, column: int):
        self.grid, self.column = grid, column

    def __len__(self) -> int:
        return int(np.count_nonzero(self.grid.present[:, self.column]))

    def __iter__(self) -> Iterator[str]:
        return itertools.compress(self.grid.region_ids, self.grid.present[:, self.column].tolist())

    def __getitem__(self, region_id: str) -> ActivitySummary:
        return self.grid[region_id, self.grid.columns[self.column]]


def summarize_daily(
    messages: MessageTable,
    assignments: RegionCodes | Mapping[str, str | None],
    epoch: datetime,
    width: timedelta,
    bins: Sequence[int],
    population: Mapping[str, int] | None = None,
) -> SummaryGrid:
    """Summaries keyed by (region_id, bin index) for each requested bin, for
    every region with a message, held as region × bin arrays."""
    if width <= timedelta(0):
        raise ValueError("bin width must be positive")
    table, codes = messages, _region_codes(messages, assignments)
    names = list(codes.region_ids)
    row = np.flatnonzero(codes.codes >= 0)
    region = codes.codes[row]
    has_message = np.bincount(region, minlength=len(names)) > 0
    period_users = _distinct(region, table.user[row], len(table.user_ids), len(names))

    # in place, and each temporary dropped once used: at ZCTA scale each is as large as a table column
    wanted = np.array(sorted(set(bins)), dtype=np.int64)
    index = table.time_us[row]
    index -= _to_us(epoch)
    index //= width // MICROSECOND
    slot = np.searchsorted(wanted, index)
    np.minimum(slot, max(len(wanted) - 1, 0), out=slot)
    inside = wanted[slot] == index if len(wanted) else np.zeros(len(row), dtype=bool)
    del index
    n_bins = len(wanted)
    row, cell = row[inside], region[inside]
    del region
    cell *= n_bins
    cell += slot[inside]
    del slot, inside
    counts = _Cells(table, row, cell, len(names) * n_bins)
    del row, cell

    requested = list(dict.fromkeys(bins))
    active = np.array([k for k in sorted(range(len(names)), key=names.__getitem__) if has_message[k]], dtype=np.intp)
    cells = active[:, None] * n_bins + np.searchsorted(wanted, requested).astype(np.intp)
    windows = np.empty(len(requested), dtype=object)
    windows[:] = [bin_window(epoch, width, b) for b in requested]
    population = population or {}
    return counts.grid(
        [names[k] for k in active.tolist()], requested, cells, windows, period_users[active][:, None],
        np.array([population.get(names[k], math.nan) for k in active.tolist()], dtype=float), np.array(True),
    )
