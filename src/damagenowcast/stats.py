"""Paired-vector correlation statistics with tie handling and p-values.

Kendall is the tie-corrected tau-b; its two-sided p-value comes from the
exact permutation null (via the inversion-count distribution) when n <= 10
and neither vector has ties, otherwise from the normal approximation with
tie-adjusted variance. Its concordant-minus-discordant total S is counted
by sorting (Knight 1966, *JASA* 61:436) in O(n log n) time and O(n) memory,
so it holds at ZCTA scale (~33k regions). Spearman is Pearson on mid-ranks,
with an exact permutation p-value when n <= 8 and a t approximation above.
Pearson uses the t distribution with n-2 dof. All tests are two-sided.

Non-positive values under the log10 transform are dropped pairwise and the
count is surfaced on the result; silently shrinking n is not allowed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CorrelationResult",
    "correlate",
    "rank_discrepancy",
    "midranks",
    "KENDALL_EXACT_MAX_N",
    "SPEARMAN_EXACT_MAX_N",
]

METHODS = ("kendall", "spearman", "pearson")
TRANSFORMS = ("raw", "log10")

KENDALL_EXACT_MAX_N = 10
SPEARMAN_EXACT_MAX_N = 8


@dataclass(frozen=True)
class CorrelationResult:
    """One paired-vector test. Degenerate results carry NaN statistics.

    ``n`` is the pair count actually used; ``excluded`` counts pairs dropped
    by the log10 transform's pairwise deletion.
    """

    method: str
    coefficient: float
    p_value: float
    n: int
    transform: str = "raw"
    excluded: int = 0
    degenerate: bool = False


def _degenerate(method: str, transform: str, n: int, excluded: int) -> CorrelationResult:
    return CorrelationResult(
        method=method,
        coefficient=float("nan"),
        p_value=float("nan"),
        n=n,
        transform=transform,
        excluded=excluded,
        degenerate=True,
    )


def _dense_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense rank of each value (0 = smallest) and where each run of equal
    values starts in sorted order."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new_run = np.empty(len(values), dtype=bool)
    new_run[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new_run[1:])
    ranks = np.empty(len(values), dtype=np.int64)
    ranks[order] = np.cumsum(new_run) - 1
    return ranks, np.flatnonzero(new_run)


def midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing their average rank."""
    values = np.asarray(values, dtype=float)
    ranks, starts = _dense_ranks(values)
    ends = np.append(starts[1:], len(values)) - 1
    return ((starts + ends) / 2.0 + 1.0)[ranks]


def _inversions(values: np.ndarray) -> int:
    """Pairs i < j with values[i] > values[j], for integers in [0, n).

    A bottom-up merge sort. At each level both halves of every block of
    2 * width are sorted, and one stable argsort of (block, value) keys
    merges every block at once; each block is two sorted runs, which the
    stable sort merges in linear time, so the count takes O(n log n). A
    right-half element at offset o of its block that lands at offset p has
    p - (o - width) left-half elements ahead of it, which stability makes
    exactly those not above it, so o - p left-half elements exceed it. Summed
    over the right halves that is offset @ right - offset @ right[order].
    """
    n = len(values)
    position = np.arange(n)
    count = 0
    width = 1
    while width < n:
        offset = position % (2 * width)
        right = offset >= width
        order = np.argsort(position // (2 * width) * n + values, kind="stable")
        count += int(offset @ right) - int(offset @ right[order])
        values = values[order]
        width *= 2
    return count


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _t_sf(t: float, dof: int) -> float:
    # scipy.special is imported here because it costs about 300 ms and most
    # commands never compute a p-value.
    from scipy.special import stdtr

    # P(T >= t) = P(T <= -t) by symmetry; the lower tail keeps precision.
    return float(stdtr(dof, -t))


@lru_cache(maxsize=None)
def _inversion_counts(n: int) -> tuple[int, ...]:
    """Number of permutations of n items with k inversions, k = 0..n(n-1)/2."""
    counts = [1]
    for m in range(2, n + 1):
        prev = counts
        counts = [0] * (len(prev) + m - 1)
        for k, c in enumerate(prev):
            for shift in range(m):
                counts[k + shift] += c
    return tuple(counts)


def _kendall_exact_p(s: int, n: int) -> float:
    """Two-sided exact p for the concordant-minus-discordant total (tie-free)."""
    counts = _inversion_counts(n)
    n0 = n * (n - 1) // 2
    favourable = sum(c for k, c in enumerate(counts) if abs(n0 - 2 * k) >= abs(s))
    return favourable / math.factorial(n)


def _ties(starts: np.ndarray, n: int) -> list[int]:
    """Sizes of the runs longer than one, in sorted order."""
    lengths = np.diff(starts, append=n)
    return lengths[lengths > 1].tolist()


def _tied_pairs(ties: list[int]) -> int:
    return sum(t * (t - 1) // 2 for t in ties)


def _kendall_s(x: np.ndarray, y: np.ndarray) -> tuple[int, list[int], list[int]]:
    """Concordant minus discordant pairs, and the tie-group sizes of x and y.

    After sorting the pairs by (x, y), a pair i < j is discordant exactly
    when y_i > y_j (pairs tied in x are sorted by y and add none), so the
    discordant count is the number of y-inversions. With n1, n2 and n3 the
    pairs tied in x, in y and in both, S = n0 - n1 - n2 + n3 - 2 * discordant.
    """
    n = len(x)
    x_ranks, x_starts = _dense_ranks(x)
    y_ranks, y_starts = _dense_ranks(y)
    pairs = np.sort(x_ranks * n + y_ranks)
    joint_starts = np.flatnonzero(np.diff(pairs, prepend=-1))
    ties_x = _ties(x_starts, n)
    ties_y = _ties(y_starts, n)
    n3 = _tied_pairs(_ties(joint_starts, n))
    s = n * (n - 1) // 2 - _tied_pairs(ties_x) - _tied_pairs(ties_y) + n3 - 2 * _inversions(pairs % n)
    return s, ties_x, ties_y


def _kendall(x: np.ndarray, y: np.ndarray, transform: str, excluded: int) -> CorrelationResult:
    n = len(x)
    s, ties_x, ties_y = _kendall_s(x, y)
    n0 = n * (n - 1) // 2
    n1 = _tied_pairs(ties_x)
    n2 = _tied_pairs(ties_y)
    if n0 == n1 or n0 == n2:
        return _degenerate("kendall", transform, n, excluded)
    tau = s / math.sqrt((n0 - n1) * (n0 - n2))

    if n <= KENDALL_EXACT_MAX_N and not ties_x and not ties_y:
        p = _kendall_exact_p(s, n)
    else:
        v0 = n * (n - 1) * (2 * n + 5)
        vt = sum(t * (t - 1) * (2 * t + 5) for t in ties_x)
        vu = sum(u * (u - 1) * (2 * u + 5) for u in ties_y)
        var = (v0 - vt - vu) / 18.0
        var += (
            sum(t * (t - 1) for t in ties_x)
            * sum(u * (u - 1) for u in ties_y)
            / (2.0 * n * (n - 1))
        )
        if n > 2:
            var += (
                sum(t * (t - 1) * (t - 2) for t in ties_x)
                * sum(u * (u - 1) * (u - 2) for u in ties_y)
                / (9.0 * n * (n - 1) * (n - 2))
            )
        if var <= 0.0:
            return _degenerate("kendall", transform, n, excluded)
        z = s / math.sqrt(var)
        p = 2.0 * _normal_sf(abs(z))
    return CorrelationResult("kendall", float(tau), min(1.0, p), n, transform, excluded)


@lru_cache(maxsize=None)
def _permutation_indices(n: int) -> np.ndarray:
    perms = np.empty((math.factorial(n), n), dtype=np.int8)
    for i, perm in enumerate(itertools.permutations(range(n))):
        perms[i] = perm
    return perms


def _spearman_exact_p(ax: np.ndarray, ay: np.ndarray, dot_obs: float) -> float:
    """Exact permutation p on the centered-rank dot-product scale.

    Centered mid-ranks are multiples of 0.5, so the dot products are exact
    dyadic floats and the comparison below never suffers rounding; the slack
    only admits genuinely equal statistics.
    """
    n = len(ax)
    perms = _permutation_indices(n)
    dots = ay[perms] @ ax
    favourable = int(np.sum(np.abs(dots) >= abs(dot_obs) - 1e-9))
    return favourable / math.factorial(n)


def _spearman(x: np.ndarray, y: np.ndarray, transform: str, excluded: int) -> CorrelationResult:
    n = len(x)
    rx = midranks(x)
    ry = midranks(y)
    ax = rx - rx.mean()
    ay = ry - ry.mean()
    denom = math.sqrt(float(ax @ ax) * float(ay @ ay))
    if denom == 0.0:
        return _degenerate("spearman", transform, n, excluded)
    dot = float(ax @ ay)
    rho = dot / denom
    rho = max(-1.0, min(1.0, rho))

    if n <= SPEARMAN_EXACT_MAX_N:
        p = _spearman_exact_p(ax, ay, dot)
    elif abs(rho) == 1.0:
        p = 0.0
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = 2.0 * _t_sf(abs(t), n - 2)
    return CorrelationResult("spearman", float(rho), min(1.0, p), n, transform, excluded)


def _pearson(x: np.ndarray, y: np.ndarray, transform: str, excluded: int) -> CorrelationResult:
    n = len(x)
    if x.min() == x.max() or y.min() == y.max():  # centring an inexact mean leaves a constant vector ±1 ulp
        return _degenerate("pearson", transform, n, excluded)
    # scale each vector below 1 in magnitude by a power of two, which is exact and leaves r
    # unchanged, so that the sums of squares below neither overflow nor vanish
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    y = np.ldexp(y, -np.frexp(np.abs(y).max())[1])
    ax = x - x.mean()
    ay = y - y.mean()
    denom = math.sqrt(float(ax @ ax) * float(ay @ ay))
    if denom == 0.0:
        return _degenerate("pearson", transform, n, excluded)
    r = float(ax @ ay) / denom
    r = max(-1.0, min(1.0, r))
    if n == 2:
        p = 1.0
    elif abs(r) == 1.0:
        p = 0.0
    else:
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
        p = 2.0 * _t_sf(abs(t), n - 2)
    return CorrelationResult("pearson", r, min(1.0, p), n, transform, excluded)


def correlate(
    x,
    y,
    method: str = "kendall",
    transform: str = "raw",
) -> CorrelationResult:
    """Correlate two equal-length vectors.

    With ``transform="log10"`` any pair containing a non-positive value is
    dropped first and counted in ``excluded``. Fewer than 2 usable pairs, or
    a constant vector, yields a degenerate result rather than an exception;
    a NaN or an infinity raises ``ValueError``.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if transform not in TRANSFORMS:
        raise ValueError(f"transform must be one of {TRANSFORMS}, got {transform!r}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length 1-D vectors")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must not contain NaN or inf")

    excluded = 0
    if transform == "log10":
        keep = (x > 0.0) & (y > 0.0)
        excluded = int(len(x) - keep.sum())
        x = np.log10(x[keep])
        y = np.log10(y[keep])

    if len(x) < 2:
        return _degenerate(method, transform, len(x), excluded)
    if method == "kendall":
        return _kendall(x, y, transform, excluded)
    if method == "spearman":
        return _spearman(x, y, transform, excluded)
    return _pearson(x, y, transform, excluded)


def rank_discrepancy(x, y) -> np.ndarray:
    """Per-element |rank gap| between two vectors, scaled to the largest gap.

    All-equal rankings (max gap 0) yield all zeros.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 1:
        raise ValueError("x and y must be equal-length non-empty 1-D vectors")
    gaps = np.abs(midranks(x) - midranks(y))
    peak = gaps.max()
    if peak == 0.0:
        return np.zeros(len(x))
    return gaps / peak
