"""Finite-horizon subsets of the naturals and their exact densities.

A :class:`FiniteNatSet` knows its membership exactly on ``[0, horizon]`` and
nothing beyond, so everything here is a statement "at horizon": densities are
exact rationals computed on that window, and the syndetic gap is that of the
window, never a decision about an infinite set.

Density conventions, with ``card`` counting elements of ``A`` in the stated
interval and all ratios exact :class:`fractions.Fraction` values:

* prefix density at ``N``:   ``card(A, [0, N]) / (N + 1)``
* lower/upper running value: inf/sup of the prefix density over
  ``n in [floor(N/10), N]`` (the burn-in discards tiny prefixes)
* upper Banach at window ``N``: ``max_m card(A, [m, m+N]) / (N + 1)`` over all
  windows contained in ``[0, horizon]``, with the smallest maximizing ``m``.

All of them are read off the bool mask of ``A`` in carried block passes:
each pass walks the mask ``_ROWS`` entries at a time and hands one count
from block to block, so none holds a running count of the whole mask.
:func:`mask_statistics` reads every one from a mask, which is how the
classifier reads its return-time masks without building a
:class:`FiniteNatSet`; the per-set functions build the set's mask and share
its arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import EmptySetError, HorizonExceededError
from .linop import json_int, json_list

__all__ = [
    "FiniteNatSet",
    "DensityEstimate",
    "BanachWindow",
    "DensitySummary",
    "MaskStatistics",
    "mask_statistics",
    "prefix_counts",
    "lower_density",
    "upper_density",
    "upper_banach_density",
    "syndetic_gap",
    "density_summary",
]

PROFILE_POINTS = 32
_ROWS = 1 << 16  # entries of one block of the carried count passes
_INT32_ENTRIES = 2**31  # masks shorter than this are counted in int32


@dataclass(frozen=True, eq=False)
class FiniteNatSet:
    """A subset of ``{0, 1, ..., horizon}``.

    ``array`` is a read-only, strictly increasing ``int64`` array; the
    constructor accepts any int sequence and copies it. Equality and hashing
    go by value on ``(array, horizon)``.
    """

    array: np.ndarray
    horizon: int

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        arr = np.array(self.array, dtype=np.int64)
        if (np.diff(arr) <= 0).any():
            raise ValueError("elements must be strictly increasing")
        if arr.size:
            if arr[0] < 0:
                raise ValueError("elements must be naturals")
            if arr[-1] > self.horizon:
                raise ValueError(f"element {arr[-1]} exceeds horizon {self.horizon}")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    def __eq__(self, other):
        if not isinstance(other, FiniteNatSet):
            return NotImplemented
        return self.horizon == other.horizon and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.horizon, self.array.tobytes()))

    @property
    def elements(self) -> tuple[int, ...]:
        """The elements as a tuple of Python ints."""
        return tuple(self.array.tolist())

    @classmethod
    def from_iterable(cls, elements: Iterable[int], horizon: int) -> "FiniteNatSet":
        return cls(np.unique(np.fromiter(map(json_int, elements), dtype=np.int64)), horizon)

    @classmethod
    def from_runs(cls, runs: Sequence[Sequence[int]], horizon: int) -> "FiniteNatSet":
        """Build from inclusive runs ``[[a, b], ...]``, which may overlap; each
        must satisfy ``0 <= a <= b <= horizon``, checked before any expansion."""
        for run in runs:
            if len(run) != 2:
                raise ValueError(f"run {list(run)} is not a pair [a, b]")
        bounds = [(json_int(a), json_int(b)) for a, b in runs]
        for a, b in bounds:
            if not 0 <= a <= b <= horizon:
                raise ValueError(f"run [{a}, {b}] is empty or outside [0, {horizon}]")
        pieces = [np.arange(a, b + 1, dtype=np.int64) for a, b in bounds]
        return cls(np.unique(np.concatenate([np.empty(0, np.int64), *pieces])), horizon)

    def __len__(self):
        return len(self.array)

    def __contains__(self, n):
        i = np.searchsorted(self.array, n)
        return i < len(self.array) and self.array[i] == n

    def as_set(self) -> frozenset:
        return frozenset(self.array.tolist())

    def indicator(self) -> np.ndarray:
        """0/1 array of length ``horizon + 1``."""
        ind = np.zeros(self.horizon + 1, dtype=np.int64)
        ind[self.array] = 1
        return ind

    def to_json_dict(self) -> dict:
        return {"horizon": self.horizon, "elements": self.array.tolist()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FiniteNatSet":
        """Accepts either ``{"horizon", "elements"}`` or run-length ``{"horizon", "runs"}``."""
        horizon = json_int(obj["horizon"])
        if "elements" in obj:
            return cls.from_iterable(json_list(obj["elements"]), horizon)
        if "runs" in obj:
            return cls.from_runs(list(map(json_list, json_list(obj["runs"]))), horizon)
        raise ValueError("expected 'elements' or 'runs' key")


class DensityEstimate(NamedTuple):
    """Prefix density at ``N`` plus the running extremum over the burn-in range."""

    value: Fraction
    running: Fraction


class BanachWindow(NamedTuple):
    """Best sliding-window ratio and the smallest offset attaining it."""

    ratio: Fraction
    start: int


@dataclass(frozen=True)
class DensitySummary:
    lower_at_horizon: Fraction
    upper_at_horizon: Fraction
    banach_upper: dict[int, BanachWindow]
    prefix_profile: tuple[tuple[int, Fraction], ...]


class MaskStatistics(NamedTuple):
    """One 0/1 mask over ``[0, horizon]`` read in carried block passes.

    ``count`` is the number of members and ``first_return`` the smallest
    positive one (``None`` if there is none); the other fields are those of
    :func:`lower_density`, :func:`upper_density` (both at the horizon),
    :func:`upper_banach_density` and :func:`syndetic_gap`.
    """

    count: int
    first_return: int | None
    lower: DensityEstimate
    upper: DensityEstimate
    banach: BanachWindow
    gap: int


def mask_statistics(inside: np.ndarray, window_len: int) -> MaskStatistics:
    """Every density of the set ``{n : inside[n]}``, ``horizon = len(inside) - 1``,
    read off the mask in carried block passes.

    Each pass walks the mask ``_ROWS`` entries at a time and hands a count
    from one block to the next, so it holds the mask and block-sized
    temporaries, never a whole-mask running count: it runs once per
    classified radius, and its peak adds to the orbit's.
    """
    h = inside.size - 1
    _check_window(window_len, h)
    # the count, the smallest positive member and the largest gap (see
    # _largest_gap) from one walk over the members
    count, first, gap, last = 0, None, 0, 0
    for a in range(0, inside.size, _ROWS):
        returns = np.flatnonzero(inside[a : a + _ROWS]) + a
        if returns.size:
            count += returns.size
            gap = max(gap, int(np.diff(returns, prepend=last).max()))
            last = int(returns[-1])
            if first is None and last > 0:
                first = int(returns[returns > 0][0])
    if not count:
        raise EmptySetError("syndetic gap of the empty set is undefined")
    lower, upper = _running_extremes(inside)
    banach = _banach_window(inside, window_len)
    return MaskStatistics(count, first, lower, upper, banach, gap=max(gap, h - last))


def prefix_counts(inside: np.ndarray, ns: Iterable[int]) -> list[int]:
    """``count_nonzero(inside[: n + 1])`` at each of the increasing sample
    points ``ns``, counted between consecutive points, so each entry is
    read once and no running count of the whole mask is held."""
    counts, count, prev = [], 0, 0
    for n in ns:
        count += int(np.count_nonzero(inside[prev : n + 1]))
        prev = n + 1
        counts.append(count)
    return counts


def _count_dtype(size: int) -> type:
    """The integer type of the running counts of a ``size``-entry mask."""
    return np.int32 if size < _INT32_ENTRIES else np.int64


def _count_blocks(inside: np.ndarray, start: int) -> Iterator[tuple[int, np.ndarray]]:
    """The running count of a bool mask from ``start`` on, one block at a
    time: pairs ``(a, counts)`` with ``counts[i] = count_nonzero(inside[: a
    + i + 1])`` for the ``_ROWS`` entries from ``a``, each block carried on
    from the one before; int32 below ``_INT32_ENTRIES`` entries. Every
    block is a view of one buffer, which the next block overwrites."""
    dtype = _count_dtype(inside.size)
    buf = np.empty(min(_ROWS, inside.size - start), dtype=dtype)
    carry = int(np.count_nonzero(inside[:start]))
    for a in range(start, inside.size, _ROWS):
        counts = buf[: min(_ROWS, inside.size - a)]
        np.cumsum(inside[a : a + counts.size], dtype=dtype, out=counts)
        counts += carry
        carry = int(counts[-1])
        yield a, counts


def _running_extremes(inside: np.ndarray) -> tuple[DensityEstimate, DensityEstimate]:
    """Prefix density of a mask at ``N = len(inside) - 1`` with the running
    inf and sup over ``[floor(N/10), N]``.

    Index location uses floats (safe: distinct prefix ratios differ by at
    least ``1/(N+1)^2``, far above roundoff), one block of counts at a time,
    each block handing on its ``(ratio, index, count)`` extremes; ties go
    to the smallest index, and the returned values are exact.
    """
    N = inside.size - 1
    lows, highs = [], []  # min() orders by ratio, then by the unique index
    for a, counts in _count_blocks(inside, N // 10):
        low, high = _block_extremes(a, counts)
        lows.append(low)
        highs.append(high)
    value = Fraction(int(counts[-1]), N + 1)  # the last block ends at N
    (_, lo, low), (_, hi, high) = min(lows), min(highs)
    return (
        DensityEstimate(value, Fraction(low, lo + 1)),
        DensityEstimate(value, Fraction(high, hi + 1)),
    )


def _block_extremes(a: int, counts: np.ndarray) -> tuple[tuple, tuple]:
    """The ``(ratio, index, count)`` of the smallest and (ratio negated) of
    the largest prefix ratio of a block of running counts from index ``a``;
    the first of tied ratios. Its ratios die with the call, before the next
    block's."""
    ratios = np.arange(a + 1, a + counts.size + 1, dtype=np.float64)
    np.divide(counts, ratios, out=ratios)
    i, j = int(np.argmin(ratios)), int(np.argmax(ratios))
    return (ratios[i], a + i, int(counts[i])), (-ratios[j], a + j, int(counts[j]))


def _banach_window(inside: np.ndarray, N: int) -> BanachWindow:
    """Best count of a mask over the windows ``[m, m + N]``, one block of
    offsets at a time: each window's count is the one before it plus
    ``inside[m + N]`` less ``inside[m - 1]``, carried across blocks; ties go
    to the smallest ``m``."""
    offsets = inside.size - N  # m = 0 .. h - N
    buf = np.empty(min(_ROWS, offsets - 1), dtype=_count_dtype(inside.size))
    best = carry = int(np.count_nonzero(inside[: N + 1]))
    m_star = 0
    for a in range(1, offsets, _ROWS):
        window = buf[: min(_ROWS, offsets - a)]
        np.subtract(inside[a + N : a + N + window.size], inside[a - 1 : a - 1 + window.size],
                    out=window, dtype=window.dtype)
        np.cumsum(window, out=window)
        window += carry
        carry = int(window[-1])
        i = int(np.argmax(window))
        if window[i] > best:
            best, m_star = int(window[i]), a + i
    return BanachWindow(ratio=Fraction(best, N + 1), start=m_star)


def _largest_gap(returns: np.ndarray, horizon: int) -> int:
    """Largest gap between sorted members, counting the lead-in from 0 and the
    tail out to the horizon."""
    if not returns.size:
        raise EmptySetError("syndetic gap of the empty set is undefined")
    inner = int(np.diff(returns).max()) if returns.size > 1 else 0
    return max(int(returns[0]), inner, horizon - int(returns[-1]))


def _check_window(window_len: int, horizon: int) -> None:
    if window_len < 0:
        raise ValueError(f"window_len must be >= 0, got {window_len}")
    if window_len > horizon:
        raise HorizonExceededError(f"window_len={window_len} exceeds horizon {horizon}")


def _mask(A: FiniteNatSet, N: int) -> np.ndarray:
    """The bool mask of ``A`` over ``[0, N]``."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if N > A.horizon:
        raise HorizonExceededError(f"N={N} exceeds horizon {A.horizon}")
    inside = np.zeros(N + 1, dtype=bool)
    inside[A.array[: np.searchsorted(A.array, N, side="right")]] = True
    return inside


def lower_density(A: FiniteNatSet, N: int) -> DensityEstimate:
    """Prefix density at ``N`` and the running infimum over ``[floor(N/10), N]``.

    The running infimum is the finite-horizon stand-in for the lower density
    liminf.
    """
    return _running_extremes(_mask(A, N))[0]


def upper_density(A: FiniteNatSet, N: int) -> DensityEstimate:
    """Prefix density at ``N`` and the running supremum over ``[floor(N/10), N]``."""
    return _running_extremes(_mask(A, N))[1]


def upper_banach_density(A: FiniteNatSet, window_len: int) -> BanachWindow:
    """Best density over all windows ``[m, m + window_len]`` inside the horizon.

    One carried block pass over the set's mask, O(horizon). Ties resolve to
    the smallest ``m``.
    """
    _check_window(window_len, A.horizon)
    return _banach_window(_mask(A, A.horizon), window_len)


def syndetic_gap(A: FiniteNatSet) -> int:
    """Largest gap, counting the lead-in from 0 and the tail out to the horizon.

    ``A`` is syndetic at horizon with bound ``m`` iff the returned gap is
    ``<= m + 1``: every length-``m+1`` window inside the horizon then meets ``A``.
    """
    return _largest_gap(A.array, A.horizon)


def density_summary(A: FiniteNatSet, window_lengths: Sequence[int] = ()) -> DensitySummary:
    """Assemble the standard density readout of a set at its own horizon; the
    prefix profile samples at most ``PROFILE_POINTS`` geometric points."""
    H = A.horizon
    inside = _mask(A, H)
    lo, hi = _running_extremes(inside)
    banach = {}
    for N in map(int, window_lengths):
        _check_window(N, H)
        banach[N] = _banach_window(inside, N)
    if H == 0:
        ns = [0]
    else:
        ns = np.unique(np.geomspace(1, H, num=min(PROFILE_POINTS, H)).astype(int)).tolist()
    profile = tuple((n, Fraction(c, n + 1)) for n, c in zip(ns, prefix_counts(inside, ns)))
    return DensitySummary(
        lower_at_horizon=lo.running,
        upper_at_horizon=hi.running,
        banach_upper=banach,
        prefix_profile=profile,
    )
