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

A set is stored as its maximal runs, and the per-set functions read them
in O(#runs log #runs), exactly at any horizon. :func:`mask_statistics`
reads the same densities off a bool mask in carried block passes, each
handing one count from block to block; it is how the classifier reads its
return-time masks without building a :class:`FiniteNatSet`. The engines
share no arithmetic but :func:`_extremes`, the exact comparison of ratios.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
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
_MAX_HORIZON = 2**63 - 2  # horizon + 1, a run's end, is an int64


@dataclass(frozen=True, eq=False)
class FiniteNatSet:
    """A subset of ``{0, 1, ..., horizon}``, stored as its maximal runs.

    The constructor takes strictly increasing members and keeps only
    ``bounds``, the read-only, strictly increasing ``int64`` array ``[s_0,
    e_0, s_1, e_1, ...]`` of the half-open runs ``[s_k, e_k)``; ``array``
    expands the members on each read. Equality and hashing go by value on
    ``(bounds, horizon)``.
    """

    members: InitVar[Sequence[int] | np.ndarray]
    horizon: int
    bounds: np.ndarray = field(init=False)

    def __post_init__(self, members):
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        if self.horizon > _MAX_HORIZON:
            raise ValueError(f"horizon {self.horizon} is too large: a set's run bounds are int64,"
                             f" so its horizon is at most {_MAX_HORIZON}")
        arr = np.array(members, dtype=np.int64)
        if (np.diff(arr) <= 0).any():
            raise ValueError("elements must be strictly increasing")
        if arr.size:
            _check_members(int(arr[0]), int(arr[-1]), self.horizon)
        # a run starts at a member whose predecessor is not one, and ends
        # past a member whose successor is not one
        self._set_bounds(np.setxor1d(arr, arr + 1, assume_unique=True))

    def _set_bounds(self, bounds: np.ndarray) -> None:
        bounds.setflags(write=False)
        object.__setattr__(self, "bounds", bounds)

    def __eq__(self, other):
        if not isinstance(other, FiniteNatSet):
            return NotImplemented
        return self.horizon == other.horizon and np.array_equal(self.bounds, other.bounds)

    def __hash__(self):
        return hash((self.horizon, self.bounds.tobytes()))

    @property
    def array(self) -> np.ndarray:
        """The members as a read-only, strictly increasing ``int64`` array."""
        starts, lengths = self.bounds[::2], np.diff(self.bounds)[::2]
        # member i of run k is s_k + i - (the members before run k)
        arr = np.arange(len(self)) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        arr.setflags(write=False)
        return arr

    @property
    def elements(self) -> tuple[int, ...]:
        """The elements as a tuple of Python ints."""
        return tuple(self.array.tolist())

    @classmethod
    def from_iterable(cls, elements: Iterable[int], horizon: int) -> "FiniteNatSet":
        """Build from elements in any order, repeats allowed; each must
        satisfy ``0 <= e <= horizon``, checked before it becomes int64."""
        members = list(map(json_int, elements))
        cls((), horizon)  # checks the horizon before the members become int64
        if members:
            _check_members(min(members), max(members), horizon)
        return cls(np.unique(np.array(members, dtype=np.int64)), horizon)

    @classmethod
    def from_runs(cls, runs: Sequence[Sequence[int]], horizon: int) -> "FiniteNatSet":
        """Build from inclusive runs ``[[a, b], ...]`` in any order, which may
        overlap or touch; each must satisfy ``0 <= a <= b <= horizon``. The
        runs are sorted and merged as bounds, never expanded."""
        for run in runs:
            if len(run) != 2:
                raise ValueError(f"run {list(run)} is not a pair [a, b]")
        pairs = [(json_int(a), json_int(b)) for a, b in runs]
        for a, b in pairs:
            if not 0 <= a <= b <= horizon:
                raise ValueError(f"run [{a}, {b}] is empty or outside [0, {horizon}]")
        A = cls((), horizon)  # checks the horizon before the runs become int64
        pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        pairs = pairs[np.argsort(pairs[:, 0])]
        starts, reach = pairs[:, 0], np.maximum.accumulate(pairs[:, 1] + 1)
        # a run opens a merged one unless it starts inside or right after
        # the ones before it, and the merged one ends where the next opens
        opens = starts > np.r_[-1, reach[:-1]]
        A._set_bounds(np.column_stack([starts[opens], reach[np.roll(opens, -1)]]).ravel())
        return A

    def __len__(self):
        return int(np.diff(self.bounds)[::2].sum())

    def __contains__(self, n):
        return n == int(n) and np.searchsorted(self.bounds, n, side="right") % 2 == 1

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


def _check_members(least: int, greatest: int, horizon: int) -> None:
    """Refuse a set whose least member is negative or whose greatest is
    past the horizon, naming that member."""
    if least < 0:
        raise ValueError(f"elements must be naturals, got {least}")
    if greatest > horizon:
        raise ValueError(f"element {greatest} exceeds horizon {horizon}")


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
    count, first, gap = _members_walk(inside)
    lower, upper = _running_extremes(inside)
    banach = _banach_window(inside, window_len)
    return MaskStatistics(count, first, lower, upper, banach, gap)


def _members_walk(inside: np.ndarray) -> tuple[int, int | None, int]:
    """The count, the smallest positive member and the largest gap (with the
    lead-in from 0 and the tail) of ``{n : inside[n]}``, from one walk over
    the members ``_ROWS`` entries at a time."""
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
    return count, first, max(gap, inside.size - 1 - last)


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
    inf and sup over ``[floor(N/10), N]``, one block of counts at a time,
    each block handing on its exact extremes (:func:`_extremes`)."""
    N = inside.size - 1
    lows, highs = [], []
    for a, counts in _count_blocks(inside, N // 10):
        low, high = _extremes(counts, np.arange(a + 1, a + counts.size + 1, dtype=counts.dtype))
        lows.append(low)
        highs.append(high)
    value = Fraction(int(counts[-1]), N + 1)  # the last block ends at N
    return DensityEstimate(value, min(lows)), DensityEstimate(value, max(highs))


def _extremes(counts: np.ndarray, lengths: np.ndarray) -> tuple[Fraction, Fraction]:
    """The least and the greatest of the ratios ``counts / lengths``, exactly.

    Distinct ratios differ by at least ``1 / L^2``, ``L`` the largest length,
    so while ``L^2 < 2^52`` the float extremes are exact. Past that, distinct
    ratios can round to one float, and every ratio within float error of an
    extreme that is not an exact tie of it is compared as a ``Fraction``.
    """
    ratios = counts / lengths
    exact = int(lengths.max()) ** 2 < 2**52
    found = []
    for i, pick in ((int(np.argmin(ratios)), min), (int(np.argmax(ratios)), max)):
        best = Fraction(int(counts[i]), int(lengths[i]))
        if not exact:
            slack = ratios[i] * 2**-48
            near = ratios <= ratios[i] + slack if pick is min else ratios >= ratios[i] - slack
            c, n = counts[near], lengths[near]
            # a tie's length is a multiple k of best's denominator, and its
            # count k times best's numerator (best <= 1, so nothing overflows)
            k = n // best.denominator
            tie = (k * best.denominator == n) & (k * best.numerator == c)
            best = pick([best, *map(Fraction, c[~tie].tolist(), n[~tie].tolist())])
        found.append(best)
    return found[0], found[1]


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


def _check_window(window_len: int, horizon: int) -> None:
    if window_len < 0:
        raise ValueError(f"window_len must be >= 0, got {window_len}")
    if window_len > horizon:
        raise HorizonExceededError(f"window_len={window_len} exceeds horizon {horizon}")


def _below(A: FiniteNatSet, xs: np.ndarray) -> np.ndarray:
    """The number of members of ``A`` below each ``x`` of ``xs``: a
    piecewise-linear count with knots at 0 and at the set's bounds, of
    slope 1 inside a run and 0 outside one."""
    knots = np.r_[0, A.bounds]
    slope = np.arange(knots.size) % 2
    at = np.r_[0, np.cumsum(np.diff(knots) * slope[:-1])]
    k = np.searchsorted(knots, xs, side="right") - 1
    return at[k] + slope[k] * (xs - knots[k])


def _prefix_extremes(A: FiniteNatSet, N: int) -> tuple[DensityEstimate, DensityEstimate]:
    """Prefix density of ``A`` at ``N`` with the running inf and sup over
    ``[floor(N/10), N]``. The ratio falls through a gap and rises through a
    run, so they lie at ``floor(N/10)``, at ``N``, at a gap's last time or
    at a run's last member: one bound less one."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if N > A.horizon:
        raise HorizonExceededError(f"N={N} exceeds horizon {A.horizon}")
    lengths = np.clip(np.r_[N, N // 10, A.bounds - 1], N // 10, N) + 1
    counts = _below(A, lengths)
    value = Fraction(int(counts[0]), N + 1)
    return tuple(DensityEstimate(value, x) for x in _extremes(counts, lengths))


def lower_density(A: FiniteNatSet, N: int) -> DensityEstimate:
    """Prefix density at ``N`` and the running infimum over ``[floor(N/10), N]``.

    The running infimum is the finite-horizon stand-in for the lower density
    liminf.
    """
    return _prefix_extremes(A, N)[0]


def upper_density(A: FiniteNatSet, N: int) -> DensityEstimate:
    """Prefix density at ``N`` and the running supremum over ``[floor(N/10), N]``."""
    return _prefix_extremes(A, N)[1]


def upper_banach_density(A: FiniteNatSet, window_len: int) -> BanachWindow:
    """Best density over all windows ``[m, m + window_len]`` inside the horizon.

    Ties resolve to the smallest ``m``. A window's count rises by one as it
    takes in a member and falls by one as it drops one, so the smallest best
    ``m`` is 0, the last offset ``h - N``, a run's start or a run's last
    member less ``N``, for ``N = window_len``.
    """
    N, h = window_len, A.horizon
    _check_window(N, h)
    ms = np.clip(np.r_[0, h - N, A.bounds[::2], A.bounds[1::2] - 1 - N], 0, h - N)
    counts = _below(A, ms + N + 1) - _below(A, ms)
    best = counts.max()
    return BanachWindow(ratio=Fraction(int(best), N + 1), start=int(ms[counts == best].min()))


def syndetic_gap(A: FiniteNatSet) -> int:
    """Largest gap, counting the lead-in from 0 and the tail out to the horizon.

    ``A`` is syndetic at horizon with bound ``m`` iff the returned gap is
    ``<= m + 1``: every length-``m+1`` window inside the horizon then meets ``A``.
    """
    if not A.bounds.size:
        raise EmptySetError("syndetic gap of the empty set is undefined")
    # members a run apart are the runs' neighbouring bounds, one less apart
    inner = np.max(np.diff(A.bounds)[1::2] + 1, initial=int(len(A) > 1))
    return int(max(A.bounds[0], inner, A.horizon + 1 - A.bounds[-1]))


def density_summary(A: FiniteNatSet, window_lengths: Sequence[int] = ()) -> DensitySummary:
    """Assemble the standard density readout of a set at its own horizon; the
    prefix profile samples at most ``PROFILE_POINTS`` geometric points."""
    H = A.horizon
    lo, hi = _prefix_extremes(A, H)
    banach = {N: upper_banach_density(A, N) for N in map(int, window_lengths)}
    # the last point is H itself, which a float need not hold
    points = np.geomspace(1, max(H, 1), num=min(PROFILE_POINTS, H))[:-1].astype(np.int64)
    ns = np.unique(np.append(points, H))
    profile = tuple((int(n), Fraction(int(c), int(n) + 1)) for n, c in zip(ns, _below(A, ns + 1)))
    return DensitySummary(
        lower_at_horizon=lo.running,
        upper_at_horizon=hi.running,
        banach_upper=banach,
        prefix_profile=profile,
    )
