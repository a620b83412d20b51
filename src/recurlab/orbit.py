"""Orbit segments, return sets, and boundedness verdicts.

An orbit segment records the metric distances of ``x, Tx, ..., T^H x`` to
``x``, the boundedness verdict of their metric norms, and, when the caller
asks for them, the points. Every return set is read from the distances;
only the window measures read the points.
Iteration advances strictly one application at a time, each row computed
from the row before it by the kernels of ``LinearOperator.blocks``, so that
``points[n+1]`` equals ``T.apply(points[n])`` bit for bit; window measures
built from orbits rely on this.

:func:`iterate_many` steps a reused buffer of 4096 rows (``_FILL``) in
*passes*: a pass is one contiguous column range with one kernel,
``np.multiply`` by a diagonal or ``ndarray.dot`` by a dense block, and it
writes each row in place from the row before it, with no temporaries.
Adjacent diagonal ranges, across blocks and across lanes, merge into one
pass. A pass whose row repeats bit for bit has reached a fixed point of its
deterministic kernel and retires, as a dissipative block that decays to an
exact zero does. Per step, each pass costs one kernel call, made by ``map``
over row views built once per call; ``ndarray.dot`` is the gemv of
``np.dot`` without its ``__array_function__`` dispatch, which takes about
0.2 of the 0.6 µs of a 4x4 ``np.dot`` call. After each fill every lane
records its rows (:class:`_Lane`), in whole-array calls: it keeps its
distances, one float per step, and cuts its segment at the first point
past ``OVERFLOW_CAP``, the one overflow rule; its norms only update the
running facts of its boundedness verdict (:class:`_NormRecord`) and are
dropped with the fill. The points, 16 bytes per coordinate and step, are
copied out of the buffer only by the lanes whose caller asks for them,
each lane chosen on its own, into an array of its own. The parts of a
direct sum are lanes too, recorded off the sum's columns with no kernel
call of their own.
A step costs about 0.4-0.5 µs on a 2-vCPU host (:func:`iterate_many`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionError
from .linop import KernelBlock, LinearOperator, block_norms
from .natset import FiniteNatSet

__all__ = [
    "OrbitSegment",
    "BoundednessReport",
    "iterate",
    "iterate_many",
    "return_set",
]

OVERFLOW_CAP = 1e12
_FILL = 4096  # rows of the step buffer between two recordings


class BoundednessReport(NamedTuple):
    """Sup of a segment's metric norms, with a monotone-growth heuristic.

    The segment counts as bounded-at-horizon unless iteration overflowed.
    Growth is flagged when the norms increase strictly over the last half of
    the segment, from ``horizon_effective // 2`` on, and gain more than a
    relative 1e-9 overall (so unitary orbits with flat, jittering norms are
    not flagged).
    """

    bounded_at_horizon: bool
    sup_norm: float
    growth_detected: bool


@dataclass(frozen=True)
class OrbitSegment:
    """The orbit ``T^n x`` for ``n = 0..horizon_effective``: its distances to
    ``base``, the boundedness verdict of its metric norms, and the points
    themselves when they were kept.

    ``dists[n]`` is the distance from ``T^n x`` to ``base`` in the block
    metric of T; every return set of the segment, and the mass a window
    measure on it gives a ball around ``base``, is read from it.
    ``bounded`` was decided while the orbit was recorded, and no per-step
    norm is kept. ``points`` is None when the segment was iterated with
    ``points=False``; only window measures
    (:func:`empmeasure.empirical_from_window`) read them.
    ``overflow`` marks an early stop: some iterate's norm passed the
    overflow cap and the segment was truncated at the last admissible
    point.
    """

    base: np.ndarray
    points: np.ndarray | None
    bounded: BoundednessReport
    dists: np.ndarray
    horizon_effective: int
    overflow: bool

    def __post_init__(self):
        for arr in (self.base, self.points, self.dists):
            if arr is not None:
                arr.setflags(write=False)


def iterate(T: LinearOperator, x: np.ndarray, horizon: int) -> OrbitSegment:
    """Record the orbit segment of x under T up to the horizon, with its
    points.

    The one-lane call of :func:`iterate_many`.
    """
    return iterate_many((T,), x, horizon)[0]


def iterate_many(
    ops: Sequence[LinearOperator],
    x: np.ndarray,
    horizon: int,
    points: bool | Sequence[bool] = True,
    parts: Sequence[LinearOperator] = (),
) -> list[OrbitSegment]:
    """The orbit segment of x under each operator of ``ops``.

    The K orbits are lanes side by side in one step buffer of ``_FILL + 1``
    rows and ``K * d`` columns, stepped in passes (module docstring), one
    fill of the buffer at a time. Every lane equals its own
    ``z = T.apply(z)`` loop bit for bit. After each fill, each lane records
    its rows (:meth:`_Lane.record`): its norms and distances are computed by
    ``block_norms``, row by row the same bits as over the whole orbit at
    once; the distances are stored, the norms update the lane's boundedness
    facts, and the segment is cut at its first point past
    ``OVERFLOW_CAP``. ``points`` is one bool for every lane or one bool per
    lane, and a lane whose flag is True copies its rows into its own
    ``(horizon + 1, d)`` array as the segment's points. Without points a
    lane holds one float per step, against ``16 d + 8`` bytes with them.

    ``parts``, the parts of a direct sum ``ops[0]``, adds one lane per part
    over its columns of lane 0, without points: the sum's kernel blocks are
    its parts' own, so each part lane records its part's orbit bit for bit,
    under its own block metric. Their segments come after the ops'.

    Then a pass stops stepping when it covers no lane still recording, or
    when its last row equals the row before it bitwise (``-0.0`` and
    ``0.0`` differ, and a kernel need not map them alike): it has reached
    a fixed point of its deterministic kernel, and its buffer columns hold
    that row in every row of each later fill. So a lane that overflowed,
    or a pass at its fixed point, is stepped to the end of that fill and no
    further; a live part keeps its passes stepping past another part's
    overflow. The last row is carried to the top of the buffer for the
    next fill. The loop ends when no pass is left, and the rows after it
    repeat the last one.

    A call costs about 0.4-0.5 µs per step for one diagonal pass, with
    or without a merged inverse lane, and about 0.5 µs for a 4x4 dense
    block, with or without points (2-vCPU host, best of 9 calls at
    H = 2e5).
    """
    x = np.asarray(x, dtype=complex)
    if not ops:
        raise ValueError("iterate_many needs at least one operator")
    for T in ops:
        if x.shape != (T.dim,):
            raise DimensionError(f"vector shape {x.shape} != ({T.dim},)")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    d, K = x.size, len(ops)
    keep = (points,) * K if isinstance(points, bool) else tuple(map(bool, points))
    if len(keep) != K:
        raise ValueError(f"points has {len(keep)} flags for {K} operators")
    dims = [P.dim for P in parts]
    if parts and sum(dims) != d:
        raise DimensionError(f"part dims {dims} do not add up to {d}")
    buf = np.empty((min(horizon, _FILL) + 1, K * d), dtype=complex)
    buf[0] = np.tile(x, K)
    lanes = [_Lane(T, slice(k * d, (k + 1) * d), x, horizon, keep[k]) for k, T in enumerate(ops)]
    for P, a in zip(parts, accumulate(dims, initial=0)):  # parts of ops[0], in its columns
        lanes.append(_Lane(P, slice(a, a + P.dim), x[a : a + P.dim], horizon, False))
    for lane in lanes:
        lane.record(buf[:1], 0)
    if any(lane.end == 0 for lane in lanes):
        raise ValueError("base point already exceeds the overflow cap")
    # each pass, the views of its columns in every buffer row, and the lanes it covers
    passes = [(p, [buf[i, p.cols] for i in range(buf.shape[0])],
               [lane for lane in lanes
                if lane.cols.start < p.cols.stop and p.cols.start < lane.cols.stop])
              for p in _passes(ops, d)]
    last = 0  # buf[0] holds orbit row last
    # an orbit may overflow to inf or nan before its fill is recorded; the
    # recorder's cut handles that, so numpy's warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        while passes and last < horizon:
            b = min(horizon - last, _FILL)
            for p, rows, _ in passes:
                _step(p, rows[:b], rows[1 : b + 1])
            for lane in lanes:
                lane.record(buf[1 : b + 1], last + 1)
            last += b
            stepping = []
            for p, rows, covered in passes:
                bits = buf[b - 1 : b + 1, p.cols].view(np.uint64)
                if np.array_equal(bits[0], bits[1]):
                    buf[:, p.cols] = buf[b, p.cols]
                elif any(lane.end > last + 1 for lane in covered):
                    stepping.append((p, rows, covered))
            passes = stepping
            buf[0] = buf[b]
    # every orbit row after the last one stepped repeats it
    return [lane.segment(last, horizon) for lane in lanes]


class _Lane:
    """One operator's columns of the step buffer, and the distances, norm
    facts and, when it keeps them, points recorded from them up to the
    first point past ``OVERFLOW_CAP``.

    The top row of each fill is kept while the lane is recording, one row
    per ``_FILL`` steps: a cut moves the growth check's midpoint to
    ``(end - 1) // 2``, which may lie in an earlier fill, and its norm is
    then stepped again from the nearest top row by ``T.apply``, whose rows
    equal the buffer's bit for bit.
    """

    def __init__(self, T: LinearOperator, cols: slice, x: np.ndarray, horizon: int, keep: bool):
        self.T, self.cols, self.x = T, cols, x
        self.points = np.empty((horizon + 1, x.size), dtype=complex) if keep else None
        self.dists = np.empty(horizon + 1)
        self.norms = _NormRecord(horizon // 2)
        self.tops: list[tuple[int, np.ndarray]] = []  # (orbit row, its copy)
        self.end = horizon + 1  # rows the segment keeps

    def record(self, rows: np.ndarray, lo: int) -> None:
        """Record ``rows``, which hold orbit rows ``lo, lo + 1, ...``."""
        hi = min(lo + rows.shape[0], self.end)
        if hi <= lo:
            return
        rows = rows[:, self.cols]
        self.tops.append((lo, rows[0].copy()))
        norms, dists = _norms_and_dists(rows[: hi - lo], self.x, self.T.block_dims)
        bad = np.flatnonzero(~np.isfinite(norms) | (norms > OVERFLOW_CAP))
        if bad.size:
            self.end = hi = lo + int(bad[0])
            norms = norms[: hi - lo]
            mid = (self.end - 1) // 2
            self.norms.mid, self.norms.at_mid = mid, None
            if 0 <= mid < lo:
                self.norms.at_mid = self._norm_at(mid)
        self.dists[lo:hi] = dists[: hi - lo]
        self.norms.feed(norms)
        if self.points is not None:
            self.points[lo:hi] = rows[: hi - lo]

    def _norm_at(self, n: int) -> float:
        """The norm of orbit row ``n``, stepped from the last top row at or
        before it."""
        start, z = next(top for top in reversed(self.tops) if top[0] <= n)
        for _ in range(n - start):
            z = self.T.apply(z)
        return self.T.norm_of(z)

    def segment(self, last: int, horizon: int) -> OrbitSegment:
        """The lane's segment, whose rows after orbit row ``last`` repeat it."""
        end, overflow = self.end, self.end <= horizon
        points, dists = self.points, self.dists
        if end > last + 1:
            dists[last + 1 :] = dists[last]
            self.norms.repeat(end - 1 - last)
            if points is not None:
                points[last + 1 :] = points[last]
        if overflow:  # truncated copies, which free the full arrays
            points = None if points is None else points[:end].copy()
            dists = dists[:end].copy()
        return OrbitSegment(
            base=self.x.copy(),
            points=points,
            bounded=self.norms.report(overflow),
            dists=dists,
            horizon_effective=end - 1,
            overflow=overflow,
        )


class _NormRecord:
    """The boundedness facts of a norm sequence fed in order, block by
    block: its running sup, the index of the last norm that does not
    strictly exceed the one before it, its last norm, and its norm at
    ``mid``, the start of the growth check's tail.

    :meth:`report` equals :class:`BoundednessReport` of the whole sequence
    ``v``, with sup ``v.max()`` and growth ``all(tail[1:] > tail[:-1]) and
    tail[-1] > tail[0] * (1 + 1e-9)`` on ``tail = v[(v.size - 1) // 2 :]``
    of at least 3 norms, when ``mid`` is that tail's start.
    """

    def __init__(self, mid: int):
        self.mid, self.at_mid = mid, None
        self.size, self.flat = 0, 0  # 0: no norm before the last has failed
        self.sup = self.last = -np.inf

    def feed(self, norms: np.ndarray) -> None:
        if not norms.size:
            return
        lo = self.size
        self.sup = np.maximum(self.sup, norms.max())  # nan propagates, as in max()
        # each norm against the one before it (row 0 has none); nan
        # compares False, so it fails, as in the whole-sequence formula
        drops = np.flatnonzero(~(norms[1:] > norms[:-1]))
        if drops.size:
            self.flat = lo + 1 + int(drops[-1])
        elif lo and not norms[0] > self.last:
            self.flat = lo
        if lo <= self.mid < lo + norms.size:
            self.at_mid = norms[self.mid - lo]
        self.last = norms[-1]
        self.size += norms.size

    def repeat(self, n: int) -> None:
        """Feed ``n`` copies of the last norm. The last copy does not rise,
        so no growth is flagged, and the norm at the midpoint is not read."""
        if n > 0:
            self.size += n
            self.flat = self.size - 1

    def report(self, overflow: bool) -> BoundednessReport:
        mid = (self.size - 1) // 2
        growth = (
            self.size - mid >= 3
            and self.flat <= mid
            and bool(self.last > self.at_mid * (1 + 1e-9))
        )
        return BoundednessReport(not overflow, float(self.sup), growth)


def _norms_and_dists(rows: np.ndarray, base: np.ndarray, block_dims) -> tuple:
    """The metric norms of ``rows`` and their metric distances to ``base``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return block_norms(rows, block_dims), block_norms(rows - base, block_dims)


def _step(p: KernelBlock, prevs: list, rows: list) -> None:
    """Fill each view of ``rows`` in place from the view of ``prevs``
    before it, which is the row before it in the buffer."""
    if p.diagonal is not None:
        deque(map(np.multiply, prevs, repeat(p.diagonal), rows), 0)
    else:
        deque(map(np.ndarray.dot, repeat(p.matrix), prevs, rows), 0)


def _passes(ops: Sequence[LinearOperator], d: int) -> list[KernelBlock]:
    """The passes over a ``d``-column-per-lane buffer: each lane's kernel
    blocks shifted to its columns, neighbouring diagonal blocks merged."""
    passes: list[KernelBlock] = []
    for k, T in enumerate(ops):
        for block in T.blocks:
            cols = slice(k * d + block.cols.start, k * d + block.cols.stop)
            if passes and block.diagonal is not None and passes[-1].diagonal is not None:
                prev = passes.pop()
                diagonal = np.concatenate([prev.diagonal, block.diagonal])
                passes.append(KernelBlock(slice(prev.cols.start, cols.stop), diagonal, None))
            else:
                passes.append(block._replace(cols=cols))
    return passes


def return_set(orbit: OrbitSegment, epsilon: float) -> FiniteNatSet:
    """Times n with ``T^n x`` strictly inside the epsilon-ball around x.

    n = 0 always qualifies (the orbit starts in every ball around its base);
    recurrence verdicts should look at the positive return times.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    return FiniteNatSet(np.nonzero(orbit.dists < epsilon)[0], orbit.horizon_effective)
