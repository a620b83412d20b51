"""Orbit segments, return sets, and boundedness verdicts.

An orbit segment records the metric distances of ``x, Tx, ..., T^H x`` to
``x``, the boundedness verdict of their metric norms, one point per 4096
steps and, when the caller asks for them, all the points. Every return set
is read from the distances, or, on a lane stepped for a grid of radii, from
each step's rank among them: one byte up to 255 radii in place of an 8-byte
float. Only the window measures read the points.
Iteration advances strictly one application at a time, each row computed
from the row before it by ``linop.step_rows``, the kernel of ``T.apply``,
so that ``points[n+1]`` equals ``T.apply(points[n])`` bit for bit; window
measures built from orbits rely on this.

:func:`iterate_many` steps the lanes of one or more operators, over one
or more vectors, side by side in a reused buffer of 4096 rows (``_FILL``)
in *passes*: a pass is one contiguous column range with one kernel block,
stepped over row views built once per call. Adjacent diagonal ranges,
across blocks, lanes and vectors, merge into one pass, so a step costs
one kernel call per merged pass however many vectors share it. A pass
whose row repeats bit for bit has reached a fixed point of its
deterministic kernel and retires, as a dissipative block that decays to an
exact zero does; a lane whose own columns repeat stops recording, so that
it equals its one-vector call whatever shares its passes.
After each fill every lane records its rows (:class:`_Lane`), in
whole-array calls: it keeps its distances or their ranks, and cuts
its segment at the first point past ``OVERFLOW_CAP``, the one overflow
rule; its norms only update the running facts of its boundedness verdict
(:class:`_NormRecord`) and are dropped with the fill. The points, 16 bytes
per coordinate and step, are copied out of the buffer only by the lanes
whose caller asks for them, each lane chosen on its own, into an array of
its own. Every lane keeps the top row of each fill, and a segment without
points re-steps any window of them from the last top at or before it, by
the same passes (:meth:`OrbitSegment.rows`), bit for bit the rows it would
have kept; :func:`keeps_points` weighs that re-step against the points'
memory. The parts of a direct sum are lanes too, recorded off the sum's
columns with no kernel call of their own.
A step costs about 0.4-0.5 µs per merged pass on a 2-vCPU host
(:func:`iterate_many`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DimensionError
from .linop import KernelBlock, LinearOperator, block_norms, step_rows
from .natset import FiniteNatSet

__all__ = [
    "OrbitSegment",
    "BoundednessReport",
    "check_horizon",
    "check_radii",
    "iterate",
    "iterate_many",
    "keeps_points",
    "return_set",
]

OVERFLOW_CAP = 1e12
_FILL = 4096  # rows of the step buffer between two recordings


def keeps_points(horizon: int, window_len: int) -> bool:
    """Whether an orbit read for one window of ``window_len + 1`` points
    keeps all ``horizon + 1`` of them. Without them it keeps ``horizon -
    window_len`` rows fewer, and the window is re-stepped from a fill top
    (:meth:`OrbitSegment.rows`) in at most ``window_len + _FILL`` steps;
    the points are kept when those steps are at least the rows saved."""
    return 2 * window_len + _FILL >= horizon


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
    measure on it gives a ball around ``base``, is read from it, through
    :meth:`inside`, the one open-ball rule. A segment stepped for a grid of
    ``radii`` keeps ``ranks[n]``, the number of radii at or below that
    distance, and no ``dists``.
    ``bounded`` was decided while the orbit was recorded, and no per-step
    norm is kept. ``points`` is None when the segment was iterated with
    ``points=False``; :meth:`rows` then re-steps any window of them by
    ``operator``'s kernels from ``tops``, the ``(orbit row, row)`` pairs of
    the first row and the top row of each fill of the step buffer. Only
    window measures (:func:`empmeasure.empirical_from_window`) read them.
    ``overflow`` marks an early stop: some iterate's norm passed the
    overflow cap and the segment was truncated at the last admissible
    point.
    """

    base: np.ndarray
    points: np.ndarray | None
    operator: LinearOperator
    tops: tuple[tuple[int, np.ndarray], ...]
    bounded: BoundednessReport
    dists: np.ndarray | None
    horizon_effective: int
    overflow: bool
    ranks: np.ndarray | None = None
    radii: tuple[float, ...] | None = None

    def __post_init__(self):
        for arr in (self.base, self.points, self.dists, self.ranks, *(z for _, z in self.tops)):
            if arr is not None:
                arr.setflags(write=False)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The orbit points ``T^n x`` for ``lo <= n < hi``: a view of the
        kept points, or else rows re-stepped from the last fill top at or
        before ``lo``, at most ``hi - lo + _FILL - 1`` steps, bit for bit
        the same rows."""
        if not 0 <= lo < hi <= self.horizon_effective + 1:
            raise IndexError(f"rows [{lo}, {hi}) are not in [0, {self.horizon_effective + 1})")
        if self.points is not None:
            return self.points[lo:hi]
        return _restep(self.operator, self.tops, lo, hi)

    def inside(self, epsilon: float) -> np.ndarray:
        """The return-time mask of the open epsilon-ball around ``base``:
        ``dists < epsilon`` over ``[0, horizon_effective]``, which on a
        ranked segment is ``ranks <= k`` for ``epsilon == radii[k]``."""
        if not epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {epsilon}")
        if self.radii is None:
            return self.dists < epsilon
        if epsilon not in self.radii:
            raise ValueError(f"epsilon {epsilon} is not on the orbit's radii {list(self.radii)}")
        return self.ranks <= self.radii.index(epsilon)


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
    radii: Sequence[float] | None = None,
) -> list[OrbitSegment]:
    """The orbit segment of each vector of x under each operator of ``ops``.

    ``x`` is one vector, or V vectors as the rows of a ``(V, d)`` array. The
    V * K orbits are lanes side by side in one step buffer of ``_FILL + 1``
    rows and ``V * K * d`` columns, vector by vector, each in the order of
    ``ops``, stepped in passes (module docstring) one fill at a time. Every
    lane equals its own ``z = T.apply(z)`` loop bit for bit, and its own
    one-vector call in every field and in :meth:`OrbitSegment.rows`. After
    each fill, each lane records its rows (:meth:`_Lane.record`): its norms
    and distances are computed by ``block_norms``, row by row the same bits
    as over the whole orbit at once; the distances are stored, the norms
    update the lane's boundedness facts, and the segment is cut at its
    first point past ``OVERFLOW_CAP``. ``points`` is one bool for every lane or one bool per
    operator, and a lane whose flag is True copies its rows into its own
    ``(horizon + 1, d)`` array as the segment's points. Without points a
    lane holds one float per step, against ``16 d + 8`` bytes with them,
    and its segment re-steps a window of them from its fill tops.
    ``radii``, every epsilon the segments' readers will ask, makes each lane
    keep each step's rank in ``sorted(set(radii))`` in place of its distance
    (nan ranks last), as ``np.min_scalar_type``: one byte up to 255 radii.

    ``parts``, the parts of a direct sum ``ops[0]``, adds one lane per part
    over its columns of each vector's ``ops[0]`` lane, without points: the
    sum's kernel blocks are its parts' own, so each part lane records its
    part's orbit bit for bit, under its own block metric. The segments come
    back flat, vector by vector: each vector's ops' lanes, then its parts'.

    A pass stops stepping at a fixed point of its kernel, or when it covers
    no lane still recording (:func:`_step_fills`), and a lane stops
    recording at the end of the fill in which its own columns repeat. So a
    lane that overflowed, or a pass at its fixed point, is stepped to the
    end of that fill and no further; a live part keeps its passes stepping
    past another part's overflow. The rows after a lane's last recorded
    row repeat it.

    A step costs about 0.4-0.5 µs per diagonal pass, merged or not, and
    about 0.5 µs per lane's 4x4 dense block, with or without points (2-vCPU
    host, best of 9 calls at H = 2e5).
    """
    x = np.asarray(x, dtype=complex)
    if not ops:
        raise ValueError("iterate_many needs at least one operator")
    for T in ops:
        if x.ndim > 2 or x.shape[-1:] != (T.dim,):
            raise DimensionError(f"vector shape {x.shape} != ({T.dim},)")
    xs = x.reshape(-1, x.shape[-1])
    (V, d), K = xs.shape, len(ops)
    check_horizon(horizon, d)
    keep = (points,) * K if isinstance(points, bool) else tuple(map(bool, points))
    if len(keep) != K:
        raise ValueError(f"points has {len(keep)} flags for {K} operators")
    radii = None if radii is None else tuple(sorted(set(map(float, radii))))
    dims = [P.dim for P in parts]
    if parts and sum(dims) != d:
        raise DimensionError(f"part dims {dims} do not add up to {d}")
    buf = np.empty((min(horizon, _FILL) + 1, V * K * d), dtype=complex)
    buf[0] = np.tile(xs, K).ravel()
    lanes = []
    for c, v in zip(range(0, V * K * d, K * d), xs):  # a vector's ops, then its parts
        lanes += [_Lane(T, slice(c + k * d, c + (k + 1) * d), v, horizon, keep[k], radii)
                  for k, T in enumerate(ops)]
        lanes += [_Lane(P, slice(c + a, c + a + P.dim), v[a : a + P.dim], horizon, False, radii)
                  for P, a in zip(parts, accumulate(dims, initial=0))]
    for lane in lanes:
        lane.record(buf[:1], 0)
    if any(lane.end == 0 for lane in lanes):
        raise ValueError("base point already exceeds the overflow cap")

    def live(p: KernelBlock, last: int) -> bool:  # some lane over its columns still records
        return any(lane.end > last + 1 for lane in stepping
                   if lane.cols.start < p.cols.stop and p.cols.start < lane.cols.stop)

    last, stepping = 0, lanes  # buf[0] holds orbit row last
    # an orbit may overflow to inf or nan before its fill is recorded; the
    # recorder's cut handles that, so numpy's warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for b in _step_fills(_passes(list(ops) * V, d), buf, horizon, live):
            for lane in stepping:
                lane.record(buf[1 : b + 1], last + 1)
            last += b
            # a lane whose columns repeat is done, where its own call would stop
            stepping = [lane for lane in stepping
                        if not np.array_equal(*buf[b - 1 : b + 1, lane.cols].view(np.uint64))]
    return [lane.segment(horizon) for lane in lanes]


def check_horizon(horizon: int, dim: int) -> None:
    """Refuse a negative horizon, and one numpy cannot index: the bytes of a
    ``dim``-dim orbit's points, the largest array an orbit that keeps them
    allocates, must fit in ``intp``, whether a run keeps them or re-steps
    a window of them. Below that bound an array is allocated or numpy
    raises ``MemoryError``."""
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if 16 * dim * (horizon + 1) > np.iinfo(np.intp).max:
        raise ValueError(f"horizon {horizon} is too large to index {dim}-dim orbit points")


def check_radii(epsilons: Iterable[float]) -> tuple[float, ...]:
    """An experiment's radii as floats in their given order, the order of its
    records; none, one not positive and finite, or one given twice is refused."""
    radii = tuple(map(float, epsilons))
    if not radii or not all(0 < e < np.inf for e in radii):
        # every vector flag is a conjunction over the radii's records
        raise ValueError(f"epsilons must be positive and finite, and nonempty, got {list(radii)}")
    for k, e in enumerate(radii):
        if e in radii[:k]:
            raise ValueError(f"epsilons must be distinct, got {e} more than once")
    return radii


class _Lane:
    """One operator's columns of the step buffer, and the distances (or
    their ranks among ``radii``), norm facts and, when it keeps them, points
    recorded from them up to the first point past ``OVERFLOW_CAP``.

    The top row of each fill is kept while the lane is recording, one row
    per ``_FILL`` steps, and goes to the segment, which re-steps from them
    the rows it did not keep (:meth:`OrbitSegment.rows`). A cut moves the
    growth check's midpoint to ``(end - 1) // 2``, which may lie in an
    earlier fill, and its norm is then read from its row, re-stepped the
    same way (:func:`_restep`).
    """

    def __init__(self, T: LinearOperator, cols: slice, x: np.ndarray, horizon: int, keep: bool,
                 radii: tuple[float, ...] | None):
        self.T, self.cols, self.x, self.radii = T, cols, x, radii
        self.points = np.empty((horizon + 1, x.size), dtype=complex) if keep else None
        kind = float if radii is None else np.min_scalar_type(len(radii))
        self.dists = np.empty(horizon + 1, kind)  # distances, or their ranks
        self.norms = _NormRecord(horizon // 2)
        self.tops: list[tuple[int, np.ndarray]] = []  # (orbit row, its copy)
        self.end = horizon + 1  # rows the segment keeps
        self.last = 0  # the last orbit row it was given

    def record(self, rows: np.ndarray, lo: int) -> None:
        """Record ``rows``, which hold orbit rows ``lo, lo + 1, ...``."""
        self.last = lo + rows.shape[0] - 1
        hi = min(self.last + 1, self.end)
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
            if 0 <= mid < lo:  # in an earlier fill: re-stepped from its top
                self.norms.at_mid = self.T.norm_of(_restep(self.T, self.tops, mid, mid + 1)[0])
        dists = dists[: hi - lo]
        if self.radii is not None:  # radii at or below each distance
            dists = np.searchsorted(self.radii, dists, "right")
        self.dists[lo:hi] = dists
        self.norms.feed(norms)
        if self.points is not None:
            self.points[lo:hi] = rows[: hi - lo]

    def segment(self, horizon: int) -> OrbitSegment:
        """The lane's segment, whose rows after its last stepped row repeat it."""
        end, overflow, last = self.end, self.end <= horizon, self.last
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
            operator=self.T,
            tops=tuple(self.tops),
            bounded=self.norms.report(overflow),
            dists=dists if self.radii is None else None,
            horizon_effective=end - 1,
            overflow=overflow,
            ranks=None if self.radii is None else dists,
            radii=self.radii,
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


def _step_fills(passes: Sequence[KernelBlock], buf: np.ndarray, steps: int,
                live: Callable[[KernelBlock, int], bool] = lambda p, last: True) -> Iterator[int]:
    """Step ``buf``, whose row 0 holds an orbit row, ``steps`` rows on by
    ``passes``, one fill at a time: after each fill ``b`` is yielded, with
    the next ``b`` orbit rows in ``buf[1 : b + 1]``, and the fill's last row
    is then carried to row 0.

    A pass stops stepping when its last row equals the row before it
    bitwise (``-0.0`` and ``0.0`` differ, and a kernel need not map them
    alike): it has reached a fixed point of its deterministic kernel, and
    its columns hold that row in every row of each later fill. It also
    stops when ``live(pass, last)`` is false after orbit row ``last``. The
    loop ends when no pass is left, and the rows after it repeat the last
    one.
    """
    # each pass with the views of its columns in every buffer row
    passes = [(p, [buf[i, p.cols] for i in range(buf.shape[0])]) for p in passes]
    last = 0
    while passes and last < steps:
        b = min(steps - last, buf.shape[0] - 1)
        for p, rows in passes:
            step_rows(p, rows[:b], rows[1 : b + 1])
        yield b
        last += b
        stepping = []
        for p, rows in passes:
            bits = buf[b - 1 : b + 1, p.cols].view(np.uint64)
            if np.array_equal(bits[0], bits[1]):
                buf[:, p.cols] = buf[b, p.cols]
            elif live(p, last):
                stepping.append((p, rows))
        passes = stepping
        buf[0] = buf[b]


def _restep(T: LinearOperator, tops: Sequence[tuple[int, np.ndarray]], lo: int,
            hi: int) -> np.ndarray:
    """Orbit rows ``lo`` to ``hi - 1`` under ``T``, stepped by its passes
    (:func:`_step_fills`) from the last of ``tops``, ``(orbit row, row)``
    pairs in order, at or before ``lo``: bit for bit the rows
    :func:`iterate_many` steps, since every row comes from the row before
    it by the same kernel. A lane keeps one top per fill, so ``lo`` is at
    most ``_FILL - 1`` rows past it."""
    top, z = next(t for t in reversed(tops) if t[0] <= lo)
    out = np.empty((hi - lo, z.size), dtype=complex)
    buf = np.empty((min(hi - 1 - top, _FILL) + 1, z.size), dtype=complex)
    buf[0] = z
    last = top  # buf[0] holds orbit row last
    for b in _step_fills(_passes((T,), z.size), buf, hi - 1 - top):
        # buf[: b + 1] holds orbit rows last to last + b
        a, e = max(lo, last), min(hi, last + b + 1)
        out[a - lo : e - lo] = buf[a - last : e - last]
        last += b
    out[max(last - lo, 0) :] = buf[0]  # the rows after the last one stepped repeat it
    return out


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
    recurrence verdicts should look at the positive return times. The
    members are the mask :meth:`OrbitSegment.inside`, the one open-ball
    rule.
    """
    return FiniteNatSet(np.flatnonzero(orbit.inside(epsilon)), orbit.horizon_effective)
