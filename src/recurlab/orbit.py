"""Orbit segments, return sets, and boundedness verdicts.

An orbit segment records ``x, Tx, ..., T^H x`` together with the metric norms
of the points and their metric distances to ``x``. Iteration advances strictly
one application at a time, each row of the orbit buffer computed from the row
before it by the kernels of ``LinearOperator.blocks``, so that ``points[n+1]``
equals ``T.apply(points[n])`` bit for bit; window measures built from orbits
rely on this.

:func:`iterate_many` steps the orbit buffer in *passes*: a pass is one
contiguous column range with one kernel, ``np.multiply`` by a diagonal or
``ndarray.dot`` by a dense block, and it writes each row in place from the
row before it, with no temporaries. ``ndarray.dot`` is the gemv of
``np.dot`` without its ``__array_function__`` dispatch, which takes about
0.2 of the 0.6 µs of a 4x4 ``np.dot`` call (2-vCPU host). Adjacent diagonal
ranges, across blocks and across lanes, merge into one pass. A pass whose row repeats bit for bit has
reached a fixed point of its deterministic kernel and retires, as a
dissipative block that decays to an exact zero does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    "part_orbits",
    "return_set",
    "boundedness",
]

OVERFLOW_CAP = 1e12
_CHUNK = 256  # rows a pass steps between the overflow and fixed-point checks


@dataclass(frozen=True)
class OrbitSegment:
    """Points ``T^n x`` for ``n = 0..horizon_effective`` with their metric norms.

    ``dists[n]`` is the metric distance from ``points[n]`` to ``base``; every
    return set of the segment is read from it. ``overflow`` marks an early
    stop: some iterate's norm passed the overflow cap and the segment was
    truncated at the last admissible point.
    """

    base: np.ndarray
    points: np.ndarray
    norms: np.ndarray
    dists: np.ndarray
    block_dims: tuple[int, ...]
    horizon_requested: int
    horizon_effective: int
    overflow: bool

    def __post_init__(self):
        for arr in (self.base, self.points, self.norms, self.dists):
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def iterate(T: LinearOperator, x: np.ndarray, horizon: int) -> OrbitSegment:
    """Record the orbit segment of x under T up to the horizon.

    The one-lane call of :func:`iterate_many`.
    """
    return iterate_many((T,), x, horizon)[0]


def iterate_many(
    ops: Sequence[LinearOperator], x: np.ndarray, horizon: int
) -> list[OrbitSegment]:
    """The orbit segment of x under each operator of ``ops``.

    The K orbits are lanes side by side in one ``(horizon + 1, K * d)``
    buffer, and each segment's points are a column view of it. The buffer
    is stepped in passes (module docstring), chunk by chunk of 256 rows,
    one row per kernel call, and every lane equals its own
    ``z = T.apply(z)`` loop bit for bit. A call costs about 0.8-1.1 µs per
    step for one diagonal pass, about 0.2 µs more per further diagonal
    lane (mostly its norms and distances), and 1.2-1.6 µs for a 4x4 dense
    block through ``np.dot``, about 0.15 µs less through ``ndarray.dot``,
    against 1.5, 1.7 and 2.9 µs for the per-step ``apply`` loop it replaced
    (2-vCPU host).

    Two checks run at the end of each chunk. A lane stops once some block
    of its last point has passed ``OVERFLOW_CAP``, and each segment is cut
    at its first point past it; the lanes' norms are taken only when some
    entry of the chunk's last row is non-finite or large. A pass whose last
    row equals the row before it bitwise (``-0.0`` and ``0.0`` differ) has
    reached a fixed point: it fills its later rows with that row and
    retires. The loop ends when no pass is left with a live lane. When some lane stopped early,
    the others are copied out of the buffer, so no segment keeps the wider
    buffer alive.
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
    cols = [slice(k * d, (k + 1) * d) for k in range(K)]
    pts = np.empty((horizon + 1, K * d), dtype=complex)
    pts[0] = np.tile(x, K)
    passes = _passes(ops, d)
    stops = [horizon + 1] * K  # rows each lane keeps
    live = set(range(K))
    # an orbit may overflow to inf before the chunk-end check sees it; the
    # truncation handles that, so numpy's warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, horizon, _CHUNK):
            last = min(first + _CHUNK, horizon)
            for p in passes:
                _step(p, pts[first : last + 1, p.cols])
            if not _below_cap(pts[last], d):
                for k in [k for k in live if _escaped(ops[k], pts[last, cols[k]])]:
                    stops[k] = last + 1
                    live.remove(k)
            kept = []
            for p in passes:
                if _repeats(pts[last - 1 : last + 1, p.cols]):
                    pts[last + 1 :, p.cols] = pts[last, p.cols]
                elif live.intersection(range(p.cols.start // d, (p.cols.stop - 1) // d + 1)):
                    kept.append(p)  # some lane it covers is live
            passes = kept
            if not passes:
                break
    segments = [
        _segment(pts[: stops[k], cols[k]], x, T.block_dims, horizon)
        for k, T in enumerate(ops)
    ]
    if K > 1 and any(s.overflow for s in segments):
        # an overflowed segment is a truncated copy; a full one would
        # otherwise hold the whole K-lane buffer
        segments = [
            s if s.overflow else replace(s, points=s.points.copy())
            for s in segments
        ]
    return segments


def _step(p: KernelBlock, rows: np.ndarray) -> None:
    """Fill ``rows[1:]`` of the pass ``p`` in place, each row from the row
    before it."""
    prev = rows[0]
    if p.diagonal is not None:
        multiply, diagonal = np.multiply, p.diagonal
        for row in rows[1:]:
            multiply(prev, diagonal, out=row)
            prev = row
    else:
        dot, matrix = np.ndarray.dot, p.matrix
        for row in rows[1:]:
            dot(matrix, prev, row)
            prev = row


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


def _repeats(rows: np.ndarray) -> bool:
    """Whether two rows are equal bit for bit: ``==`` would take ``-0.0``
    for ``0.0``, and a kernel need not map them alike."""
    bits = rows.view(np.uint64)
    return bool(np.array_equal(bits[0], bits[1]))


def _below_cap(row: np.ndarray, d: int) -> bool:
    """Whether no lane of a buffer row of ``d``-column lanes can have passed
    ``OVERFLOW_CAP``: every entry is at most ``OVERFLOW_CAP / (2 d)`` in
    modulus, so every block norm is at most half the cap, rounding
    included, and :func:`_escaped` would hold for no lane. One pass over
    the row instead of one norm per lane; ``nan`` and ``inf`` fail the
    comparison.
    """
    return bool(np.abs(row).max() <= OVERFLOW_CAP / (2 * d))


def _escaped(T: LinearOperator, z: np.ndarray) -> bool:
    return not np.all(np.isfinite(z)) or T.norm_of(z) > OVERFLOW_CAP


def _segment(
    points: np.ndarray, base: np.ndarray, block_dims: tuple[int, ...], horizon: int
) -> OrbitSegment:
    """The segment of ``points`` (``T^n base`` from n = 0) up to its first
    point past ``OVERFLOW_CAP``."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = block_norms(points, block_dims)
    bad = np.nonzero(~np.isfinite(norms) | (norms > OVERFLOW_CAP))[0]
    overflow = bad.size > 0
    h_eff = int(bad[0]) - 1 if overflow else points.shape[0] - 1
    if h_eff < 0:
        raise ValueError("base point already exceeds the overflow cap")
    if h_eff + 1 < points.shape[0]:
        points = points[: h_eff + 1].copy()
        norms = norms[: h_eff + 1].copy()
    return OrbitSegment(
        base=base.copy(),
        points=points,
        norms=norms,
        dists=block_norms(points - base, block_dims),
        block_dims=block_dims,
        horizon_requested=horizon,
        horizon_effective=h_eff,
        overflow=overflow,
    )


def part_orbits(
    orbit: OrbitSegment, parts: Sequence[LinearOperator]
) -> list[OrbitSegment]:
    """The orbits of the parts of a direct sum, read off the sum's orbit.

    Blockwise apply makes the sum's orbit its parts' orbits side by side,
    bit for bit, so each part's points are a column view of the sum's, with
    its own norms and distances under its own block metric. The sum's orbit
    stops at the first part to pass the overflow cap while the other parts'
    orbits run on, so after an overflow each part is iterated on its own.
    """
    dims = [P.dim for P in parts]
    if sum(dims) != orbit.dim:
        raise DimensionError(f"part dims {dims} do not add up to {orbit.dim}")
    out, start = [], 0
    for P in parts:
        base = orbit.base[start : start + P.dim]
        if orbit.overflow:
            out.append(iterate(P, base, orbit.horizon_requested))
        else:
            points = orbit.points[:, start : start + P.dim]
            out.append(_segment(points, base, P.block_dims, orbit.horizon_requested))
        start += P.dim
    return out


def return_set(orbit: OrbitSegment, epsilon: float) -> FiniteNatSet:
    """Times n with ``T^n x`` strictly inside the epsilon-ball around x.

    n = 0 always qualifies (the orbit starts in every ball around its base);
    recurrence verdicts should look at the positive return times.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    return FiniteNatSet(np.nonzero(orbit.dists < epsilon)[0], orbit.horizon_effective)


class BoundednessReport(NamedTuple):
    bounded_at_horizon: bool
    sup_norm: float
    growth_detected: bool


def boundedness(orbit: OrbitSegment) -> BoundednessReport:
    """Sup of the recorded norms, with a monotone-growth heuristic.

    The segment counts as bounded-at-horizon unless iteration overflowed.
    Growth is flagged when the norms increase strictly over the last half of
    the segment and gain more than a relative 1e-9 overall (so unitary orbits
    with flat, jittering norms are not flagged).
    """
    sup = float(orbit.norms.max())
    bounded = not orbit.overflow
    tail = orbit.norms[orbit.horizon_effective // 2 :]
    growth = False
    if tail.size >= 3:
        growth = bool(
            np.all(np.diff(tail) > 0) and tail[-1] > tail[0] * (1 + 1e-9)
        )
    return BoundednessReport(bounded, sup, growth)
