"""Orbit segments, return sets, and boundedness verdicts.

An orbit segment records ``x, Tx, ..., T^H x`` together with the metric norms
of the points and their metric distances to ``x``. Iteration advances strictly
one application at a time through ``LinearOperator.apply`` so that
``points[n+1]`` equals the pushforward of ``points[n]`` bit for bit; window
measures built from orbits rely on this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError
from .linop import LinearOperator, block_norms
from .natset import FiniteNatSet

__all__ = [
    "OrbitSegment",
    "BoundednessReport",
    "iterate",
    "return_set",
    "boundedness",
]

OVERFLOW_CAP = 1e12


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


def iterate(
    T: LinearOperator,
    x: np.ndarray,
    horizon: int,
    overflow_cap: float = OVERFLOW_CAP,
) -> OrbitSegment:
    """Record the orbit segment of x under T up to the horizon.

    Sequential by construction (roughly 1 s per 10^6 steps); the payoff is the
    exact pushforward identity mentioned in the module docstring.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (T.dim,):
        raise DimensionError(f"vector shape {x.shape} != ({T.dim},)")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    pts = np.empty((horizon + 1, T.dim), dtype=complex)
    pts[0] = x
    z = x
    # an orbit may overflow to inf before the periodic check below sees it;
    # the truncation handles that, so numpy's warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(horizon):
            z = T.apply(z)
            pts[n + 1] = z
            # cheap periodic escape hatch for runaway orbits; the truncation
            # below cuts at the first point past the cap either way
            if n % 256 == 0 and (
                not np.all(np.isfinite(z)) or T.norm_of(z) > overflow_cap
            ):
                pts = pts[: n + 2]
                break
        norms = T.block_norms(pts)
    bad = np.nonzero(~np.isfinite(norms) | (norms > overflow_cap))[0]
    overflow = bad.size > 0
    h_eff = int(bad[0]) - 1 if overflow else pts.shape[0] - 1
    if h_eff < 0:
        raise ValueError("base point already exceeds the overflow cap")
    if h_eff + 1 < pts.shape[0]:
        pts = pts[: h_eff + 1].copy()
        norms = norms[: h_eff + 1].copy()
    return OrbitSegment(
        base=x.copy(),
        points=pts,
        norms=norms,
        dists=block_norms(pts - x, T.block_dims),
        block_dims=T.block_dims,
        horizon_requested=horizon,
        horizon_effective=h_eff,
        overflow=overflow,
    )


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


def boundedness(orbit: OrbitSegment, bound: float | None = None) -> BoundednessReport:
    """Sup of the recorded norms, with a monotone-growth heuristic.

    With an explicit bound the verdict is ``sup <= bound``; otherwise the
    segment counts as bounded-at-horizon unless iteration overflowed. Growth is
    flagged when the norms increase strictly over the last half of the segment
    and gain more than a relative 1e-9 overall (so unitary orbits with flat,
    jittering norms are not flagged).
    """
    sup = float(orbit.norms.max())
    if bound is not None:
        bounded = sup <= bound
    else:
        bounded = not orbit.overflow
    tail = orbit.norms[orbit.horizon_effective // 2 :]
    growth = False
    if tail.size >= 3:
        growth = bool(
            np.all(np.diff(tail) > 0) and tail[-1] > tail[0] * (1 + 1e-9)
        )
    return BoundednessReport(bounded, sup, growth)
