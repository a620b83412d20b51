"""Recurrence classification of vectors at a finite horizon.

A vector is classified per epsilon from its return set on ``[0, H]``: how
often it comes back (density thresholds at several strengths) and how evenly
(syndetic gap). The per-epsilon flags form a conjunctive cascade

    uniformly => frequently => u_frequently => reiteratively => recurrent

where each stronger flag requires the next weaker one AND its own marginal
rule, so the chain holds for every input by construction; the marginal rules
are the density/gap thresholds documented on :func:`classify_vector`.

No flag is emitted for IP*-type recurrence: verifying a dual family needs all
of its members, which a finite horizon cannot supply, so
:func:`unimodular_return_set` reports sampled difference-set probes
individually instead.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import and_
from typing import NamedTuple, Sequence

import numpy as np

# unused here; the benchmark tracer wraps these bindings
from .empmeasure import ball_mass, empirical_from_window  # noqa: F401
from .errors import InsufficientHorizonError
from .linop import (
    LinearOperator,
    eigen_span_residual,
    json_int,
    realize,  # noqa: F401 -- unused here; the benchmark tracer wraps this binding
    unimodular_eigenpairs,
)
from .natset import (
    BanachWindow,
    DensityEstimate,
    _banach_window,
    _members_walk,
    mask_statistics,
)
# unused here; the benchmark tracer wraps these bindings
from .natset import lower_density, syndetic_gap, upper_banach_density, upper_density  # noqa: F401
from .orbit import (
    OVERFLOW_CAP,
    BoundednessReport,
    OrbitSegment,
    check_radii,
    iterate,  # noqa: F401 -- unused here; the benchmark tracer wraps this binding
    iterate_many,
    return_set,  # noqa: F401 -- unused here; the benchmark tracer wraps this binding
)

__all__ = [
    "Thresholds",
    "EpsilonRecord",
    "RecurrenceReport",
    "epsilon_record",
    "classify_vector",
    "BirkhoffReport",
    "birkhoff_frequent_check",
    "EigenSpanEntry",
    "eigen_span_entry",
    "ProbeResult",
    "UnimodularReturnReport",
    "unimodular_return_set",
    "ProductRecurrenceReport",
    "product_recurrence_check",
    "InverseRecurrenceReport",
    "inverse_recurrence_check",
]

EIGEN_SPAN_RESIDUAL_TOL = 1e-6
_ROWS = 4096  # rows of one block of unimodular_return_set's distances

FLAG_ORDER = ("recurrent", "reiteratively", "u_frequently", "frequently", "uniformly")


@dataclass(frozen=True)
class Thresholds:
    """Decision thresholds; gap and window scale with the horizon."""

    delta_lower: float = 1e-3
    delta_upper: float = 1e-3
    delta_banach: float = 1e-3
    gap_fraction: float = 0.01
    window_fraction: float = 0.01
    min_horizon: int = 10_000

    def gap_max(self, horizon: int) -> int:
        return max(1, int(horizon * self.gap_fraction))

    def window_len(self, horizon: int) -> int:
        return max(1, min(horizon, int(horizon * self.window_fraction)))

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Thresholds":
        if not isinstance(obj, dict):
            raise ValueError(f"thresholds must be an object, got {obj!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown threshold fields {sorted(unknown)}")
        values = dict(obj)
        for key, value in obj.items():
            integral = isinstance(getattr(cls, key), int)
            try:
                if integral:
                    values[key] = json_int(value)
                elif isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ValueError
            except ValueError:
                kind = "an integer" if integral else "a number"
                raise ValueError(f"threshold {key} must be {kind}, got {value!r}") from None
            # one test for both: nan and the infinities fail it too
            if not integral and not 0 <= value <= 1:
                raise ValueError(f"threshold {key} must be finite and in [0, 1], got {value!r}")
        return cls(**values)


def _frac_json(fr: Fraction) -> dict:
    return {"rational": f"{fr.numerator}/{fr.denominator}", "real": float(fr)}


@dataclass(frozen=True)
class EpsilonRecord:
    """Everything the classifier measured for one ball radius."""

    epsilon: float
    return_count: int
    first_return: int | None
    lower: DensityEstimate
    upper: DensityEstimate
    banach: BanachWindow
    window_len: int
    gap: int
    flags: dict[str, bool]

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "return_count": self.return_count,
            "first_return": self.first_return,
            "lower": {
                "value": _frac_json(self.lower.value),
                "running_inf": _frac_json(self.lower.running),
            },
            "upper": {
                "value": _frac_json(self.upper.value),
                "running_sup": _frac_json(self.upper.running),
            },
            "banach": {
                "ratio": _frac_json(self.banach.ratio),
                "start": self.banach.start,
                "window_len": self.window_len,
            },
            "syndetic_gap": self.gap,
            "flags": dict(self.flags),
        }


@dataclass(frozen=True)
class RecurrenceReport:
    """One vector's classification; ``orbit``, the segment it classified, is
    neither compared nor serialized."""

    vector_id: str
    dim: int
    horizon_requested: int
    horizon_effective: int
    overflow: bool
    bounded: BoundednessReport
    eigen_span_residual: float
    thresholds: Thresholds
    records: tuple[EpsilonRecord, ...]
    vector_flags: dict[str, bool]
    orbit: OrbitSegment = field(compare=False, repr=False)

    def record_for(self, epsilon: float) -> EpsilonRecord:
        for rec in self.records:
            if rec.epsilon == epsilon:
                return rec
        raise KeyError(f"no record for epsilon {epsilon}")

    def to_json_dict(self) -> dict:
        return {
            "vector_id": self.vector_id,
            "dim": self.dim,
            "horizon_requested": self.horizon_requested,
            "horizon_effective": self.horizon_effective,
            "overflow": self.overflow,
            "bounded": self.bounded._asdict(),
            "eigen_span_residual": self.eigen_span_residual,
            "thresholds": self.thresholds.to_json_dict(),
            "epsilon_records": [r.to_json_dict() for r in self.records],
            "vector_flags": dict(self.vector_flags),
        }


def epsilon_record(
    inside: np.ndarray, thresholds: Thresholds, epsilon: float
) -> EpsilonRecord:
    """The record of one radius from its return-time mask ``inside``
    (:meth:`OrbitSegment.inside`), read in carried block passes
    (:func:`natset.mask_statistics`)."""
    h = inside.size - 1
    n_win = thresholds.window_len(h)
    m = mask_statistics(inside, n_win)

    # the marginal rules in cascade order, each flag the conjunction of its
    # own rule with every weaker one
    rules = (
        m.first_return is not None,
        m.banach.ratio >= thresholds.delta_banach,
        m.upper.running >= thresholds.delta_upper,
        m.lower.running >= thresholds.delta_lower,
        m.gap <= thresholds.gap_max(h),
    )
    return EpsilonRecord(
        epsilon=float(epsilon),
        return_count=m.count,
        first_return=m.first_return,
        lower=m.lower,
        upper=m.upper,
        banach=m.banach,
        window_len=n_win,
        gap=m.gap,
        flags=dict(zip(FLAG_ORDER, accumulate(rules, and_))),
    )


def classify_vector(
    T: LinearOperator,
    x: np.ndarray,
    epsilons: Sequence[float],
    horizon: int = 10_000,
    thresholds: Thresholds | None = None,
    vector_id: str = "x",
    orbit: OrbitSegment | None = None,
) -> RecurrenceReport:
    """Classify the recurrence behavior of x under T at a finite horizon.

    Marginal decision rules per epsilon, on the return set R of the
    epsilon-ball (always containing n = 0; ``recurrent`` looks past it):

    * recurrent:     some return time n >= 1
    * reiteratively: best sliding-window density at the scaled window >= delta_banach
    * u_frequently:  running sup of prefix densities >= delta_upper
    * frequently:    running inf of prefix densities >= delta_lower
    * uniformly:     syndetic gap <= the scaled gap bound

    combined as a conjunctive cascade (see module docstring). Each record
    comes from carried block passes over the mask ``orbit.inside(eps)``
    (:func:`epsilon_record`); no return set is built. Vector-level flags
    are the conjunction over the epsilon grid. The eigen-span residual of x
    comes from one ``unimodular_eigenpairs(T)`` per call.
    ``orbit``, when given, must be the orbit of x under T up to ``horizon``,
    with or without points; without one, the orbit is stepped without
    points and ranked on ``epsilons``, since the classification reads only
    its masks at those radii. The report carries it either way, for the
    checks that read classified orbits.
    """
    thresholds = thresholds or Thresholds()
    if horizon < thresholds.min_horizon:
        raise InsufficientHorizonError(
            f"horizon {horizon} below minimum {thresholds.min_horizon}"
        )
    x = np.asarray(x, dtype=complex)
    epsilons = check_radii(epsilons)
    if orbit is None:
        orbit = iterate_many((T,), x, horizon, False, radii=epsilons)[0]
    residual = eigen_span_residual(x, unimodular_eigenpairs(T))
    if orbit.overflow and orbit.horizon_effective == 0:
        raise InsufficientHorizonError(
            f"orbit norm passed the overflow cap {OVERFLOW_CAP:g} at step 1: "
            "no return time is left to classify"
        )
    # each mask is dropped before the next one is built
    records = tuple(
        epsilon_record(orbit.inside(eps), thresholds, eps) for eps in epsilons
    )
    vector_flags = {
        name: all(rec.flags[name] for rec in records) for name in FLAG_ORDER
    }
    return RecurrenceReport(
        vector_id=vector_id,
        dim=T.dim,
        horizon_requested=horizon,
        horizon_effective=orbit.horizon_effective,
        overflow=orbit.overflow,
        bounded=orbit.bounded,
        eigen_span_residual=residual,
        thresholds=thresholds,
        records=records,
        vector_flags=vector_flags,
        orbit=orbit,
    )


class BirkhoffReport(NamedTuple):
    density: Fraction
    window_mass: float
    discrepancy: float
    window_start: int
    window_len: int


def birkhoff_frequent_check(orbit: OrbitSegment, epsilon: float) -> BirkhoffReport:
    """Compare the return-set density with the ball mass of a window measure.

    The window, of length a tenth of the horizon, is the density-realizing
    one: the best sliding window of the return set positions the Cesaro
    average. For orbits equidistributing on their closure the two numbers
    agree up to the window's discrepancy, which is the finite shadow of the
    ``dens N(x, U) = m(U)`` mechanism. The measure is the uniform one on the
    window's orbit points, so its mass of the epsilon-ball around the base
    is the share of window times that return: the window's own ratio. The
    density, the window and its mass are all read from the mask
    ``orbit.inside(epsilon)``: no return set and no measure is built, and
    the orbit need not have kept its points.
    """
    h = orbit.horizon_effective
    window_len = min(max(1, h // 10), h)
    # the return times are the mask's; its carried window counts give the
    # window and its ratio, as upper_banach_density does for their return set
    inside = orbit.inside(epsilon)
    window = _banach_window(inside, window_len)
    density = Fraction(int(np.count_nonzero(inside)), h + 1)
    mass = float(window.ratio)
    return BirkhoffReport(
        density=density,
        window_mass=mass,
        discrepancy=abs(float(density) - mass),
        window_start=window.start,
        window_len=window_len,
    )


class EigenSpanEntry(NamedTuple):
    vector_id: str
    residual: float
    uniformly: bool
    reiteratively_bounded: bool
    in_span: bool
    recurrence_implies_span: bool
    span_implies_uniform: bool


def eigen_span_entry(rep: RecurrenceReport, vector_id: str) -> EigenSpanEntry:
    """Both span implications for one classified vector.

    Direction one: a vector flagged uniformly recurrent, or reiteratively
    recurrent with bounded orbit, must sit in the unimodular eigenvector span
    (residual <= tol). Direction two: a vector in the span must come out
    uniformly recurrent.
    """
    uni = rep.vector_flags["uniformly"]
    reiter_bo = rep.vector_flags["reiteratively"] and rep.bounded.bounded_at_horizon
    in_span = rep.eigen_span_residual <= EIGEN_SPAN_RESIDUAL_TOL
    return EigenSpanEntry(
        vector_id=vector_id,
        residual=rep.eigen_span_residual,
        uniformly=uni,
        reiteratively_bounded=reiter_bo,
        in_span=in_span,
        recurrence_implies_span=(not (uni or reiter_bo)) or in_span,
        span_implies_uniform=(not in_span) or uni,
    )


class ProbeResult(NamedTuple):
    label: str
    hit: bool
    probe_size: int


class UnimodularReturnReport(NamedTuple):
    """The return times of one radius, as an ``int64`` array, with their
    syndetic gap and the difference-set probes."""

    returns: np.ndarray
    gap: int
    probes: tuple[ProbeResult, ...]


def unimodular_return_set(
    angles_turns: Sequence[float],
    epsilons: Sequence[float],
    horizon: int,
    probe_seed: int = 0,
) -> tuple[UnimodularReturnReport, ...]:
    """Simultaneous-rotation return sets {n : max_i |lambda_i^n - 1| < eps},
    one report per radius of ``epsilons``.

    Computed directly from the angles (no orbit needed): the distances once,
    one block of rows at a time, then each radius from its own mask, which
    is dropped before the next is built. The difference-set probes are a
    deterministic battery derived from the measured syndetic gap g:
    consecutive blocks (their difference sets are intervals [1, L-1], which
    must be hit because the first positive return time is at most g),
    arithmetic progressions with steps 2, 3, 5 spanning ~8g (do multiples of
    small steps return?), and two random sets seeded by ``probe_seed``. Each
    probe is reported individually; hits are evidence toward difference-set
    dual recurrence, never a verdict.
    """
    epsilons = check_radii(epsilons)
    angles = np.asarray(angles_turns, dtype=float)
    # max_i |lambda_i^n - 1|, one block of rows at a time: each entry is the
    # same elementwise arithmetic as over all rows at once
    dists = np.empty(horizon + 1)
    for lo in range(0, horizon + 1, _ROWS):
        n = np.arange(lo, min(lo + _ROWS, horizon + 1))
        lam_pow = np.exp(2j * np.pi * np.outer(n, angles))
        np.abs(lam_pow - 1.0).max(axis=1, out=dists[lo : lo + n.size])
    return tuple(_rotation_report(dists < eps, probe_seed) for eps in epsilons)


def _rotation_report(inside: np.ndarray, probe_seed: int) -> UnimodularReturnReport:
    """The report of one radius from its return-time mask over ``[0, horizon]``."""
    horizon = inside.size - 1
    returns = np.flatnonzero(inside)
    gap = _members_walk(inside)[2]

    def probe(label: str, diffs: np.ndarray) -> ProbeResult:
        diffs = np.unique(diffs[(diffs >= 1) & (diffs <= horizon)])
        return ProbeResult(label, bool(inside[diffs].any()), diffs.size)

    probes = []
    for mult in (1, 2, 4):
        length = min(mult * (gap + 1), horizon)
        probes.append(probe(f"block_span_{length}", np.arange(1, length + 1)))
    for step in (2, 3, 5):
        span = min(8 * max(gap, 1), horizon)
        probes.append(probe(f"ap_step_{step}", np.arange(step, span + 1, step)))
    rng = np.random.default_rng(probe_seed)
    for i in range(2):
        span = min(16 * max(gap, 1), horizon)
        b = rng.choice(span + 1, size=min(48, span + 1), replace=False)
        probes.append(probe(f"random_{i}", np.abs(np.subtract.outer(b, b))))
    return UnimodularReturnReport(returns, gap, tuple(probes))


class ProductRecurrenceReport(NamedTuple):
    return_sets_match: bool
    intersection_density: Fraction
    part1_flags: dict[str, bool]
    part2_flags: dict[str, bool]
    sum_flags: dict[str, bool]
    reiterative_parts_imply_frequent_sum: bool


def product_recurrence_check(
    part1: RecurrenceReport,
    part2: RecurrenceReport,
    total: RecurrenceReport,
    epsilon: float,
) -> ProductRecurrenceReport:
    """Return-set calculus on a direct sum, at one radius.

    ``part1`` and ``part2`` classify x1 and x2 under the two parts, ``total``
    classifies their concatenation under the direct sum; each must have a
    record at ``epsilon``. The check reads each record's flags and each
    orbit's return-time mask over ``[0, h]``, the sum's horizon, from
    :meth:`OrbitSegment.inside`, the one open-ball rule. A part's orbit runs
    at least as long as the sum's, which stops at the first part to pass
    the overflow cap, so a part's mask is its return times cut at ``h``. In the max metric the epsilon-ball of the sum
    is the product of the component balls, so the sum's mask must equal
    ``m1 & m2``; the report verifies that equality and evaluates the
    "reiterative parts make the pair frequently recurrent" implication at
    the flags' thresholds.
    """
    h = total.horizon_effective
    (flags1, m1), (flags2, m2), (flags12, m12) = (
        (rep.record_for(epsilon).flags, rep.orbit.inside(epsilon)[: h + 1])
        for rep in (part1, part2, total)
    )
    both = m1 & m2
    premise = flags1["reiteratively"] and flags2["reiteratively"]
    return ProductRecurrenceReport(
        return_sets_match=bool(np.array_equal(m12, both)),
        intersection_density=Fraction(int(np.count_nonzero(both)), m12.size),
        part1_flags=flags1,
        part2_flags=flags2,
        sum_flags=flags12,
        reiterative_parts_imply_frequent_sum=(not premise) or flags12["frequently"],
    )


class InverseRecurrenceReport(NamedTuple):
    return_sets_identical: bool
    flags_match: bool
    forward_flags: dict[str, bool]
    backward_flags: dict[str, bool]


def inverse_recurrence_check(
    forward: RecurrenceReport, backward: RecurrenceReport
) -> InverseRecurrenceReport:
    """Compare the classifications of x under T and under T^-1.

    Both reports must cover the same epsilons. The return times at each
    radius are those of each orbit's mask :meth:`OrbitSegment.inside`, the
    one open-ball rule; the two orbits may stop at different horizons. A
    rotation, and any direct sum, nonzero power, inverse or scale by +-1 or
    +-1j of rotations, inverts to the exact conjugate rotation. For a real
    vector the backward orbit is then the forward one conjugated, its
    distances equal bit for bit, and the return sets agree exactly, which
    is the symmetry this check surfaces. For a complex vector the distances
    may differ in their last bits.
    """
    epsilons = [rec.epsilon for rec in forward.records]
    if epsilons != [rec.epsilon for rec in backward.records]:
        raise ValueError("forward and backward reports cover different epsilons")
    # the return times straight from the distances, one radius at a time
    identical = all(
        np.array_equal(
            np.flatnonzero(forward.orbit.inside(eps)),
            np.flatnonzero(backward.orbit.inside(eps)),
        )
        for eps in epsilons
    )
    return InverseRecurrenceReport(
        return_sets_identical=identical,
        flags_match=forward.vector_flags == backward.vector_flags,
        forward_flags=forward.vector_flags,
        backward_flags=backward.vector_flags,
    )
