"""Recurrence classification of vectors at a finite horizon.

A vector is classified per epsilon from its return set on ``[0, H]``: how
often it comes back (density thresholds at several strengths) and how evenly
(syndetic gap). The per-epsilon flags form a conjunctive cascade

    uniformly => frequently => u_frequently => reiteratively => recurrent

where each stronger flag requires the next weaker one AND its own marginal
rule, so the chain holds for every input by construction; the marginal rules
are the density/gap thresholds documented on :func:`classify_vector`.

No flag is emitted for IP*-type recurrence: verifying a dual family needs all
of its members, which a finite horizon cannot supply. The witness tools in
``natset`` (finite-sums search, difference-set hit tests) are the auditable
surrogates, and :func:`unimodular_return_set` reports sampled difference-set
probes individually for the same reason.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .empmeasure import ball_mass, best_banach_window, empirical_from_window
from .errors import InsufficientHorizonError
from .linop import (
    DenseMatrix,
    Inverse,
    LinearOperator,
    SpectralData,
    direct_sum,
    eigen_span_residual,
    realize,
    unimodular_eigenpairs,
)
from .natset import (
    BanachWindow,
    DensityEstimate,
    FiniteNatSet,
    dual_hit_test,
    lower_density,
    syndetic_gap,
    upper_banach_density,
    upper_density,
)
from .orbit import BoundednessReport, OrbitSegment, boundedness, iterate, return_set

__all__ = [
    "Thresholds",
    "EpsilonRecord",
    "RecurrenceReport",
    "classify_vector",
    "default_epsilon_grid",
    "BirkhoffReport",
    "birkhoff_frequent_check",
    "EigenSpanEntry",
    "EigenSpanCheckReport",
    "eigen_span_entry",
    "eigen_span_check",
    "ProbeResult",
    "UnimodularReturnReport",
    "unimodular_return_set",
    "ProductRecurrenceReport",
    "product_recurrence_check",
    "InverseRecurrenceReport",
    "inverse_recurrence_check",
]

EIGEN_SPAN_RESIDUAL_TOL = 1e-6

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
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown threshold fields {sorted(unknown)}")
        for key, value in obj.items():
            integral = isinstance(getattr(cls, key), int)
            kinds = (int,) if integral else (int, float)
            if isinstance(value, bool) or not isinstance(value, kinds):
                kind = "an integer" if integral else "a number"
                raise ValueError(f"threshold {key} must be {kind}, got {value!r}")
        return cls(**obj)


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
            "bounded": {
                "bounded_at_horizon": self.bounded.bounded_at_horizon,
                "sup_norm": self.bounded.sup_norm,
                "growth_detected": self.bounded.growth_detected,
            },
            "eigen_span_residual": self.eigen_span_residual,
            "thresholds": self.thresholds.to_json_dict(),
            "epsilon_records": [r.to_json_dict() for r in self.records],
            "vector_flags": dict(self.vector_flags),
        }


def default_epsilon_grid(scale: float, count: int = 8) -> tuple[float, ...]:
    """Geometric radii ``scale * 2^-k`` for ``k = 1..count``."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return tuple(scale * 2.0**-k for k in range(1, count + 1))


def _classify_return_times(
    R: FiniteNatSet,
    horizon_effective: int,
    thresholds: Thresholds,
    epsilon: float,
) -> EpsilonRecord:
    h = horizon_effective
    lo = lower_density(R, h)
    hi = upper_density(R, h)
    n_win = thresholds.window_len(h)
    banach = upper_banach_density(R, n_win)
    gap = syndetic_gap(R)
    positive = len(R) - 1
    first = int(R.array[1]) if len(R) > 1 else None

    recurrent = positive >= 1
    reiteratively = recurrent and banach.ratio >= thresholds.delta_banach
    u_frequently = reiteratively and hi.running >= thresholds.delta_upper
    frequently = u_frequently and lo.running >= thresholds.delta_lower
    uniformly = frequently and gap <= thresholds.gap_max(h)
    flags = {
        "recurrent": recurrent,
        "reiteratively": reiteratively,
        "u_frequently": u_frequently,
        "frequently": frequently,
        "uniformly": uniformly,
    }
    return EpsilonRecord(
        epsilon=float(epsilon),
        return_count=len(R),
        first_return=first,
        lower=lo,
        upper=hi,
        banach=banach,
        window_len=n_win,
        gap=gap,
        flags=flags,
    )


def classify_vector(
    T: LinearOperator,
    x: np.ndarray,
    epsilons: Sequence[float] | None = None,
    horizon: int = 10_000,
    thresholds: Thresholds | None = None,
    spectral: SpectralData | None = None,
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

    combined as a conjunctive cascade (see module docstring). Vector-level
    flags are the conjunction over the epsilon grid. The default grid is
    geometric, ``||x|| * 2^-k`` for k = 1..8, in the operator's metric.
    """
    thresholds = thresholds or Thresholds()
    if horizon < thresholds.min_horizon:
        raise InsufficientHorizonError(
            f"horizon {horizon} below minimum {thresholds.min_horizon}"
        )
    x = np.asarray(x, dtype=complex)
    if epsilons is None:
        epsilons = default_epsilon_grid(T.norm_of(x))
    epsilons = [float(e) for e in epsilons]
    if any(not e > 0 for e in epsilons):
        raise ValueError("epsilons must be positive")
    if orbit is None:
        orbit = iterate(T, x, horizon)
    if spectral is None:
        spectral = unimodular_eigenpairs(T)
    residual = eigen_span_residual(x, spectral)
    records = tuple(
        _classify_return_times(
            return_set(orbit, eps), orbit.horizon_effective, thresholds, eps
        )
        for eps in epsilons
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
        bounded=boundedness(orbit),
        eigen_span_residual=residual,
        thresholds=thresholds,
        records=records,
        vector_flags=vector_flags,
    )


class BirkhoffReport(NamedTuple):
    density: Fraction
    window_mass: float
    discrepancy: float
    window_start: int
    window_len: int


def birkhoff_frequent_check(
    T: LinearOperator,
    x: np.ndarray,
    epsilon: float,
    horizon: int,
    window_len: int | None = None,
    orbit: OrbitSegment | None = None,
) -> BirkhoffReport:
    """Compare the return-set density with the ball mass of a window measure.

    The window is the density-realizing one: the best sliding window of the
    return set positions the Cesaro average. For orbits equidistributing on
    their closure the two numbers agree up to the window's discrepancy, which
    is the finite shadow of the ``dens N(x, U) = m(U)`` mechanism. ``orbit``,
    when given, must be ``iterate(T, x, horizon)``; it saves the iteration.
    """
    x = np.asarray(x, dtype=complex)
    if orbit is None:
        orbit = iterate(T, x, horizon)
    h = orbit.horizon_effective
    if window_len is None:
        window_len = max(1, h // 10)
    window_len = min(window_len, h)
    R = return_set(orbit, epsilon)
    start = best_banach_window(R, window_len)
    mu = empirical_from_window(orbit, start, window_len)
    mass = ball_mass(mu, x, epsilon, metric=T.block_norms)
    density = Fraction(len(R), h + 1)
    return BirkhoffReport(
        density=density,
        window_mass=mass,
        discrepancy=abs(float(density) - mass),
        window_start=start,
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


@dataclass(frozen=True)
class EigenSpanCheckReport:
    entries: tuple[EigenSpanEntry, ...]
    residual_tol: float

    @property
    def all_ok(self) -> bool:
        return all(
            e.recurrence_implies_span and e.span_implies_uniform for e in self.entries
        )


def eigen_span_entry(
    rep: RecurrenceReport,
    vector_id: str,
    residual_tol: float = EIGEN_SPAN_RESIDUAL_TOL,
) -> EigenSpanEntry:
    """Both span implications for one classified vector (see eigen_span_check)."""
    uni = rep.vector_flags["uniformly"]
    reiter_bo = rep.vector_flags["reiteratively"] and rep.bounded.bounded_at_horizon
    in_span = rep.eigen_span_residual <= residual_tol
    return EigenSpanEntry(
        vector_id=vector_id,
        residual=rep.eigen_span_residual,
        uniformly=uni,
        reiteratively_bounded=reiter_bo,
        in_span=in_span,
        recurrence_implies_span=(not (uni or reiter_bo)) or in_span,
        span_implies_uniform=(not in_span) or uni,
    )


def eigen_span_check(
    T: LinearOperator,
    vectors: Sequence[np.ndarray],
    horizon: int = 10_000,
    epsilons: Sequence[float] | None = None,
    thresholds: Thresholds | None = None,
    residual_tol: float = EIGEN_SPAN_RESIDUAL_TOL,
) -> EigenSpanCheckReport:
    """Two-directional span test over a battery of vectors.

    Direction one: vectors flagged uniformly recurrent, or reiteratively
    recurrent with bounded orbit, must sit in the unimodular eigenvector span
    (residual <= tol). Direction two: vectors in the span must come out
    uniformly recurrent. Each entry records both implications.
    """
    spectral = unimodular_eigenpairs(T)
    entries = []
    for i, v in enumerate(vectors):
        rep = classify_vector(
            T,
            v,
            epsilons=epsilons,
            horizon=horizon,
            thresholds=thresholds,
            spectral=spectral,
            vector_id=f"v{i}",
        )
        entries.append(eigen_span_entry(rep, f"v{i}", residual_tol))
    return EigenSpanCheckReport(tuple(entries), residual_tol)


class ProbeResult(NamedTuple):
    label: str
    hit: bool
    probe_size: int


class UnimodularReturnReport(NamedTuple):
    return_set: FiniteNatSet
    gap: int
    probes: tuple[ProbeResult, ...]


def unimodular_return_set(
    angles_turns: Sequence[float],
    epsilon: float,
    horizon: int,
    probe_seed: int = 0,
) -> UnimodularReturnReport:
    """Simultaneous-rotation return set {n : max_i |lambda_i^n - 1| < eps}.

    Computed directly from the angles (no orbit needed). The difference-set
    probes are a deterministic battery derived from the measured syndetic gap
    g: consecutive blocks (their difference sets are intervals [1, L-1], which
    must be hit because the first positive return time is at most g),
    arithmetic progressions with steps 2, 3, 5 spanning ~8g (do multiples of
    small steps return?), and two seeded random sets. Each probe is reported
    individually; hits are evidence toward difference-set dual recurrence,
    never a verdict.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    angles = np.asarray(angles_turns, dtype=float)
    n = np.arange(horizon + 1)
    lam_pow = np.exp(2j * np.pi * np.outer(n, angles))
    dists = np.abs(lam_pow - 1.0).max(axis=1)
    R = FiniteNatSet(np.nonzero(dists < epsilon)[0], horizon)
    gap = syndetic_gap(R)

    probes = []

    def add_probe(label: str, diffs: set[int]):
        diffs = {d for d in diffs if 1 <= d <= horizon}
        D = FiniteNatSet.from_iterable(diffs, horizon)
        hit = bool(len(D)) and dual_hit_test(R, [D])
        probes.append(ProbeResult(label, hit, len(D)))

    for mult in (1, 2, 4):
        length = min(mult * (gap + 1), horizon)
        add_probe(f"block_span_{length}", set(range(1, length + 1)))
    for step in (2, 3, 5):
        span = min(8 * max(gap, 1), horizon)
        add_probe(f"ap_step_{step}", set(range(step, span + 1, step)))
    rng = np.random.default_rng(probe_seed)
    for i in range(2):
        span = min(16 * max(gap, 1), horizon)
        b = rng.choice(span + 1, size=min(48, span + 1), replace=False)
        diffs = {int(abs(p - q)) for p in b for q in b if p != q}
        add_probe(f"random_{i}", diffs)
    return UnimodularReturnReport(R, gap, tuple(probes))


@dataclass(frozen=True)
class ProductRecurrenceReport:
    return_sets_match: bool
    sum_return: FiniteNatSet
    part1_return: FiniteNatSet
    part2_return: FiniteNatSet
    intersection_density: Fraction
    part1_flags: dict[str, bool]
    part2_flags: dict[str, bool]
    sum_flags: dict[str, bool]
    reiterative_parts_imply_frequent_sum: bool


def product_recurrence_check(
    T1: LinearOperator,
    x1: np.ndarray,
    T2: LinearOperator,
    x2: np.ndarray,
    epsilon: float,
    horizon: int,
    thresholds: Thresholds | None = None,
    orbits: tuple[OrbitSegment, OrbitSegment, OrbitSegment] | None = None,
) -> ProductRecurrenceReport:
    """Return-set calculus on a direct sum.

    In the max metric the epsilon-ball of the sum is the product of the
    component balls, so the sum's return set must equal the exact integer
    intersection of the component return sets; the report verifies that
    equality and evaluates the "reiterative parts make the pair frequently
    recurrent" implication at the given thresholds. ``orbits``, when given,
    must be the orbits of x1 under T1, of x2 under T2 and of their
    concatenation under the direct sum, all to ``horizon``; it saves the
    iteration.
    """
    x1 = np.asarray(x1, dtype=complex)
    x2 = np.asarray(x2, dtype=complex)
    T12 = direct_sum([T1, T2])
    x12 = np.concatenate([x1, x2])
    if orbits is None:
        orbits = (
            iterate(T1, x1, horizon),
            iterate(T2, x2, horizon),
            iterate(T12, x12, horizon),
        )
    orb1, orb2, orb12 = orbits
    rep1 = classify_vector(
        T1, x1, epsilons=[epsilon], horizon=horizon, thresholds=thresholds,
        vector_id="part1", orbit=orb1,
    )
    rep2 = classify_vector(
        T2, x2, epsilons=[epsilon], horizon=horizon, thresholds=thresholds,
        vector_id="part2", orbit=orb2,
    )
    rep12 = classify_vector(
        T12, x12, epsilons=[epsilon], horizon=horizon, thresholds=thresholds,
        vector_id="sum", orbit=orb12,
    )
    R1 = return_set(orb1, epsilon)
    R2 = return_set(orb2, epsilon)
    R12 = return_set(orb12, epsilon)
    inter = np.intersect1d(R1.array, R2.array, assume_unique=True)
    match = np.array_equal(R12.array, inter)
    h = orb12.horizon_effective
    premise = (
        rep1.records[0].flags["reiteratively"] and rep2.records[0].flags["reiteratively"]
    )
    conclusion = rep12.records[0].flags["frequently"]
    return ProductRecurrenceReport(
        return_sets_match=match,
        sum_return=R12,
        part1_return=R1,
        part2_return=R2,
        intersection_density=Fraction(len(inter), h + 1),
        part1_flags=rep1.records[0].flags,
        part2_flags=rep2.records[0].flags,
        sum_flags=rep12.records[0].flags,
        reiterative_parts_imply_frequent_sum=(not premise) or conclusion,
    )


@dataclass(frozen=True)
class InverseRecurrenceReport:
    forward: RecurrenceReport
    backward: RecurrenceReport
    return_sets_identical: bool
    flags_match: bool


def inverse_recurrence_check(
    T: LinearOperator,
    x: np.ndarray,
    epsilons: Sequence[float],
    horizon: int,
    thresholds: Thresholds | None = None,
    orbit: OrbitSegment | None = None,
) -> InverseRecurrenceReport:
    """Classify x under T and under T^-1 and compare.

    For unitary diagonal operators the inverse realizes as the exact conjugate
    rotation, making |lambda^-n - 1| bitwise equal to |lambda^n - 1|; return
    sets then agree exactly, which is the symmetry this check surfaces.
    ``orbit``, when given, must be the forward orbit ``iterate(T, x,
    horizon)``; it saves that iteration.
    """
    if T.spec is not None:
        T_inv = realize(Inverse(T.spec))
    else:
        T_inv = realize(
            Inverse(DenseMatrix(tuple(tuple(row) for row in T.matrix.tolist())))
        )
    x = np.asarray(x, dtype=complex)
    orb_f = iterate(T, x, horizon) if orbit is None else orbit
    orb_b = iterate(T_inv, x, horizon)
    fwd = classify_vector(
        T, x, epsilons=epsilons, horizon=horizon, thresholds=thresholds,
        vector_id="forward", orbit=orb_f,
    )
    bwd = classify_vector(
        T_inv, x, epsilons=epsilons, horizon=horizon, thresholds=thresholds,
        vector_id="backward", orbit=orb_b,
    )
    identical = all(
        np.array_equal(return_set(orb_f, eps).array, return_set(orb_b, eps).array)
        for eps in epsilons
    )
    flags_match = fwd.vector_flags == bwd.vector_flags
    return InverseRecurrenceReport(
        forward=fwd,
        backward=bwd,
        return_sets_identical=identical,
        flags_match=flags_match,
    )
