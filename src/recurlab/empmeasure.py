"""Finitely supported empirical measures and their invariance diagnostics.

Measures here are weighted atom lists on C^d, typically Cesaro averages of an
orbit over a density-realizing window. The key diagnostics: pushforward
invariance defect against an operator, the covariance matrix ``S = sum_i w_i
z_i z_i*`` with its conjugation defect ``||T S T* - S||_F``, and the
span-of-support versus kernel-complement comparison.

Window measures remember integer atom counts and the common denominator N+1,
so invariance defects on them are computed in integer arithmetic; combined
with orbit iteration sharing the operator's ``apply`` routine bit for bit,
the boundary bound defect <= 2/(N+1) holds exactly, not just approximately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionError
from .linop import LinearOperator, orth, principal_angle
from .natset import FiniteNatSet, upper_banach_density
from .orbit import OrbitSegment

__all__ = [
    "EmpiricalMeasure",
    "CovarianceMatrix",
    "Moments",
    "best_banach_window",
    "empirical_from_window",
    "invariance_defect",
    "ball_mass",
    "moments",
    "covariance",
    "conjugation_invariance_check",
    "support_span_vs_kernel",
]

WEIGHT_TOL = 1e-12
MERGE_DECIMALS = 12
SUPPORT_TOL = 1e-8


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Atoms (k, d) with nonnegative weights summing to 1 within 1e-12.

    ``counts``/``denominator``, when present, witness that the weights are
    exactly ``counts[i]/denominator``; integer-exact diagnostics use them.
    """

    atoms: np.ndarray
    weights: np.ndarray
    counts: np.ndarray | None = None
    denominator: int | None = None

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=complex))
        weights = np.asarray(self.weights, dtype=float)
        if atoms.shape[0] != weights.shape[0]:
            raise DimensionError(
                f"{atoms.shape[0]} atoms vs {weights.shape[0]} weights"
            )
        if weights.size == 0:
            raise ValueError("a measure needs at least one atom")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        total = float(weights.sum())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1 within {WEIGHT_TOL}")
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        if self.counts is not None:
            counts = np.asarray(self.counts, dtype=np.int64)
            counts.setflags(write=False)
            object.__setattr__(self, "counts", counts)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @classmethod
    def point_mass(cls, x) -> "EmpiricalMeasure":
        x = np.asarray(x, dtype=complex)
        return cls(x[None, :], np.array([1.0]), np.array([1]), 1)


def best_banach_window(return_times: FiniteNatSet, window_len: int) -> int:
    """Smallest offset of a maximal-count window; the density-realizing start."""
    return upper_banach_density(return_times, window_len).start


def _merge(atoms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group atoms equal after rounding to MERGE_DECIMALS.

    Returns one representative per group, the mean of its members, and the
    group sizes.
    """
    keys = np.round(
        np.column_stack([atoms.real, atoms.imag]), MERGE_DECIMALS
    )
    if _all_distinct(keys):
        return atoms, np.ones(atoms.shape[0], dtype=np.int64)
    _, inverse = np.unique(keys, axis=0, return_inverse=True)
    counts = np.bincount(inverse)
    weights = np.full(atoms.shape[0], 1.0 / atoms.shape[0])
    w_out = np.zeros(counts.size)
    np.add.at(w_out, inverse, weights)
    reps = np.zeros((counts.size, atoms.shape[1]), dtype=complex)
    np.add.at(reps, inverse, atoms * weights[:, None])
    reps /= w_out[:, None]
    return reps, counts


def _all_distinct(keys: np.ndarray) -> bool:
    """Whether no two rows of ``keys`` are equal, as ``np.unique`` sees it.

    Only rows tied in the first column can be equal, so only those are
    sorted on every column, which puts equal rows next to each other.
    Comparisons use float ``==``, under which ``-0.0`` and ``0.0`` tie, as
    in ``np.unique``.
    """
    first = keys[:, 0]
    order = np.argsort(first)
    tie = first[order[1:]] == first[order[:-1]]
    if not tie.any():
        return True
    tied = np.zeros(first.size, dtype=bool)
    tied[1:] |= tie
    tied[:-1] |= tie
    rows = keys[order[tied]]
    rows = rows[np.lexsort(rows.T)]
    return not np.all(rows[1:] == rows[:-1], axis=1).any()


def empirical_from_window(
    orbit: OrbitSegment, start: int, window_len: int
) -> EmpiricalMeasure:
    """Uniform measure on the orbit points ``T^n x`` for ``n in [start, start+window_len]``.

    Atoms closer than the merge tolerance collapse with summed weights, so
    exactly periodic orbits produce one atom per cycle point.
    """
    N = window_len
    if start < 0 or N < 0:
        raise ValueError("start and window_len must be >= 0")
    if start + N > orbit.horizon_effective:
        raise DimensionError(
            f"window [{start}, {start + N}] exceeds effective horizon "
            f"{orbit.horizon_effective}"
        )
    atoms, counts = _merge(orbit.points[start : start + N + 1])
    # weights come from the counts so the exactness witness is literal
    return EmpiricalMeasure(atoms, counts / (N + 1), counts, N + 1)


def ball_mass(
    mu: EmpiricalMeasure,
    center: np.ndarray,
    radius: float,
    metric=None,
) -> float:
    """Mass of the open ball; metric defaults to the Euclidean norm."""
    center = np.asarray(center, dtype=complex)
    diff = mu.atoms - center
    if metric is None:
        dists = np.linalg.norm(diff, axis=1)
    else:
        dists = metric(diff)
    inside = dists < radius
    if mu.counts is not None and mu.denominator:
        return float(int(mu.counts[inside].sum()) / mu.denominator)
    return float(mu.weights[inside].sum())


def invariance_defect(
    T: LinearOperator,
    mu: EmpiricalMeasure,
    test_balls: Sequence[tuple[np.ndarray, float]],
) -> float:
    """sup over the test balls of |mu(T^-1 B) - mu(B)|.

    ``mu(T^-1 B)`` is evaluated by pushing the atoms through T. For measures
    carrying integer counts the defect is an exact ratio of integers.
    """
    if not test_balls:
        raise ValueError("need at least one test ball")
    pushed = T.apply_to_rows(mu.atoms)
    exact = mu.counts is not None and mu.denominator
    worst_int = 0
    worst_float = 0.0
    for center, radius in test_balls:
        center = np.asarray(center, dtype=complex)
        in_b = T.block_norms(mu.atoms - center) < radius
        in_pb = T.block_norms(pushed - center) < radius
        if exact:
            delta = abs(int(mu.counts[in_pb].sum()) - int(mu.counts[in_b].sum()))
            worst_int = max(worst_int, delta)
        else:
            delta = abs(float(mu.weights[in_pb].sum()) - float(mu.weights[in_b].sum()))
            worst_float = max(worst_float, delta)
    if exact:
        return float(worst_int / mu.denominator)
    return worst_float


class Moments(NamedTuple):
    expectation: np.ndarray
    second_moment: float


def moments(mu: EmpiricalMeasure) -> Moments:
    """First moment vector and scalar second moment ``sum_i w_i ||z_i||^2``."""
    exp = mu.weights @ mu.atoms
    second = float(mu.weights @ (np.abs(mu.atoms) ** 2).sum(axis=1))
    return Moments(exp, second)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Hermitian PSD matrix within tolerance; trace equals the second moment."""

    entries: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.entries, dtype=complex)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise DimensionError(f"covariance must be square, got {s.shape}")
        herm_defect = np.linalg.norm(s - s.conj().T)
        if herm_defect > 1e-12 * (1 + np.linalg.norm(s)):
            raise ValueError(f"not Hermitian: defect {herm_defect:.3e}")
        eigs = np.linalg.eigvalsh((s + s.conj().T) / 2)
        if eigs.min() < -1e-10:
            raise ValueError(f"not PSD: min eigenvalue {eigs.min():.3e}")
        s.setflags(write=False)
        object.__setattr__(self, "entries", s)

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))


def covariance(mu: EmpiricalMeasure) -> CovarianceMatrix:
    """``S = sum_i w_i z_i z_i*`` (so ``S x = sum_i w_i <x, z_i> z_i``)."""
    s = np.einsum("k,ki,kj->ij", mu.weights, mu.atoms, mu.atoms.conj())
    return CovarianceMatrix((s + s.conj().T) / 2)


def conjugation_invariance_check(T: LinearOperator, cov: CovarianceMatrix) -> float:
    """Frobenius defect ||T S T* - S||_F; zero for measures invariant under T."""
    s = cov.entries
    return float(np.linalg.norm(T.matrix @ s @ T.matrix.conj().T - s))


def support_span_vs_kernel(mu: EmpiricalMeasure, cov: CovarianceMatrix) -> float:
    """Principal angle between span(atoms with weight > SUPPORT_TOL) and the
    span of eigenvectors of S with eigenvalue > SUPPORT_TOL; pi/2 on rank
    mismatch."""
    sel = mu.weights > SUPPORT_TOL
    if not np.any(sel):
        atom_basis = np.zeros((mu.dim, 0), dtype=complex)
    else:
        atom_basis = orth(mu.atoms[sel].T)
    vals, vecs = np.linalg.eigh((cov.entries + cov.entries.conj().T) / 2)
    keep = vals > SUPPORT_TOL
    eig_basis = vecs[:, keep]
    return principal_angle(atom_basis, eig_basis)
