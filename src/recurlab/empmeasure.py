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
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionError
from .linop import LinearOperator, orth, principal_angle, row_sums
from .natset import upper_banach_density  # noqa: F401 -- unused here; the benchmark tracer wraps this binding
from .orbit import OrbitSegment

__all__ = [
    "EmpiricalMeasure",
    "CovarianceMatrix",
    "Moments",
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
_ROWS = 4096  # atoms of one block of invariance_defect's and moments' passes


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


def _merge(atoms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group atoms equal after rounding to MERGE_DECIMALS.

    Returns one representative per group, the mean of its members, and the
    group sizes, groups in ``np.unique``'s lexicographic order of the keys.
    """
    if _all_distinct(atoms):
        return atoms, np.ones(atoms.shape[0], dtype=np.int64)
    inverse = np.unique(_merge_keys(atoms), axis=0, return_inverse=True)[1].ravel()
    counts = np.bincount(inverse)
    weights = np.full(atoms.shape[0], 1.0 / atoms.shape[0])
    w_out = np.zeros(counts.size)
    np.add.at(w_out, inverse, weights)
    reps = np.zeros((counts.size, atoms.shape[1]), dtype=complex)
    np.add.at(reps, inverse, atoms * weights[:, None])
    reps /= w_out[:, None]
    return reps, counts


def _merge_keys(atoms: np.ndarray) -> np.ndarray:
    """The rounded ``(real, imag)`` rows by which ``_merge`` groups atoms."""
    return np.round(np.column_stack([atoms.real, atoms.imag]), MERGE_DECIMALS)


def _all_distinct(atoms: np.ndarray) -> bool:
    """Whether no two rows of ``_merge_keys(atoms)`` are equal, as ``np.unique``
    sees it.

    Only rows tied in the first key column (the rounded real part of the
    first coordinate) can be equal, so only those get full keys, sorted on
    every column. Comparisons use float ``==``, under which ``-0.0`` and
    ``0.0`` tie, as in ``np.unique``.
    """
    first = np.round(atoms[:, 0].real, MERGE_DECIMALS)
    order = np.argsort(first)
    tie = first[order[1:]] == first[order[:-1]]
    if not tie.any():
        return True
    tied = np.zeros(first.size, dtype=bool)
    tied[1:] |= tie
    tied[:-1] |= tie
    rows = _merge_keys(atoms[order[tied]])
    rows = rows[np.lexsort(rows.T)]
    return not np.all(rows[1:] == rows[:-1], axis=1).any()


def empirical_from_window(
    orbit: OrbitSegment, start: int, window_len: int
) -> EmpiricalMeasure:
    """Uniform measure on the orbit points ``T^n x`` for ``n in [start, start+window_len]``.

    Atoms closer than the merge tolerance collapse with summed weights, so
    exactly periodic orbits produce one atom per cycle point. The window
    is read by :meth:`OrbitSegment.rows`, from the orbit's points or, when
    it kept none, re-stepped from its fill tops, the same rows bit for bit.
    """
    N = window_len
    if start < 0 or N < 0:
        raise ValueError("start and window_len must be >= 0")
    if start + N > orbit.horizon_effective:
        raise DimensionError(
            f"window [{start}, {start + N}] exceeds effective horizon "
            f"{orbit.horizon_effective}"
        )
    atoms, counts = _merge(orbit.rows(start, start + N + 1))
    # weights come from the counts so the exactness witness is literal
    return EmpiricalMeasure(atoms, counts / (N + 1), counts, N + 1)


def ball_mass(mu: EmpiricalMeasure, center: np.ndarray, radius: float) -> float:
    """Mass of the open Euclidean ball. A window measure's mass of a ball in
    its orbit's block metric is the share of window times inside it, read
    from the orbit's distances (``classify.birkhoff_frequent_check``)."""
    center = np.asarray(center, dtype=complex)
    return float(_mass(mu, np.linalg.norm(mu.atoms - center, axis=1) < radius))


def _mass(mu: EmpiricalMeasure, inside: np.ndarray) -> Fraction | float:
    """``mu``'s mass on the atoms where ``inside`` holds: an exact ``Fraction``
    of its counts when it carries them, else its float weight sum."""
    if mu.counts is not None and mu.denominator:
        return Fraction(int(mu.counts[inside].sum()), mu.denominator)
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
    # each distinct center's distances from the atoms and their images, once
    # for all its radii; pushing ``_ROWS`` atoms at a time keeps each row's bits
    balls = [(np.asarray(center, dtype=complex), radius) for center, radius in test_balls]
    k = mu.n_atoms
    dists = {c.tobytes(): (c, np.empty(k), np.empty(k)) for c, _ in balls}
    for a in range(0, k, _ROWS):
        rows = mu.atoms[a : a + _ROWS]
        pushed = T.apply_to_rows(rows)
        for center, d_atoms, d_pushed in dists.values():
            d_atoms[a : a + _ROWS] = T.block_norms(rows - center)
            d_pushed[a : a + _ROWS] = T.block_norms(pushed - center)
    worst = 0
    for center, radius in balls:
        _, d_atoms, d_pushed = dists[center.tobytes()]
        worst = max(worst, abs(_mass(mu, d_pushed < radius) - _mass(mu, d_atoms < radius)))
    return float(worst)


class Moments(NamedTuple):
    expectation: np.ndarray
    second_moment: float


def moments(mu: EmpiricalMeasure) -> Moments:
    """First moment vector and scalar second moment ``sum_i w_i ||z_i||^2``.

    The atoms' squared norms are summed ``_ROWS`` atoms at a time into one
    array of ``n_atoms`` floats, each row's sum the same bits as over the
    whole window.
    """
    exp = mu.weights @ mu.atoms
    norms_sq = np.empty(mu.n_atoms)
    for a in range(0, mu.n_atoms, _ROWS):
        sq = np.abs(mu.atoms[a : a + _ROWS])
        norms_sq[a : a + _ROWS] = row_sums(np.square(sq, out=sq))
    return Moments(exp, float(mu.weights @ norms_sq))


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
    """``S = sum_i w_i z_i z_i*`` (so ``S x = sum_i w_i <x, z_i> z_i``).

    Column ``j`` is one ``einsum`` against the conjugate of the atoms'
    ``j``-th coordinate, bit-equal to ``einsum("k,ki,kj->ij", w, A,
    A.conj())`` without its conjugated copy of the whole window.
    """
    w, atoms = mu.weights, mu.atoms
    s = np.empty((mu.dim, mu.dim), dtype=complex)
    for j in range(mu.dim):
        s[:, j] = np.einsum("k,ki,k->i", w, atoms, atoms[:, j].conj())
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
