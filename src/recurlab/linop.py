"""Finite-dimensional linear operators: specs, realization, and spectral structure.

Operators are described by a small tagged-union spec language (diagonal
rotations, dense matrices, Jordan blocks, truncated weighted backward shifts,
and the combinators direct sum / scale / inverse / power) and realized as
concrete complex matrices. A realized operator holds its matrix, its kernel
blocks and its spec; the norm and power estimates are computed by the
functions that read them.

Metric convention: the norm on C^d is Euclidean; on direct sums it is the max
of the component Euclidean norms, tracked through ``block_dims``. ``apply`` /
``apply_to_rows`` are the canonical way to push vectors through an operator;
orbit iteration and measure pushforwards share them so that repeated
application and pushforward agree bit for bit.

Only :func:`jdg_split` and :func:`principal_angle` need scipy, and they
import it when called, so that a process that uses neither never pays for
loading it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    DimensionError,
    NotAPowerFixedPointError,
    NotPowerBoundedError,
    NumericalFailureError,
    SingularOperatorError,
    SizeCapError,
)

__all__ = [
    "DiagonalUnimodular",
    "DenseMatrix",
    "JordanBlock",
    "WeightedBackwardShiftTruncation",
    "DirectSum",
    "Scale",
    "Inverse",
    "Power",
    "OperatorSpec",
    "LinearOperator",
    "KernelBlock",
    "SpectralData",
    "block_norms",
    "realize",
    "direct_sum",
    "unimodular_eigenpairs",
    "eigen_span_residual",
    "jdg_split",
    "eigenvector_from_power_relation",
    "principal_angle",
    "spec_to_json_dict",
    "spec_from_json_dict",
]

# Numerical policy, one constant per gate; the README lists what each decides.
DIM_CAP = 64
POWER_BOUND_HORIZON = 256
POWER_BOUND_CAP = 1e3
TOL_UNIMOD = 1e-9
TOL_FIX = 1e-8
# growth-trend gate for the power-boundedness estimate; see jdg_split
GROWTH_RATIO_CAP = 1.5
_NORM_OVERFLOW = 1e9
_COND_CAP = 1e13


@dataclass(frozen=True)
class DiagonalUnimodular:
    """diag(exp(2 pi i a)) for angles ``a`` given in turns."""

    angles_turns: tuple[float, ...]


@dataclass(frozen=True)
class DenseMatrix:
    entries: tuple[tuple[complex, ...], ...]


@dataclass(frozen=True)
class JordanBlock:
    eigenvalue: complex
    size: int


@dataclass(frozen=True)
class WeightedBackwardShiftTruncation:
    """Truncation of the weighted backward shift: ``e_k -> w_k e_{k-1}``, ``e_0 -> 0``."""

    weights: tuple[float, ...]
    dim: int


@dataclass(frozen=True)
class DirectSum:
    parts: tuple["OperatorSpec", ...]


@dataclass(frozen=True)
class Scale:
    factor: complex
    inner: "OperatorSpec"


@dataclass(frozen=True)
class Inverse:
    inner: "OperatorSpec"


@dataclass(frozen=True)
class Power:
    exponent: int
    inner: "OperatorSpec"


OperatorSpec = Union[
    DiagonalUnimodular,
    DenseMatrix,
    JordanBlock,
    WeightedBackwardShiftTruncation,
    DirectSum,
    Scale,
    Inverse,
    Power,
]


@dataclass(frozen=True)
class LinearOperator:
    """A realized d x d complex matrix.

    ``spec`` is the spec the operator was realized from.
    ``blocks``, set at construction, is the apply kernel: the
    :class:`KernelBlock` list that covers the columns.
    """

    matrix: np.ndarray
    dim: int
    block_dims: tuple[int, ...]
    spec: OperatorSpec

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise DimensionError(f"matrix shape {m.shape} != ({self.dim}, {self.dim})")
        if sum(self.block_dims) != self.dim:
            raise DimensionError("block_dims must sum to dim")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "blocks", _kernel_blocks(m, self.block_dims))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """T v, one kernel per entry of ``blocks``: ``np.multiply`` by a
        diagonal, ``ndarray.dot`` (a gemv) by a dense block.

        Blockwise application keeps a direct sum bitwise consistent with its
        parts applied separately: a whole-matrix gemv rounds differently from
        per-block gemv, and a diagonal block inside a mixed sum multiplies
        elementwise, as the standalone part would. Orbit iteration runs the
        same kernels on rows of its buffer.
        """
        v = np.asarray(v)
        out = np.empty(self.dim, dtype=complex)
        for cols, diagonal, sub in self.blocks:
            if diagonal is not None:
                np.multiply(v[cols], diagonal, out=out[cols])
            else:
                sub.dot(v[cols], out[cols])
        return out

    def apply_to_rows(self, rows: np.ndarray) -> np.ndarray:
        """Apply T to each row of a (k, d) array, bit-equal to ``apply`` per row.

        The kernels of ``blocks`` over all rows at once: a diagonal block
        broadcasts its elementwise multiply, and a dense block runs one
        stacked ``matmul`` over ``(k, b, 1)``, which is bit-equal to the
        gemv ``M.dot(r)`` row by row. ``einsum`` and a 2-D gemm are not.
        """
        out = np.empty(rows.shape, dtype=complex)
        for cols, diagonal, sub in self.blocks:
            if diagonal is not None:
                np.multiply(rows[:, cols], diagonal, out=out[:, cols])
            else:
                out[:, cols] = np.matmul(sub, rows[:, cols, None])[:, :, 0]
        return out

    def block_norms(self, rows: np.ndarray) -> np.ndarray:
        return block_norms(rows, self.block_dims)

    def norm_of(self, v: np.ndarray) -> float:
        return float(self.block_norms(np.asarray(v)[None, :])[0])


def block_norms(rows: np.ndarray, block_dims: Sequence[int]) -> np.ndarray:
    """Metric norm of each row: max over blocks of the Euclidean block norm.

    The squared moduli are summed per block by :func:`row_sums`, so each
    norm is ``sqrt((abs(rows[:, block]) ** 2).sum(axis=1))`` bit for bit.
    """
    sq = np.abs(np.atleast_2d(rows)).astype(float, copy=False)
    np.square(sq, out=sq)
    out, start = None, 0
    for b in block_dims:
        sums = row_sums(sq[:, start : start + b])
        out = sums if out is None else np.maximum(out, sums, out=out)
        start += b
    return np.sqrt(out, out=out)


def row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` of a 2-D float array, bit for bit.

    numpy adds a row of fewer than 8 terms left to right and a longer one
    pairwise, and a reduction over a short row pays numpy's per-row
    overhead. So a narrow ``a`` is summed one column add at a time over all
    rows, in the same left-to-right order; a wide one goes to ``sum``.
    """
    if a.shape[1] >= 8:
        return a.sum(axis=1)
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        out += a[:, j]
    return out


def _block_diag(mats: Sequence[np.ndarray]) -> np.ndarray:
    """The complex block-diagonal matrix with ``mats`` down its diagonal."""
    out = np.zeros(tuple(sum(m.shape[i] for m in mats) for i in (0, 1)), dtype=complex)
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


def orth(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of ``a``: the left singular vectors
    whose singular value exceeds ``max(s) * eps * max(a.shape)``.

    This is ``scipy.linalg.orth`` on numpy's SVD, and equal to it bit for
    bit, layout included. numpy returns ``U`` C-ordered and scipy
    Fortran-ordered, and a BLAS product's bits depend on its operands'
    layout: on a C-ordered basis, the eigen-span residual of one vector of
    the benchmark's seed-7 dense workload reads 1.0897869595647491e-16
    instead of 1.4272531291719075e-16. So the basis is returned
    Fortran-ordered.
    """
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    tol = np.amax(s, initial=0.0) * np.finfo(float).eps * max(a.shape)
    return np.asfortranarray(u[:, : int(np.sum(s > tol))])


def _exact_diagonal(m: np.ndarray) -> np.ndarray | None:
    """The diagonal of ``m`` when ``m`` is exactly diagonal, else None."""
    d = np.diagonal(m)
    return None if (m - np.diag(d)).any() else d.copy()


class KernelBlock(NamedTuple):
    """One kernel of ``LinearOperator.apply`` over the columns ``cols``:
    an elementwise multiply by ``diagonal``, or else a matrix-vector
    product by the contiguous ``matrix``."""

    cols: slice
    diagonal: np.ndarray | None
    matrix: np.ndarray | None


def _kernel_blocks(m: np.ndarray, block_dims: Sequence[int]) -> tuple[KernelBlock, ...]:
    """The kernel blocks covering all columns of ``m``: one diagonal block
    when ``m`` is exactly diagonal, else one per block of ``block_dims``,
    each decided as a standalone part would be, so that a sum reproduces
    its parts bit for bit."""
    diagonal = _exact_diagonal(m)
    if diagonal is not None:
        return (KernelBlock(slice(0, m.shape[0]), diagonal, None),)
    blocks, start = [], 0
    for b in block_dims:
        cols = slice(start, start + b)
        sub = np.ascontiguousarray(m[cols, cols])
        diagonal = _exact_diagonal(sub)
        blocks.append(KernelBlock(cols, diagonal, None if diagonal is not None else sub))
        start += b
    return tuple(blocks)


def _complex_matrix(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def _build(spec: OperatorSpec) -> tuple[np.ndarray, tuple[int, ...]]:
    if isinstance(spec, DiagonalUnimodular):
        lam = np.exp(2j * np.pi * np.asarray(spec.angles_turns, dtype=float))
        if lam.size == 0:
            raise DimensionError("diagonal operator needs at least one angle")
        if lam.size > DIM_CAP:
            raise SizeCapError(f"dimension {lam.size} exceeds cap {DIM_CAP}")
        return np.diag(lam), (lam.size,)
    if isinstance(spec, DenseMatrix):
        m = _complex_matrix(spec.entries)
        return m, (m.shape[0],)
    if isinstance(spec, JordanBlock):
        if spec.size < 1:
            raise DimensionError("Jordan block size must be >= 1")
        if spec.size > DIM_CAP:
            raise SizeCapError(f"dimension {spec.size} exceeds cap {DIM_CAP}")
        m = np.eye(spec.size, dtype=complex) * complex(spec.eigenvalue)
        m += np.diag(np.ones(spec.size - 1), k=1)
        return m, (spec.size,)
    if isinstance(spec, WeightedBackwardShiftTruncation):
        d = spec.dim
        if d < 1:
            raise DimensionError("shift truncation dim must be >= 1")
        if d > DIM_CAP:
            raise SizeCapError(f"dimension {d} exceeds cap {DIM_CAP}")
        if len(spec.weights) < d - 1:
            raise DimensionError(f"need at least {d - 1} weights for dim {d}")
        m = np.zeros((d, d), dtype=complex)
        for i in range(d - 1):
            m[i, i + 1] = spec.weights[i]
        return m, (d,)
    if isinstance(spec, DirectSum):
        if not spec.parts:
            raise DimensionError("direct sum needs at least one part")
        mats, dims = [], ()
        for part in spec.parts:
            m, part_dims = _build(part)
            dims += part_dims
            if sum(dims) > DIM_CAP:  # before the parts and their sum grow
                raise SizeCapError(f"dimension {sum(dims)} exceeds cap {DIM_CAP}")
            mats.append(m)
        return _block_diag(mats), dims
    if isinstance(spec, Scale):
        m, dims = _build(spec.inner)
        return complex(spec.factor) * m, dims
    if isinstance(spec, Inverse):
        if isinstance(spec.inner, DiagonalUnimodular):
            # conjugate rotation; negating angles gives the exact bitwise
            # conjugate since cos is even and sin is odd
            neg = tuple(-a for a in spec.inner.angles_turns)
            return _build(DiagonalUnimodular(neg))
        m, dims = _build(spec.inner)
        d = _exact_diagonal(m)
        if d is not None:
            if np.any(d == 0):
                raise SingularOperatorError("diagonal operator has a zero entry")
            return np.diag(1.0 / d), dims
        if np.linalg.cond(m) > _COND_CAP:
            raise SingularOperatorError("matrix is singular to working precision")
        try:
            return np.linalg.inv(m), dims
        except np.linalg.LinAlgError as exc:
            raise SingularOperatorError(str(exc)) from exc
    if isinstance(spec, Power):
        n = int(spec.exponent)
        inner = Inverse(spec.inner) if n < 0 else spec.inner
        m, dims = _build(inner)
        return np.linalg.matrix_power(m, abs(n)), dims
    raise TypeError(f"unknown operator spec {type(spec).__name__}")


def _power_scan(m: np.ndarray) -> tuple[float, float, float]:
    """(sup, mid, end) of ||T^n||_2 over n in [1, POWER_BOUND_HORIZON]; early
    out on blowup.

    The scan stops at the first n >= 2 whose norm is infinite or above
    ``_NORM_OVERFLOW``. The powers are built first, up to the first one at
    n >= 2 with an entry above twice that bound in modulus, or a non-finite
    one: its norm passes the bound, so the scan stops there at the latest.
    Their norms then come from one stacked SVD, each equal to
    ``np.linalg.norm(T^n, 2)``.
    """
    powers = [m]
    with np.errstate(over="ignore", invalid="ignore"):
        while len(powers) < POWER_BOUND_HORIZON:
            powers.append(m @ powers[-1])
            if not np.abs(powers[-1]).max() <= 2 * _NORM_OVERFLOW:
                break
    # an overflowed power reads as infinite: LAPACK refuses non-finite input
    overflowed = not np.isfinite(powers[-1]).all()
    finite = np.stack(powers[:-1] if overflowed else powers)
    norms = np.linalg.svd(finite, compute_uv=False).max(axis=1).tolist()
    if overflowed:
        norms.append(np.inf)
    sup = mid = end = norms[0]
    half = POWER_BOUND_HORIZON // 2
    for n, s in enumerate(norms[1:], start=2):
        sup = max(sup, s)
        if n == half:
            mid = s
        end = s
        if not np.isfinite(s) or s > _NORM_OVERFLOW:
            return sup, max(mid, s), s
    return sup, mid, end


def realize(spec: OperatorSpec) -> LinearOperator:
    """Build the concrete matrix for a spec."""
    with np.errstate(over="ignore", invalid="ignore"):
        m, dims = _build(spec)
    if not np.isfinite(m).all():
        raise ValueError("operator matrix has non-finite entries")
    d = m.shape[0]
    if d > DIM_CAP:
        raise SizeCapError(f"dimension {d} exceeds cap {DIM_CAP}")
    return LinearOperator(matrix=m, dim=d, block_dims=dims, spec=spec)


def direct_sum(parts: Sequence[LinearOperator]) -> LinearOperator:
    """Block-diagonal join of realized operators: the realized direct sum of
    their specs. The metric on the sum is the max of component norms via
    ``block_dims``."""
    return realize(DirectSum(tuple(p.spec for p in parts)))


@dataclass(frozen=True)
class SpectralData:
    """Eigenstructure readout: all eigenpairs, the unimodular ones, and bases.

    ``espan_basis`` is an orthonormal basis of the span of the unimodular
    eigenvectors.
    """

    eigenvalues: tuple[complex, ...]
    eigenvectors: np.ndarray
    residuals: tuple[float, ...]
    residual_budget: float
    unimodular_indices: tuple[int, ...]
    espan_basis: np.ndarray

    @property
    def unimodular_pairs(self) -> list[tuple[complex, np.ndarray]]:
        return [
            (self.eigenvalues[i], self.eigenvectors[:, i])
            for i in self.unimodular_indices
        ]


def unimodular_eigenpairs(T: LinearOperator) -> SpectralData:
    """Eigendecompose T and isolate the eigenvalues within TOL_UNIMOD of the
    unit circle."""
    try:
        vals, vecs = np.linalg.eig(T.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver failed: {exc}") from exc
    norm = float(np.linalg.norm(T.matrix, 2))
    budget = 10 * np.finfo(float).eps * max(norm, 1.0) * T.dim
    if not np.isfinite(budget):
        raise NumericalFailureError(
            f"operator norm estimate {norm:.3e} overflowed: no eigen residual budget"
        )
    # a residual that overflows reads as inf or nan and fails the budget below
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.linalg.norm(T.matrix @ vecs - vecs * vals, axis=0)
    worst = float(resid.max())
    if not worst <= budget:
        raise NumericalFailureError(
            f"eigen residual {worst:.3e} exceeds budget {budget:.3e}"
        )
    uni = tuple(int(i) for i in np.nonzero(np.abs(np.abs(vals) - 1) <= TOL_UNIMOD)[0])
    if uni:
        espan = orth(vecs[:, list(uni)])
    else:
        espan = np.zeros((T.dim, 0), dtype=complex)
    return SpectralData(
        eigenvalues=tuple(vals),
        eigenvectors=vecs,
        residuals=tuple(float(r) for r in resid),
        residual_budget=float(budget),
        unimodular_indices=uni,
        espan_basis=espan,
    )


def eigen_span_residual(x: np.ndarray, data: SpectralData) -> float:
    """Distance ||x - P x|| to the span of the unimodular eigenvectors."""
    x = np.asarray(x, dtype=complex)
    q = data.espan_basis
    if q.shape[0] != x.shape[0]:
        raise DimensionError(f"vector dim {x.shape[0]} != basis dim {q.shape[0]}")
    if q.shape[1] == 0:
        return float(np.linalg.norm(x))
    return float(np.linalg.norm(x - q @ (q.conj().T @ x)))


def principal_angle(b1: np.ndarray, b2: np.ndarray) -> float:
    """Largest principal angle between two spanned subspaces, pi/2 on rank mismatch."""
    r1 = 0 if b1.size == 0 else np.linalg.matrix_rank(b1)
    r2 = 0 if b2.size == 0 else np.linalg.matrix_rank(b2)
    if r1 != r2:
        return float(np.pi / 2)
    if r1 == 0:
        return 0.0
    from scipy.linalg import subspace_angles  # see the module docstring

    ang = subspace_angles(b1, b2)
    return float(ang.max()) if ang.size else 0.0


def jdg_split(T: LinearOperator) -> tuple[np.ndarray, np.ndarray]:
    """Split C^d into the rotation-like and dissipative spectral parts of T.

    Returns orthonormal bases ``(rev_basis, fl_basis)`` of the invariant
    subspace for the unimodular spectrum and of the complementary invariant
    subspace for the contractive spectrum, computed by two sorted Schur
    decompositions (no Jordan forms).

    The gate is an estimate, not a proof: the sup of ``||T^n||_2`` over the
    scan ``n <= POWER_BOUND_HORIZON`` must be at most ``POWER_BOUND_CAP``,
    AND T must not show a growth trend over the scan (norm at the scan
    horizon both > 2 and >= 1.5x the half-horizon norm). The trend test is what rejects linearly-growing
    unimodular Jordan blocks whose sup at the scan horizon is still below the
    cap; it also conservatively rejects power-bounded operators with slowly
    decaying defective parts.

    The dissipative part is verified to decay: each unit fl basis vector must
    satisfy ``||T^N v|| < 1`` at the scan horizon.
    """
    sup, mid, end = _power_scan(T.matrix)
    if sup > POWER_BOUND_CAP:
        raise NotPowerBoundedError(
            f"power bound estimate {sup:.3e} exceeds cap "
            f"{POWER_BOUND_CAP:.3e} at horizon {POWER_BOUND_HORIZON}"
        )
    if end > 2 and end >= GROWTH_RATIO_CAP * mid:
        raise NotPowerBoundedError(
            f"norm still growing at horizon {POWER_BOUND_HORIZON}: "
            f"||T^N|| = {end:.3e} vs ||T^(N/2)|| = {mid:.3e}"
        )

    from scipy.linalg import schur  # see the module docstring

    def is_unimodular(lam):
        return bool(abs(abs(lam) - 1) <= TOL_UNIMOD)

    _, z_rev, k_rev = schur(T.matrix, output="complex", sort=is_unimodular)
    rev = z_rev[:, :k_rev]
    _, z_fl, k_fl = schur(
        T.matrix, output="complex", sort=lambda lam: not is_unimodular(lam)
    )
    fl = z_fl[:, :k_fl]
    if k_rev + k_fl != T.dim:
        raise NumericalFailureError(
            f"spectral split sizes {k_rev}+{k_fl} do not cover dimension {T.dim}"
        )
    if k_fl:
        p_end = np.linalg.matrix_power(T.matrix, POWER_BOUND_HORIZON)
        decay = np.linalg.norm(p_end @ fl, axis=0)
        worst = float(decay.max())
        if worst >= 1.0:
            raise NumericalFailureError(
                f"dissipative part fails to decay at horizon "
                f"{POWER_BOUND_HORIZON}: ||T^N v|| = {worst:.3e}"
            )
    return rev, fl


def eigenvector_from_power_relation(
    T: LinearOperator,
    x: np.ndarray,
    n: int,
    alpha: complex,
) -> tuple[np.ndarray, complex]:
    """Extract an eigenvector from a power relation T^n x = alpha x.

    Factor ``alpha - z^n`` over the n-th roots ``a_1, ..., a_n`` of alpha and
    run the chain ``y_0 = x``, ``y_j = (a_j - T) y_{j-1}``; the last
    essentially-nonzero ``y_k`` is an eigenvector with eigenvalue ``a_{k+1}``,
    the root that annihilates it. Roots are taken in the order
    ``alpha^(1/n) * exp(2 pi i j / n)``, principal root first.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (T.dim,):
        raise DimensionError(f"vector shape {x.shape} != ({T.dim},)")
    nx = np.linalg.norm(x)
    if nx == 0:
        raise NotAPowerFixedPointError("x must be nonzero")
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    alpha = complex(alpha)
    if abs(abs(alpha) - 1) > TOL_UNIMOD:
        raise NotAPowerFixedPointError(
            f"|alpha| = {abs(alpha):.12f} is not unimodular at tol {TOL_UNIMOD}"
        )
    z = x
    for _ in range(n):
        z = T.apply(z)
    defect = np.linalg.norm(z - alpha * x)
    if defect > TOL_FIX * nx:
        raise NotAPowerFixedPointError(
            f"||T^n x - alpha x|| = {defect:.3e} exceeds {TOL_FIX:.1e} * ||x||"
        )

    principal = np.exp(1j * np.angle(alpha) / n)
    roots = [principal * np.exp(2j * np.pi * j / n) for j in range(n)]
    scale = max(float(np.linalg.norm(T.matrix, 2)), 1.0)
    y = x
    k = n - 1
    for j in range(n - 1):
        y_next = roots[j] * y - T.apply(y)
        if np.linalg.norm(y_next) <= 1e-10 * (1 + scale) * np.linalg.norm(y):
            k = j
            break
        y = y_next
    eigval = complex(roots[k])
    resid = float(np.linalg.norm(T.apply(y) - eigval * y))
    budget = max(1e-10 * np.linalg.norm(y), 10 * TOL_FIX * nx)
    if resid > budget:
        raise NumericalFailureError(
            f"chain produced residual {resid:.3e} beyond budget {budget:.3e}"
        )
    return y, eigval


_TAGS = {
    "diagonal_unimodular": DiagonalUnimodular,
    "dense_matrix": DenseMatrix,
    "jordan_block": JordanBlock,
    "weighted_backward_shift": WeightedBackwardShiftTruncation,
    "direct_sum": DirectSum,
    "scale": Scale,
    "inverse": Inverse,
    "power": Power,
}


def _complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _complex_from_json(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(json_float(v))
    re, im = json_list(v)
    return complex(json_float(re), json_float(im))


def spec_to_json_dict(spec: OperatorSpec) -> dict:
    if isinstance(spec, DiagonalUnimodular):
        return {"type": "diagonal_unimodular", "angles_turns": list(spec.angles_turns)}
    if isinstance(spec, DenseMatrix):
        return {
            "type": "dense_matrix",
            "entries": [[_complex_to_json(z) for z in row] for row in spec.entries],
        }
    if isinstance(spec, JordanBlock):
        return {
            "type": "jordan_block",
            "eigenvalue": _complex_to_json(spec.eigenvalue),
            "size": spec.size,
        }
    if isinstance(spec, WeightedBackwardShiftTruncation):
        return {
            "type": "weighted_backward_shift",
            "weights": list(spec.weights),
            "dim": spec.dim,
        }
    if isinstance(spec, DirectSum):
        return {"type": "direct_sum", "parts": [spec_to_json_dict(p) for p in spec.parts]}
    if isinstance(spec, Scale):
        return {
            "type": "scale",
            "factor": _complex_to_json(spec.factor),
            "inner": spec_to_json_dict(spec.inner),
        }
    if isinstance(spec, Inverse):
        return {"type": "inverse", "inner": spec_to_json_dict(spec.inner)}
    if isinstance(spec, Power):
        return {
            "type": "power",
            "exponent": spec.exponent,
            "inner": spec_to_json_dict(spec.inner),
        }
    raise TypeError(f"unknown operator spec {type(spec).__name__}")


def json_int(value) -> int:
    """An int, an integral float such as ``2e5`` or an integer string, as an int.

    Anything else, booleans and non-integral numbers included, raises
    ValueError rather than being truncated.
    """
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"expected an integer, got {value!r}") from None


def json_float(value) -> float:
    """``float(value)``, except that a boolean, which ``float`` reads as 0.0
    or 1.0, raises ValueError, and so does an integer too large for a float.
    """
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("an integer too large for a float") from None


def json_list(value) -> list:
    """A JSON array as given; anything else, a string too, raises ValueError."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"expected a list, got {value!r}")
    return value


def spec_from_json_dict(obj: dict) -> OperatorSpec:
    """Parse a spec; a missing field raises KeyError, any other defect ValueError."""
    try:
        tag = obj["type"]
    except (TypeError, KeyError):
        raise ValueError("operator spec must be an object with a 'type' tag")
    if not isinstance(tag, str) or tag not in _TAGS:
        raise ValueError(f"unknown operator type {tag!r}")
    try:
        return _spec_fields(tag, obj)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{tag} operator: {exc}") from None


def _spec_fields(tag: str, obj: dict) -> OperatorSpec:
    if tag == "diagonal_unimodular":
        return DiagonalUnimodular(tuple(map(json_float, json_list(obj["angles_turns"]))))
    if tag == "dense_matrix":
        rows = json_list(obj["entries"])
        return DenseMatrix(tuple(tuple(_complex_from_json(z) for z in row) for row in rows))
    if tag == "jordan_block":
        return JordanBlock(_complex_from_json(obj["eigenvalue"]), json_int(obj["size"]))
    if tag == "weighted_backward_shift":
        return WeightedBackwardShiftTruncation(
            tuple(map(json_float, json_list(obj["weights"]))), json_int(obj["dim"])
        )
    if tag == "direct_sum":
        return DirectSum(tuple(spec_from_json_dict(p) for p in json_list(obj["parts"])))
    if tag == "scale":
        return Scale(_complex_from_json(obj["factor"]), spec_from_json_dict(obj["inner"]))
    if tag == "inverse":
        return Inverse(spec_from_json_dict(obj["inner"]))
    return Power(json_int(obj["exponent"]), spec_from_json_dict(obj["inner"]))
