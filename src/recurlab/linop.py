"""Finite-dimensional linear operators: specs, realization, and spectral structure.

Operators are described by a small tagged-union spec language (diagonal
rotations, dense matrices, Jordan blocks, truncated weighted backward shifts,
and the combinators direct sum / scale / inverse / power) and realized as
concrete complex matrices with norm and power-boundedness metadata attached.

Metric convention: the norm on C^d is Euclidean; on direct sums it is the max
of the component Euclidean norms, tracked through ``block_dims``. ``apply`` /
``apply_to_rows`` are the canonical way to push vectors through an operator;
orbit iteration and measure pushforwards share them so that repeated
application and pushforward agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.linalg import block_diag, orth, schur, subspace_angles

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

DIM_CAP = 64
POWER_BOUND_HORIZON = 256
POWER_BOUND_CAP = 1e3
TOL_UNIMOD = 1e-9
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
    """A realized d x d complex matrix with norm/power-bound metadata.

    ``power_bound_estimate`` is ``sup_{n <= power_bound_horizon} ||T^n||_2``;
    ``power_norm_mid`` / ``power_norm_end`` are the norms at the half and full
    scan horizon, kept for the growth-trend gate in :func:`jdg_split`.
    """

    matrix: np.ndarray
    dim: int
    block_dims: tuple[int, ...]
    operator_norm_estimate: float
    power_bound_estimate: float
    power_bound_horizon: int
    power_norm_mid: float
    power_norm_end: float
    spec: OperatorSpec | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise DimensionError(f"matrix shape {m.shape} != ({self.dim}, {self.dim})")
        if sum(self.block_dims) != self.dim:
            raise DimensionError("block_dims must sum to dim")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        # The apply kernel: ``exact_diagonal`` when the matrix is exactly
        # diagonal, or else per block of a sum a (slice, diagonal-or-None,
        # contiguous submatrix) triple, decided as a standalone part would
        # be, so sums reproduce their parts bit for bit.
        diagonal = _exact_diagonal(m)
        blocks = []
        if diagonal is None and len(self.block_dims) > 1:
            start = 0
            for b in self.block_dims:
                sl = slice(start, start + b)
                sub = np.ascontiguousarray(m[sl, sl])
                blocks.append((sl, _exact_diagonal(sub), sub))
                start += b
        object.__setattr__(self, "exact_diagonal", diagonal)
        object.__setattr__(self, "_blocks", tuple(blocks))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """T v: elementwise for exactly-diagonal matrices, blockwise on sums.

        Blockwise application keeps a direct sum bitwise consistent with its
        parts applied separately: a whole-matrix gemv rounds differently from
        per-block gemv, and a diagonal block inside a mixed sum multiplies
        elementwise, as the standalone part would.
        """
        if self.exact_diagonal is not None:
            return np.multiply(v, self.exact_diagonal)
        if not self._blocks:
            return self.matrix @ v
        out = np.empty_like(np.asarray(v, dtype=complex))
        for sl, bd, sub in self._blocks:
            if bd is not None:
                out[sl] = np.multiply(v[sl], bd)
            else:
                out[sl] = sub @ v[sl]
        return out

    def apply_to_rows(self, rows: np.ndarray) -> np.ndarray:
        """Apply T to each row of a (k, d) array, bit-equal to ``apply`` per row.

        Diagonal blocks broadcast their elementwise multiply; dense blocks
        (the whole matrix when there is one block) run one stacked ``matmul``
        over ``(k, b, 1)``, which is bit-equal to ``M @ r`` row by row.
        ``einsum`` and a 2-D gemm are not.
        """
        if self.exact_diagonal is not None:
            return np.multiply(rows, self.exact_diagonal)
        if not self._blocks:
            return np.matmul(self.matrix, rows[:, :, None])[:, :, 0]
        out = np.empty(rows.shape, dtype=complex)
        for sl, bd, sub in self._blocks:
            if bd is not None:
                out[:, sl] = np.multiply(rows[:, sl], bd)
            else:
                out[:, sl] = np.matmul(sub, rows[:, sl, None])[:, :, 0]
        return out

    def block_norms(self, rows: np.ndarray) -> np.ndarray:
        return block_norms(rows, self.block_dims)

    def norm_of(self, v: np.ndarray) -> float:
        return float(self.block_norms(np.asarray(v)[None, :])[0])


def block_norms(rows: np.ndarray, block_dims: Sequence[int]) -> np.ndarray:
    """Metric norm of each row: max over blocks of the Euclidean block norm."""
    rows = np.atleast_2d(rows)
    sq = np.abs(rows) ** 2
    if len(block_dims) == 1:
        return np.sqrt(sq.sum(axis=1))
    out = np.zeros(rows.shape[0])
    start = 0
    for b in block_dims:
        np.maximum(out, sq[:, start : start + b].sum(axis=1), out=out)
        start += b
    return np.sqrt(out)


def _exact_diagonal(m: np.ndarray) -> np.ndarray | None:
    """The diagonal of ``m`` when ``m`` is exactly diagonal, else None."""
    d = np.diagonal(m)
    return None if (m - np.diag(d)).any() else d.copy()


def _complex_matrix(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def _build(spec: OperatorSpec, d_max: int) -> tuple[np.ndarray, tuple[int, ...]]:
    if isinstance(spec, DiagonalUnimodular):
        lam = np.exp(2j * np.pi * np.asarray(spec.angles_turns, dtype=float))
        if lam.size == 0:
            raise DimensionError("diagonal operator needs at least one angle")
        return np.diag(lam), (lam.size,)
    if isinstance(spec, DenseMatrix):
        m = _complex_matrix(spec.entries)
        return m, (m.shape[0],)
    if isinstance(spec, JordanBlock):
        if spec.size < 1:
            raise DimensionError("Jordan block size must be >= 1")
        if spec.size > d_max:
            raise SizeCapError(f"dimension {spec.size} exceeds cap {d_max}")
        m = np.eye(spec.size, dtype=complex) * complex(spec.eigenvalue)
        m += np.diag(np.ones(spec.size - 1), k=1)
        return m, (spec.size,)
    if isinstance(spec, WeightedBackwardShiftTruncation):
        d = spec.dim
        if d < 1:
            raise DimensionError("shift truncation dim must be >= 1")
        if d > d_max:
            raise SizeCapError(f"dimension {d} exceeds cap {d_max}")
        if len(spec.weights) < d - 1:
            raise DimensionError(f"need at least {d - 1} weights for dim {d}")
        m = np.zeros((d, d), dtype=complex)
        for i in range(d - 1):
            m[i, i + 1] = spec.weights[i]
        return m, (d,)
    if isinstance(spec, DirectSum):
        if not spec.parts:
            raise DimensionError("direct sum needs at least one part")
        built = [_build(p, d_max) for p in spec.parts]
        mats = [b[0] for b in built]
        dims = tuple(d for b in built for d in b[1])
        return block_diag(*mats).astype(complex), dims
    if isinstance(spec, Scale):
        m, dims = _build(spec.inner, d_max)
        return complex(spec.factor) * m, dims
    if isinstance(spec, Inverse):
        if isinstance(spec.inner, DiagonalUnimodular):
            # conjugate rotation; negating angles gives the exact bitwise
            # conjugate since cos is even and sin is odd
            neg = tuple(-a for a in spec.inner.angles_turns)
            return _build(DiagonalUnimodular(neg), d_max)
        m, dims = _build(spec.inner, d_max)
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
        m, dims = _build(inner, d_max)
        return np.linalg.matrix_power(m, abs(n)), dims
    raise TypeError(f"unknown operator spec {type(spec).__name__}")


def _power_scan(m: np.ndarray, horizon: int) -> tuple[float, float, float]:
    """(sup, mid, end) of ||T^n||_2 over n in [1, horizon]; early out on blowup."""
    p = m.copy()
    sup = mid = end = float(np.linalg.norm(p, 2))
    half = max(1, horizon // 2)
    for n in range(2, horizon + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            p = m @ p
        # an overflowed power reads as infinite: LAPACK refuses non-finite input
        s = float(np.linalg.norm(p, 2)) if np.isfinite(p).all() else np.inf
        sup = max(sup, s)
        if n == half:
            mid = s
        end = s
        if not np.isfinite(s) or s > _NORM_OVERFLOW:
            return sup, max(mid, s), s
    return sup, mid, end


def realize(
    spec: OperatorSpec,
    d_max: int = DIM_CAP,
    power_bound_horizon: int = POWER_BOUND_HORIZON,
) -> LinearOperator:
    """Build the concrete matrix for a spec and attach norm/power metadata."""
    with np.errstate(over="ignore", invalid="ignore"):
        m, dims = _build(spec, d_max)
    if not np.isfinite(m).all():
        raise ValueError("operator matrix has non-finite entries")
    d = m.shape[0]
    if d > d_max:
        raise SizeCapError(f"dimension {d} exceeds cap {d_max}")
    sup, mid, end = _power_scan(m, power_bound_horizon)
    return LinearOperator(
        matrix=m,
        dim=d,
        block_dims=dims,
        operator_norm_estimate=float(np.linalg.norm(m, 2)),
        power_bound_estimate=sup,
        power_bound_horizon=power_bound_horizon,
        power_norm_mid=mid,
        power_norm_end=end,
        spec=spec,
    )


def direct_sum(parts: Sequence[LinearOperator], d_max: int = DIM_CAP) -> LinearOperator:
    """Block-diagonal join of realized operators.

    The recorded norm is the max of the component norms (which for the
    Euclidean 2-norm of a block-diagonal matrix is also exact), and the metric
    on the sum is the max of component norms via ``block_dims``.
    """
    if not parts:
        raise DimensionError("direct sum needs at least one part")
    d = sum(p.dim for p in parts)
    if d > d_max:
        raise SizeCapError(f"dimension {d} exceeds cap {d_max}")
    m = block_diag(*[p.matrix for p in parts]).astype(complex)
    dims = tuple(b for p in parts for b in p.block_dims)
    horizons = {p.power_bound_horizon for p in parts}
    if len(horizons) == 1:
        sup = max(p.power_bound_estimate for p in parts)
        mid = max(p.power_norm_mid for p in parts)
        end = max(p.power_norm_end for p in parts)
        horizon = horizons.pop()
    else:
        horizon = POWER_BOUND_HORIZON
        sup, mid, end = _power_scan(m, horizon)
    spec = None
    if all(p.spec is not None for p in parts):
        spec = DirectSum(tuple(p.spec for p in parts))
    return LinearOperator(
        matrix=m,
        dim=d,
        block_dims=dims,
        operator_norm_estimate=max(p.operator_norm_estimate for p in parts),
        power_bound_estimate=sup,
        power_bound_horizon=horizon,
        power_norm_mid=mid,
        power_norm_end=end,
        spec=spec,
    )


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
    tol_unimod: float

    @property
    def eigenpairs(self) -> list[tuple[complex, np.ndarray]]:
        return [
            (self.eigenvalues[i], self.eigenvectors[:, i])
            for i in range(len(self.eigenvalues))
        ]

    @property
    def unimodular_pairs(self) -> list[tuple[complex, np.ndarray]]:
        return [
            (self.eigenvalues[i], self.eigenvectors[:, i])
            for i in self.unimodular_indices
        ]


def unimodular_eigenpairs(
    T: LinearOperator, tol_unimod: float = TOL_UNIMOD
) -> SpectralData:
    """Eigendecompose T and isolate the eigenvalues within tol of the unit circle."""
    try:
        vals, vecs = np.linalg.eig(T.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver failed: {exc}") from exc
    resid = np.linalg.norm(T.matrix @ vecs - vecs * vals, axis=0)
    budget = 10 * np.finfo(float).eps * max(T.operator_norm_estimate, 1.0) * T.dim
    worst = float(resid.max())
    if worst > budget:
        raise NumericalFailureError(
            f"eigen residual {worst:.3e} exceeds budget {budget:.3e}",
            residual=worst,
        )
    uni = tuple(int(i) for i in np.nonzero(np.abs(np.abs(vals) - 1) <= tol_unimod)[0])
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
        tol_unimod=tol_unimod,
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
    ang = subspace_angles(b1, b2)
    return float(ang.max()) if ang.size else 0.0


def jdg_split(
    T: LinearOperator,
    tol_unimod: float = TOL_UNIMOD,
    power_bound_cap: float = POWER_BOUND_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Split C^d into the rotation-like and dissipative spectral parts of T.

    Returns orthonormal bases ``(rev_basis, fl_basis)`` of the invariant
    subspace for the unimodular spectrum and of the complementary invariant
    subspace for the contractive spectrum, computed by two sorted Schur
    decompositions (no Jordan forms).

    The gate is an estimate, not a proof: T must have
    ``power_bound_estimate <= power_bound_cap`` AND must not show a growth
    trend over the scan (norm at the scan horizon both > 2 and >= 1.5x the
    half-horizon norm). The trend test is what rejects linearly-growing
    unimodular Jordan blocks whose sup at the scan horizon is still below the
    cap; it also conservatively rejects power-bounded operators with slowly
    decaying defective parts.

    The dissipative part is verified to decay: each unit fl basis vector must
    satisfy ``||T^N v|| < 1`` at the scan horizon.
    """
    if T.power_bound_estimate > power_bound_cap:
        raise NotPowerBoundedError(
            f"power bound estimate {T.power_bound_estimate:.3e} exceeds cap "
            f"{power_bound_cap:.3e} at horizon {T.power_bound_horizon}"
        )
    if T.power_norm_end > 2 and T.power_norm_end >= GROWTH_RATIO_CAP * T.power_norm_mid:
        raise NotPowerBoundedError(
            f"norm still growing at horizon {T.power_bound_horizon}: "
            f"||T^N|| = {T.power_norm_end:.3e} vs ||T^(N/2)|| = {T.power_norm_mid:.3e}"
        )

    def is_unimodular(lam):
        return bool(abs(abs(lam) - 1) <= tol_unimod)

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
        p_end = np.linalg.matrix_power(T.matrix, T.power_bound_horizon)
        decay = np.linalg.norm(p_end @ fl, axis=0)
        worst = float(decay.max())
        if worst >= 1.0:
            raise NumericalFailureError(
                f"dissipative part fails to decay at horizon "
                f"{T.power_bound_horizon}: ||T^N v|| = {worst:.3e}",
                residual=worst,
            )
    return rev, fl


def eigenvector_from_power_relation(
    T: LinearOperator,
    x: np.ndarray,
    n: int,
    alpha: complex,
    tol_fix: float = 1e-8,
    tol_unimod: float = TOL_UNIMOD,
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
    if abs(abs(alpha) - 1) > tol_unimod:
        raise NotAPowerFixedPointError(
            f"|alpha| = {abs(alpha):.12f} is not unimodular at tol {tol_unimod}"
        )
    z = x
    for _ in range(n):
        z = T.apply(z)
    defect = np.linalg.norm(z - alpha * x)
    if defect > tol_fix * nx:
        raise NotAPowerFixedPointError(
            f"||T^n x - alpha x|| = {defect:.3e} exceeds {tol_fix:.1e} * ||x||"
        )

    principal = np.exp(1j * np.angle(alpha) / n)
    roots = [principal * np.exp(2j * np.pi * j / n) for j in range(n)]
    scale = max(T.operator_norm_estimate, 1.0)
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
    budget = max(1e-10 * np.linalg.norm(y), 10 * tol_fix * nx)
    if resid > budget:
        raise NumericalFailureError(
            f"chain produced residual {resid:.3e} beyond budget {budget:.3e}",
            residual=resid,
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
        return complex(v)
    re, im = v
    return complex(re, im)


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
        return DiagonalUnimodular(tuple(float(a) for a in json_list(obj["angles_turns"])))
    if tag == "dense_matrix":
        rows = json_list(obj["entries"])
        return DenseMatrix(tuple(tuple(_complex_from_json(z) for z in row) for row in rows))
    if tag == "jordan_block":
        return JordanBlock(_complex_from_json(obj["eigenvalue"]), json_int(obj["size"]))
    if tag == "weighted_backward_shift":
        return WeightedBackwardShiftTruncation(
            tuple(float(w) for w in json_list(obj["weights"])), json_int(obj["dim"])
        )
    if tag == "direct_sum":
        return DirectSum(tuple(spec_from_json_dict(p) for p in json_list(obj["parts"])))
    if tag == "scale":
        return Scale(_complex_from_json(obj["factor"]), spec_from_json_dict(obj["inner"]))
    if tag == "inverse":
        return Inverse(spec_from_json_dict(obj["inner"]))
    return Power(json_int(obj["exponent"]), spec_from_json_dict(obj["inner"]))
