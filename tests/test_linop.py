"""Tests for operator specs, realization, and spectral structure.

Oracles: hand-computed 2x2 eigenpairs, closed-form Jordan powers, and naive
repeated matrix multiplication. Frozen matrices below were worked out by hand.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab import (
    DenseMatrix,
    DiagonalUnimodular,
    DirectSum,
    Inverse,
    JordanBlock,
    Power,
    Scale,
    WeightedBackwardShiftTruncation,
    direct_sum,
    eigen_span_residual,
    eigenvector_from_power_relation,
    jdg_split,
    principal_angle,
    realize,
    spec_from_json_dict,
    spec_to_json_dict,
    unimodular_eigenpairs,
)
from recurlab.errors import (
    DimensionError,
    NotAPowerFixedPointError,
    NotPowerBoundedError,
    NumericalFailureError,
    SingularOperatorError,
    SizeCapError,
)
from recurlab.linop import (
    DIM_CAP,
    POWER_BOUND_HORIZON,
    _block_diag,
    _power_scan,
    block_norms,
    orth,
    row_sums,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def oracle_power(m, n):
    """Naive repeated multiplication, the reference for matrix powers."""
    out = np.eye(m.shape[0], dtype=complex)
    for _ in range(n):
        out = m @ out
    return out


def hand_swap_eigenpairs():
    """Characteristic polynomial of [[0,1],[1,0]] by hand: t^2 - 1."""
    v_plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    v_minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    return [(1.0, v_plus), (-1.0, v_minus)]


SWAP = DenseMatrix(((0.0, 1.0), (1.0, 0.0)))


# ---------------------------------------------------------------------------
# realization


class TestRealize:
    def test_quarter_rotation_matrix(self):
        T = realize(DiagonalUnimodular((0.25,)))
        assert T.dim == 1
        assert abs(T.matrix[0, 0] - 1j) < 1e-15

    def test_jordan_block(self):
        T = realize(JordanBlock(1.0, 2))
        assert np.array_equal(T.matrix, np.array([[1, 1], [0, 1]], dtype=complex))

    def test_inverse_rotation_is_exact_conjugate(self):
        fwd = realize(DiagonalUnimodular((0.25, GOLDEN)))
        bwd = realize(Inverse(DiagonalUnimodular((0.25, GOLDEN))))
        assert abs(bwd.matrix[0, 0] + 1j) < 1e-15
        # bitwise conjugate, the basis of exact inverse-symmetry of return sets
        assert np.array_equal(bwd.matrix, np.conj(fwd.matrix))

    def test_weighted_shift_action(self):
        T = realize(WeightedBackwardShiftTruncation((2.0, 3.0), 3))
        assert np.array_equal(T.apply(np.array([0, 1, 0], dtype=complex)),
                              np.array([2, 0, 0], dtype=complex))
        assert np.array_equal(T.apply(np.array([0, 0, 1], dtype=complex)),
                              np.array([0, 3, 0], dtype=complex))
        assert np.array_equal(T.apply(np.array([1, 0, 0], dtype=complex)),
                              np.zeros(3, dtype=complex))

    def test_direct_sum_spec(self):
        T = realize(DirectSum((DiagonalUnimodular((0.25,)),
                               DiagonalUnimodular((-0.25,)))))
        assert T.block_dims == (1, 1)
        assert np.allclose(T.matrix, np.diag([1j, -1j]), atol=1e-15)

    def test_direct_sum_with_scale(self):
        T = realize(DirectSum((DiagonalUnimodular((0.25,)),
                               Scale(0.5, DenseMatrix(((1.0,),))))))
        assert np.allclose(T.matrix, np.diag([1j, 0.5]), atol=1e-15)

    def test_two_by_two_sum(self):
        T = realize(DirectSum((SWAP, SWAP)))
        assert T.dim == 4 and T.block_dims == (2, 2)
        assert np.array_equal(T.matrix[:2, :2], T.matrix[2:, 2:])
        assert not T.matrix[:2, 2:].any()

    def test_power_spec(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        T = realize(Power(3, DenseMatrix(tuple(map(tuple, m)))))
        assert np.allclose(T.matrix, oracle_power(m, 3), rtol=1e-14)

    def test_negative_power_is_inverse_power(self):
        T = realize(Power(-2, DiagonalUnimodular((0.25,))))
        assert abs(T.matrix[0, 0] + 1.0) < 1e-15  # (-i)^2 = -1

    def test_dense_inverse(self):
        T = realize(Inverse(JordanBlock(1.0, 2)))
        assert np.allclose(T.matrix, np.array([[1, -1], [0, 1]]), atol=1e-14)

    def test_singular_inverse_rejected(self):
        with pytest.raises(SingularOperatorError):
            realize(Inverse(DenseMatrix(((1.0, 0.0), (0.0, 0.0)))))

    def test_dimension_cap(self):
        with pytest.raises(SizeCapError):
            realize(DiagonalUnimodular(tuple([0.1] * 65)))

    def test_power_bound_metadata_rotation(self):
        T = realize(DiagonalUnimodular((GOLDEN,)))
        sup, _, _ = _power_scan(T.matrix)
        assert abs(sup - 1.0) < 1e-12
        assert abs(np.linalg.norm(T.matrix, 2) - 1.0) < 1e-9

    def test_power_bound_metadata_jordan_growth(self):
        # ||J(i,2)^n|| grows like n: roughly 257 at the scan horizon 256
        T = realize(JordanBlock(1j, 2))
        sup, mid, end = _power_scan(T.matrix)
        assert 250 < sup < 300
        assert end > 2 * mid * 0.9


class TestApplyConsistency:
    def test_dense_apply_matches_matmul_bitwise(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        T = realize(DenseMatrix(tuple(map(tuple, m))))
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        assert np.array_equal(T.apply(v), T.matrix @ v)

    def test_diagonal_rows_match_per_row_bitwise(self):
        rng = np.random.default_rng(8)
        T = realize(DiagonalUnimodular(tuple(rng.uniform(size=4))))
        rows = rng.normal(size=(10, 4)) + 1j * rng.normal(size=(10, 4))
        broadcast = T.apply_to_rows(rows)
        for i in range(10):
            assert np.array_equal(broadcast[i], T.apply(rows[i]))

    def test_direct_sum_apply_matches_parts_bitwise(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        T1 = realize(DenseMatrix(tuple(map(tuple, m))))
        T2 = realize(DiagonalUnimodular((GOLDEN,)))
        T = direct_sum([T1, T2])
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        joint = T.apply(v)
        assert np.array_equal(joint[:2], T1.apply(v[:2]))
        assert np.array_equal(joint[2:], T2.apply(v[2:]))

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 13, 33, DIM_CAP])
    def test_apply_to_rows_matches_row_loop_bitwise(self, d):
        # every operator kind at dim d, then mixed sums of them filling d;
        # the rows are also taken as a column view of a wider buffer, as an
        # orbit lane's points are
        rng = np.random.default_rng(d)

        def dense(b):
            m = rng.normal(size=(b, b)) + 1j * rng.normal(size=(b, b))
            return DenseMatrix(tuple(map(tuple, m)))

        kinds = [
            lambda b: DiagonalUnimodular(tuple(rng.uniform(size=b))),
            dense,
            lambda b: JordanBlock(0.5, b),
            lambda b: WeightedBackwardShiftTruncation(tuple(rng.uniform(1, 2, size=b)), b),
            lambda b: Scale(0.7 - 0.2j, dense(b)),
            lambda b: Inverse(
                DenseMatrix(tuple(map(tuple, np.eye(b) + 0.1 * rng.normal(size=(b, b)))))
            ),
            lambda b: Power(3, dense(b)),
        ]
        specs = [kind(d) for kind in kinds]
        for _ in range(4):
            cuts = np.sort(rng.choice(np.arange(1, d), size=min(d - 1, 3), replace=False))
            sizes = np.diff(np.concatenate([[0], cuts, [d]]))
            parts = [kinds[int(rng.integers(len(kinds)))](int(b)) for b in sizes]
            specs.append(DirectSum(tuple(parts)))
        wide = rng.normal(size=(300, d + 3)) + 1j * rng.normal(size=(300, d + 3))
        for spec in specs:
            T = realize(spec)
            for rows in (np.ascontiguousarray(wide[:, 2 : d + 2]), wide[:, 2 : d + 2]):
                looped = np.stack([T.apply(r) for r in rows])
                assert np.array_equal(T.apply_to_rows(rows), looped), spec

    def test_block_norms_max_convention(self):
        T = direct_sum([realize(SWAP), realize(DiagonalUnimodular((0.25,)))])
        v = np.array([3.0, 4.0, 12.0], dtype=complex)
        # max(||(3,4)||, ||12||) = max(5, 12)
        assert T.norm_of(v) == 12.0

    def test_single_block_norm_is_euclidean(self):
        T = realize(SWAP)
        v = np.array([3.0, 4.0], dtype=complex)
        assert T.norm_of(v) == 5.0


# ---------------------------------------------------------------------------
# spectral structure


class TestUnimodularEigenpairs:
    def test_mixed_diagonal(self):
        T = realize(DirectSum((DiagonalUnimodular((0.25,)),
                               Scale(0.5, DenseMatrix(((1.0,),))))))
        data = unimodular_eigenpairs(T)
        assert data.unimodular_indices == (0,)
        lam, v = data.unimodular_pairs[0]
        assert abs(lam - 1j) < 1e-15
        assert abs(abs(v[0]) - 1.0) < 1e-12 and abs(v[1]) < 1e-12
        assert data.espan_basis.shape == (2, 1)

    def test_swap_matrix_hand_eigenpairs(self):
        T = realize(SWAP)
        data = unimodular_eigenpairs(T)
        assert len(data.unimodular_indices) == 2
        for lam_expected, v_expected in hand_swap_eigenpairs():
            found = [
                (lam, v)
                for lam, v in data.unimodular_pairs
                if abs(lam - lam_expected) < 1e-12
            ]
            assert len(found) == 1
            _, v = found[0]
            # match up to phase
            assert abs(abs(np.vdot(v_expected, v)) - 1.0) < 1e-12

    def test_jordan_block_geometric_multiplicity(self):
        # both numeric eigenvectors collapse onto e1; the span has rank 1
        T = realize(JordanBlock(1.0, 2))
        data = unimodular_eigenpairs(T)
        assert data.espan_basis.shape == (2, 1)
        assert abs(abs(data.espan_basis[0, 0]) - 1.0) < 1e-12

    def test_residuals_within_budget_on_normal_matrices(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            d = int(rng.integers(2, 11))
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            q, _ = np.linalg.qr(g)
            lam = np.exp(2j * np.pi * rng.uniform(size=d))
            m = (q * lam) @ q.conj().T
            T = realize(DenseMatrix(tuple(map(tuple, m))))
            data = unimodular_eigenpairs(T)
            assert max(data.residuals) <= data.residual_budget
            assert len(data.unimodular_indices) == d

    def test_overflowed_norm_estimate_fails_the_gate(self):
        # an inf budget would let every residual pass
        T = realize(DenseMatrix(((1.7e308, 1.7e308), (0.0, 1.0))))
        with pytest.raises(NumericalFailureError, match="norm estimate inf overflowed"):
            unimodular_eigenpairs(T)


class TestEigenSpanResidual:
    def setup_method(self):
        self.T = realize(DirectSum((DiagonalUnimodular((0.25,)),
                                    Scale(0.5, DenseMatrix(((1.0,),))))))
        self.data = unimodular_eigenpairs(self.T)

    def test_inside_span(self):
        assert eigen_span_residual(np.array([1, 0], dtype=complex), self.data) < 1e-12

    def test_orthogonal_to_span(self):
        r = eigen_span_residual(np.array([0, 1], dtype=complex), self.data)
        assert abs(r - 1.0) < 1e-12

    def test_diagonal_mix(self):
        x = np.array([1, 1], dtype=complex) / math.sqrt(2.0)
        r = eigen_span_residual(x, self.data)
        assert abs(r - 1.0 / math.sqrt(2.0)) < 1e-12

    def test_empty_span_gives_norm(self):
        T = realize(Scale(0.5, DenseMatrix(((1.0,),))))
        data = unimodular_eigenpairs(T)
        assert data.espan_basis.shape == (1, 0)
        assert eigen_span_residual(np.array([2.0 + 0j]), data) == 2.0


class TestJdgSplit:
    def test_mixed_diagonal(self):
        T = realize(DirectSum((DiagonalUnimodular((0.25,)),
                               Scale(0.5, DenseMatrix(((1.0,),))))))
        rev, fl = jdg_split(T)
        assert rev.shape == (2, 1) and fl.shape == (2, 1)
        assert principal_angle(rev, np.eye(2, 1, dtype=complex)) < 1e-12
        assert principal_angle(fl, np.eye(2, 2, dtype=complex)[:, 1:]) < 1e-12

    def test_three_by_three(self):
        T = realize(DenseMatrix(((1.0, 0, 0), (0, -1.0, 0), (0, 0, 0.9))))
        rev, fl = jdg_split(T)
        assert rev.shape[1] == 2 and fl.shape[1] == 1
        e12 = np.eye(3, dtype=complex)[:, :2]
        assert principal_angle(rev, e12) < 1e-12

    def test_unimodular_jordan_rejected(self):
        T = realize(JordanBlock(1j, 2))
        with pytest.raises(NotPowerBoundedError):
            jdg_split(T)

    def test_expanding_operator_rejected(self):
        T = realize(Scale(2.0, DenseMatrix(((1.0,),))))
        with pytest.raises(NotPowerBoundedError):
            jdg_split(T)

    def test_contractive_jordan_accepted(self):
        T = realize(JordanBlock(0.5, 3))
        rev, fl = jdg_split(T)
        assert rev.shape[1] == 0 and fl.shape[1] == 3

    def test_split_spans_match_eigenstructure(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            d = int(rng.integers(2, 8))
            j = int(rng.integers(1, d))
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            q, _ = np.linalg.qr(g)
            lam = np.concatenate([
                np.exp(2j * np.pi * rng.uniform(size=j)),
                rng.uniform(0.2, 0.9, size=d - j)
                * np.exp(2j * np.pi * rng.uniform(size=d - j)),
            ])
            m = (q * lam) @ q.conj().T
            T = realize(DenseMatrix(tuple(map(tuple, m))))
            rev, fl = jdg_split(T)
            assert rev.shape[1] == j and fl.shape[1] == d - j
            assert principal_angle(rev, q[:, :j]) < 1e-10


class TestPowerRelationExtraction:
    def test_swap_chain_frozen(self):
        # chain by hand: y1 = (1 - T)e1 = e1 - e2, y2 = (-1 - T)y1 = 0
        T = realize(SWAP)
        y, lam = eigenvector_from_power_relation(
            T, np.array([1.0, 0.0], dtype=complex), 2, 1.0
        )
        assert np.array_equal(y, np.array([1.0, -1.0], dtype=complex))
        assert abs(lam + 1.0) < 1e-12

    def test_scalar_rotation_chain(self):
        T = realize(DiagonalUnimodular((0.25,)))
        y, lam = eigenvector_from_power_relation(
            T, np.array([1.0 + 0j]), 4, 1.0
        )
        assert abs(lam - 1j) < 1e-12
        assert np.linalg.norm(T.apply(y) - lam * y) < 1e-12 * np.linalg.norm(y)

    def test_exact_eigenvector_short_circuits(self):
        T = realize(DirectSum((DiagonalUnimodular((0.25,)),
                               Scale(0.5, DenseMatrix(((1.0,),))))))
        x = np.array([1.0, 0.0], dtype=complex)
        alpha = complex(T.matrix[0, 0])
        y, lam = eigenvector_from_power_relation(T, x, 1, alpha)
        assert np.array_equal(y, x)
        assert abs(lam - alpha) < 1e-12

    def test_not_a_fixed_point(self):
        T = realize(DirectSum((DiagonalUnimodular((0.25,)),
                               Scale(0.5, DenseMatrix(((1.0,),))))))
        with pytest.raises(NotAPowerFixedPointError):
            eigenvector_from_power_relation(
                T, np.array([0.0, 1.0], dtype=complex), 1, 1j
            )

    def test_alpha_must_be_unimodular(self):
        T = realize(SWAP)
        with pytest.raises(NotAPowerFixedPointError):
            eigenvector_from_power_relation(
                T, np.array([1.0, 0.0], dtype=complex), 2, 0.5
            )

    def test_zero_vector_rejected(self):
        T = realize(SWAP)
        with pytest.raises(NotAPowerFixedPointError):
            eigenvector_from_power_relation(T, np.zeros(2, dtype=complex), 2, 1.0)


class TestPrincipalAngle:
    def test_identical_spans(self):
        q = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 2)))[0]
        assert principal_angle(q, q) < 1e-12

    def test_rank_mismatch_is_right_angle(self):
        e = np.eye(3, dtype=complex)
        assert principal_angle(e[:, :1], e[:, :2]) == pytest.approx(np.pi / 2)

    def test_orthogonal_spans(self):
        e = np.eye(2, dtype=complex)
        assert principal_angle(e[:, :1], e[:, 1:]) == pytest.approx(np.pi / 2)

    def test_empty_spans_agree(self):
        z = np.zeros((3, 0), dtype=complex)
        assert principal_angle(z, z) == 0.0


def same_bits(a, b):
    """Same shape, dtype and bits, whatever either array's layout."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestScipyFreeHelpers:
    """The numpy ``orth`` and ``_block_diag`` against the scipy functions
    they replace: the same bits, and for ``orth`` the same layout, which
    later BLAS products' bits depend on."""

    def check_orth(self, a):
        q, ref = orth(a), scipy.linalg.orth(a)
        assert same_bits(q, ref)
        assert q.flags.f_contiguous and ref.flags.f_contiguous

    @pytest.mark.parametrize("d", range(2, 9))
    def test_orth_full_rank(self, d):
        rng = np.random.default_rng(d)
        for k in range(1, d + 1):
            for _ in range(5):
                self.check_orth(random_complex(rng, d, k))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_orth_rank_deficient(self, d):
        rng = np.random.default_rng(100 + d)
        for k in range(2, d + 1):
            for r in range(1, k):
                a = random_complex(rng, d, r) @ random_complex(rng, r, k)
                assert orth(a).shape == (d, r)
                self.check_orth(a)
        self.check_orth(np.zeros((d, 2), dtype=complex))

    def test_eigenvector_span_basis(self):
        # a Haar unitary beside J(0.5): the operator shape of the benchmark's
        # dense workload, whose eigen-span residuals read this basis
        rng = np.random.default_rng(7)
        q, r = np.linalg.qr(random_complex(rng, 4, 4))
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        T = realize(DirectSum((DenseMatrix(tuple(map(tuple, u))), JordanBlock(0.5, 2))))
        data = unimodular_eigenpairs(T)
        ref = scipy.linalg.orth(data.eigenvectors[:, list(data.unimodular_indices)])
        assert same_bits(data.espan_basis, ref) and data.espan_basis.flags.f_contiguous

    def test_block_diag(self):
        rng = np.random.default_rng(11)
        for sizes in [(1,), (2, 3), (4, 1, 2), (3, 3, 3, 1)]:
            mats = [random_complex(rng, n, n) for n in sizes]
            assert same_bits(_block_diag(mats), scipy.linalg.block_diag(*mats))
        mats = [np.eye(2), random_complex(rng, 1, 1)]
        assert same_bits(_block_diag(mats), scipy.linalg.block_diag(*mats).astype(complex))


def reference_block_norms(rows, block_dims):
    """The formula ``block_norms`` had before its row sums were unrolled."""
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


def reference_power_scan(m):
    """The one-norm-per-power loop that ``_power_scan`` batches."""
    p = m.copy()
    sup = mid = end = float(np.linalg.norm(p, 2))
    half = POWER_BOUND_HORIZON // 2
    for n in range(2, POWER_BOUND_HORIZON + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            p = m @ p
        s = float(np.linalg.norm(p, 2)) if np.isfinite(p).all() else np.inf
        sup = max(sup, s)
        if n == half:
            mid = s
        end = s
        if not np.isfinite(s) or s > 1e9:
            return sup, max(mid, s), s
    return sup, mid, end


def haar_unitary(rng, d):
    q, r = np.linalg.qr(random_complex(rng, d, d))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestBitEqualRewrites:
    """Faster forms of numpy reductions against the forms they replace,
    bit for bit: every payload reads distances through ``block_norms``, and
    the power scan's norms are gated and reported."""

    @staticmethod
    def special_rows(rng, k, width):
        rows = random_complex(rng, k, width) * 10.0 ** rng.integers(-150, 150, size=(k, width))
        pick = rng.random((k, width))
        rows[pick < 0.03] = np.inf
        rows[(pick >= 0.03) & (pick < 0.05)] = complex(np.nan, 1.0)
        rows[(pick >= 0.05) & (pick < 0.1)] = complex(-0.0, -0.0)
        rows[rng.random(k) < 0.05] = 0.0
        return rows

    @pytest.mark.parametrize("b", range(1, 17))
    def test_row_sums_equal_numpy_sum(self, b):
        # numpy adds fewer than 8 terms left to right and more pairwise
        rng = np.random.default_rng(b)
        wide = np.abs(random_complex(rng, 500, b + 5)) ** 2
        for a in (np.ascontiguousarray(wide[:, 3 : b + 3]), wide[:, 3 : b + 3]):
            assert same_bits(row_sums(a), a.sum(axis=1))

    @pytest.mark.parametrize("b", range(1, 17))
    def test_single_block_norms(self, b):
        rng = np.random.default_rng(200 + b)
        wide = self.special_rows(rng, 400, b + 4)
        with np.errstate(over="ignore", invalid="ignore"):
            for rows in (np.ascontiguousarray(wide[:, 1 : b + 1]), wide[:, 1 : b + 1]):
                assert same_bits(block_norms(rows, (b,)), reference_block_norms(rows, (b,)))

    def test_mixed_block_norms(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            dims = tuple(int(b) for b in rng.integers(1, 17, size=rng.integers(2, 5)))
            d = sum(dims)
            wide = self.special_rows(rng, 300, d + 3)
            with np.errstate(over="ignore", invalid="ignore"):
                for rows in (np.ascontiguousarray(wide[:, 2 : d + 2]), wide[:, 2 : d + 2]):
                    assert same_bits(block_norms(rows, dims), reference_block_norms(rows, dims))

    def test_block_norms_of_one_row_and_zero_rows(self):
        v = np.array([3.0, 4.0, -0.0, 12.0], dtype=complex)
        for dims in [(4,), (2, 2), (2, 1, 1), (1, 3)]:
            assert same_bits(block_norms(v, dims), reference_block_norms(v, dims))
            zero = np.zeros((5, 4), dtype=complex)
            assert same_bits(block_norms(zero, dims), np.zeros(5))
        # real and integer rows give float norms, as before
        assert same_bits(block_norms(np.array([[3, 4]]), (2,)), np.array([5.0]))

    def test_power_scan_matches_the_loop(self):
        rng = np.random.default_rng(41)
        mats = []
        for d in range(1, 7):
            u = haar_unitary(rng, d)
            # norms that stay bounded, pass 1e9 before, after and at the
            # half horizon, start above it, and overflow at n = 2
            mats += [u, 0.5 * u, 1.01 * u, 1.2 * u, 1.1 * u, 2.0 ** (30 / 128) * u]
            mats += [3.0 * u, 1e3 * u, 1e100 * u, 1e200 * u]
            mats.append(random_complex(rng, d, d))
            for lam in (1.0, 1j, 0.5, 0.99, 1.01, -1.5):
                mats.append(realize(JordanBlock(lam, d)).matrix)
            mats.append(realize(WeightedBackwardShiftTruncation((2.0,) * d, d)).matrix)
            mats.append(np.zeros((d, d), dtype=complex))
        mats.append(realize(Scale(1e200, JordanBlock(1.0, 2))).matrix)
        for m in mats:
            assert same_bits(np.array(_power_scan(m)), np.array(reference_power_scan(m)))


# ---------------------------------------------------------------------------
# spec serialization


FLOATS = st.floats(allow_nan=False, allow_infinity=False)
COMPLEXES = st.complex_numbers(allow_nan=False, allow_infinity=False)
SIZES = st.integers(0, 4)


def _square(n):
    row = st.lists(COMPLEXES, min_size=n, max_size=n).map(tuple)
    return st.lists(row, min_size=n, max_size=n).map(tuple)


LEAF_SPECS = st.one_of(
    st.builds(DiagonalUnimodular, st.lists(FLOATS, max_size=3).map(tuple)),
    SIZES.flatmap(_square).map(DenseMatrix),
    st.builds(JordanBlock, COMPLEXES, SIZES),
    st.builds(WeightedBackwardShiftTruncation, st.lists(FLOATS, max_size=3).map(tuple), SIZES),
)
# nested specs of all eight kinds; the parser does not realize, so specs
# need not be realizable
SPECS = st.recursive(
    LEAF_SPECS,
    lambda inner: st.one_of(
        st.builds(DirectSum, st.lists(inner, max_size=3).map(tuple)),
        st.builds(Scale, COMPLEXES, inner),
        st.builds(Inverse, inner),
        st.builds(Power, st.integers(-4, 4), inner),
    ),
    max_leaves=6,
)


class TestSpecJson:
    CASES = [
        DiagonalUnimodular((0.25, GOLDEN)),
        SWAP,
        JordanBlock(1j, 3),
        WeightedBackwardShiftTruncation((2.0, 1.5), 3),
        DirectSum((DiagonalUnimodular((0.5,)), JordanBlock(0.5, 2))),
        Scale(0.5 + 0.5j, DiagonalUnimodular((0.1,))),
        Inverse(DiagonalUnimodular((0.3,))),
        Power(3, DenseMatrix(((1.0, 0.5), (0.0, 1.0)))),
    ]

    @pytest.mark.parametrize("spec", CASES, ids=lambda s: type(s).__name__)
    def test_round_trip_preserves_realization(self, spec):
        text = json.dumps(spec_to_json_dict(spec))
        again = spec_from_json_dict(json.loads(text))
        assert np.array_equal(realize(spec).matrix, realize(again).matrix)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(SPECS)
    def test_json_round_trip_is_identity(self, spec):
        again = spec_from_json_dict(json.loads(json.dumps(spec_to_json_dict(spec))))
        assert again == spec

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            spec_from_json_dict({"type": "banana"})

    def test_missing_tag_rejected(self):
        with pytest.raises(ValueError):
            spec_from_json_dict({"angles_turns": [0.25]})


class TestValidation:
    def test_wrong_shape_matrix(self):
        with pytest.raises(DimensionError):
            realize(DenseMatrix(((1.0, 2.0),)))

    def test_empty_direct_sum(self):
        with pytest.raises(DimensionError):
            realize(DirectSum(()))

    def test_jordan_size_positive(self):
        with pytest.raises(DimensionError):
            realize(JordanBlock(1.0, 0))

    def test_shift_needs_enough_weights(self):
        with pytest.raises(DimensionError):
            realize(WeightedBackwardShiftTruncation((1.0,), 3))

    @pytest.mark.parametrize(
        "spec",
        [
            JordanBlock(1.0, 10**6),
            WeightedBackwardShiftTruncation((1.0,) * 10**6, 10**6 + 1),
            DiagonalUnimodular((0.1,) * 2000),
            DirectSum((JordanBlock(0.5, 64),) * 20),
            DirectSum((DiagonalUnimodular((0.1,)),) * 2000),
        ],
        ids=["jordan", "shift", "angles", "jordan_parts", "one_angle_parts"],
    )
    def test_size_cap_checked_before_building(self, spec):
        # a 10^6 x 10^6 complex matrix would need 16 TB. Built first, the
        # 2000 angles' diagonal matrix peaked at 64.9 MiB, the 20 Jordan
        # parts and their sum at 26.6 MiB and the 2000 one-angle parts at
        # 65.0 MiB
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError):
                realize(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("factor", [math.inf, math.nan])
    def test_non_finite_matrix_rejected(self, factor):
        with pytest.raises(ValueError, match="non-finite"):
            realize(Scale(factor, JordanBlock(1.0, 2)))

    def test_overflowing_powers_read_as_infinite(self):
        # ||T^2|| overflows while ||T|| is finite; the scan must neither warn
        # nor let the overflowed power hide behind a NaN norm
        T = realize(Scale(1e200, JordanBlock(1.0, 2)))
        assert math.isfinite(np.linalg.norm(T.matrix, 2))
        assert _power_scan(T.matrix)[0] == math.inf
        with pytest.raises(NotPowerBoundedError):
            jdg_split(T)
