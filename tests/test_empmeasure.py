"""Tests for empirical measures, invariance defects, and covariance structure.

Oracles: the closed-form arc-length mass of a rotation ball, plain-Python
ball-counting loops for defects, and hand-computed covariance matrices.
"""

import math
import tracemalloc

import numpy as np
import pytest

from recurlab import (
    CovarianceMatrix,
    DenseMatrix,
    DiagonalUnimodular,
    DirectSum,
    EmpiricalMeasure,
    JordanBlock,
    ball_mass,
    conjugation_invariance_check,
    covariance,
    empirical_from_window,
    invariance_defect,
    iterate,
    moments,
    realize,
    support_span_vs_kernel,
)
from recurlab import empmeasure
from recurlab.empmeasure import MERGE_DECIMALS, _all_distinct, _group_index, _merge
from recurlab.errors import DimensionError
from recurlab.natset import FiniteNatSet, upper_banach_density

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def arc_mass(epsilon):
    """Analytic mass of {|z - 1| < eps} on the unit circle: (2/pi) asin(eps/2)."""
    return (2.0 / math.pi) * math.asin(epsilon / 2.0)


def oracle_defect(T, mu, balls):
    """Plain-loop pushforward defect, independent of the vectorized paths."""
    worst = 0.0
    for center, radius in balls:
        center = np.asarray(center, dtype=complex)
        before = after = 0.0
        for atom, w in zip(mu.atoms, mu.weights):
            if T.norm_of(atom - center) < radius:
                before += w
            if T.norm_of(T.apply(atom) - center) < radius:
                after += w
        worst = max(worst, abs(after - before))
    return worst


def per_ball_defect(T, mu, balls):
    """``invariance_defect`` as it was, with each ball's distances taken
    afresh; the shared-center path must give the same number exactly."""
    pushed = T.apply_to_rows(mu.atoms)
    exact = mu.counts is not None and mu.denominator
    worst_int, worst_float = 0, 0.0
    for center, radius in balls:
        center = np.asarray(center, dtype=complex)
        in_b = T.block_norms(mu.atoms - center) < radius
        in_pb = T.block_norms(pushed - center) < radius
        if exact:
            delta = abs(int(mu.counts[in_pb].sum()) - int(mu.counts[in_b].sum()))
            worst_int = max(worst_int, delta)
        else:
            delta = abs(float(mu.weights[in_pb].sum()) - float(mu.weights[in_b].sum()))
            worst_float = max(worst_float, delta)
    return float(worst_int / mu.denominator) if exact else worst_float


def unique_merge(atoms):
    """``_merge`` as it was, grouping through ``np.unique(keys, axis=0)``."""
    keys = np.round(np.column_stack([atoms.real, atoms.imag]), MERGE_DECIMALS)
    _, inverse = np.unique(keys, axis=0, return_inverse=True)
    counts = np.bincount(inverse)
    weights = np.full(atoms.shape[0], 1.0 / atoms.shape[0])
    w_out = np.zeros(counts.size)
    np.add.at(w_out, inverse, weights)
    reps = np.zeros((counts.size, atoms.shape[1]), dtype=complex)
    np.add.at(reps, inverse, atoms * weights[:, None])
    reps /= w_out[:, None]
    return reps, counts


def keys_all_distinct(keys):
    """``_all_distinct`` as it was, on the full rounded keys of every atom."""
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


def added_peak(fn, *args):
    """Peak bytes that ``fn(*args)`` allocates above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def unitary_jordan(rng, dim_unitary):
    """A random unitary beside J(0.5), as in the benchmark's dense workload."""
    shape = (dim_unitary, dim_unitary)
    q, r = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return realize(DirectSum((DenseMatrix(tuple(map(tuple, u))), JordanBlock(0.5, 2))))


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def quarter_rotation_measure():
    T = realize(DiagonalUnimodular((0.25,)))
    orb = iterate(T, np.array([1.0 + 0j]), 10)
    return T, empirical_from_window(orb, 0, 3)


class TestEmpiricalMeasure:
    def test_weights_validated(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.array([[1.0 + 0j]]), np.array([0.5]))
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.array([[1.0 + 0j], [2.0]]), np.array([1.5, -0.5]))

    def test_point_mass(self):
        mu = EmpiricalMeasure.point_mass(np.array([1.0, 2.0j]))
        assert mu.n_atoms == 1 and mu.dim == 2
        assert mu.weights[0] == 1.0 and mu.denominator == 1


class TestWindowMeasure:
    def test_period_four_uniform(self):
        _, mu = quarter_rotation_measure()
        assert mu.n_atoms == 4
        assert np.array_equal(mu.weights, np.full(4, 0.25))
        assert mu.denominator == 4
        got = sorted(np.angle(mu.atoms[:, 0]) % (2 * np.pi))
        want = sorted(np.angle([1, 1j, -1 + 0j, -1j]) % (2 * np.pi))
        assert np.allclose(got, want, atol=1e-12)

    def test_single_point_window_is_point_mass(self):
        T = realize(DiagonalUnimodular((GOLDEN,)))
        orb = iterate(T, np.array([1.0 + 0j]), 5)
        mu = empirical_from_window(orb, 0, 0)
        assert mu.n_atoms == 1 and mu.weights[0] == 1.0

    def test_weights_are_counts_over_denominator(self):
        T = realize(DiagonalUnimodular((0.25, GOLDEN)))
        orb = iterate(T, np.exp(2j * np.pi * np.array([0.1, 0.7])), 300)
        mu = empirical_from_window(orb, 17, 200)
        assert mu.denominator == 201
        assert np.array_equal(mu.weights, mu.counts / mu.denominator)
        assert int(mu.counts.sum()) == 201

    def test_window_must_fit(self):
        T = realize(DiagonalUnimodular((GOLDEN,)))
        orb = iterate(T, np.array([1.0 + 0j]), 10)
        with pytest.raises(DimensionError):
            empirical_from_window(orb, 5, 10)

    @pytest.mark.parametrize(
        "kind", ["periodic_window", "tied_first_column", "tied_window", "signed_zeros"]
    )
    def test_distinctness_fast_path_agrees_with_unique(self, kind):
        rng = np.random.default_rng(8)
        if kind == "periodic_window":
            # the quarter turn repeats every 4 steps: the window merges
            T = realize(DiagonalUnimodular((0.25, 0.5)))
            atoms = iterate(T, np.array([1.0, 1.0 + 0j]), 40).points
        elif kind == "tied_first_column":
            # every first key column ties, and no full row does
            real = np.column_stack([np.repeat([0.5, -1.0], 50), rng.permutation(100)])
            atoms = real.astype(complex)
        elif kind == "tied_window":
            # the quarter turn's real parts take 3 rounded values, and the
            # golden coordinate keeps every row distinct
            T = realize(DiagonalUnimodular((0.25, GOLDEN)))
            atoms = iterate(T, np.array([1.0, 1.0 + 0j]), 400).points
        else:
            # rows that differ only in the sign of a zero, in either part
            atoms = np.empty((5, 2), dtype=complex)
            atoms.real = [[0.0, 1.0], [-0.0, 1.0], [2.0, -0.0], [3.0, 0.0], [2.0, 0.0]]
            atoms.imag = [[1.0, -0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-0.0, 0.0]]
        keys = np.round(np.column_stack([atoms.real, atoms.imag]), MERGE_DECIMALS)
        distinct = np.unique(keys, axis=0).shape[0] == keys.shape[0]
        assert _all_distinct(atoms) == keys_all_distinct(keys) == distinct
        assert distinct == (kind in ("tied_first_column", "tied_window"))
        # one more equal row makes any atom set non-distinct
        assert not _all_distinct(np.vstack([atoms, atoms[-1:]]))

    @pytest.mark.parametrize("kind", ["period_four", "decaying", "signed_zeros"])
    def test_lexsort_grouping_matches_unique(self, kind):
        # the merged atoms are sums in the group order np.unique gives, so
        # any other order would change their bits
        if kind == "period_four":
            T = realize(DiagonalUnimodular((0.25, GOLDEN)))
            atoms = iterate(T, np.array([1.0, 0.0 + 0j]), 20000).points
        elif kind == "decaying":
            # J(0.5) beside a quarter turn: the Jordan part decays to an
            # exact zero, after which the window repeats every 4 steps
            T = realize(DirectSum((DiagonalUnimodular((0.25,)), JordanBlock(0.5, 2))))
            atoms = iterate(T, np.array([1.0, -1.0, 1.0 + 0j]), 3000).points
        else:
            # groups that hold -0.0 and 0.0 in either column, and rows that
            # round to a signed zero
            rng = np.random.default_rng(12)
            base = np.array([-0.0, 0.0, 1e-13, -1e-13, 0.5, -0.5])
            atoms = rng.choice(base, size=(500, 2)) + 1j * rng.choice(base, size=(500, 2))
        reps, counts = _merge(atoms)
        ref_reps, ref_counts = unique_merge(atoms)
        assert counts.sum() == atoms.shape[0] and counts.size < atoms.shape[0]
        assert same_bits(reps, ref_reps) and np.array_equal(counts, ref_counts)

    def test_group_index_numbers_groups_as_unique(self):
        rng = np.random.default_rng(13)
        for width in (1, 2, 4):
            keys = rng.choice([-1.5, -0.0, 0.0, 0.25, 3.0], size=(400, width))
            _, inverse = np.unique(keys, axis=0, return_inverse=True)
            assert np.array_equal(_group_index(keys), inverse.ravel())

    def test_golden_ball_mass_approximates_arc(self):
        T = realize(DiagonalUnimodular((GOLDEN,)))
        orb = iterate(T, np.array([1.0 + 0j]), 10**5)
        mu = empirical_from_window(orb, 0, 10**5 - 1)
        mass = ball_mass(mu, np.array([1.0 + 0j]), 0.1)
        assert abs(mass - arc_mass(0.1)) < 5e-3


class TestBestBanachWindow:
    def test_multiples_of_four(self):
        # every window of 100 holds 25 multiples of four; the tie goes to m = 0
        R = FiniteNatSet.from_iterable(range(0, 1001, 4), 1000)
        assert upper_banach_density(R, 99).start == 0


class TestInvarianceDefect:
    def test_period_four_exactly_invariant(self):
        T, mu = quarter_rotation_measure()
        rng = np.random.default_rng(17)
        balls = [
            (np.array([np.exp(2j * np.pi * rng.uniform())]), rng.uniform(0.05, 2.5))
            for _ in range(25)
        ]
        assert invariance_defect(T, mu, balls) == 0.0

    def test_point_mass_moves_out(self):
        T = realize(DiagonalUnimodular((0.25,)))
        mu = EmpiricalMeasure.point_mass(np.array([1.0 + 0j]))
        assert invariance_defect(T, mu, [(np.array([1.0 + 0j]), 0.1)]) == 1.0

    def test_boundary_bound_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            T = realize(DiagonalUnimodular(tuple(rng.uniform(size=d))))
            orb = iterate(T, np.exp(2j * np.pi * rng.uniform(size=d)), 2000)
            N = int(rng.integers(20, 900))
            m = int(rng.integers(0, 2000 - N))
            mu = empirical_from_window(orb, m, N)
            balls = [
                (orb.points[rng.integers(0, 2000)], rng.uniform(0.05, 2.0))
                for _ in range(4)
            ]
            assert invariance_defect(T, mu, balls) <= 2.0 / (N + 1)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(29)
        T = realize(DiagonalUnimodular(tuple(rng.uniform(size=2))))
        orb = iterate(T, np.exp(2j * np.pi * rng.uniform(size=2)), 500)
        mu = empirical_from_window(orb, 3, 200)
        balls = [
            (orb.points[rng.integers(0, 500)], rng.uniform(0.1, 1.5))
            for _ in range(4)
        ]
        assert invariance_defect(T, mu, balls) == pytest.approx(
            oracle_defect(T, mu, balls), abs=1e-12
        )

    @pytest.mark.parametrize("exact", [True, False])
    def test_shared_centers_match_per_ball_loop(self, exact):
        # balls share centers (the same array, and equal copies) and also
        # have distinct ones; the longer window spans three blocks of
        # invariance_defect's atoms, the last one partial
        rng = np.random.default_rng(37)
        T = unitary_jordan(rng, 3)
        x = np.array([1.0, 0.5j, -0.25, 1.0, 1.0 + 0j])
        for window_len in (2000, 2 * 4096 + 808):
            orb = iterate(T, x, window_len + 1000)
            mu = empirical_from_window(orb, 100, window_len)
            if not exact:
                mu = EmpiricalMeasure(mu.atoms, mu.weights)
            zero = np.zeros(5, dtype=complex)
            balls = [(x, eps) for eps in (0.1, 0.5, 1.0, 2.0)]
            balls += [(x.copy(), 0.75), (zero, 1.5), (zero.copy(), 3.0), (-zero, 2.5)]
            balls += [
                (orb.points[int(n)], float(rng.uniform(0.1, 2.0)))
                for n in rng.integers(0, window_len + 1000, 6)
            ]
            for k in range(1, len(balls) + 1):
                assert invariance_defect(T, mu, balls[:k]) == per_ball_defect(T, mu, balls[:k])
            assert invariance_defect(T, mu, balls) > 0

    def test_golden_window_small_defect(self):
        T = realize(DiagonalUnimodular((GOLDEN,)))
        orb = iterate(T, np.array([1.0 + 0j]), 10**4)
        mu = empirical_from_window(orb, 0, 10**4 - 1)
        balls = [(np.array([np.exp(2j * np.pi * t)]), 0.1) for t in (0.0, 0.3, 0.6)]
        assert invariance_defect(T, mu, balls) <= 2e-4

    def test_needs_balls(self):
        T, mu = quarter_rotation_measure()
        with pytest.raises(ValueError):
            invariance_defect(T, mu, [])


class TestMoments:
    def test_period_four_symmetry(self):
        _, mu = quarter_rotation_measure()
        mom = moments(mu)
        assert np.linalg.norm(mom.expectation) < 1e-14
        assert mom.second_moment == pytest.approx(1.0, abs=1e-13)

    def test_point_mass(self):
        x = np.array([3.0, 4.0j])
        mom = moments(EmpiricalMeasure.point_mass(x))
        assert np.array_equal(mom.expectation, x)
        assert mom.second_moment == 25.0

    def test_golden_window_expectation_small(self):
        T = realize(DiagonalUnimodular((GOLDEN,)))
        orb = iterate(T, np.array([1.0 + 0j]), 10**5)
        mu = empirical_from_window(orb, 0, 10**5 - 1)
        assert np.linalg.norm(moments(mu).expectation) <= 1e-3

    @pytest.mark.parametrize("d", [1, 6, 9])
    def test_blocks_equal_the_whole_array_form(self, d):
        # the squared norms are summed in blocks of atoms, across row_sums'
        # switch from column adds to numpy's pairwise sum at 8 columns
        rng = np.random.default_rng(38 + d)
        B = empmeasure._ROWS
        for k in (1, B - 1, B, B + 1, 2 * B + 3):
            wide = rng.normal(size=(k, d + 2)) + 1j * rng.normal(size=(k, d + 2))
            # weight on every atom, and weight only on the atoms at the
            # block edges, so that each of their squared norms shows
            sparse = np.zeros(k)
            sparse[[i for i in (0, B - 1, B, B + 1, k - 1) if i < k]] = 1.0
            for w in (rng.uniform(0.1, 1.0, size=k), sparse):
                mu = EmpiricalMeasure(wide[:, 1 : 1 + d], w / w.sum())
                want = float(mu.weights @ (np.abs(mu.atoms) ** 2).sum(axis=1))
                got = moments(mu)
                assert float(got.second_moment).hex() == want.hex(), k
                assert same_bits(got.expectation, mu.weights @ mu.atoms)


class TestCovariance:
    def test_period_four_scalar(self):
        _, mu = quarter_rotation_measure()
        cov = covariance(mu)
        assert abs(cov.entries[0, 0] - 1.0) < 1e-13

    def test_point_mass_at_zero(self):
        cov = covariance(EmpiricalMeasure.point_mass(np.zeros(2, dtype=complex)))
        assert np.array_equal(cov.entries, np.zeros((2, 2), dtype=complex))

    def test_two_atom_line(self):
        mu = EmpiricalMeasure(
            np.array([[1.0, 0.0], [-1.0, 0.0]], dtype=complex),
            np.array([0.5, 0.5]),
        )
        cov = covariance(mu)
        assert np.array_equal(cov.entries, np.diag([1.0, 0.0]).astype(complex))

    def test_trace_is_second_moment(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            k, d = int(rng.integers(2, 8)), int(rng.integers(1, 5))
            atoms = rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d))
            w = rng.uniform(0.1, 1.0, size=k)
            mu = EmpiricalMeasure(atoms, w / w.sum())
            assert covariance(mu).trace == pytest.approx(
                moments(mu).second_moment, rel=1e-12
            )

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 8, 12])
    def test_columns_equal_the_three_operand_einsum(self, d):
        # one einsum per column, against the conjugate of that coordinate
        # only, on contiguous atoms and on read-only window views of a
        # wider points array
        rng = np.random.default_rng(70 + d)
        for k in (1, 2, 7, 100, 4095, 4097, 8191, 8193, 20000, 100001):
            points = rng.normal(size=(k + 10, d + 3)) + 1j * rng.normal(size=(k + 10, d + 3))
            points.setflags(write=False)
            w = rng.uniform(0.1, 1.0, size=k)
            for atoms in (points[:k, :d].copy(), points[5 : 5 + k, 2 : 2 + d]):
                mu = EmpiricalMeasure(atoms, w / w.sum())
                s = np.einsum("k,ki,kj->ij", mu.weights, mu.atoms, mu.atoms.conj())
                assert same_bits(covariance(mu).entries, (s + s.conj().T) / 2), (k, d)

    def test_psd_validation(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(np.array([[-1.0 + 0j]]))
        with pytest.raises(ValueError):
            CovarianceMatrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


class TestConjugationInvariance:
    def test_unimodular_scalar(self):
        T = realize(DiagonalUnimodular((0.25,)))
        cov = CovarianceMatrix(np.array([[1.0 + 0j]]))
        assert conjugation_invariance_check(T, cov) < 1e-14

    def test_period_four_measure(self):
        T, mu = quarter_rotation_measure()
        assert conjugation_invariance_check(T, covariance(mu)) < 1e-14

    def test_moved_point_mass_defect(self):
        T = realize(DenseMatrix(((0.0, 1.0), (1.0, 0.0))))
        mu = EmpiricalMeasure.point_mass(np.array([1.0, 0.0], dtype=complex))
        # T e1 e1* T* = e2 e2*, frozen Frobenius distance sqrt(2)
        assert conjugation_invariance_check(T, covariance(mu)) == pytest.approx(
            math.sqrt(2.0)
        )

    def test_full_period_rational_rotations(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            q = int(rng.integers(2, 12))
            d = int(rng.integers(1, 4))
            angles = tuple(int(rng.integers(0, q)) / q for _ in range(d))
            T = realize(DiagonalUnimodular(angles))
            orb = iterate(T, np.exp(2j * np.pi * rng.uniform(size=d)), q)
            mu = empirical_from_window(orb, 0, q - 1)
            assert conjugation_invariance_check(T, covariance(mu)) <= 1e-10


class TestSupportSpanVsKernel:
    def test_line_in_c2(self):
        mu = EmpiricalMeasure(
            np.array([[1.0, 0.0], [-1.0, 0.0]], dtype=complex),
            np.array([0.5, 0.5]),
        )
        assert support_span_vs_kernel(mu, covariance(mu)) < 1e-10

    def test_full_circle_in_c1(self):
        _, mu = quarter_rotation_measure()
        assert support_span_vs_kernel(mu, covariance(mu)) < 1e-10

    def test_random_centered_three_atoms(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            atoms = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            w = rng.uniform(0.2, 1.0, size=3)
            w = w / w.sum()
            atoms = atoms - w @ atoms  # center
            mu = EmpiricalMeasure(atoms, w)
            cov = covariance(mu)
            # oracle: rank of the atom family equals the rank of S
            assert np.linalg.matrix_rank(atoms.T) == np.linalg.matrix_rank(
                cov.entries, tol=1e-10
            )
            assert support_span_vs_kernel(mu, cov) <= 1e-8


class TestBallMass:
    def test_open_euclidean_ball(self):
        atoms = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        mu = EmpiricalMeasure(atoms, np.array([0.5, 0.5]))
        center = np.zeros(2, dtype=complex)
        # both atoms at Euclidean distance 1, on the boundary of the unit ball
        assert ball_mass(mu, center, 1.001) == 1.0
        assert ball_mass(mu, center, 1.0) == 0.0
        assert ball_mass(mu, np.array([1.0, 0.5j]), 0.75) == 0.5


class TestPeakMemory:
    """The window, invariance and moment layers hold block-sized or
    column-sized temporaries: before their block passes, the window and the
    invariance defect added 18.3 and 26.9 MiB here, and covariance with
    moments 9.5 MiB (a conjugated copy of the window; moments alone took
    the moduli of every atom, 5.3 MiB)."""

    @pytest.fixture(scope="class")
    def window(self):
        T = unitary_jordan(np.random.default_rng(2), 4)
        x = np.array([1.0, 0.5j, -0.25, 1.0, 1.0, 1.0 + 0j])
        return T, x, iterate(T, x, 100_000)

    def test_empirical_from_window(self, window):
        _, _, orb = window
        assert added_peak(empirical_from_window, orb, 0, 100_000) <= 5 * 2**20

    def test_invariance_defect_two_centers(self, window):
        T, x, orb = window
        mu = empirical_from_window(orb, 0, 100_000)
        assert mu.n_atoms == 100_001
        balls = [(x, 0.5), (np.zeros(6, dtype=complex), 1.0), (x, 1.0)]
        assert added_peak(invariance_defect, T, mu, balls) <= 6 * 2**20

    def test_covariance_and_moments(self, window):
        _, _, orb = window
        mu = empirical_from_window(orb, 0, 100_000)
        assert mu.n_atoms == 100_001
        assert added_peak(lambda: (covariance(mu), moments(mu))) <= 3 * 2**20
