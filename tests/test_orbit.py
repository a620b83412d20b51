"""Tests for orbit iteration, return sets, and boundedness.

Oracles: closed-form orbits (Jordan block powers, exact dyadic decay) and the
period-4 evaluation of |i^n - 1|. The bitwise pushforward identity
``points[n+1] == T.apply(points[n])`` is the load-bearing property here.
"""

import csv
import math

import numpy as np
import pytest

from recurlab import (
    DenseMatrix,
    DiagonalUnimodular,
    DirectSum,
    JordanBlock,
    Scale,
    boundedness,
    direct_sum,
    iterate,
    orbit_to_csv,
    realize,
    return_set,
    syndetic_gap,
)
from recurlab.errors import DimensionError
from recurlab.linop import LinearOperator

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def oracle_jordan_orbit(horizon):
    """Closed form: [[1,1],[0,1]]^n e2 = (n, 1)."""
    return np.array([[n, 1] for n in range(horizon + 1)], dtype=complex)


def oracle_quarter_rotation_returns(horizon, epsilon):
    """|i^n - 1| cycles through 0, sqrt2, 2, sqrt2."""
    pattern = [0.0, math.sqrt(2.0), 2.0, math.sqrt(2.0)]
    return tuple(n for n in range(horizon + 1) if pattern[n % 4] < epsilon)


class TestIterate:
    def test_quarter_rotation_period_four(self):
        T = realize(DiagonalUnimodular((0.25,)))
        orb = iterate(T, np.array([1.0 + 0j]), 8)
        expected = np.array([[1], [1j], [-1], [-1j], [1], [1j], [-1], [-1j], [1]])
        assert np.allclose(orb.points, expected, atol=1e-14)
        assert orb.horizon_effective == 8 and not orb.overflow

    def test_jordan_closed_form_exact(self):
        T = realize(JordanBlock(1.0, 2))
        orb = iterate(T, np.array([0.0, 1.0], dtype=complex), 10)
        assert np.array_equal(orb.points, oracle_jordan_orbit(10))
        assert np.allclose(orb.norms, np.hypot(np.arange(11), 1.0))

    def test_dyadic_decay_exact(self):
        T = realize(Scale(0.5, DenseMatrix(((1.0,),))))
        orb = iterate(T, np.array([1.0 + 0j]), 50)
        assert np.array_equal(orb.norms, 2.0 ** -np.arange(51, dtype=float))
        assert not orb.overflow

    def test_pushforward_identity_bitwise(self):
        rng = np.random.default_rng(0xF00D)
        specs = [
            DiagonalUnimodular(tuple(rng.uniform(size=3))),
            DenseMatrix(tuple(map(tuple, rng.normal(size=(3, 3))
                                  + 1j * rng.normal(size=(3, 3))))),
            DirectSum((DiagonalUnimodular((GOLDEN,)),
                       DenseMatrix(((0.0, 1.0), (1.0, 0.0))))),
        ]
        for spec in specs:
            T = realize(spec)
            x = rng.normal(size=T.dim) + 1j * rng.normal(size=T.dim)
            if T.power_bound_estimate > 10:
                x = x / T.power_bound_estimate  # stay clear of the overflow cap
            orb = iterate(T, x, 200)
            for n in range(orb.horizon_effective):
                assert np.array_equal(orb.points[n + 1], T.apply(orb.points[n]))

    def test_overflow_truncates(self):
        T = realize(Scale(2.0, DenseMatrix(((1.0,),))))
        orb = iterate(T, np.array([1.0 + 0j]), 100)
        assert orb.overflow
        # 2^40 is the first norm past the 1e12 cap
        assert orb.horizon_effective == 39
        assert orb.norms[-1] == 2.0**39
        assert orb.points.shape[0] == 40

    def test_overflow_stops_iterating_near_the_cap(self, monkeypatch):
        T = realize(Scale(1.001, DiagonalUnimodular((0.25,))))
        x = np.array([1.0 + 0j])
        # plain reference loop, truncated at the first point past the cap
        ref = [x]
        while T.norm_of(ref[-1]) <= 1e12:
            ref.append(T.apply(ref[-1]))
        ref = np.array(ref[:-1])
        calls = []
        apply = LinearOperator.apply
        monkeypatch.setattr(
            LinearOperator, "apply", lambda self, v: calls.append(1) or apply(self, v)
        )
        orb = iterate(T, x, 10**6)
        monkeypatch.undo()
        assert orb.overflow
        assert orb.horizon_effective == ref.shape[0] - 1 == 27644
        assert np.array_equal(orb.points, ref)
        assert np.array_equal(orb.norms, T.block_norms(ref))
        # the loop stops at the periodic check after the cap, not at inf
        assert len(calls) <= orb.horizon_effective + 257

    def test_overflow_to_inf_is_silent(self):
        # 1e10^k passes the cap at k = 2 and reaches inf before the first
        # periodic check; the suite turns numpy's warnings into errors
        T = realize(Scale(1e10, DenseMatrix(((1.0,),))))
        orb = iterate(T, np.array([1.0 + 0j]), 1000)
        assert orb.overflow and orb.horizon_effective == 1

    def test_base_beyond_cap_rejected(self):
        T = realize(DenseMatrix(((1.0,),)))
        with pytest.raises(ValueError):
            iterate(T, np.array([2e12 + 0j]), 10)

    def test_shape_validation(self):
        T = realize(DenseMatrix(((1.0,),)))
        with pytest.raises(DimensionError):
            iterate(T, np.array([1.0, 2.0], dtype=complex), 5)
        with pytest.raises(ValueError):
            iterate(T, np.array([1.0 + 0j]), -1)

    def test_direct_sum_metric_norms(self):
        T = direct_sum([realize(DiagonalUnimodular((0.25,))),
                        realize(DiagonalUnimodular((GOLDEN,)))])
        x = np.array([3.0, 4.0], dtype=complex)
        orb = iterate(T, x, 20)
        assert np.allclose(orb.norms, 4.0, atol=1e-12)  # max(|3|, |4|)


class TestReturnSet:
    def test_quarter_rotation_multiples_of_four(self):
        T = realize(DiagonalUnimodular((0.25,)))
        orb = iterate(T, np.array([1.0 + 0j]), 1000)
        R = return_set(orb, 0.5)
        assert R.elements == oracle_quarter_rotation_returns(1000, 0.5)
        assert R.elements[:5] == (0, 4, 8, 12, 16)

    def test_large_epsilon_full_set(self):
        T = realize(DiagonalUnimodular((GOLDEN,)))
        orb = iterate(T, np.array([1.0 + 0j]), 300)
        R = return_set(orb, 4.1)  # beyond the diameter of the orbit
        assert len(R) == 301

    def test_jordan_only_time_zero(self):
        T = realize(JordanBlock(1.0, 2))
        orb = iterate(T, np.array([0.0, 1.0], dtype=complex), 500)
        assert return_set(orb, 0.5).elements == (0,)

    def test_zero_always_in(self):
        rng = np.random.default_rng(2)
        T = realize(DiagonalUnimodular(tuple(rng.uniform(size=2))))
        orb = iterate(T, rng.normal(size=2) + 0j, 50)
        for eps in (1e-6, 0.1, 1.0):
            assert 0 in return_set(orb, eps)

    def test_nested_in_epsilon(self):
        rng = np.random.default_rng(4)
        T = realize(DiagonalUnimodular(tuple(rng.uniform(size=3))))
        orb = iterate(T, np.exp(2j * np.pi * rng.uniform(size=3)), 2000)
        smaller = return_set(orb, 0.2)
        larger = return_set(orb, 0.6)
        assert smaller.as_set() <= larger.as_set()

    def test_epsilon_positive(self):
        T = realize(DenseMatrix(((1.0,),)))
        orb = iterate(T, np.array([1.0 + 0j]), 5)
        with pytest.raises(ValueError):
            return_set(orb, 0.0)

    def test_nan_epsilon_rejected(self):
        T = realize(DiagonalUnimodular((GOLDEN,)))
        orb = iterate(T, np.array([1.0 + 0j]), 5)
        with pytest.raises(ValueError):
            return_set(orb, float("nan"))


@pytest.fixture(scope="module", params=[0.618034, 0.41421356])
def rotation_orbit(request):
    T = realize(DiagonalUnimodular((request.param,)))
    return iterate(T, np.array([1.0 + 0j]), 10**6)


class TestThreeGapOracle:
    """Slater's three-gap theorem for return times (N. B. Slater, "Gaps and
    steps for the sequence n theta mod 1", Proc. Camb. Phil. Soc. 1967).

    The epsilon-ball around the base point of a single rotation is an arc, so
    the gaps between consecutive return times take at most three values, and
    when there are three the largest is the sum of the other two.
    """

    @pytest.mark.parametrize("epsilon", [0.05, 0.25, 0.5, 1.0, 1.9])
    def test_gaps(self, rotation_orbit, epsilon):
        R = return_set(rotation_orbit, epsilon)
        times = R.elements
        gaps = sorted({b - a for a, b in zip(times, times[1:])})
        assert 1 <= len(gaps) <= 3
        if len(gaps) == 3:
            assert gaps[2] == gaps[0] + gaps[1]
        assert syndetic_gap(R) == gaps[-1]


class TestBoundedness:
    def test_rotation_flat(self):
        T = realize(DiagonalUnimodular((GOLDEN,)))
        orb = iterate(T, np.array([1.0 + 0j]), 500)
        rep = boundedness(orb)
        assert rep.bounded_at_horizon
        assert abs(rep.sup_norm - 1.0) < 1e-12
        assert not rep.growth_detected

    def test_jordan_growth_detected(self):
        T = realize(JordanBlock(1.0, 2))
        orb = iterate(T, np.array([0.0, 1.0], dtype=complex), 100)
        rep = boundedness(orb)
        assert rep.bounded_at_horizon  # no overflow at this horizon
        assert rep.sup_norm == pytest.approx(math.hypot(100.0, 1.0))
        assert rep.growth_detected

    def test_decay_bounded(self):
        T = realize(Scale(0.5, DenseMatrix(((1.0,),))))
        orb = iterate(T, np.array([1.0 + 0j]), 60)
        rep = boundedness(orb)
        assert rep.bounded_at_horizon and rep.sup_norm == 1.0
        assert not rep.growth_detected

    def test_explicit_bound(self):
        T = realize(JordanBlock(1.0, 2))
        orb = iterate(T, np.array([0.0, 1.0], dtype=complex), 100)
        assert boundedness(orb, bound=200.0).bounded_at_horizon
        assert not boundedness(orb, bound=50.0).bounded_at_horizon

    def test_overflow_not_bounded(self):
        T = realize(Scale(2.0, DenseMatrix(((1.0,),))))
        orb = iterate(T, np.array([1.0 + 0j]), 100)
        assert not boundedness(orb).bounded_at_horizon


class TestOrbitCsv:
    def test_round_trip(self, tmp_path):
        T = realize(DiagonalUnimodular((0.25,)))
        orb = iterate(T, np.array([1.0 + 0j]), 7)
        path = tmp_path / "orbit.csv"
        orbit_to_csv(orb, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "re_0", "im_0", "norm"]
        assert len(rows) == 9
        assert float(rows[1][1]) == 1.0 and float(rows[1][2]) == 0.0
        # row for n=2 holds the point -1
        assert float(rows[3][1]) == pytest.approx(-1.0, abs=1e-14)
