"""Tests for recurrence classification and the theorem desk checks.

Oracles: the analytic arc-length mass of a rotation ball, period-4 evaluation
of |i^n - 1|, and a plain scalar loop recomputing simultaneous-rotation
return sets and their gaps.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from recurlab import (
    DenseMatrix,
    DiagonalUnimodular,
    DirectSum,
    JordanBlock,
    Scale,
    Thresholds,
    birkhoff_frequent_check,
    classify_vector,
    default_epsilon_grid,
    eigen_span_check,
    eigen_span_entry,
    inverse_recurrence_check,
    iterate,
    product_recurrence_check,
    realize,
    unimodular_return_set,
)
from recurlab.classify import FLAG_ORDER
from recurlab.errors import InsufficientHorizonError

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
MIX = DirectSum((DiagonalUnimodular((0.25,)), Scale(0.5, DenseMatrix(((1.0,),)))))
SWAP = DenseMatrix(((0.0, 1.0), (1.0, 0.0)))


def arc_mass(epsilon):
    return (2.0 / math.pi) * math.asin(epsilon / 2.0)


def oracle_rotation_returns(angles, epsilon, horizon):
    """Scalar-loop recomputation of {n : max_i |lambda_i^n - 1| < eps}."""
    lams = [complex(math.cos(2 * math.pi * a), math.sin(2 * math.pi * a))
            for a in angles]
    zs = [1.0 + 0j] * len(lams)
    hits = [0]
    for n in range(1, horizon + 1):
        zs = [z * lam for z, lam in zip(zs, lams)]
        if max(abs(z - 1) for z in zs) < epsilon:
            hits.append(n)
    return hits


def assert_cascade(flags):
    order = list(FLAG_ORDER)
    for weaker, stronger in zip(order, order[1:]):
        assert flags[stronger] <= flags[weaker], flags


class TestThresholds:
    def test_scaling(self):
        th = Thresholds()
        assert th.gap_max(10_000) == 100
        assert th.window_len(10_000) == 100
        assert th.min_horizon == 10_000

    def test_json_round_trip(self):
        th = Thresholds(delta_lower=1e-4, min_horizon=5000)
        again = Thresholds.from_json_dict(json.loads(json.dumps(th.to_json_dict())))
        assert again == th

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            Thresholds.from_json_dict({"delta_low": 1e-3})


class TestClassifyVector:
    def test_quarter_rotation_exact(self):
        T = realize(DiagonalUnimodular((0.25,)))
        rep = classify_vector(T, np.array([1.0 + 0j]), epsilons=[0.5], horizon=10_000)
        rec = rep.records[0]
        assert rec.lower.value == Fraction(2501, 10_001)
        assert rec.gap == 4 and rec.first_return == 4
        assert all(rec.flags.values())
        assert all(rep.vector_flags.values())

    def test_golden_rotation_all_flags_and_arc_density(self):
        T = realize(DiagonalUnimodular((GOLDEN,)))
        rep = classify_vector(T, np.array([1.0 + 0j]), epsilons=[0.1], horizon=10**6)
        rec = rep.records[0]
        assert all(rec.flags.values())
        for est in (rec.lower.value, rec.lower.running, rec.upper.running):
            assert abs(float(est) - arc_mass(0.1)) < 5e-3
        assert rep.bounded.bounded_at_horizon

    def test_jordan_not_recurrent_at_short_horizon(self):
        # the stated minimum horizon is threshold data, so a desk check at
        # H = 1000 lowers it explicitly
        T = realize(JordanBlock(1.0, 2))
        th = Thresholds(min_horizon=1000)
        for eps in (0.9, 0.5, 0.1):
            rep = classify_vector(
                T, np.array([0.0, 1.0], dtype=complex),
                epsilons=[eps], horizon=1000, thresholds=th,
            )
            assert not rep.records[0].flags["recurrent"]
            assert not any(rep.vector_flags.values())

    def test_insufficient_horizon(self):
        T = realize(DiagonalUnimodular((0.25,)))
        with pytest.raises(InsufficientHorizonError):
            classify_vector(T, np.array([1.0 + 0j]), epsilons=[0.5], horizon=1000)

    def test_default_grid_geometric(self):
        grid = default_epsilon_grid(2.0, count=3)
        assert grid == (1.0, 0.5, 0.25)
        with pytest.raises(ValueError):
            default_epsilon_grid(0.0)

    def test_vector_flags_are_conjunctions(self):
        T = realize(DiagonalUnimodular((GOLDEN,)))
        x = np.array([1.0 + 0j])
        # the closest approach of this rotation within 10^4 steps is ~4e-4,
        # so the small radius is never reached while the large one is syndetic
        rep = classify_vector(T, x, epsilons=[0.5, 1e-8], horizon=10_000)
        by_eps = {rec.epsilon: rec.flags for rec in rep.records}
        assert by_eps[0.5]["uniformly"]
        assert not by_eps[1e-8]["recurrent"]
        for name in FLAG_ORDER:
            assert rep.vector_flags[name] == (
                by_eps[0.5][name] and by_eps[1e-8][name]
            )

    def test_cascade_holds_on_random_triples(self):
        rng = np.random.default_rng(0xA11)
        for _ in range(25):
            d = int(rng.integers(1, 5))
            T = realize(DiagonalUnimodular(tuple(rng.uniform(size=d))))
            x = np.exp(2j * np.pi * rng.uniform(size=d))
            eps = float(rng.uniform(0.05, 1.2))
            rep = classify_vector(T, x, epsilons=[eps], horizon=10_000)
            assert_cascade(rep.records[0].flags)
            assert_cascade(rep.vector_flags)

    def test_report_json_shape(self):
        T = realize(DiagonalUnimodular((0.25,)))
        rep = classify_vector(T, np.array([1.0 + 0j]), epsilons=[0.5], horizon=10_000)
        doc = rep.to_json_dict()
        assert set(doc) == {
            "vector_id", "dim", "horizon_requested", "horizon_effective",
            "overflow", "bounded", "eigen_span_residual", "thresholds",
            "epsilon_records", "vector_flags",
        }
        rec = doc["epsilon_records"][0]
        assert rec["lower"]["value"]["rational"] == "2501/10001"
        assert rep.record_for(0.5) is rep.records[0]
        with pytest.raises(KeyError):
            rep.record_for(0.75)


class TestBirkhoffCheck:
    def test_period_four_exact_quarter(self):
        T = realize(DiagonalUnimodular((0.25,)))
        rep = birkhoff_frequent_check(T, np.array([1.0 + 0j]), 0.5, 9999)
        assert rep.density == Fraction(1, 4)
        assert rep.window_mass == 0.25
        assert rep.discrepancy == 0.0

    def test_fixed_point(self):
        T = realize(DenseMatrix(((1.0,),)))
        rep = birkhoff_frequent_check(T, np.array([1.0 + 0j]), 0.5, 5000)
        assert rep.density == 1 and rep.window_mass == 1.0

    def test_golden_small_discrepancy(self):
        T = realize(DiagonalUnimodular((GOLDEN,)))
        rep = birkhoff_frequent_check(T, np.array([1.0 + 0j]), 0.1, 10**5)
        assert abs(float(rep.density) - arc_mass(0.1)) < 5e-3
        assert abs(rep.window_mass - arc_mass(0.1)) < 5e-3
        assert rep.discrepancy < 5e-3


class TestEigenSpanCheck:
    def test_pure_eigenvector_both_directions(self):
        T = realize(MIX)
        rep = eigen_span_check(
            T, [np.array([1.0, 0.0], dtype=complex)],
            horizon=10_000, epsilons=[0.5, 0.25],
        )
        entry = rep.entries[0]
        assert entry.uniformly and entry.in_span and entry.residual < 1e-12
        assert rep.all_ok

    def test_decaying_component_is_consistent(self):
        T = realize(MIX)
        rep = eigen_span_check(
            T, [np.array([1.0, 1.0], dtype=complex)],
            horizon=10_000, epsilons=[0.25, 0.1],
        )
        entry = rep.entries[0]
        assert not entry.uniformly and not entry.reiteratively_bounded
        assert entry.residual == pytest.approx(1.0, abs=1e-12)
        assert not entry.in_span
        assert rep.all_ok  # both implications hold vacuously

    def test_swap_sum_of_eigenvectors(self):
        T = realize(SWAP)
        rep = eigen_span_check(
            T, [np.array([1.0, 0.0], dtype=complex)],
            horizon=10_000, epsilons=[0.5],
        )
        entry = rep.entries[0]
        assert entry.uniformly and entry.residual < 1e-12
        assert rep.all_ok

    def test_span_implies_uniform_on_unitary_battery(self):
        rng = np.random.default_rng(0xE1)
        for _ in range(10):
            d = int(rng.integers(1, 3))
            T = realize(DiagonalUnimodular(tuple(rng.uniform(size=d))))
            vecs = [np.exp(2j * np.pi * rng.uniform(size=d))]
            rng.uniform(size=d)  # keep the draw sequence of the sized battery
            # the largest simultaneous-return gap in this battery is 1053, so
            # a horizon of 2e5 puts every draw inside the 1% gap bound
            rep = eigen_span_check(
                T, vecs, horizon=200_000, epsilons=[0.3, 0.5]
            )
            for entry in rep.entries:
                assert entry.in_span          # unitary diagonal: whole space
                assert entry.uniformly
            assert rep.all_ok


class TestUnimodularReturnSet:
    def test_quarter_turn_frozen(self):
        rep = unimodular_return_set([0.25], 0.5, 1000)
        assert rep.return_set.elements[:5] == (0, 4, 8, 12, 16)
        assert len(rep.return_set) == 251
        assert rep.gap == 4

    def test_golden_matches_scalar_oracle(self):
        rep = unimodular_return_set([GOLDEN], 0.3, 10**5)
        hits = oracle_rotation_returns([GOLDEN], 0.3, 10**5)
        assert list(rep.return_set.elements) == hits
        gaps = [b - a for a, b in zip(hits, hits[1:])]
        assert rep.gap == max(max(gaps), hits[0], 10**5 - hits[-1]) == 13

    def test_pair_probes_all_hit(self):
        rep = unimodular_return_set([0.25, GOLDEN], 0.3, 10**5)
        assert len(rep.return_set) > 0
        assert all(p.hit for p in rep.probes)
        labels = [p.label for p in rep.probes]
        assert sum(l.startswith("block_span") for l in labels) == 3
        assert sum(l.startswith("ap_step") for l in labels) == 3
        assert sum(l.startswith("random") for l in labels) == 2

    def test_three_angles_probes_all_hit(self):
        rep = unimodular_return_set([0.25, GOLDEN, math.sqrt(2.0) - 1.0], 0.3, 10**5)
        assert len(rep.return_set) > 0
        assert all(p.hit for p in rep.probes)

    def test_block_probe_consistent_with_gap(self):
        # the first positive return is at most the gap, so every block
        # probe spanning [1, gap + 1] must hit
        rep = unimodular_return_set([GOLDEN, 0.3141], 0.4, 20_000)
        positives = [n for n in rep.return_set.elements if n > 0]
        assert positives[0] <= rep.gap + 1

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            unimodular_return_set([0.25], 0.0, 100)


class TestProductRecurrence:
    def test_quarter_and_half_turn_lcm(self):
        T1 = realize(DiagonalUnimodular((0.25,)))
        T2 = realize(DiagonalUnimodular((0.5,)))
        one = np.array([1.0 + 0j])
        rep = product_recurrence_check(T1, one, T2, one, 0.5, 10_000)
        assert rep.return_sets_match
        assert rep.sum_return.elements[:4] == (0, 4, 8, 12)
        assert rep.intersection_density == Fraction(
            len(rep.sum_return), 10_001
        )

    def test_fixed_second_factor(self):
        T1 = realize(DiagonalUnimodular((GOLDEN,)))
        T2 = realize(DenseMatrix(((1.0,),)))
        one = np.array([1.0 + 0j])
        rep = product_recurrence_check(T1, one, T2, one, 0.3, 10_000)
        assert rep.return_sets_match
        assert rep.sum_return.elements == rep.part1_return.elements

    def test_golden_pair_density(self):
        T1 = realize(DiagonalUnimodular((GOLDEN,)))
        T2 = realize(DiagonalUnimodular((GOLDEN / 2.0,)))
        one = np.array([1.0 + 0j])
        rep = product_recurrence_check(T1, one, T2, one, 0.2, 10**6)
        assert rep.return_sets_match
        assert float(rep.intersection_density) >= 0.5 * arc_mass(0.2) ** 2
        assert rep.reiterative_parts_imply_frequent_sum

    def test_exact_intersection_random_rotations(self):
        rng = np.random.default_rng(0xBEEF)
        for _ in range(10):
            d1, d2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            T1 = realize(DiagonalUnimodular(tuple(rng.uniform(size=d1))))
            T2 = realize(DiagonalUnimodular(tuple(rng.uniform(size=d2))))
            x1 = np.exp(2j * np.pi * rng.uniform(size=d1))
            x2 = np.exp(2j * np.pi * rng.uniform(size=d2))
            eps = float(rng.uniform(0.2, 0.8))
            rep = product_recurrence_check(T1, x1, T2, x2, eps, 10_000)
            assert rep.return_sets_match
            inter = rep.part1_return.as_set() & rep.part2_return.as_set()
            assert rep.sum_return.as_set() == inter


class TestInverseRecurrence:
    def test_rotation_conjugate_identical(self):
        T = realize(DiagonalUnimodular((GOLDEN,)))
        rep = inverse_recurrence_check(
            T, np.array([1.0 + 0j]), [0.5, 0.3, 0.1], 10_000
        )
        assert rep.return_sets_identical
        assert rep.flags_match

    def test_two_angle_diagonal(self):
        T = realize(DiagonalUnimodular((0.25, GOLDEN)))
        x = np.exp(2j * np.pi * np.array([0.15, 0.65]))
        rep = inverse_recurrence_check(T, x, [0.5, 0.25], 10_000)
        assert rep.return_sets_identical
        assert rep.flags_match

    def test_jordan_fixed_point(self):
        T = realize(JordanBlock(1.0, 2))
        rep = inverse_recurrence_check(
            T, np.array([1.0, 0.0], dtype=complex), [0.5], 10_000
        )
        assert rep.return_sets_identical
        assert len(rep.forward.records[0].flags) == 5
        assert all(rep.forward.vector_flags.values())
        assert all(rep.backward.vector_flags.values())


def _checks_without_and_with_orbits(check):
    """(report computed by the check itself, report from precomputed orbits)."""
    H, eps = 10_000, [0.5, 0.25]
    T = realize(MIX)
    x = np.array([1.0, 1.0], dtype=complex)
    orb = iterate(T, x, H)
    if check == "birkhoff":
        return (
            birkhoff_frequent_check(T, x, eps[1], H),
            birkhoff_frequent_check(T, x, eps[1], H, orbit=orb),
        )
    if check == "inverse":
        return (
            inverse_recurrence_check(T, x, eps, H),
            inverse_recurrence_check(T, x, eps, H, orbit=orb),
        )
    if check == "product":
        # the sum orbit comes from the realized sum spec, as in the cli
        parts = (SWAP, DiagonalUnimodular((GOLDEN,)))
        T1, T2 = (realize(p) for p in parts)
        x1, x2 = np.array([1.0, 0.5j]), np.array([1.0 + 0j])
        orbits = (
            iterate(T1, x1, H),
            iterate(T2, x2, H),
            iterate(realize(DirectSum(parts)), np.concatenate([x1, x2]), H),
        )
        return (
            product_recurrence_check(T1, x1, T2, x2, eps[0], H),
            product_recurrence_check(T1, x1, T2, x2, eps[0], H, orbits=orbits),
        )
    assert check == "eigen_span_entry"
    rep = classify_vector(T, x, epsilons=eps, horizon=H, orbit=orb)
    return (
        eigen_span_check(T, [x], horizon=H, epsilons=eps).entries[0],
        eigen_span_entry(rep, "v0"),
    )


class TestPrecomputedOrbits:
    @pytest.mark.parametrize(
        "check", ["birkhoff", "inverse", "product", "eigen_span_entry"]
    )
    def test_report_unchanged(self, check):
        plain, shared = _checks_without_and_with_orbits(check)
        assert plain == shared


class TestDeskProperties:
    def test_reiterative_implies_frequent_on_unitary_battery(self):
        rng = np.random.default_rng(0xD5)
        checked = 0
        for k in range(20):
            d = int(rng.integers(1, 3))
            if k % 3 == 0:
                qs = rng.integers(2, 13, size=d)
                angles = tuple(int(rng.integers(1, q)) / int(q) for q in qs)
            else:
                angles = tuple(rng.uniform(size=d))
            T = realize(DiagonalUnimodular(angles))
            x = np.exp(2j * np.pi * rng.uniform(size=d))
            rep = classify_vector(T, x, epsilons=[0.3, 0.5], horizon=20_000)
            for rec in rep.records:
                if rec.flags["reiteratively"]:
                    checked += 1
                    assert rec.flags["frequently"]
        assert checked > 10  # the battery must exercise the implication

    def test_uniform_implies_span_residual(self):
        rng = np.random.default_rng(0xD6)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            T = realize(DiagonalUnimodular(tuple(rng.uniform(size=d))))
            x = np.exp(2j * np.pi * rng.uniform(size=d))
            rep = classify_vector(T, x, epsilons=[0.4], horizon=20_000)
            if rep.vector_flags["uniformly"]:
                assert rep.eigen_span_residual <= 1e-6
