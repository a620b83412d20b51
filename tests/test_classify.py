"""Tests for recurrence classification and the theorem desk checks.

Oracles: the analytic arc-length mass of a rotation ball, period-4 evaluation
of |i^n - 1|, and a plain scalar loop recomputing simultaneous-rotation
return sets and their gaps.
"""

import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recurlab.cli
from recurlab import (
    DenseMatrix,
    DiagonalUnimodular,
    DirectSum,
    FiniteNatSet,
    Inverse,
    JordanBlock,
    Power,
    Scale,
    Thresholds,
    birkhoff_frequent_check,
    classify_vector,
    direct_sum,
    eigen_span_entry,
    empirical_from_window,
    inverse_recurrence_check,
    iterate,
    iterate_many,
    lower_density,
    product_recurrence_check,
    realize,
    return_set,
    syndetic_gap,
    unimodular_return_set,
    upper_banach_density,
    upper_density,
)
from recurlab.classify import (
    _ROWS,
    FLAG_ORDER,
    epsilon_record,
)
from recurlab.cli import _eigen_span_payload, load_config, run_config
from recurlab.errors import EmptySetError, InsufficientHorizonError
from recurlab.linop import block_norms

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


def product_check(T1, x1, T2, x2, epsilon, horizon):
    """The product check on x1 under T1, x2 under T2 and x1 + x2 under their
    sum, then the return sets of part 1, part 2 and the sum, each read off
    its orbit and cut at the sum's horizon."""
    cases = ((T1, x1), (T2, x2), (direct_sum([T1, T2]), np.concatenate([x1, x2])))
    reports = [classify_vector(T, x, epsilons=[epsilon], horizon=horizon) for T, x in cases]
    h = reports[2].horizon_effective
    sets = (
        FiniteNatSet(np.flatnonzero(r.orbit.inside(epsilon)[: h + 1]), h) for r in reports
    )
    return product_recurrence_check(*reports, epsilon), *sets


def inverse_check(T, x, epsilons, horizon):
    """The inverse check on x under T and under the realized T^-1."""
    forward, backward = (
        classify_vector(S, x, epsilons=epsilons, horizon=horizon)
        for S in (T, realize(Inverse(T.spec)))
    )
    return inverse_recurrence_check(forward, backward)


def span_check(T, vectors, horizon, epsilons):
    """The eigenvector-span check on a battery of vectors classified under T:
    one entry per vector, ``v0``, ``v1``, ... in battery order, and the
    check's verdict ``all_ok`` as the batch runner builds it."""
    reports = [classify_vector(T, v, epsilons=epsilons, horizon=horizon) for v in vectors]
    entries = [eigen_span_entry(rep, f"v{i}") for i, rep in enumerate(reports)]
    return SimpleNamespace(entries=entries, all_ok=_eigen_span_payload(entries)["all_ok"])


def assert_cascade(flags):
    order = list(FLAG_ORDER)
    for weaker, stronger in zip(order, order[1:]):
        assert flags[stronger] <= flags[weaker], flags


def _bool_array(bits):
    return np.array(bits, dtype=bool)


def _periodic(pattern, horizon):
    return (pattern * (horizon // len(pattern) + 1))[: horizon + 1]


def _seeded(horizon, seed, p):
    return np.random.default_rng(seed).random(horizon + 1) < p


_SMALL_HORIZONS = st.integers(min_value=1, max_value=64)

# Return-time masks over [0, h]: arbitrary ones for h = 1..64, the all-in
# mask and the mask holding only n = 0, periodic masks (whose prefix ratios
# and window counts tie over and over), and seeded random ones near h = 10^4.
MASKS = st.one_of(
    _SMALL_HORIZONS.flatmap(
        lambda h: st.lists(st.booleans(), min_size=h + 1, max_size=h + 1)
    ).map(_bool_array),
    _SMALL_HORIZONS.map(lambda h: np.ones(h + 1, dtype=bool)),
    _SMALL_HORIZONS.map(lambda h: np.arange(h + 1) == 0),
    st.builds(
        _periodic, st.lists(st.booleans(), min_size=1, max_size=6), _SMALL_HORIZONS
    ).map(_bool_array),
    st.builds(
        _seeded,
        st.integers(min_value=9_990, max_value=10_010),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.0, 0.001, 0.3, 0.9, 1.0]),
    ),
)

_UNIT = st.floats(min_value=0.0, max_value=1.0)

# window_fraction 1.0 makes the Banach window the whole horizon
THRESHOLDS = st.builds(
    Thresholds,
    delta_lower=_UNIT,
    delta_upper=_UNIT,
    delta_banach=_UNIT,
    gap_fraction=_UNIT,
    window_fraction=st.one_of(st.just(1.0), _UNIT),
)

PROPERTY_SETTINGS = settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)


def oracle_record(mask, window_len):
    """Plain-Python prefix counts: the running extremes as exact Fractions,
    the first maximizing Banach window, and the largest gap."""
    h = len(mask) - 1
    counts = list(itertools.accumulate(int(b) for b in mask))
    ratios = [Fraction(counts[n], n + 1) for n in range(h // 10, h + 1)]
    before = [0] + counts
    windows = [before[m + window_len + 1] - before[m] for m in range(h - window_len + 1)]
    best = max(windows)
    members = [n for n in range(h + 1) if mask[n]]
    bounds = [0] + members + [h]
    gap = max(b - a for a, b in zip(bounds, bounds[1:]))
    return (
        min(ratios),
        max(ratios),
        Fraction(best, window_len + 1),
        windows.index(best),
        gap,
    )


class TestOnePassRecord:
    """``epsilon_record`` reads a mask in one prefix-count pass; the library
    path builds a FiniteNatSet and calls each density function on it."""

    @PROPERTY_SETTINGS
    @given(MASKS, THRESHOLDS)
    def test_record_equals_finite_nat_set_path(self, mask, thresholds):
        h = mask.size - 1
        R = FiniteNatSet(np.flatnonzero(mask), h)
        if not len(R):
            with pytest.raises(EmptySetError):
                syndetic_gap(R)
            with pytest.raises(EmptySetError):
                epsilon_record(mask, thresholds, 0.5)
            return
        rec = epsilon_record(mask, thresholds, 0.5)
        assert rec.window_len == thresholds.window_len(h)
        assert rec.lower == lower_density(R, h)
        assert rec.upper == upper_density(R, h)
        assert rec.banach == upper_banach_density(R, rec.window_len)
        fractions = (*rec.lower, *rec.upper, rec.banach.ratio)
        assert all(type(f) is Fraction for f in fractions)
        assert rec.gap == syndetic_gap(R)
        assert rec.return_count == len(R)
        positive = R.array[R.array >= 1]
        assert rec.first_return == (int(positive[0]) if positive.size else None)
        assert all(type(v) is int for v in (rec.banach.start, rec.gap, rec.return_count))

        low, high, ratio, start, gap = oracle_record(mask.tolist(), rec.window_len)
        assert (rec.lower.running, rec.upper.running) == (low, high)
        assert rec.lower.value == rec.upper.value == Fraction(len(R), h + 1)
        assert rec.banach == (ratio, start)
        assert rec.gap == gap

    @PROPERTY_SETTINGS
    @given(
        MASKS,
        THRESHOLDS,
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.0, 0.01, 0.5]),
    )
    def test_cascade_is_monotone(self, mask, thresholds, seed, p):
        """Each record's flags hold down the cascade, and growing the return
        set (a larger ball) never clears a flag."""
        mask[0] = True  # every orbit starts in its own ball
        grown = mask | _seeded(mask.size - 1, seed, p)
        rec, wider = (epsilon_record(m, thresholds, 0.5) for m in (mask, grown))
        assert_cascade(rec.flags)
        assert_cascade(wider.flags)
        for name in FLAG_ORDER:
            assert rec.flags[name] <= wider.flags[name], name


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["delta_banach", "gap_fraction", "window_fraction"])
    def test_non_finite_field_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"threshold {key} must be finite"):
            Thresholds.from_json_dict({key: value})

    FRACTIONS = ["delta_lower", "delta_upper", "delta_banach", "gap_fraction", "window_fraction"]

    @pytest.mark.parametrize("value", [-1, -0.5, -1e-300, 1.0000000000000002, 5.0, 2])
    @pytest.mark.parametrize("key", FRACTIONS)
    def test_field_outside_the_unit_interval_rejected(self, key, value):
        message = f"threshold {key} must be finite and in [0, 1], got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Thresholds.from_json_dict({key: value})

    @pytest.mark.parametrize("value", [0, 0.0, 0.5, 1, 1.0])
    @pytest.mark.parametrize("key", FRACTIONS)
    def test_unit_interval_accepted(self, key, value):
        th = Thresholds.from_json_dict({key: value})
        assert getattr(th, key) == value
        # a zero fraction still gives a gap and a window of at least 1
        assert th.gap_max(10) >= 1 and th.window_len(10) >= 1


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

    def test_empty_epsilon_list_rejected(self):
        # flags are conjunctions over the records; none would make them all true
        T = realize(JordanBlock(1.0, 2))
        with pytest.raises(ValueError, match="nonempty"):
            classify_vector(T, np.array([0.0, 1.0 + 0j]), epsilons=[], horizon=10_000)

    @pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan])
    def test_non_finite_epsilon_rejected(self, eps):
        # an infinite radius would hold every return time, and its records
        # would write a bare Infinity into a report
        T = realize(DiagonalUnimodular((0.25,)))
        with pytest.raises(ValueError, match="epsilons must be positive and finite"):
            classify_vector(T, np.array([1.0 + 0j]), epsilons=[0.5, eps], horizon=10_000)

    def test_repeated_epsilon_rejected(self):
        # a repeated radius would read and report one return set twice
        T = realize(DiagonalUnimodular((0.25,)))
        with pytest.raises(ValueError, match="epsilons must be distinct, got 0.5 more than once"):
            classify_vector(T, np.array([1.0 + 0j]), epsilons=[0.5, 0.25, 0.5], horizon=10_000)

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

    def test_own_orbit_keeps_no_points(self):
        # eight angles at H = 10^5: the distances take 0.8 MB. With the
        # points, 12.8 MB more, the peak was 14.76 MiB
        T = realize(DiagonalUnimodular(tuple(np.linspace(0.05, 0.95, 8))))
        x = np.ones(8, dtype=complex)
        tracemalloc.start()
        try:
            rep = classify_vector(T, x, [0.5, 0.25], 10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.orbit.points is None and rep.horizon_effective == 10**5
        assert rep == classify_vector(T, x, [0.5, 0.25], 10**5, orbit=iterate(T, x, 10**5))
        assert peak <= 4 * 2**20

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
        rep = birkhoff_frequent_check(iterate(T, np.array([1.0 + 0j]), 9999), 0.5)
        assert rep.density == Fraction(1, 4)
        assert rep.window_mass == 0.25
        assert rep.discrepancy == 0.0

    def test_fixed_point(self):
        T = realize(DenseMatrix(((1.0,),)))
        rep = birkhoff_frequent_check(iterate(T, np.array([1.0 + 0j]), 5000), 0.5)
        assert rep.density == 1 and rep.window_mass == 1.0

    @pytest.mark.parametrize("case", ["rotations", "period_four"])
    def test_window_and_density_equal_the_return_set_path(self, case):
        # the check reads its window and density from the mask of return
        # times; they equal those of the return set, ties included: the
        # period-4 orbit's windows tie in groups of four starts, and the
        # smallest start wins
        rng = np.random.default_rng(0xB1)
        if case == "rotations":
            cases = [(DiagonalUnimodular(tuple(rng.uniform(size=int(rng.integers(1, 3))))),
                      float(rng.uniform(0.2, 1.0)), int(rng.integers(2_000, 30_000)))
                     for _ in range(8)]
        else:
            cases = [(DiagonalUnimodular((0.25,)), eps, h)
                     for eps, h in [(0.5, 9_999), (0.5, 10_001), (1.5, 10_002)]]
        for spec, eps, h in cases:
            T = realize(spec)
            x = np.exp(2j * np.pi * rng.uniform(size=T.dim))
            orbit = iterate(T, x, h)
            rep = birkhoff_frequent_check(orbit, eps)
            R = return_set(orbit, eps)
            assert rep.window_len == min(max(1, h // 10), h)
            assert rep.window_start == upper_banach_density(R, rep.window_len).start
            assert rep.density == Fraction(len(R), h + 1)

    @staticmethod
    def measure_mass(T, orbit, rep, eps):
        """The window mass as a window measure gives it: the uniform measure
        on the window's orbit points, merged into atoms, and the counts of
        the atoms inside the ball in T's block metric."""
        mu = empirical_from_window(orbit, rep.window_start, rep.window_len)
        inside = block_norms(mu.atoms - orbit.base, T.block_dims) < eps
        return float(int(mu.counts[inside].sum()) / mu.denominator)

    @pytest.mark.parametrize("case", ["random", "periodic"])
    def test_window_mass_equals_the_window_measure(self, case):
        # periodic orbits merge their window into one atom per cycle
        # point; sums read the block metric, the max over their parts
        rng = np.random.default_rng(0xB2 if case == "random" else 0xB3)
        rotation = DenseMatrix(((0.0, -1.0), (1.0, 0.0)))
        for _ in range(12):
            if case == "random":
                parts = [DiagonalUnimodular(tuple(rng.uniform(size=int(rng.integers(1, 3)))))
                         for _ in range(int(rng.integers(1, 3)))]
            else:
                parts = [rotation if rng.integers(2) else
                         DiagonalUnimodular(tuple(rng.integers(0, 8, size=2) / 8))
                         for _ in range(int(rng.integers(1, 3)))]
            T = realize(parts[0] if len(parts) == 1 else DirectSum(tuple(parts)))
            x = np.exp(2j * np.pi * rng.uniform(size=T.dim))
            orbit = iterate(T, x, int(rng.integers(1_000, 20_000)))
            for eps in rng.uniform(0.2, 2.0, size=3):
                rep = birkhoff_frequent_check(orbit, eps)
                assert rep.window_mass == self.measure_mass(T, orbit, rep, eps)
                assert rep.discrepancy == abs(float(rep.density) - rep.window_mass)

    def test_reads_no_points(self):
        T = realize(DirectSum((DiagonalUnimodular((GOLDEN,)), DenseMatrix(((0.0, -1.0), (1.0, 0.0))))))
        x = np.array([1.0, 0.5, 1j])
        bare = iterate_many((T,), x, 10_000, False)[0]
        assert bare.points is None
        for eps in (0.3, 0.9, 1.6):
            assert birkhoff_frequent_check(bare, eps) == birkhoff_frequent_check(
                iterate(T, x, 10_000), eps
            )

    def test_epsilon_validated(self):
        orbit = iterate(realize(DiagonalUnimodular((0.25,))), np.array([1.0 + 0j]), 100)
        for eps in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="epsilon must be > 0"):
                birkhoff_frequent_check(orbit, eps)

    def test_golden_small_discrepancy(self):
        T = realize(DiagonalUnimodular((GOLDEN,)))
        rep = birkhoff_frequent_check(iterate(T, np.array([1.0 + 0j]), 10**5), 0.1)
        assert abs(float(rep.density) - arc_mass(0.1)) < 5e-3
        assert abs(rep.window_mass - arc_mass(0.1)) < 5e-3
        assert rep.discrepancy < 5e-3


class TestEigenSpanCheck:
    def test_pure_eigenvector_both_directions(self):
        T = realize(MIX)
        rep = span_check(
            T, [np.array([1.0, 0.0], dtype=complex)],
            horizon=10_000, epsilons=[0.5, 0.25],
        )
        entry = rep.entries[0]
        assert entry.uniformly and entry.in_span and entry.residual < 1e-12
        assert rep.all_ok

    def test_decaying_component_is_consistent(self):
        T = realize(MIX)
        rep = span_check(
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
        rep = span_check(
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
            rep = span_check(
                T, vecs, horizon=200_000, epsilons=[0.3, 0.5]
            )
            for entry in rep.entries:
                assert entry.in_span          # unitary diagonal: whole space
                assert entry.uniformly
            assert rep.all_ok


class TestUnimodularReturnSet:
    def test_quarter_turn_frozen(self):
        (rep,) = unimodular_return_set([0.25], [0.5], 1000)
        assert rep.returns[:5].tolist() == [0, 4, 8, 12, 16]
        assert rep.returns.dtype == np.int64 and rep.returns.size == 251
        assert rep.gap == 4

    def test_golden_matches_scalar_oracle(self):
        (rep,) = unimodular_return_set([GOLDEN], [0.3], 10**5)
        hits = oracle_rotation_returns([GOLDEN], 0.3, 10**5)
        assert rep.returns.tolist() == hits
        gaps = [b - a for a, b in zip(hits, hits[1:])]
        assert rep.gap == max(max(gaps), hits[0], 10**5 - hits[-1]) == 13

    @pytest.mark.parametrize(
        "epsilons, message",
        [([], "nonempty"), ([0.5, 0.0], "positive"), ([0.5, 0.5], "distinct")],
    )
    def test_radii_checked_by_the_one_rule(self, epsilons, message):
        with pytest.raises(ValueError, match=message):
            unimodular_return_set([0.25], epsilons, 1000)

    def test_pair_probes_all_hit(self):
        (rep,) = unimodular_return_set([0.25, GOLDEN], [0.3], 10**5)
        assert rep.returns.size > 0
        assert all(p.hit for p in rep.probes)
        labels = [p.label for p in rep.probes]
        assert sum(l.startswith("block_span") for l in labels) == 3
        assert sum(l.startswith("ap_step") for l in labels) == 3
        assert sum(l.startswith("random") for l in labels) == 2

    def test_three_angles_probes_all_hit(self):
        (rep,) = unimodular_return_set([0.25, GOLDEN, math.sqrt(2.0) - 1.0], [0.3], 10**5)
        assert rep.returns.size > 0
        assert all(p.hit for p in rep.probes)

    def test_block_probe_consistent_with_gap(self):
        # the first positive return is at most the gap, so every block
        # probe spanning [1, gap + 1] must hit
        (rep,) = unimodular_return_set([GOLDEN, 0.3141], [0.4], 20_000)
        positives = rep.returns[rep.returns > 0]
        assert positives[0] <= rep.gap + 1

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            unimodular_return_set([0.25], [0.5, 0.0], 100)

    @pytest.mark.parametrize("horizon", [_ROWS - 1, _ROWS, 3 * _ROWS + 7])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_blocks_equal_the_whole_array_formula(self, horizon, d):
        # The distances are written one block of rows at a time, once for
        # every radius. Radii equal to distances of the whole-array formula
        # put its exact values on the ball's boundary, where a distance one
        # ulp off would move a return time in or out.
        rng = np.random.default_rng(70 + d)
        angles = rng.uniform(size=d)
        n = np.arange(horizon + 1)
        whole = np.abs(np.exp(2j * np.pi * np.outer(n, angles)) - 1.0).max(axis=1)
        radii = np.unique(whole)[1:]
        radii = radii[rng.choice(radii.size, size=4, replace=False)].tolist()
        reports = unimodular_return_set(angles, radii, horizon)
        assert len(reports) == 4
        for eps, rep in zip(radii, reports):
            assert np.array_equal(rep.returns, np.flatnonzero(whole < eps))


class TestProductRecurrence:
    def test_quarter_and_half_turn_lcm(self):
        T1 = realize(DiagonalUnimodular((0.25,)))
        T2 = realize(DiagonalUnimodular((0.5,)))
        one = np.array([1.0 + 0j])
        rep, _, _, R12 = product_check(T1, one, T2, one, 0.5, 10_000)
        assert rep.return_sets_match
        assert R12.elements[:4] == (0, 4, 8, 12)
        assert rep.intersection_density == Fraction(len(R12), 10_001)

    def test_fixed_second_factor(self):
        T1 = realize(DiagonalUnimodular((GOLDEN,)))
        T2 = realize(DenseMatrix(((1.0,),)))
        one = np.array([1.0 + 0j])
        rep, R1, _, R12 = product_check(T1, one, T2, one, 0.3, 10_000)
        assert rep.return_sets_match
        assert R12.elements == R1.elements

    def test_golden_pair_density(self):
        T1 = realize(DiagonalUnimodular((GOLDEN,)))
        T2 = realize(DiagonalUnimodular((GOLDEN / 2.0,)))
        one = np.array([1.0 + 0j])
        rep, R1, R2, R12 = product_check(T1, one, T2, one, 0.2, 10**6)
        assert rep.return_sets_match and R12.as_set() == R1.as_set() & R2.as_set()
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
            rep, R1, R2, R12 = product_check(T1, x1, T2, x2, eps, 10_000)
            assert rep.return_sets_match
            assert R12.as_set() == R1.as_set() & R2.as_set()


    def test_overflowing_part(self):
        # A 1.01-scaled rotation passes the overflow cap near step 2776, so
        # the sum's orbit stops there while the rotation beside it runs the
        # full horizon: the parts' sets are cut at the sum's horizon, and
        # the check equals the intersection of the parts' whole return sets.
        T1 = realize(Scale(1.01, DiagonalUnimodular((GOLDEN,))))
        T2 = realize(DiagonalUnimodular((0.41421356,)))
        one = np.array([1.0 + 0j])
        for eps in (0.5, 0.25):
            rep, _, cut2, cut12 = product_check(T1, one, T2, one, eps, 10_000)
            R1, R2, R12 = (
                return_set(iterate(T, x, 10_000), eps)
                for T, x in ((T1, one), (T2, one), (direct_sum([T1, T2]), np.r_[one, one]))
            )
            assert R12.horizon < R2.horizon == 10_000
            inter = R1.as_set() & R2.as_set()
            assert rep.return_sets_match and R12.as_set() == inter
            assert cut12 == R12
            assert rep.intersection_density == Fraction(len(inter), R12.horizon + 1)
            assert cut2.horizon == R12.horizon
            assert cut2.as_set() == {n for n in R2.as_set() if n <= R12.horizon}

    def test_masks_make_the_return_sets_on_request(self):
        # quarter and half turns return at the multiples of 4 and of 2, and
        # their sum at the multiples of 4; each set is read off its orbit
        h = 10_000
        quarter, half, third = (realize(DiagonalUnimodular((a,))) for a in (0.25, 0.5, 1 / 3))
        one = np.array([1.0 + 0j])
        part1, part2, other = (
            classify_vector(T, one, epsilons=[0.5], horizon=h) for T in (quarter, half, third)
        )
        total = classify_vector(
            direct_sum([quarter, half]), np.r_[one, one], epsilons=[0.5], horizon=h
        )
        rep = product_recurrence_check(part1, part2, total, 0.5)
        assert rep.return_sets_match and rep.intersection_density == Fraction(2501, h + 1)
        R1, R2, R12 = (return_set(r.orbit, 0.5) for r in (part1, part2, total))
        assert R1 == FiniteNatSet(list(range(0, h + 1, 4)), h)
        assert R2 == FiniteNatSet(list(range(0, h + 1, 2)), h)
        assert R12 == R1
        # a part classified under a third turn, not the sum's half turn: the
        # parts meet at the multiples of 12, and the sum returns more often
        rep = product_recurrence_check(part1, other, total, 0.5)
        assert not rep.return_sets_match and rep.intersection_density == Fraction(834, h + 1)


class TestInverseRecurrence:
    @pytest.mark.parametrize(
        "spec",
        [
            Power(3, DiagonalUnimodular((0.618034,))),
            Inverse(DiagonalUnimodular((0.618034,))),
            Scale(1j, DiagonalUnimodular((0.618034,))),
        ],
        ids=["power", "inverse", "scale_1j"],
    )
    def test_wrapped_rotation_inverts_to_exact_conjugate(self, spec):
        # the inverse is pushed through Power, Inverse and a unimodular
        # Scale down to the rotation, so it realizes the exact conjugate:
        # with a real start vector the backward distances equal the forward
        # ones bit for bit, and the return sets agree even at a radius that
        # puts a return time on the boundary
        T, x = realize(spec), np.ones(1, dtype=complex)
        forward, backward = iterate_many((T, realize(Inverse(spec))), x, 10_000, False)
        assert np.array_equal(forward.dists.view(np.uint64), backward.dists.view(np.uint64))
        rep = inverse_check(T, x, [float(forward.dists[1])], 10_000)
        assert rep.return_sets_identical and rep.flags_match

    def test_rotation_conjugate_identical(self):
        T = realize(DiagonalUnimodular((GOLDEN,)))
        rep = inverse_check(
            T, np.array([1.0 + 0j]), [0.5, 0.3, 0.1], 10_000
        )
        assert rep.return_sets_identical
        assert rep.flags_match

    def test_two_angle_diagonal(self):
        T = realize(DiagonalUnimodular((0.25, GOLDEN)))
        x = np.exp(2j * np.pi * np.array([0.15, 0.65]))
        rep = inverse_check(T, x, [0.5, 0.25], 10_000)
        assert rep.return_sets_identical
        assert rep.flags_match

    def test_direct_sum_of_rotations_conjugate_identical(self):
        # T^-1 of a direct sum inverts part by part, so each rotation part
        # is the exact conjugate rotation, as it is standalone: the backward
        # distances equal the forward ones bit for bit, and the return sets
        # agree even at a radius that puts a return time on the boundary
        spec = DirectSum((DiagonalUnimodular((0.618034,)), DiagonalUnimodular((0.41421356,))))
        T, x = realize(spec), np.ones(2, dtype=complex)
        forward, backward = iterate_many((T, realize(Inverse(spec))), x, 10_000, False)
        assert np.array_equal(forward.dists, backward.dists)
        rep = inverse_check(T, x, [float(forward.dists[1])], 10_000)
        assert rep.return_sets_identical and rep.flags_match

    def test_jordan_fixed_point(self):
        T = realize(JordanBlock(1.0, 2))
        x = np.array([1.0, 0.0], dtype=complex)
        forward, backward = (
            classify_vector(S, x, epsilons=[0.5], horizon=10_000)
            for S in (T, realize(Inverse(T.spec)))
        )
        rep = inverse_recurrence_check(forward, backward)
        assert rep.return_sets_identical
        assert len(forward.records[0].flags) == 5
        assert all(rep.forward_flags.values())
        assert all(rep.backward_flags.values())

    def test_return_times_compared_across_different_horizons(self):
        # diag(2, 1/2) and its exact inverse, from (0.01, 0.02), pass the
        # overflow cap at different steps; the check compares the return
        # times alone, as the return sets' elements do
        T = realize(DenseMatrix(((2.0, 0.0), (0.0, 0.5))))
        x = np.array([0.01, 0.02], dtype=complex)
        for eps, identical in [(0.025, True), (0.05, False)]:
            reports = [classify_vector(S, x, epsilons=[eps], horizon=10_000)
                       for S in (T, realize(Inverse(T.spec)))]
            rep = inverse_recurrence_check(*reports)
            orbits = reports[0].orbit, reports[1].orbit
            assert all(o.overflow for o in orbits)
            assert orbits[0].horizon_effective != orbits[1].horizon_effective
            elements = [return_set(o, eps).elements for o in orbits]
            assert rep.return_sets_identical is identical
            assert identical == (elements[0] == elements[1])

    def test_reports_must_cover_the_same_epsilons(self):
        T = realize(DiagonalUnimodular((GOLDEN,)))
        x = np.array([1.0 + 0j])
        forward = classify_vector(T, x, epsilons=[0.5], horizon=10_000)
        backward = classify_vector(
            realize(Inverse(T.spec)), x, epsilons=[0.25], horizon=10_000
        )
        with pytest.raises(ValueError, match="different epsilons"):
            inverse_recurrence_check(forward, backward)


def _haar_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


HAAR_4 = DenseMatrix(
    tuple(map(tuple, _haar_unitary(np.random.default_rng(0x5A), 4).tolist()))
)


class TestOpenBallRule:
    def test_distance_equal_to_epsilon_is_outside(self, tmp_path):
        # under a half turn every odd time of x = 1 sits at distance exactly
        # 2.0, forward and under the realized inverse, so every reader of
        # the 2.0-ball counts the 5001 even times of [0, 10^4] alone; the
        # closed ball would hold all 10001
        h, eps = 10_000, 2.0
        half = DiagonalUnimodular((0.5,))
        evens = FiniteNatSet(list(range(0, h + 1, 2)), h)
        T, one = realize(half), np.array([1.0 + 0j])
        orbit = iterate(T, one, h)
        assert np.array_equal(orbit.dists[1::2], np.full(h // 2, 2.0))
        assert return_set(orbit, eps) == evens
        (rec,) = classify_vector(T, one, [eps], h).records
        assert rec.return_count == 5001 and rec.first_return == 2
        assert birkhoff_frequent_check(orbit, eps).density == Fraction(5001, h + 1)
        rep, R1, R2, R12 = product_check(T, one, T, one, eps, h)
        assert R1 == R2 == R12 == evens
        assert rep.return_sets_match and rep.intersection_density == Fraction(5001, h + 1)
        for S in (half, DirectSum((half, half))):
            x = np.ones(realize(S).dim, dtype=complex)
            assert (iterate(realize(Inverse(S)), x, h).dists[1::2] == 2.0).all()
            assert inverse_check(realize(S), x, [eps], h).return_sets_identical
            (rec,) = classify_vector(realize(Inverse(S)), x, [eps], h).records
            assert rec.return_count == 5001
        # the summary series: the prefix density of the returns up to n
        config = tmp_path / "half.json"
        config.write_text(json.dumps({"experiments": [{
            "operator": {"type": "diagonal_unimodular", "angles_turns": [0.5]},
            "epsilons": [eps], "horizon": h,
        }]}))
        doc = run_config(load_config(config))
        summary = doc.experiments["experiment_0"]["summary"]["result"]
        assert summary["records"][0]["return_count"] == 5001 and summary["series"]
        for _, n, density in summary["series"]:
            assert density == (n // 2 + 1) / (n + 1)

    def test_ranked_runner_orbits_count_the_same(self, tmp_path, monkeypatch):
        # the runner's orbits keep ranks on the experiment's radii, not
        # distances; the 2.0-ball still holds the 5001 even times alone and
        # the 2.5-ball all 10001, for every reader: under a sum of two half
        # turns the max metric puts x = ones at distance 0 or 2.0
        h = 10_000
        segments = []
        iterate_many = recurlab.cli.iterate_many

        def spy(*args):
            out = iterate_many(*args)
            segments.append(list(out))  # the runner drops each vector's segments
            return out

        monkeypatch.setattr(recurlab.cli, "iterate_many", spy)
        half = {"type": "diagonal_unimodular", "angles_turns": [0.5]}
        config = tmp_path / "half_sum.json"
        config.write_text(json.dumps({"experiments": [{
            "operator": {"type": "direct_sum", "parts": [half, half]},
            "vectors": ["ones", "basis:0"], "epsilons": [2.5, 2.0], "horizon": h,
            "checks": ["classify", "birkhoff", "product", "inverse"],
        }]}))
        checks = run_config(load_config(config)).experiments["experiment_0"]["checks"]
        # one loop: for each vector, forward, backward and two part lanes,
        # each ranked on both radii
        (loop,) = segments
        assert len(loop) == 8
        assert all(s.dists is None and s.radii == (2.0, 2.5) for s in loop)
        counts = {2.0: 5001, 2.5: h + 1}
        for report in checks["classify"]["result"]["reports"]:
            assert {r["epsilon"]: r["return_count"] for r in report["epsilon_records"]} == counts
        for row in checks["birkhoff"]["result"]["comparisons"]:
            assert row["density"] == counts[row["epsilon"]] / (h + 1)
        for row in checks["product"]["result"]["per_case"]:
            assert row["return_sets_match"]
            assert row["intersection_density"] == counts[row["epsilon"]] / (h + 1)
        assert all(r["return_sets_identical"] for r in checks["inverse"]["result"]["per_vector"])


class TestSumOrbitIsPartOrbits:
    """A direct sum's orbit is its parts' orbits side by side, bit for bit.

    The runner's product check reads the sum's orbit from the realized sum
    spec and its parts' orbits separately, so both must agree exactly.
    """

    @pytest.mark.parametrize(
        "parts",
        [
            (SWAP, DiagonalUnimodular((GOLDEN,))),
            (HAAR_4, JordanBlock(0.5, 2)),
            (DiagonalUnimodular((0.25, GOLDEN)), DiagonalUnimodular((0.41421356,))),
        ],
        ids=["swap_golden", "haar4_jordan", "two_rotations"],
    )
    def test_sum_orbit_bitwise(self, parts):
        H = 10_000
        Ts = [realize(p) for p in parts]
        rng = np.random.default_rng(0x50)
        xs = [rng.normal(size=T.dim) + 1j * rng.normal(size=T.dim) for T in Ts]
        x = np.concatenate(xs)
        orbit = iterate(realize(DirectSum(parts)), x, H)
        joined = iterate(direct_sum(Ts), x, H)
        assert np.array_equal(orbit.points, joined.points)
        assert orbit.horizon_effective == H
        start = 0
        for T, xk in zip(Ts, xs):
            part = iterate(T, xk, H)
            assert np.array_equal(orbit.points[:, start : start + T.dim], part.points)
            start += T.dim


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
