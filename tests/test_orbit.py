"""Tests for orbit iteration, return sets, and boundedness.

Oracles: closed-form orbits (Jordan block powers, exact dyadic decay) and the
period-4 evaluation of |i^n - 1|. The bitwise pushforward identity
``points[n+1] == T.apply(points[n])`` is the load-bearing property here; the
engine's lanes are compared with plain ``z = T.apply(z)`` loops through their
bits, since ``np.array_equal`` takes ``-0.0`` for ``0.0``.
"""

import math
import types

import numpy as np
import pytest

import recurlab.orbit
from recurlab import (
    DenseMatrix,
    DiagonalUnimodular,
    DirectSum,
    Inverse,
    JordanBlock,
    Power,
    Scale,
    WeightedBackwardShiftTruncation,
    boundedness,
    direct_sum,
    iterate,
    realize,
    return_set,
    syndetic_gap,
)
from recurlab.errors import DimensionError
from recurlab.orbit import iterate_many, part_orbits

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SWAP_SPEC = DenseMatrix(((0.0, 1.0), (1.0, 0.0)))


def bitwise_equal(a, b):
    """Same shape and the same bits: unlike ``np.array_equal``, this tells
    ``-0.0`` from ``0.0``."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def count_kernel_calls(monkeypatch, calls):
    """Append the kernel operand of every ``np.multiply`` and ``np.dot``
    call the orbit module makes to ``calls``: one per pass and row stepped.
    That is a multiply's second operand, the pass's diagonal, and a dot's
    first, the dense block's matrix."""
    fake_np = types.SimpleNamespace(**vars(np))
    fake_np.multiply = lambda a, b, **kw: calls.append(b) or np.multiply(a, b, **kw)
    fake_np.dot = lambda a, b, **kw: calls.append(a) or np.dot(a, b, **kw)
    monkeypatch.setattr(recurlab.orbit, "np", fake_np)


def first_repeat(points):
    """The first n >= 1 with ``points[n]`` bitwise equal to ``points[n-1]``."""
    bits = np.ascontiguousarray(points).view(np.uint64)
    same = np.all(bits[1:] == bits[:-1], axis=1)
    return int(np.argmax(same)) + 1 if same.any() else None


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

    def test_dists_to_base(self):
        # [[1,1],[0,1]]^n e2 = (n, 1) lies at distance exactly n from e2
        T = realize(JordanBlock(1.0, 2))
        orb = iterate(T, np.array([0.0, 1.0], dtype=complex), 10)
        assert np.array_equal(orb.dists, np.arange(11, dtype=float))
        assert not orb.dists.flags.writeable

    def test_dists_follow_truncation(self):
        T = realize(Scale(2.0, DenseMatrix(((1.0,),))))
        orb = iterate(T, np.array([1.0 + 0j]), 100)
        assert orb.overflow and orb.dists.shape == (orb.horizon_effective + 1,)
        n = np.arange(orb.horizon_effective + 1)
        assert np.array_equal(orb.dists, 2.0**n - 1.0)

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
        self.check_stops_near_cap(monkeypatch, T, np.array([1.0 + 0j]))

    def test_dense_overflow_stops_iterating_near_the_cap(self, monkeypatch):
        T = realize(Scale(1.001, DenseMatrix(((0.0, 1.0), (1.0, 0.0)))))
        self.check_stops_near_cap(monkeypatch, T, np.array([1.0, 0.0j]))

    def check_stops_near_cap(self, monkeypatch, T, x):
        # plain reference loop, truncated at the first point past the cap
        ref = [x]
        while T.norm_of(ref[-1]) <= 1e12:
            ref.append(T.apply(ref[-1]))
        ref = np.array(ref[:-1])
        # a step is one kernel call of the engine: np.multiply on a diagonal,
        # np.dot on a dense block
        calls = []
        count_kernel_calls(monkeypatch, calls)
        orb = iterate(T, x, 10**6)
        monkeypatch.undo()
        assert orb.overflow
        assert orb.horizon_effective == ref.shape[0] - 1 == 27644
        assert bitwise_equal(orb.points, ref)
        assert np.array_equal(orb.norms, T.block_norms(ref))
        # the loop stops at the chunk-end check after the cap, not at inf
        assert orb.horizon_effective < len(calls) <= orb.horizon_effective + 257

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


def reference_orbit(T, x, horizon, cap=1e12):
    """Plain ``z = T.apply(z)`` loop, cut before the first point past the cap."""
    pts = [np.asarray(x, dtype=complex)]
    for _ in range(horizon):
        z = T.apply(pts[-1])
        if not T.norm_of(z) <= cap:
            break
        pts.append(z)
    return np.array(pts)


def random_dense(rng, d):
    """A Haar unitary, so dense lanes stay bounded over long horizons."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return DenseMatrix(tuple(map(tuple, q * (np.diagonal(r) / np.abs(np.diagonal(r))))))


class TestIterateMany:
    """Each lane of one loop against its own reference loop, bit for bit."""

    def check_lanes(self, specs, horizon, x=None):
        ops = [realize(s) for s in specs]
        if x is None:
            rng = np.random.default_rng(0)
            x = rng.normal(size=ops[0].dim) + 1j * rng.normal(size=ops[0].dim)
        lanes = iterate_many(ops, x, horizon)
        assert len(lanes) == len(ops)
        for T, orb in zip(ops, lanes):
            ref = reference_orbit(T, x, horizon)
            assert bitwise_equal(orb.points, ref)
            assert np.array_equal(orb.norms, T.block_norms(ref))
            assert np.array_equal(orb.dists, T.block_norms(ref - x))
            assert orb.horizon_effective == ref.shape[0] - 1
            assert orb.block_dims == T.block_dims
        return lanes

    def test_all_diagonal_lanes(self):
        rng = np.random.default_rng(1)
        angles = tuple(rng.uniform(size=3))
        specs = [
            DiagonalUnimodular(angles),
            Inverse(DiagonalUnimodular(angles)),
            DiagonalUnimodular(tuple(rng.uniform(size=3))),
        ]
        lanes = self.check_lanes(specs, 5000)
        # the lanes are views of one buffer
        assert lanes[0].points.base is lanes[2].points.base

    def test_dense_and_jordan_lanes(self):
        rng = np.random.default_rng(2)
        specs = [
            DirectSum((random_dense(rng, 4), JordanBlock(0.5, 2))),
            random_dense(rng, 6),
            JordanBlock(0.5, 6),
        ]
        self.check_lanes(specs, 3000)

    def test_mixed_diagonal_and_dense_lanes(self):
        rng = np.random.default_rng(3)
        specs = [
            DiagonalUnimodular(tuple(rng.uniform(size=3))),
            random_dense(rng, 3),
            DirectSum((DiagonalUnimodular((GOLDEN,)), random_dense(rng, 2))),
        ]
        self.check_lanes(specs, 3000)

    @pytest.mark.parametrize("other", ["diagonal", "dense"])
    def test_overflow_is_per_lane(self, other):
        # 1.001^n passes the 1e12 cap after 27644 steps (see
        # test_overflow_stops_iterating_near_the_cap); the unitary lane
        # beside it runs the full horizon
        rng = np.random.default_rng(4)
        unitary = {"diagonal": DiagonalUnimodular((GOLDEN, 0.3)), "dense": random_dense(rng, 2)}
        growing, bounded = self.check_lanes(
            [Scale(1.001, DiagonalUnimodular((0.25, GOLDEN))), unitary[other]],
            30_000,
            np.array([1.0, 0.0j]),
        )
        assert growing.overflow and growing.horizon_effective == 27644
        assert not bounded.overflow and bounded.horizon_effective == 30_000
        # the full lane does not keep a buffer wider than its own orbit
        assert bounded.points.flags.c_contiguous

    def test_chunk_end_prefilter_stops_lanes_where_the_norms_do(self, monkeypatch):
        # A 1.01-scaled rotation and a dense block with eigenvalue 1.02 pass
        # the cap in different chunks, beside a rotation that never does.
        # Each growing lane stops at the first chunk end past its cap, as
        # with a norm per lane at every chunk end, which is what the
        # engine does with its whole-row prefilter switched off.
        specs = [
            Scale(1.01, DiagonalUnimodular((0.25, GOLDEN))),
            DenseMatrix(((1.02, 0.3), (0.0, 1.01))),
            DiagonalUnimodular((GOLDEN, 0.3)),
        ]
        ops = [realize(s) for s in specs]
        x = np.array([1.0, 0.5j])

        def run(prefilter):
            calls = []
            count_kernel_calls(monkeypatch, calls)
            if not prefilter:
                monkeypatch.setattr(recurlab.orbit, "_below_cap", lambda row, d: False)
            lanes = iterate_many(ops, x, 5000)
            monkeypatch.undo()
            # the rows each lane was stepped: its own kernel operand's calls
            # (no two lanes merge into one pass here)
            kernels = [T.blocks[0].diagonal if T.blocks[0].diagonal is not None
                       else T.blocks[0].matrix for T in ops]
            return lanes, [sum(c is k for c in calls) for k in kernels]

        lanes, steps = run(prefilter=True)
        exact_lanes, exact_steps = run(prefilter=False)
        assert steps == exact_steps
        for lane, exact, T in zip(lanes, exact_lanes, ops):
            assert bitwise_equal(lane.points, exact.points)
            assert bitwise_equal(lane.points, reference_orbit(T, x, 5000))
        scaled, dense, rotation = lanes
        assert 2500 < scaled.horizon_effective and 1000 < dense.horizon_effective < 2000
        for lane, n in zip(lanes, steps):
            past_cap = lane.horizon_effective + 1
            assert n == (5000 if not lane.overflow else -(-past_cap // 256) * 256)
        assert scaled.overflow and dense.overflow and not rotation.overflow

    def test_bounded_lanes_take_no_lane_norms(self, monkeypatch):
        escaped = []
        real = recurlab.orbit._escaped
        monkeypatch.setattr(
            recurlab.orbit, "_escaped", lambda T, z: escaped.append(T) or real(T, z)
        )
        rng = np.random.default_rng(8)
        self.check_lanes([DiagonalUnimodular((0.25, GOLDEN)), random_dense(rng, 2)], 3000)
        assert escaped == []

    def test_stopped_dense_lane_is_not_stepped_on(self, monkeypatch):
        # T^-1 of a Jordan block at 0.5 passes the cap after about 40 steps,
        # while the forward lane decays to an exact zero and retires
        ops = [realize(JordanBlock(0.5, 2)), realize(Inverse(JordanBlock(0.5, 2)))]
        calls = []
        count_kernel_calls(monkeypatch, calls)
        forward, backward = iterate_many(ops, np.array([1.0, 1.0 + 0j]), 20_000)
        monkeypatch.undo()
        steps = [sum(a is T.blocks[0].matrix for a in calls) for T in ops]
        assert steps[0] + steps[1] == len(calls)
        assert not forward.overflow and forward.horizon_effective == 20_000
        fixed = first_repeat(forward.points)
        assert fixed is not None and fixed <= steps[0] <= fixed + 256
        assert backward.overflow and backward.horizon_effective < 64
        assert steps[1] <= 257

    def test_loop_stops_once_every_lane_overflowed(self, monkeypatch):
        calls = []
        count_kernel_calls(monkeypatch, calls)
        ops = [realize(Scale(f, DiagonalUnimodular((0.25,)))) for f in (1.001, 1.002)]
        slow, fast = iterate_many(ops, np.array([1.0 + 0j]), 10**6)
        monkeypatch.undo()
        assert slow.overflow and slow.horizon_effective == 27644
        assert fast.overflow and fast.horizon_effective < 27644
        # both lanes are one multiply pass, which stops at the chunk-end
        # check after the last lane's cap
        assert slow.horizon_effective < len(calls) <= slow.horizon_effective + 257

    @pytest.mark.parametrize(
        "kind",
        ["diagonal", "dense", "jordan", "shift", "mixed_sum", "decaying_diagonal", "power"],
    )
    def test_every_kind_with_its_inverse_lane(self, kind):
        rng = np.random.default_rng(5)
        spec = {
            "diagonal": DiagonalUnimodular((0.1, GOLDEN)),
            "dense": random_dense(rng, 3),
            "jordan": JordanBlock(0.5, 3),
            "shift": WeightedBackwardShiftTruncation((1.0, 2.0, 0.5), 4),
            "mixed_sum": DirectSum((
                DiagonalUnimodular((0.2,)),
                random_dense(rng, 2),
                JordanBlock(0.5, 2),
                DiagonalUnimodular((0.7, 0.1)),
            )),
            "decaying_diagonal": Scale(0.5, DiagonalUnimodular((0.3, GOLDEN))),
            "power": Power(3, random_dense(rng, 2)),
        }[kind]
        # the nilpotent shift has no inverse; T^-1 of a decaying lane grows
        # past the cap, so those lanes also cover the overflow cut
        specs = [spec] if kind == "shift" else [spec, Inverse(spec)]
        self.check_lanes(specs, 1500)

    def test_diagonal_ranges_merge_across_blocks_and_lanes(self, monkeypatch):
        rng = np.random.default_rng(6)
        rotation = DiagonalUnimodular((0.1, GOLDEN))
        mixed = DirectSum((DiagonalUnimodular((0.2,)), random_dense(rng, 2),
                           DiagonalUnimodular((0.7,))))
        for specs, passes in [
            # T and T^-1 on exact diagonals: one multiply per step
            ([rotation, Inverse(rotation)], 1),
            # diag | dense | diag + diag | dense | diag
            ([mixed, Inverse(mixed)], 5),
        ]:
            calls = []
            count_kernel_calls(monkeypatch, calls)
            self.check_lanes(specs, 600)
            monkeypatch.undo()
            assert len(calls) == passes * 600

    def test_zero_signs_are_not_a_fixed_point(self, monkeypatch):
        # Under diag(-1) the zero vector's signs cycle with period 3,
        # (0, 0) -> (-0, 0) -> (0, -0) -> (0, 0), so rows compared with ==
        # would look fixed and retire a pass too early.
        calls = []
        count_kernel_calls(monkeypatch, calls)
        (orb,) = self.check_lanes([DenseMatrix(((-1.0,),))], 1000, np.zeros(1, dtype=complex))
        monkeypatch.undo()
        signs = np.signbit(np.stack([orb.points.real, orb.points.imag], axis=-1))[:, 0]
        assert signs[:4].tolist() == [[False, False], [True, False], [False, True], [False, False]]
        assert np.array_equal(orb.points[1], orb.points[2]) and first_repeat(orb.points) is None
        assert len(calls) == 1000

    @pytest.mark.parametrize("kind", ["jordan", "shift"])
    def test_fixed_point_retires_within_a_chunk(self, monkeypatch, kind):
        # J(0.5) decays to an exact zero after about 1100 steps, and a
        # nilpotent shift truncation reaches zero after its dimension
        spec, x = {
            "jordan": (JordanBlock(0.5, 2), np.array([1.0, 1.0 + 0j])),
            "shift": (WeightedBackwardShiftTruncation((1.0, 2.0, 0.5), 4),
                      np.array([1.0, -2.0, 3.0j, 0.5])),
        }[kind]
        calls = []
        count_kernel_calls(monkeypatch, calls)
        (orb,) = self.check_lanes([spec], 5000, x)
        monkeypatch.undo()
        fixed = first_repeat(orb.points)
        assert fixed is not None and fixed <= len(calls) <= fixed + 256
        assert not orb.points[fixed:].any()

    def test_validation(self):
        T = realize(DenseMatrix(((1.0,),)))
        with pytest.raises(ValueError):
            iterate_many([], np.array([1.0 + 0j]), 5)
        with pytest.raises(DimensionError):
            iterate_many([T, realize(SWAP_SPEC)], np.array([1.0 + 0j]), 5)


class TestPartOrbits:
    def test_parts_are_views_with_their_own_metric(self):
        parts = [realize(DiagonalUnimodular((0.25, GOLDEN))), realize(SWAP_SPEC)]
        T = direct_sum(parts)
        x = np.array([1.0, 2.0j, 3.0, 4.0])
        orbit = iterate(T, x, 2000)
        got = part_orbits(orbit, parts)
        start = 0
        for P, orb in zip(parts, got):
            ref = iterate(P, x[start : start + P.dim], 2000)
            assert np.shares_memory(orb.points, orbit.points)
            for field in ("base", "points", "norms", "dists"):
                assert np.array_equal(getattr(orb, field), getattr(ref, field))
            assert (orb.horizon_effective, orb.overflow) == (2000, False)
            start += P.dim

    def test_overflowed_sum_iterates_its_parts(self):
        # the sum stops when its growing part passes the cap; the bounded
        # part's own orbit runs the full horizon
        parts = [realize(Scale(2.0, DenseMatrix(((1.0,),)))), realize(SWAP_SPEC)]
        orbit = iterate(direct_sum(parts), np.array([1.0, 1.0, 0.0]), 100)
        assert orbit.overflow and orbit.horizon_effective == 39
        grown, swapped = part_orbits(orbit, parts)
        assert grown.overflow and grown.horizon_effective == 39
        assert not swapped.overflow and swapped.horizon_effective == 100

    def test_dims_must_add_up(self):
        orbit = iterate(realize(SWAP_SPEC), np.array([1.0, 0.0j]), 5)
        with pytest.raises(DimensionError):
            part_orbits(orbit, [realize(DenseMatrix(((1.0,),)))])


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

    def test_overflow_not_bounded(self):
        T = realize(Scale(2.0, DenseMatrix(((1.0,),))))
        orb = iterate(T, np.array([1.0 + 0j]), 100)
        assert not boundedness(orb).bounded_at_horizon
