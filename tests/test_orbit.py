"""Tests for orbit iteration, return sets, and boundedness.

Oracles: closed-form orbits (Jordan block powers, exact dyadic decay) and the
period-4 evaluation of |i^n - 1|. The bitwise pushforward identity
``points[n+1] == T.apply(points[n])`` is the load-bearing property here; the
engine's lanes are compared with plain ``z = T.apply(z)`` loops through their
bits, since ``np.array_equal`` takes ``-0.0`` for ``0.0``.
"""

import cmath
import math
import re
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    direct_sum,
    iterate,
    realize,
    return_set,
    syndetic_gap,
)
from recurlab.empmeasure import empirical_from_window
from recurlab.errors import DimensionError
from recurlab.linop import _power_scan, block_norms
from recurlab.orbit import (
    _FILL,
    BoundednessReport,
    _NormRecord,
    _norms_and_dists,
    check_radii,
    iterate_many,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SWAP_SPEC = DenseMatrix(((0.0, 1.0), (1.0, 0.0)))


def bitwise_equal(a, b):
    """Same shape and the same bits: unlike ``np.array_equal``, this tells
    ``-0.0`` from ``0.0``."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def count_kernel_calls(monkeypatch, calls):
    """Append to ``calls`` the kernel operand of every row the orbit engine
    steps through its ``step_rows``: one per pass and row stepped, the
    pass's diagonal, or else its dense block's matrix."""
    step = recurlab.orbit.step_rows

    def spy(p, prevs, rows):
        calls.extend([p.matrix if p.diagonal is None else p.diagonal] * len(rows))
        step(p, prevs, rows)

    monkeypatch.setattr(recurlab.orbit, "step_rows", spy)


def first_repeat(points):
    """The first n >= 1 with ``points[n]`` bitwise equal to ``points[n-1]``."""
    bits = np.ascontiguousarray(points).view(np.uint64)
    same = np.all(bits[1:] == bits[:-1], axis=1)
    return int(np.argmax(same)) + 1 if same.any() else None


def oracle_jordan_orbit(horizon):
    """Closed form: [[1,1],[0,1]]^n e2 = (n, 1)."""
    return np.array([[n, 1] for n in range(horizon + 1)], dtype=complex)


def oracle_boundedness(norms, overflow):
    """The boundedness verdict from the whole norm sequence at once: its
    max, and growth when the last half, from ``(size - 1) // 2`` on, holds
    at least 3 norms, rises strictly and gains a relative 1e-9."""
    tail = norms[(norms.size - 1) // 2 :]
    with np.errstate(over="ignore", invalid="ignore"):
        growth = tail.size >= 3 and bool(
            np.all(tail[1:] > tail[:-1]) and tail[-1] > tail[0] * (1 + 1e-9)
        )
    return BoundednessReport(not overflow, float(norms.max()), growth)


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
        norms = T.block_norms(orb.points)
        assert np.allclose(norms, np.hypot(np.arange(11), 1.0))
        assert orb.bounded == oracle_boundedness(norms, False)

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
        assert np.array_equal(T.block_norms(orb.points), 2.0 ** -np.arange(51, dtype=float))
        assert orb.bounded == (True, 1.0, False)
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
            sup = _power_scan(T.matrix)[0]
            if sup > 10:
                x = x / sup  # stay clear of the overflow cap
            orb = iterate(T, x, 200)
            for n in range(orb.horizon_effective):
                assert np.array_equal(orb.points[n + 1], T.apply(orb.points[n]))

    def test_overflow_truncates(self):
        T = realize(Scale(2.0, DenseMatrix(((1.0,),))))
        orb = iterate(T, np.array([1.0 + 0j]), 100)
        assert orb.overflow
        # 2^40 is the first norm past the 1e12 cap
        assert orb.horizon_effective == 39
        assert orb.bounded == (False, 2.0**39, True)
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
        assert orb.bounded == oracle_boundedness(T.block_norms(ref), True)
        # the loop stops at the end of the fill in which the recorder cut
        # the orbit, not at inf
        assert orb.horizon_effective < len(calls) <= orb.horizon_effective + _FILL

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
        # max(|3|, |4|)
        assert np.allclose(T.block_norms(orb.points), 4.0, atol=1e-12)
        assert orb.bounded.sup_norm == pytest.approx(4.0, abs=1e-12)


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
            assert orb.bounded == oracle_boundedness(T.block_norms(ref), orb.overflow)
            assert np.array_equal(orb.dists, T.block_norms(ref - x))
            assert orb.horizon_effective == ref.shape[0] - 1
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
        # each lane owns its points; none is a view of the step buffer
        for a in lanes:
            assert a.points.flags.owndata
            assert all(a is b or not np.shares_memory(a.points, b.points) for b in lanes)

    def test_dense_and_jordan_lanes(self):
        rng = np.random.default_rng(2)
        specs = [
            DirectSum((random_dense(rng, 4), JordanBlock(0.5, 2))),
            random_dense(rng, 6),
            JordanBlock(0.5, 6),
        ]
        self.check_lanes(specs, 3000)

    @pytest.mark.parametrize("d", [2, 4, 7, 16])
    def test_dense_pass_equals_np_dot_loop(self, d):
        # the dense kernel calls ndarray.dot, np.dot's gemv without its
        # dispatcher; every recorded payload came from the np.dot loop
        rng = np.random.default_rng(50 + d)
        for spec in (random_dense(rng, d), JordanBlock(0.5, d)):
            T = realize(spec)
            x = rng.normal(size=d) + 1j * rng.normal(size=d)
            ref = np.empty((2001, d), dtype=complex)
            ref[0] = x
            for n in range(2000):
                np.dot(T.matrix, ref[n], out=ref[n + 1])
            assert bitwise_equal(iterate(T, x, 2000).points, ref)
            assert bitwise_equal(T.apply(x), ref[1])

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

    def test_stopped_lane_in_a_shared_pass_takes_no_more_norms(self, monkeypatch):
        # A 1.01-scaled rotation and its inverse are one multiply pass. The
        # growing lane passes the cap at step 2776, in the first fill, and
        # its columns go on to inf and nan beside the decaying lane; it
        # records no row after that fill, so every later norm and distance
        # call is the decaying lane's.
        rows = []
        real = recurlab.orbit._norms_and_dists
        monkeypatch.setattr(
            recurlab.orbit, "_norms_and_dists",
            lambda r, base, dims: rows.append(r.shape[0]) or real(r, base, dims),
        )
        calls = []
        count_kernel_calls(monkeypatch, calls)
        spec = Scale(1.01, DiagonalUnimodular((0.618034,)))
        ops = [realize(spec), realize(Inverse(spec))]
        x = np.array([1.0 + 0j])
        grown, decayed = iterate_many(ops, x, 10**5)
        monkeypatch.undo()
        assert len(calls) == 10**5  # one pass
        # row 0 and the first fill for both lanes, then the decaying lane's
        # 23 full fills and its last 1696 rows
        assert rows == [1, 1, _FILL, _FILL] + [_FILL] * 23 + [10**5 - 24 * _FILL]
        assert grown.overflow and grown.horizon_effective == 2776
        assert not decayed.overflow and decayed.horizon_effective == 10**5
        alone = iterate(ops[1], x, 10**5)
        assert bitwise_equal(decayed.points, alone.points)
        assert np.array_equal(decayed.dists.view(np.uint64), alone.dists.view(np.uint64))
        assert decayed.bounded == alone.bounded

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
        assert fixed is not None and fixed <= steps[0] <= fixed + _FILL
        assert backward.overflow and backward.horizon_effective < 64
        assert steps[1] <= _FILL

    def test_loop_stops_once_every_lane_overflowed(self, monkeypatch):
        calls, restepped = [], []
        count_kernel_calls(monkeypatch, calls)
        restep = recurlab.orbit._restep

        def spy(*args):
            before = len(calls)
            out = restep(*args)
            restepped.append(len(calls) - before)
            return out

        monkeypatch.setattr(recurlab.orbit, "_restep", spy)
        ops = [realize(Scale(f, DiagonalUnimodular((0.25,)))) for f in (1.001, 1.002)]
        slow, fast = iterate_many(ops, np.array([1.0 + 0j]), 10**6)
        monkeypatch.undo()
        assert slow.overflow and slow.horizon_effective == 27644
        assert fast.overflow and fast.horizon_effective < 27644
        # each cut lane re-steps its growth check's midpoint from a fill
        # top, within one fill; both lanes are one multiply pass, which
        # stops at the end of the fill in which the last lane was cut
        assert len(restepped) == 2 and all(n < _FILL for n in restepped)
        loop = len(calls) - sum(restepped)
        assert slow.horizon_effective < loop <= slow.horizon_effective + _FILL

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
        # the pass retires at the end of the fill that reached the fixed point
        assert fixed is not None and fixed <= len(calls) <= fixed + _FILL
        assert not orb.points[fixed:].any()

    def test_validation(self):
        T = realize(DenseMatrix(((1.0,),)))
        with pytest.raises(ValueError):
            iterate_many([], np.array([1.0 + 0j]), 5)
        with pytest.raises(DimensionError):
            iterate_many([T, realize(SWAP_SPEC)], np.array([1.0 + 0j]), 5)

    @pytest.mark.parametrize("kind", ["jordan", "shift"])
    @pytest.mark.parametrize("beside", ["block", "lane"])
    def test_pass_retired_in_the_first_fill_holds_over_later_fills(self, kind, beside):
        # The decaying pass reaches its fixed point early in the first fill
        # of the step buffer, while a unitary pass beside it, in the same
        # sum or in another lane, keeps the loop going for several fills.
        # The retired columns must hold the fixed point in every row of
        # each later fill, including the rows above its retirement point.
        rng = np.random.default_rng(9)
        spec, d = {
            "jordan": (JordanBlock(0.5, 2), 2),
            "shift": (WeightedBackwardShiftTruncation((1.0, 2.0, 0.5), 4), 4),
        }[kind]
        specs = {
            "block": [DirectSum((random_dense(rng, 2), spec))],
            "lane": [spec, DiagonalUnimodular(tuple(rng.uniform(size=d)))],
        }[beside]
        lanes = self.check_lanes(specs, 3 * _FILL + 100)
        points = lanes[0].points[:, -d:]
        fixed = first_repeat(points)
        assert fixed is not None and fixed < _FILL
        assert not points[fixed:].any()
        assert all(not lane.overflow for lane in lanes)

    @pytest.mark.parametrize("kind", ["diagonal", "dense"])
    def test_lane_overflowing_in_a_later_fill(self, kind):
        # 1.002^n passes the 1e12 cap near n = 13 830, in the fourth fill
        rng = np.random.default_rng(10)
        growing = {
            "diagonal": Scale(1.002, DiagonalUnimodular((0.25, GOLDEN))),
            "dense": Scale(1.002, random_dense(rng, 2)),
        }[kind]
        grown, bounded = self.check_lanes(
            [growing, DiagonalUnimodular((GOLDEN, 0.3))], 5 * _FILL, np.array([1.0, 0.0j])
        )
        assert grown.overflow and 3 * _FILL < grown.horizon_effective < 4 * _FILL
        assert not bounded.overflow and bounded.horizon_effective == 5 * _FILL

    @pytest.mark.parametrize("horizon", [0, 1, _FILL - 1, _FILL, _FILL + 1, 2 * _FILL])
    def test_horizons_at_the_fill_edges(self, horizon):
        # J(0.5) retires to an exact zero after about 1100 steps, and the
        # 1.01-scaled rotation passes the cap at about 2800, in the pass it
        # shares with the rotation beside it
        lanes = self.check_lanes(
            [JordanBlock(0.5, 2), DiagonalUnimodular((GOLDEN, 0.3)),
             Scale(1.01, DiagonalUnimodular((0.25, GOLDEN)))],
            horizon,
            np.array([1.0, 1.0 + 0j]),
        )
        assert [lane.overflow for lane in lanes] == [False, False, horizon >= _FILL - 1]

    @pytest.mark.parametrize("d", range(1, 17))
    def test_norms_and_dists_over_fills_equal_whole_orbit(self, d):
        # block widths 1..16 cross row_sums' switch from column adds to
        # numpy's pairwise sum at 8 columns; two lanes make the per-fill
        # rows strided column views of the step buffer
        rng = np.random.default_rng(60 + d)
        U = random_dense(rng, d)
        ops = [realize(U), realize(Inverse(U))]
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        for orb, T in zip(iterate_many(ops, x, 2 * _FILL + 7), ops):
            norms = block_norms(orb.points, T.block_dims)
            assert orb.bounded == oracle_boundedness(norms, False)
            assert np.array_equal(orb.dists.view(np.uint64),
                                  block_norms(orb.points - x, T.block_dims).view(np.uint64))

    def test_norms_and_dists_over_fills_with_mixed_blocks_and_special_rows(self):
        # the per-fill arithmetic on fill-sized row ranges of a three-lane
        # buffer equals one pass over the whole columns, on mixed block
        # dims and on rows holding inf, nan, -0.0, zeros and entries whose
        # squares overflow
        rng = np.random.default_rng(61)
        for dims in [(1, 2), (3, 8), (9, 2, 1), (4, 4, 8), (16,), (7, 9)]:
            d, n = sum(dims), 3 * _FILL + 11
            buf = rng.normal(size=(n, 3 * d)) + 1j * rng.normal(size=(n, 3 * d))
            buf[5, 0] = complex(np.inf, 1.0)
            buf[7, d - 1] = complex(0.0, np.nan)
            buf[9] = complex(-0.0, -0.0)
            buf[11] = 0.0
            buf[13, 1] = 1e200
            base = buf[0, d : 2 * d].copy()
            rows = buf[:, d : 2 * d]
            with np.errstate(over="ignore", invalid="ignore"):
                whole = (block_norms(rows, dims), block_norms(rows - base, dims))
            pieces = [_norms_and_dists(rows[i : i + _FILL], base, dims)
                      for i in range(0, n, _FILL)]
            for k in (0, 1):
                got = np.concatenate([piece[k] for piece in pieces])
                assert np.array_equal(got.view(np.uint64), whole[k].view(np.uint64))

    @pytest.mark.parametrize(
        "kind", ["rotation_pair", "dense_jordan", "overflow", "retiring_shift", "zero_signs"]
    )
    def test_segment_without_points_matches_its_twin(self, kind):
        rng = np.random.default_rng(11)
        rotation = DiagonalUnimodular((0.1, GOLDEN))
        specs, x = {
            "rotation_pair": ([rotation, Inverse(rotation)], None),
            "dense_jordan": ([DirectSum((random_dense(rng, 4), JordanBlock(0.5, 2)))], None),
            "overflow": ([Scale(1.002, DiagonalUnimodular((0.25, GOLDEN))), rotation],
                         np.array([1.0, 0.0j])),
            "retiring_shift": ([WeightedBackwardShiftTruncation((1.0, 2.0, 0.5), 4)], None),
            "zero_signs": ([DenseMatrix(((-1.0,),))], np.zeros(1, dtype=complex)),
        }[kind]
        ops = [realize(s) for s in specs]
        if x is None:
            x = rng.normal(size=ops[0].dim) + 1j * rng.normal(size=ops[0].dim)
        horizon = 4 * _FILL + 3
        with_points = iterate_many(ops, x, horizon)
        without = iterate_many(ops, x, horizon, points=False)
        for a, b in zip(with_points, without):
            assert b.points is None and a.points is not None
            assert bitwise_equal(a.base, b.base)
            assert a.bounded == b.bounded
            assert np.array_equal(a.dists.view(np.uint64), b.dists.view(np.uint64))
            assert (a.horizon_effective, a.overflow) == (b.horizon_effective, b.overflow)
            assert not b.dists.flags.writeable

    @pytest.mark.parametrize("kind", ["rotation_pair", "dense_pair", "overflow", "three_lanes"])
    def test_points_per_lane(self, kind):
        # only the lanes flagged True keep points; every lane's norms and
        # distances, and the kept lanes' points, are those of a run that
        # keeps every lane's points
        rng = np.random.default_rng(12)
        rotation = DiagonalUnimodular((0.1, GOLDEN))
        dense = random_dense(rng, 2)
        growing = Scale(1.002, DiagonalUnimodular((0.25, GOLDEN)))
        specs, keeps = {
            "rotation_pair": ([rotation, Inverse(rotation)], [(True, False), (False, True)]),
            "dense_pair": ([dense, Inverse(dense)], [(True, False), (False, False)]),
            # the kept lane is the one that overflows, or the one beside it
            "overflow": ([growing, rotation], [(True, False), (False, True)]),
            "three_lanes": ([rotation, growing, dense],
                            [(False, True, True), (True, False, True)]),
        }[kind]
        ops = [realize(s) for s in specs]
        x = np.array([1.0, 0.5j])
        horizon = 4 * _FILL + 3
        every = iterate_many(ops, x, horizon)
        for flags in keeps:
            some = iterate_many(ops, x, horizon, points=flags)
            for a, b, kept in zip(every, some, flags):
                assert (b.points is not None) == kept
                if kept:
                    assert bitwise_equal(a.points, b.points)
                    # each lane owns its points, not a view of a wider array
                    assert b.points.flags.c_contiguous and b.points.flags.owndata
                assert a.bounded == b.bounded
                assert np.array_equal(a.dists.view(np.uint64), b.dists.view(np.uint64))
                assert (a.horizon_effective, a.overflow) == (b.horizon_effective, b.overflow)
        assert any(s.overflow for s in every) == (kind in ("overflow", "three_lanes"))

    def test_points_flags_must_match_the_lanes(self):
        T = realize(DenseMatrix(((1.0,),)))
        with pytest.raises(ValueError, match="2 flags for 1 operators"):
            iterate_many([T], np.array([1.0 + 0j]), 5, points=(True, False))

    def test_window_measure_of_a_segment_without_points(self):
        # the window is re-stepped from the segment's fill tops, and the
        # measure is that of the segment that kept its points
        parts = [realize(DiagonalUnimodular((0.25,))), realize(SWAP_SPEC)]
        x = np.array([1.0, 2.0j, 3.0])
        horizon = 2 * _FILL + 7
        bare = iterate_many((direct_sum(parts),), x, horizon, points=False)[0]
        kept = iterate(direct_sum(parts), x, horizon)
        for start, n in [(0, 10), (_FILL - 3, 20), (horizon - _FILL, _FILL)]:
            a, b = empirical_from_window(kept, start, n), empirical_from_window(bare, start, n)
            assert bitwise_equal(a.atoms, b.atoms) and np.array_equal(a.counts, b.counts)
            assert a.denominator == b.denominator == n + 1
        with pytest.raises(DimensionError, match="exceeds effective horizon"):
            empirical_from_window(bare, horizon - 5, 6)
        # part lanes never keep points, even beside a sum that does
        orbit, *got = iterate_many((direct_sum(parts),), x, 100, True, parts)
        assert orbit.points is not None
        assert [part.points for part in got] == [None, None]


class TestRestep:
    """A segment without points gives any window of its rows, re-stepped
    from its fill tops, bit for bit the rows of one that kept them."""

    HORIZON = 3 * _FILL + 5

    def cases(self, kind):
        """(ops, x, parts) of one loop."""
        rng = np.random.default_rng(70)
        ops, parts = {
            "rotation": ([DiagonalUnimodular((0.1, GOLDEN))], []),
            # the sum and its inverse merge into one multiply pass
            "diagonal_sum": ([DirectSum((DiagonalUnimodular((GOLDEN,)),
                                         DiagonalUnimodular((0.41421356,))))],
                             [DiagonalUnimodular((GOLDEN,)), DiagonalUnimodular((0.41421356,))]),
            # the Jordan pass reaches an exact zero near n = 1100 and retires
            "dense_jordan": ([DirectSum((random_dense(rng, 4), JordanBlock(0.5, 2)))], []),
            # nilpotent after 4 steps, alone or beside a coordinate that
            # never moves, so every window past row 4 is the fill-forward
            # of a retired pass
            "shift": ([WeightedBackwardShiftTruncation((1.0, 2.0, 0.5), 4)], []),
            "shift_beside_fixed": ([DirectSum((WeightedBackwardShiftTruncation((1.0, 2.0, 0.5), 4),
                                               DiagonalUnimodular((0.0,))))], []),
            # 1.01^n from 1e-20 passes the cap near n = 7400, in the second fill
            "overflow": ([Scale(1.01, DiagonalUnimodular((0.25, GOLDEN)))], []),
        }[kind]
        ops = [realize(s) for s in ops]
        if kind == "diagonal_sum":
            ops.append(realize(Inverse(ops[0].spec)))
        if kind == "overflow":
            x = np.array([1e-20, 1e-20j])
        else:
            x = rng.normal(size=ops[0].dim) + 1j * rng.normal(size=ops[0].dim)
        return ops, x, [realize(s) for s in parts]

    @pytest.mark.parametrize("kind", ["rotation", "diagonal_sum", "dense_jordan", "shift",
                                      "shift_beside_fixed", "overflow"])
    def test_windows_equal_the_kept_points(self, kind):
        ops, x, parts = self.cases(kind)
        segments = iterate_many(ops, x, self.HORIZON, False, parts)
        columns = accumulate((P.dim for P in parts), initial=0)
        oracles = [iterate(T, x, self.HORIZON).points for T in ops] + [
            iterate(P, x[a : a + P.dim], self.HORIZON).points for P, a in zip(parts, columns)
        ]
        assert len(segments) == len(oracles) == len(ops) + len(parts)
        for segment, points in zip(segments, oracles):
            h = segment.horizon_effective
            assert segment.points is None and points.shape[0] == h + 1
            assert segment.overflow == (kind == "overflow")
            if segment.overflow:
                assert _FILL + 1 < h < 2 * _FILL
            for n in (0, 1, _FILL):
                # windows at the fill edges, and the one ending at the horizon
                for lo in sorted({0, _FILL - 1, _FILL, _FILL + 1, h - n}):
                    if 0 <= lo and lo + n <= h:
                        got = segment.rows(lo, lo + n + 1)
                        assert bitwise_equal(got, points[lo : lo + n + 1]), (lo, n)
            with pytest.raises(IndexError):
                segment.rows(h - 1, h + 2)

    @pytest.mark.parametrize("kind", ["shift", "shift_beside_fixed"])
    def test_window_past_the_fixed_point(self, kind):
        # the shift reaches an exact zero at row 4: re-stepped from the
        # top at row 1, the pass retires after its first fill and the
        # window past it is that fill's last row, filled forward
        ops, x, _ = self.cases(kind)
        segment = iterate_many(ops, x, self.HORIZON, False)[0]
        points = iterate(ops[0], x, self.HORIZON).points
        assert first_repeat(points) == 5
        got = segment.rows(_FILL + 1 - 2, 2 * _FILL + 1)
        assert bitwise_equal(got, points[_FILL - 1 : 2 * _FILL + 1])
        assert not got[:, :4].any()
        if kind == "shift_beside_fixed":
            assert bitwise_equal(np.ascontiguousarray(got[:, 4]), np.full(_FILL + 2, x[4]))

    def test_restep_costs_at_most_one_fill_before_the_window(self, monkeypatch):
        T = realize(DiagonalUnimodular((0.1, GOLDEN)))
        segment = iterate_many((T,), np.array([1.0, 1.0j]), self.HORIZON, False)[0]
        assert [row for row, _ in segment.tops] == [0, 1, _FILL + 1, 2 * _FILL + 1, 3 * _FILL + 1]
        for lo, n, steps in [(0, 0, 0), (1, 0, 0), (_FILL, 0, _FILL - 1),
                             (_FILL, _FILL, 2 * _FILL - 1), (_FILL + 1, 1, 1)]:
            calls = []
            count_kernel_calls(monkeypatch, calls)
            segment.rows(lo, lo + n + 1)
            monkeypatch.undo()
            assert len(calls) == steps
            assert steps <= n + _FILL - 1

    @pytest.mark.parametrize("window_len", [0, 1, 100, _FILL])
    def test_keeps_points_on_the_side_of_the_cheaper_cost(self, window_len):
        # the window is re-stepped in at most window_len + _FILL steps,
        # and dropping the points saves horizon - window_len rows
        edge = 2 * window_len + _FILL
        assert recurlab.orbit.keeps_points(edge, window_len)
        assert not recurlab.orbit.keeps_points(edge + 1, window_len)


def assert_same_segment(a, b):
    """Two segments with the same distances, bit for bit, and the same
    base, boundedness verdict and horizons."""
    assert np.array_equal(a.dists.view(np.uint64), b.dists.view(np.uint64))
    assert bitwise_equal(a.base, b.base)
    assert a.bounded == b.bounded
    assert (a.horizon_effective, a.overflow) == (b.horizon_effective, b.overflow)


def count_steps(monkeypatch):
    """The calls of the orbit engine's ``step_rows``, one per pass and fill;
    the list grows as the engine calls it."""
    calls = []
    step = recurlab.orbit.step_rows
    monkeypatch.setattr(
        recurlab.orbit, "step_rows", lambda p, *rows: calls.append(p.cols) or step(p, *rows)
    )
    return calls


class TestPartOrbits:
    """The orbits of a direct sum's parts, as lanes over the sum's columns."""

    def test_parts_are_lanes_with_their_own_metric(self):
        parts = [realize(DiagonalUnimodular((0.25, GOLDEN))), realize(SWAP_SPEC)]
        T = direct_sum(parts)
        x = np.array([1.0, 2.0j, 3.0, 4.0])
        orbit, *got = iterate_many((T,), x, 2000, True, parts)
        start = 0
        for P, orb in zip(parts, got):
            ref = iterate(P, x[start : start + P.dim], 2000)
            assert orb.points is None
            assert bitwise_equal(orbit.points[:, start : start + P.dim], ref.points)
            for field in ("base", "dists"):
                assert np.array_equal(getattr(orb, field), getattr(ref, field))
            assert orb.bounded == ref.bounded
            assert (orb.horizon_effective, orb.overflow) == (2000, False)
            start += P.dim

    def test_part_norms_over_fills_equal_its_own_orbit(self):
        # a part's norms and distances are taken one buffer fill of rows at
        # a time; they equal those of the part's own orbit bit for bit
        rng = np.random.default_rng(13)
        parts = [realize(DirectSum((random_dense(rng, 3), DiagonalUnimodular((GOLDEN,))))),
                 realize(random_dense(rng, 9))]
        x = rng.normal(size=13) + 1j * rng.normal(size=13)
        horizon = 2 * _FILL + 5
        orbit, *got = iterate_many((direct_sum(parts),), x, horizon, True, parts)
        assert len(got) == 2
        for P, start, part in zip(parts, (0, 4), got):
            ref = iterate(P, x[start : start + P.dim], horizon)
            assert np.array_equal(part.dists.view(np.uint64), ref.dists.view(np.uint64))
            assert part.bounded == ref.bounded
            norms = P.block_norms(orbit.points[:, start : start + P.dim])
            assert part.bounded == oracle_boundedness(norms, False)

    def test_overflowed_sum_iterates_its_parts(self):
        # the sum stops when its growing part passes the cap; the bounded
        # part's own orbit runs the full horizon, with no second loop
        parts = [realize(Scale(2.0, DenseMatrix(((1.0,),)))), realize(SWAP_SPEC)]
        orbit, grown, swapped = iterate_many(
            (direct_sum(parts),), np.array([1.0, 1.0, 0.0]), 100, True, parts
        )
        assert orbit.overflow and orbit.horizon_effective == 39
        assert grown.overflow and grown.horizon_effective == 39
        assert not swapped.overflow and swapped.horizon_effective == 100
        # each part keeps no points, and its norms and distances are those
        # of its own iterate bit for bit
        for P, part, base in zip(parts, (grown, swapped), ([1.0], [1.0, 0.0])):
            ref = iterate(P, np.array(base, dtype=complex), 100)
            assert part.points is None
            assert np.array_equal(part.dists.view(np.uint64), ref.dists.view(np.uint64))
            assert part.bounded == ref.bounded

    def test_dims_must_add_up(self):
        with pytest.raises(DimensionError, match="part dims"):
            iterate_many((realize(SWAP_SPEC),), np.array([1.0, 0.0j]), 5,
                         parts=[realize(DenseMatrix(((1.0,),)))])

    # (parts, horizon): rotations in one diagonal pass, merged with the
    # inverse lane's; dense parts over several fills; a part that retires
    # at an exact zero; sums cut by a part that grows from 1e-13 in their
    # third fill, beside a rotation in the same diagonal pass or a dense
    # unitary in a pass of its own, each of which runs to the full horizon
    CASES = {
        "diagonal": ([DiagonalUnimodular((0.25, GOLDEN)), DiagonalUnimodular((0.41421356,))],
                     2 * _FILL + 3),
        "dense": ([DirectSum((DenseMatrix(((0.0, 1.0), (1.0, 0.0))),
                              DiagonalUnimodular((GOLDEN,)))),
                   JordanBlock(0.5, 2)], 2 * _FILL + 5),
        "retired": ([Scale(0.5, DenseMatrix(((1.0,),))), DiagonalUnimodular((GOLDEN,))],
                    3 * _FILL),
        "overflow": ([DiagonalUnimodular((GOLDEN,)), Scale(1.005, DenseMatrix(((1.0,),)))],
                     4 * _FILL),
        "overflow_beside_dense": ([random_dense(np.random.default_rng(5), 2),
                                   Scale(1.005, DenseMatrix(((1.0,),)))], 4 * _FILL),
    }

    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "with_inverse"])
    @pytest.mark.parametrize("case", CASES)
    def test_part_lanes_equal_their_own_loops(self, monkeypatch, case, inverse):
        specs, horizon = self.CASES[case]
        parts = [realize(s) for s in specs]
        T = direct_sum(parts)
        ops = (T, realize(Inverse(DirectSum(tuple(specs)))))[: 1 + inverse]
        points = (True, False)[: len(ops)]
        rng = np.random.default_rng(21)
        x = rng.normal(size=T.dim) + 1j * rng.normal(size=T.dim)
        if case.startswith("overflow"):
            x[-1] = 1e-13
        calls = count_steps(monkeypatch)
        alone = iterate_many(ops, x, horizon, points)
        without = len(calls)
        got = iterate_many(ops, x, horizon, points, parts)
        assert len(got) == len(ops) + 2
        live, grown = got[len(ops) :]
        if case.startswith("overflow"):
            # the live part keeps its pass stepping past the sum's cut
            assert alone[0].overflow and 2 * _FILL < alone[0].horizon_effective < 3 * _FILL
            assert not live.overflow and live.horizon_effective == horizon
            assert grown.horizon_effective == alone[0].horizon_effective
        else:
            # the part lanes add no kernel call
            assert calls[without:] == calls[:without]
        for a, b in zip(alone, got):
            assert_same_segment(a, b)
        assert bitwise_equal(alone[0].points, got[0].points)
        start = 0
        for P, part in zip(parts, (live, grown)):
            ref = iterate_many((P,), x[start : start + P.dim], horizon, False)[0]
            assert part.points is None
            assert_same_segment(part, ref)
            start += P.dim


def same_bits(a, b):
    """Both None, or arrays of one dtype and shape with the same bytes."""
    if a is None or b is None:
        return a is b
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_lane(a, b):
    """Two segments equal in every field, fill tops and re-stepped rows
    included, bit for bit."""
    for field in ("base", "points", "dists", "ranks"):
        assert same_bits(getattr(a, field), getattr(b, field)), field
    assert a.operator is b.operator and a.radii == b.radii
    assert (a.bounded, a.horizon_effective, a.overflow) == (b.bounded, b.horizon_effective, b.overflow)
    assert [n for n, _ in a.tops] == [n for n, _ in b.tops]
    assert all(same_bits(z, w) for (_, z), (_, w) in zip(a.tops, b.tops))
    h = a.horizon_effective + 1
    assert same_bits(a.rows(0, h), b.rows(0, h))


class TestManyVectors:
    """A call on the V rows of a ``(V, d)`` array steps every vector's lanes
    in one loop, and each lane equals its own one-vector call bit for bit."""

    # (ops, parts, radii, scale): the j-th vector is scaled by scale^j, so
    # that its lanes overflow or retire at other steps than the first's
    CASES = {
        # J(0.5) retires to an exact zero near step 1100, and the 1.01-scaled
        # rotation passes the cap near 2800 from ones and in the second fill
        # from the third vector on, in the pass it shares with the rotation
        "fill_edges": ([JordanBlock(0.5, 2), DiagonalUnimodular((GOLDEN, 0.3)),
                        Scale(1.01, DiagonalUnimodular((0.25, GOLDEN)))], [], None, 1e-3),
        # a sum, its inverse and its parts, ranked on two radii; the
        # 1.005-scaled part passes the cap at other steps for each vector
        "sum_parts": ([DirectSum((DiagonalUnimodular((GOLDEN,)), SWAP_SPEC,
                                  Scale(1.005, DenseMatrix(((1.0,),)))))],
                      [DiagonalUnimodular((GOLDEN,)), SWAP_SPEC, Scale(1.005, DenseMatrix(((1.0,),)))],
                      (0.5, 0.25), 1e-3),
        # 0.9^n from ones underflows to an exact zero near step 7070, in
        # the second fill, and from 1e-150 near 3800, in the first: the
        # first vector's lanes record fills that the others' do not
        "decay": ([Scale(0.9, DiagonalUnimodular((0.0,))), Scale(0.9, DenseMatrix(((1.0,),)))],
                  [], None, 1e-150),
    }

    def vectors(self, V, d, scale):
        rng = np.random.default_rng(V)
        xs = [np.ones(d, dtype=complex)]
        xs += [(rng.normal(size=d) + 1j * rng.normal(size=d)) * scale**j for j in range(1, V)]
        return np.array(xs)

    @pytest.mark.parametrize("horizon", [0, 1, _FILL - 1, _FILL, _FILL + 1, 2 * _FILL])
    @pytest.mark.parametrize("case", CASES)
    def test_each_lane_equals_its_one_vector_call(self, case, horizon):
        specs, parts, radii, scale = self.CASES[case]
        ops = [realize(s) for s in specs]
        if case == "sum_parts":
            ops.append(realize(Inverse(specs[0])))
        parts = [realize(s) for s in parts]
        points = [k == 0 for k in range(len(ops))]
        lanes = len(ops) + len(parts)
        for V in range(1, 6):  # merged diagonal widths cross the SIMD remainders
            xs = self.vectors(V, ops[0].dim, scale)
            got = iterate_many(ops, xs, horizon, points, parts, radii)
            assert len(got) == V * lanes
            for j, x in enumerate(xs):
                alone = iterate_many(ops, x, horizon, points, parts, radii)
                for a, b in zip(got[j * lanes : (j + 1) * lanes], alone, strict=True):
                    assert_same_lane(a, b)
        if case != "sum_parts" and horizon == 2 * _FILL:
            # the first vector's lanes reach what the last one's do not
            first, last = got[:lanes], got[-lanes:]
            if case == "decay":
                assert all(len(a.tops) > len(b.tops) for a, b in zip(first, last))
            else:
                assert first[-1].overflow and last[-1].horizon_effective > _FILL

    @pytest.mark.parametrize("V", range(1, 6))
    def test_one_kernel_call_per_merged_pass_and_fill(self, monkeypatch, V):
        rng = np.random.default_rng(V)
        rotation = DiagonalUnimodular((0.1, GOLDEN))
        mixed = DirectSum((DiagonalUnimodular((0.2,)), random_dense(rng, 2),
                           DiagonalUnimodular((0.7,))))
        horizon = 3 * _FILL + 5  # four fills
        for specs, passes in [
            # every vector's T and T^-1 in one multiply pass
            ([rotation, Inverse(rotation)], 1),
            # each lane's dense block is a pass of its own, and the diagonal
            # blocks between two of them merge, across lanes and vectors:
            # d | D | d + d | D | d + ... | D | d
            ([mixed, Inverse(mixed)], 4 * V + 1),
        ]:
            ops = [realize(s) for s in specs]
            xs = self.vectors(V, ops[0].dim, 1.0)
            calls = count_steps(monkeypatch)
            segments = iterate_many(ops, xs, horizon, False)
            monkeypatch.undo()
            assert len(calls) == 4 * passes
            assert not any(s.overflow for s in segments)

    def test_validation(self):
        T = realize(DiagonalUnimodular((0.1, GOLDEN)))
        for shape in [(2, 3), (1, 2, 2), (2, 1)]:
            with pytest.raises(DimensionError):
                iterate_many((T,), np.ones(shape, dtype=complex), 5)
        # one vector past the cap stops the whole call
        with pytest.raises(ValueError, match="base point already exceeds the overflow cap"):
            iterate_many((T,), np.array([[1.0, 0.0], [1e13, 0.0]]), 5)
        assert iterate_many((T,), np.ones((0, 2), dtype=complex), 5) == []


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


# operators whose lanes return, drift, or overflow past the cap (through
# a finite norm, or to inf and then nan), and sums recorded with part lanes
RANKED_SPECS = st.sampled_from([
    DiagonalUnimodular((0.5,)),
    DiagonalUnimodular((GOLDEN, 0.25)),
    DirectSum((DiagonalUnimodular((0.41421356,)), JordanBlock(0.5, 2))),
    DirectSum((DiagonalUnimodular((GOLDEN,)), JordanBlock(1.5, 2))),
    Scale(1e300, DiagonalUnimodular((0.3,))),
    JordanBlock(1e200, 2),
    JordanBlock(1.0, 2),
    SWAP_SPEC,
])


class TestRankedLanes:
    """A lane stepped for a radius grid keeps each step's rank among the
    radii, and :meth:`OrbitSegment.inside` reads the same masks from it as
    from the float distances of the same lane stepped without a grid."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_ranked_masks_are_the_float_masks(self, data):
        spec = data.draw(RANKED_SPECS)
        T = realize(spec)
        parts = [realize(p) for p in spec.parts] if isinstance(spec, DirectSum) else []
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.normal(size=T.dim) + 1j * rng.normal(size=T.dim)
        if data.draw(st.booleans()):
            x = x.real + 0j  # a real vector returns to its own distances exactly
        h = data.draw(st.integers(0, 2 * _FILL + 10))
        plain = iterate_many((T,), x, h, False, parts)
        # random radii, duplicates of them, and radii equal to a distance
        size = data.draw(st.sampled_from([1, 2, 16, 255, 256, 300]))
        radii = list(rng.uniform(1e-3, 4.0, size=size))
        radii += data.draw(st.lists(st.sampled_from(radii), max_size=5))
        dists = np.concatenate([seg.dists for seg in plain])
        hits = dists[dists > 0]
        if hits.size:
            radii += list(rng.choice(hits, size=min(8, hits.size)))
        ranked = iterate_many((T,), x, h, False, parts, radii)
        grid = sorted(set(radii))
        for a, b in zip(plain, ranked):
            assert b.dists is None and b.radii == tuple(grid)
            assert b.ranks.dtype == np.min_scalar_type(len(grid))
            assert b.ranks.shape == a.dists.shape and not b.ranks.flags.writeable
            assert (b.horizon_effective, b.overflow, b.bounded) == (
                a.horizon_effective, a.overflow, a.bounded)
            for eps in grid:
                assert np.array_equal(b.inside(eps), a.inside(eps))

    def test_three_hundred_radii_take_two_bytes(self):
        T = realize(DiagonalUnimodular((GOLDEN,)))
        x = np.ones(1, dtype=complex)
        plain = iterate(T, x, 3 * _FILL)
        radii = np.linspace(0.01, 2.0, 300)
        (ranked,) = iterate_many((T,), x, 3 * _FILL, False, radii=radii)
        assert ranked.ranks.dtype == np.uint16 and ranked.ranks.max() == 300 - 1
        for eps in radii:
            assert np.array_equal(ranked.inside(eps), plain.dists < eps)

    def test_overflowed_lane_ranks_its_kept_steps(self):
        # x = 1 under 10: the distance 10^n - 1 passes 1 at n = 1 and 10^6
        # at n = 7, and the lane is cut before 10^13, past the cap
        T, x = realize(JordanBlock(10.0, 1)), np.ones(1, dtype=complex)
        plain = iterate(T, x, 50)
        (ranked,) = iterate_many((T,), x, 50, False, radii=[1e300, 1e6, 1.0])
        assert plain.overflow and ranked.overflow and ranked.horizon_effective == 12
        assert ranked.ranks.tolist() == [0] + [1] * 6 + [2] * 6
        for eps in ranked.radii:
            assert np.array_equal(ranked.inside(eps), plain.dists < eps)

    def test_off_grid_epsilon_raises(self):
        T = realize(DiagonalUnimodular((GOLDEN,)))
        (ranked,) = iterate_many((T,), np.ones(1, dtype=complex), 100, radii=[0.5, 0.25, 0.5])
        assert ranked.radii == (0.25, 0.5) and ranked.points is not None
        grid = re.escape("epsilon 0.3 is not on the orbit's radii [0.25, 0.5]")
        with pytest.raises(ValueError, match=grid):
            ranked.inside(0.3)
        with pytest.raises(ValueError, match="epsilon must be > 0"):
            ranked.inside(0.0)
        with pytest.raises(ValueError, match="not on the orbit's radii"):
            return_set(ranked, float("inf"))
        assert return_set(ranked, 0.5) == return_set(iterate(T, np.ones(1), 100), 0.5)


@pytest.fixture(scope="module", params=[0.618034, 0.41421356])
def rotation_orbit(request):
    T = realize(DiagonalUnimodular((request.param,)))
    return iterate(T, np.array([1.0 + 0j]), 10**6)


class TestCheckRadii:
    """``check_radii`` is the one rule for an experiment's radii: the config,
    ``classify_vector`` and ``unimodular_return_set`` all call it."""

    def test_keeps_the_given_order_as_floats(self):
        # the report's records follow the config's order, not the sorted grid
        radii = check_radii([0.5, 1, 0.25])
        assert radii == (0.5, 1.0, 0.25)
        assert all(type(e) is float for e in radii)

    @pytest.mark.parametrize(
        "epsilons, message",
        [
            ([], "positive and finite, and nonempty, got \\[\\]"),
            ([0.5, 0.0], "positive and finite"),
            ([0.5, -0.25], "positive and finite"),
            ([math.nan], "positive and finite"),
            ([0.5, math.inf], "positive and finite"),
            ([0.5, 0.25, 0.5], "distinct, got 0.5 more than once"),
            ([0.25, 0.25, 0.25], "distinct, got 0.25 more than once"),
        ],
    )
    def test_refuses(self, epsilons, message):
        with pytest.raises(ValueError, match=f"epsilons must be {message}"):
            check_radii(epsilons)


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


def oracle_rotation_dists(blocks, horizon):
    """Distances from ``T^n x`` to x, n = 0..horizon, for a direct sum of
    diagonal rotations, with the standard library alone.

    ``blocks`` holds one ``(angles_turns, x)`` pair per block. Each phase
    ``n * theta mod 1`` is reduced exactly on the integers of
    ``Fraction(theta)`` and rounded once, then ``cmath.exp`` gives the
    rotation: ``|lambda^n x_j - x_j| = |x_j| |e^(2 pi i n theta) - 1|``.
    Blocks combine by the max of their Euclidean norms. Nothing here
    shares arithmetic with ``iterate``, which multiplies by the rounded
    ``exp(2 pi i theta)`` once per step.
    """
    turn = 2j * math.pi
    block_squares = []
    for angles, xs in blocks:
        squares = [0.0] * (horizon + 1)
        for theta, z in zip(angles, xs):
            frac = Fraction(theta)
            p, q, r = frac.numerator, frac.denominator, abs(complex(z))
            squares = [
                s + (r * abs(cmath.exp(turn * (n * p % q / q)) - 1)) ** 2
                for s, n in zip(squares, range(horizon + 1))
            ]
        block_squares.append(squares)
    return [math.sqrt(max(s)) for s in zip(*block_squares)]


class TestClosedFormRotationOracle:
    """Return times of iterated rotations against closed-form distances.

    The iterated orbit drifts from the exact one by about 1e-16 per step
    (2.6e-10 by n = 10^6 for theta = 0.618034), so a time whose oracle
    distance lies within DELTA of epsilon is left undecided; every other
    time must fall on the same side of epsilon. Both cases run on the
    points-free path the runner takes for classify-only experiments.
    """

    DELTA = 1e-8

    def check(self, blocks, orbit, epsilons):
        oracle = np.array(oracle_rotation_dists(blocks, orbit.horizon_effective))
        assert orbit.points is None and oracle.shape == orbit.dists.shape
        for eps in epsilons:
            clear = np.abs(oracle - eps) > self.DELTA
            assert np.count_nonzero(~clear) < 10
            assert np.array_equal((oracle < eps)[clear], (orbit.dists < eps)[clear])

    def test_eps_sweep_radii_at_a_million_steps(self):
        theta = 0.618034
        T = realize(DiagonalUnimodular((theta,)))
        orbit = iterate_many((T,), np.array([1.0 + 0j]), 10**6, points=False)[0]
        radii = [round(0.4 + 0.1 * k, 10) for k in range(16)]
        self.check([((theta,), (1.0,))], orbit, radii)

    def test_product_of_rotations(self):
        # criterion 13's direct sums of two rotations, over a longer horizon
        rng = np.random.default_rng(1313)
        for _ in range(3):
            blocks = []
            for _part in range(2):
                d = int(rng.integers(1, 3))
                blocks.append((tuple(rng.uniform(size=d)),
                               tuple(np.exp(2j * np.pi * rng.uniform(size=d)))))
            T = direct_sum([realize(DiagonalUnimodular(a)) for a, _ in blocks])
            x = np.concatenate([np.array(xs) for _, xs in blocks])
            orbit = iterate_many((T,), x, 10**5, points=False)[0]
            self.check(blocks, orbit, [float(rng.uniform(0.2, 0.8))])


def norm_splits(norms):
    """Ways to feed a norm sequence in blocks: whole, in two blocks split at
    every position, in singletons, and with a one-norm block at, before and
    after the growth check's midpoint, so that the midpoint straddles a
    split."""
    n, mid = norms.size, (norms.size - 1) // 2
    yield [norms]
    yield [norms[:0], norms, norms[n:]]
    for k in range(1, n):
        yield [norms[:k], norms[k:]]
    yield [norms[i : i + 1] for i in range(n)]
    for m in (mid - 1, mid, mid + 1):
        if 0 <= m < n:
            yield [norms[:m], norms[m : m + 1], norms[m + 1 :]]


def fed_report(size, pieces, overflow=False):
    """The report of a ``_NormRecord`` fed ``pieces`` of a ``size``-norm
    sequence in order."""
    record = _NormRecord((size - 1) // 2)
    for piece in pieces:
        record.feed(piece)
    return record.report(overflow)


class TestBoundedness:
    def test_rotation_flat(self):
        T = realize(DiagonalUnimodular((GOLDEN,)))
        orb = iterate(T, np.array([1.0 + 0j]), 500)
        rep = orb.bounded
        assert rep.bounded_at_horizon
        assert abs(rep.sup_norm - 1.0) < 1e-12
        assert not rep.growth_detected

    def test_jordan_growth_detected(self):
        T = realize(JordanBlock(1.0, 2))
        orb = iterate(T, np.array([0.0, 1.0], dtype=complex), 100)
        rep = orb.bounded
        assert rep.bounded_at_horizon  # no overflow at this horizon
        assert rep.sup_norm == pytest.approx(math.hypot(100.0, 1.0))
        assert rep.growth_detected

    def test_decay_bounded(self):
        T = realize(Scale(0.5, DenseMatrix(((1.0,),))))
        orb = iterate(T, np.array([1.0 + 0j]), 60)
        rep = orb.bounded
        assert rep.bounded_at_horizon and rep.sup_norm == 1.0
        assert not rep.growth_detected

    def test_overflow_not_bounded(self):
        T = realize(Scale(2.0, DenseMatrix(((1.0,),))))
        orb = iterate(T, np.array([1.0 + 0j]), 100)
        assert not orb.bounded.bounded_at_horizon

    def test_growth_check_equals_diff_formula(self):
        # the check compares neighbours, with no np.diff of the tail: under
        # IEEE subtraction with gradual underflow a - b > 0 iff a > b, inf
        # and nan included
        rng = np.random.default_rng(43)
        tails = [np.sort(rng.uniform(1.0, 2.0, 50)), rng.uniform(1.0, 2.0, 50)]
        tails += [np.cumsum(rng.uniform(0.0, 1e-300, 40)), np.sort(rng.normal(size=30))]
        tails += [
            np.array(t)
            for t in (
                [1.0, 2.0, 2.0, 3.0],
                [1.0, 2.0, np.inf],
                [1.0, np.inf, np.inf],
                [-np.inf, 1.0, np.inf],
                [1.0, np.nan, 3.0],
                [1.0, 2.0, np.nan],
                [-1.5e308, 1.5e308, 1.6e308],
                [1.5e308, -1.5e308, 1.6e308],
                [0.0, 5e-324, 1e-323],
                [1e-323, 5e-324, 1e-322],
                [-0.0, 0.0, 1.0],
            )
        ]
        verdicts = set()
        for tail in tails:
            # the tail is the last tail.size of 2 * tail.size - 1 norms
            norms = np.concatenate([np.ones(tail.size - 1), tail])
            with np.errstate(over="ignore", invalid="ignore"):
                old = bool(np.all(np.diff(tail) > 0) and tail[-1] > tail[0] * (1 + 1e-9))
            for pieces in norm_splits(norms):
                assert fed_report(norms.size, pieces).growth_detected == old, (tail, pieces)
            verdicts.add(old)
        assert verdicts == {True, False}

    def test_fed_record_equals_the_whole_sequence_formula(self):
        # sup and growth of a record fed block by block, against the
        # formula on the whole sequence, for every split; sequences with
        # plateaus, drops and a rise that stops just before or after the
        # midpoint
        rng = np.random.default_rng(44)
        sequences = [np.cumsum(rng.uniform(0.0, 1.0, n)) for n in (1, 2, 3, 4, 5, 9, 40)]
        sequences += [rng.uniform(1.0, 2.0, 12), np.ones(7), np.arange(10.0)[::-1]]
        for n in (9, 10, 41):
            for stop in ((n - 1) // 2 - 1, (n - 1) // 2, (n - 1) // 2 + 1):
                seq = np.arange(1.0, n + 1.0)
                seq[stop] = seq[stop - 1]  # the last norm that does not rise
                sequences.append(seq)
        for norms in sequences:
            for overflow in (False, True):
                want = oracle_boundedness(norms, overflow)
                for pieces in norm_splits(norms):
                    assert fed_report(norms.size, pieces, overflow) == want, (norms, pieces)

    def test_repeated_last_norm_equals_its_copies(self):
        # the rows after a loop that ended early repeat its last row
        rng = np.random.default_rng(45)
        for n, copies in [(1, 1), (1, 5), (4, 1), (6, 3), (6, 7), (20, 30)]:
            norms = np.cumsum(rng.uniform(0.1, 1.0, n))
            for split in range(n + 1):
                record = _NormRecord((n + copies - 1) // 2)
                record.feed(norms[:split])
                record.feed(norms[split:])
                record.repeat(copies)
                whole = np.concatenate([norms, np.full(copies, norms[-1])])
                assert record.report(False) == oracle_boundedness(whole, False)

    @pytest.mark.parametrize("kind", ["dense_1", "dense_9", "diagonal_2"])
    def test_overflow_midpoint_in_an_earlier_fill(self, monkeypatch, kind):
        # 1.005^n passes the cap near n = 5541, in the second fill; the
        # growth check's tail starts near 2770, in the first, and its norm
        # is stepped again from that fill's top row. Nine columns take
        # row_sums' pairwise sum
        spec = {
            "dense_1": DenseMatrix(((1.0,),)),
            "dense_9": random_dense(np.random.default_rng(46), 9),
            "diagonal_2": DiagonalUnimodular((0.25, GOLDEN)),
        }[kind]
        T = realize(Scale(1.005, spec))
        x = np.zeros(T.dim, dtype=complex)
        x[0] = 1.0
        mids = []
        report = _NormRecord.report
        monkeypatch.setattr(_NormRecord, "report",
                            lambda self, overflow: mids.append(self.at_mid) or report(self, overflow))
        orb = iterate_many((T,), x, 4 * _FILL, points=False)[0]
        ref = reference_orbit(T, x, 4 * _FILL)
        h = ref.shape[0] - 1
        assert orb.overflow and orb.horizon_effective == h and _FILL < h < 2 * _FILL
        norms = T.block_norms(ref)
        assert orb.bounded == oracle_boundedness(norms, True)
        assert orb.bounded.growth_detected
        assert float(mids[0]).hex() == float(norms[h // 2]).hex()

    def test_overflow_moves_the_midpoint_past_a_flat_spot(self):
        # a rotation of modulus 1 beside a part that starts at 1e-13 and
        # grows by 1.005 per step: the norm is flat at 1 until the growing
        # part passes it near n = 6000, in the second fill, and strictly
        # rising from there to the cap near n = 11 540, in the third. The
        # tail of the cut segment starts near 5770, before the flat spot
        # ends, so no growth is flagged; the requested horizon's midpoint
        # would lie after it
        parts = [realize(DiagonalUnimodular((GOLDEN,))),
                 realize(Scale(1.005, DenseMatrix(((1.0,),))))]
        T = direct_sum(parts)
        x = np.array([1.0, 1e-13], dtype=complex)
        for keep in (True, False):
            orb = iterate_many((T,), x, 6 * _FILL, points=keep)[0]
            ref = reference_orbit(T, x, 6 * _FILL)
            norms = T.block_norms(ref)
            h = orb.horizon_effective
            assert orb.overflow and h == ref.shape[0] - 1 and 2 * _FILL < h < 3 * _FILL
            flat = int(np.flatnonzero(~(norms[1:] > norms[:-1]))[-1]) + 1
            assert _FILL < h // 2 < flat < 3 * _FILL
            assert orb.bounded == oracle_boundedness(norms, True)
            assert not orb.bounded.growth_detected

    @pytest.mark.parametrize("horizon", [2000, 3 * _FILL + 5])
    def test_retired_to_an_exact_zero(self, horizon):
        # 0.5^n reaches an exact zero near n = 1075 and the pass retires;
        # the norms after it repeat 0.0, past the midpoint at the longer
        # horizon
        T = realize(Scale(0.5, DenseMatrix(((1.0,),))))
        x = np.array([1.0 + 0j])
        orb = iterate_many((T,), x, horizon, points=False)[0]
        ref = reference_orbit(T, x, horizon)
        assert not orb.overflow and ref.shape[0] == horizon + 1
        assert orb.bounded == oracle_boundedness(T.block_norms(ref), False)
        assert orb.bounded == (True, 1.0, False)

    def test_part_orbits_of_a_sum(self):
        # a Jordan part that grows and a rotation beside it, over several
        # fills; each part's report is that of its own norms
        parts = [realize(JordanBlock(1.0, 2)), realize(DiagonalUnimodular((GOLDEN,)))]
        x = np.array([0.0, 1.0, 1.0], dtype=complex)
        orbit, grown, turned = iterate_many(
            (direct_sum(parts),), x, 2 * _FILL + 9, True, parts
        )
        for P, part, cols in ((parts[0], grown, slice(0, 2)), (parts[1], turned, slice(2, 3))):
            norms = P.block_norms(orbit.points[:, cols])
            assert part.bounded == oracle_boundedness(norms, False)
        assert grown.bounded.growth_detected and not turned.bounded.growth_detected
        assert orbit.bounded.growth_detected
