"""Tests for finite natural-number sets and their exact densities.

Oracles come first and are deliberately naive: plain-Python membership loops
and running counts, sharing no code with the implementation. Expected values
frozen below were computed with these oracles.
"""

import json
import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab import (
    FiniteNatSet,
    density_summary,
    lower_density,
    syndetic_gap,
    upper_banach_density,
    upper_density,
)
from recurlab import natset
from recurlab.errors import EmptySetError, HorizonExceededError
from recurlab.natset import (
    BanachWindow,
    DensityEstimate,
    DensitySummary,
    MaskStatistics,
    _count_blocks,
    mask_statistics,
    prefix_counts,
)

# ---------------------------------------------------------------------------
# oracles


def oracle_prefix_count(elements, n):
    """Brute-force membership count of A in [0, n]."""
    members = set(elements)
    return sum(1 for k in range(n + 1) if k in members)


def oracle_running_extreme(elements, N, kind):
    """Running inf/sup of prefix densities over the burn-in range, from one
    plain-Python running count of the members, in exact Fractions."""
    members = set(elements)
    burn, count, ratios = N // 10, 0, []
    for n in range(N + 1):
        count += n in members
        if n >= burn:
            ratios.append(Fraction(count, n + 1))
    return min(ratios) if kind == "min" else max(ratios)


def oracle_window_max(elements, horizon, window_len):
    """Brute-force maximum over every window [m, m + window_len]."""
    members = set(elements)
    best_count, best_m = -1, 0
    for m in range(horizon - window_len + 1):
        c = sum(1 for n in range(m, m + window_len + 1) if n in members)
        if c > best_count:
            best_count, best_m = c, m
    return Fraction(best_count, window_len + 1), best_m


def oracle_quarter_rotation_set(horizon):
    """Evaluate |i^n - 1| by its period-4 pattern 0, sqrt2, 2, sqrt2."""
    pattern = [0.0, math.sqrt(2.0), 2.0, math.sqrt(2.0)]
    return [n for n in range(horizon + 1) if pattern[n % 4] < 0.5]


def factorial_blocks(horizon=5040):
    """Union of the runs [k!, k! + k] clipped to the horizon."""
    runs = []
    for k in range(1, 8):
        f = math.factorial(k)
        if f > horizon:
            break
        runs.append([f, min(f + k, horizon)])
    return FiniteNatSet.from_runs(runs, horizon)


EVENS_9999 = FiniteNatSet.from_iterable(range(0, 10000, 2), 9999)


# ---------------------------------------------------------------------------
# FiniteNatSet container


class TestFiniteNatSet:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            FiniteNatSet((3, 1), 10)
        with pytest.raises(ValueError):
            FiniteNatSet((1, 1), 10)

    def test_horizon_enforced(self):
        with pytest.raises(ValueError):
            FiniteNatSet((11,), 10)
        with pytest.raises(ValueError):
            FiniteNatSet((), -1)

    def test_from_runs_merges_overlaps(self):
        A = FiniteNatSet.from_runs([[1, 3], [3, 5]], 10)
        assert A.elements == (1, 2, 3, 4, 5)

    @pytest.mark.parametrize("run", [[5, 3], [-1, 2], [0, 11]])
    def test_from_runs_bad_run_rejected(self, run):
        with pytest.raises(ValueError, match=re.escape(f"run [{run[0]}, {run[1]}]")):
            FiniteNatSet.from_runs([[1, 3], run], 10)

    @pytest.mark.parametrize("run", [[1, 2, 3], [], [4]])
    def test_from_runs_wrong_length_named(self, run):
        with pytest.raises(ValueError, match=re.escape(f"run {run} is not a pair")):
            FiniteNatSet.from_runs([[1, 3], run], 10)

    def test_from_runs_empty_list(self):
        assert FiniteNatSet.from_runs([], 10) == FiniteNatSet([], 10)

    def test_json_horizon_must_be_integral(self):
        with pytest.raises(ValueError, match="10.7"):
            FiniteNatSet.from_json_dict({"horizon": 10.7, "elements": [1]})
        A = FiniteNatSet.from_json_dict({"horizon": 1e1, "elements": [1]})
        assert A.horizon == 10 and type(A.horizon) is int

    @pytest.mark.parametrize("bad", [1.5, True])
    def test_json_elements_must_be_integral(self, bad):
        # no truncation: 1.5 is not 1, and true is not 1
        with pytest.raises(ValueError, match="expected an integer"):
            FiniteNatSet.from_json_dict({"horizon": 10, "elements": [bad, 3]})
        A = FiniteNatSet.from_json_dict({"horizon": 10, "elements": [3.0, 1e0, "7"]})
        assert A.elements == (1, 3, 7)

    def test_membership_and_len(self):
        A = FiniteNatSet.from_iterable([5, 1, 3], 10)
        assert len(A) == 3
        assert 3 in A and 2 not in A

    def test_indicator(self):
        A = FiniteNatSet.from_iterable([0, 2], 4)
        assert A.indicator().tolist() == [1, 0, 1, 0, 0]
        assert A.indicator()[:2].tolist() == [1, 0]

    def test_json_round_trip(self):
        A = factorial_blocks()
        again = FiniteNatSet.from_json_dict(json.loads(json.dumps(A.to_json_dict())))
        assert again == A

    def test_json_runs_form(self):
        A = FiniteNatSet.from_json_dict({"horizon": 9, "runs": [[0, 2], [7, 8]]})
        assert A.elements == (0, 1, 2, 7, 8)


@st.composite
def increasing_arrays(draw, max_horizon=120):
    """A horizon and a strictly increasing int64 array inside ``[0, horizon]``."""
    horizon = draw(st.integers(min_value=0, max_value=max_horizon))
    members = draw(st.sets(st.integers(min_value=0, max_value=horizon)))
    return np.array(sorted(members), dtype=np.int64), horizon


PROPERTY_SETTINGS = settings(
    max_examples=100, deadline=None, derandomize=True, database=None
)


class TestFiniteNatSetProperties:
    @PROPERTY_SETTINGS
    @given(increasing_arrays())
    def test_constructions_agree(self, case):
        arr, horizon = case
        source = arr.copy()
        A = FiniteNatSet(source, horizon)
        source[:] = -1
        assert np.array_equal(A.array, arr)
        builds = (
            FiniteNatSet(tuple(arr.tolist()), horizon),
            FiniteNatSet.from_iterable(reversed(arr.tolist()), horizon),
            FiniteNatSet.from_json_dict(json.loads(json.dumps(A.to_json_dict()))),
        )
        for B in builds:
            assert B == A and hash(B) == hash(A)
        assert all(type(e) is int for e in A.elements)
        assert A.elements == tuple(arr.tolist())
        assert A.array.dtype == np.int64
        with pytest.raises(ValueError):
            A.array[...] = 0

    @PROPERTY_SETTINGS
    @given(increasing_arrays(), st.data())
    def test_densities_match_oracles(self, case, data):
        arr, horizon = case
        A = FiniteNatSet(arr, horizon)
        elements = arr.tolist()
        N = data.draw(st.integers(min_value=0, max_value=horizon))
        lo, hi = lower_density(A, N), upper_density(A, N)
        exact = Fraction(oracle_prefix_count(elements, N), N + 1)
        assert lo.value == hi.value == exact
        assert lo.running == oracle_running_extreme(elements, N, "min")
        assert hi.running == oracle_running_extreme(elements, N, "max")
        w = data.draw(st.integers(min_value=0, max_value=horizon))
        best = upper_banach_density(A, w)
        assert (best.ratio, best.start) == oracle_window_max(elements, horizon, w)


# ---------------------------------------------------------------------------
# densities


class TestLowerUpperDensity:
    def test_evens_value_exact(self):
        # 5000 evens in [0, 9999] over 10000 slots
        assert lower_density(EVENS_9999, 9999).value == Fraction(1, 2)
        assert upper_density(EVENS_9999, 9999).value == Fraction(1, 2)

    def test_full_set_density_one(self):
        A = FiniteNatSet(np.arange(501), 500)
        est = lower_density(A, 500)
        assert est.value == 1 and est.running == 1

    def test_factorial_blocks_frozen(self):
        # frozen via direct block enumeration: 27 members in [0, 5040]
        A = factorial_blocks()
        assert len(A) == 27
        assert lower_density(A, 5040).value == Fraction(27, 5041)

    def test_empty_set(self):
        A = FiniteNatSet([], 100)
        assert upper_density(A, 100).value == 0
        assert upper_density(A, 100).running == 0

    def test_log2_even_set_against_prefix_oracle(self):
        N = 2**14
        elements = [n for n in range(1, N + 1) if int(math.log2(n)) % 2 == 0]
        A = FiniteNatSet.from_iterable(elements, N)
        # frozen: 1 + 4 + 16 + 64 + 256 + 1024 + 4096 + 1 members
        assert len(A) == 5462
        est = upper_density(A, N)
        assert est.value == Fraction(oracle_prefix_count(elements, N), N + 1)
        assert est.running == oracle_running_extreme(elements, N, "max")

    def test_running_extremes_match_oracle_random(self):
        rng = np.random.default_rng(0x5E7)
        for _ in range(20):
            N = int(rng.integers(10, 400))
            elements = np.nonzero(rng.random(N + 1) < rng.uniform(0.05, 0.9))[0]
            A = FiniteNatSet.from_iterable(elements, N)
            assert lower_density(A, N).running == oracle_running_extreme(
                elements, N, "min"
            )
            assert upper_density(A, N).running == oracle_running_extreme(
                elements, N, "max"
            )

    def test_horizon_exceeded(self):
        with pytest.raises(HorizonExceededError):
            lower_density(FiniteNatSet(np.arange(11), 10), 11)


class TestUpperBanachDensity:
    def test_factorial_blocks_window_six_frozen(self):
        # [720, 726] is the first full window of length 7
        A = factorial_blocks()
        best = upper_banach_density(A, 6)
        assert best.ratio == Fraction(1) and best.start == 720
        assert (best.ratio, best.start) == oracle_window_max(A.elements, 5040, 6)

    def test_evens_window_100(self):
        A = FiniteNatSet.from_iterable(range(0, 1001, 2), 1000)
        best = upper_banach_density(A, 100)
        assert best.ratio == Fraction(51, 101)
        assert best.start == 0

    def test_empty_set(self):
        best = upper_banach_density(FiniteNatSet([], 50), 10)
        assert best.ratio == 0 and best.start == 0

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(0xBA)
        for _ in range(25):
            H = int(rng.integers(20, 300))
            elements = np.nonzero(rng.random(H + 1) < rng.uniform(0.05, 0.9))[0]
            A = FiniteNatSet.from_iterable(elements, H)
            N = int(rng.integers(0, H + 1))
            best = upper_banach_density(A, N)
            assert (best.ratio, best.start) == oracle_window_max(A.elements, H, N)

    def test_window_exceeding_horizon(self):
        with pytest.raises(HorizonExceededError):
            upper_banach_density(FiniteNatSet(np.arange(11), 10), 11)

    def test_dominates_prefix_density(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            H = int(rng.integers(20, 500))
            elements = np.nonzero(rng.random(H + 1) < 0.3)[0]
            A = FiniteNatSet.from_iterable(elements, H)
            N = int(rng.integers(0, H + 1))
            # the window at m = 0 is the prefix, so the max dominates it
            prefix = Fraction(oracle_prefix_count(elements, N), N + 1)
            assert upper_banach_density(A, N).ratio >= prefix


class TestSyndeticGap:
    def test_multiples_of_three(self):
        A = FiniteNatSet.from_iterable(range(0, 1000, 3), 999)
        assert syndetic_gap(A) == 3

    def test_quarter_rotation_set_frozen(self):
        elements = oracle_quarter_rotation_set(1000)
        assert elements[:4] == [0, 4, 8, 12]
        A = FiniteNatSet.from_iterable(elements, 1000)
        assert syndetic_gap(A) == 4

    def test_dyadic_gap(self):
        A = FiniteNatSet.from_iterable([2**k for k in range(14)], 8192)
        assert syndetic_gap(A) == 4096

    def test_lead_in_and_tail_count(self):
        assert syndetic_gap(FiniteNatSet((7,), 10)) == 7
        assert syndetic_gap(FiniteNatSet((2,), 10)) == 8

    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            syndetic_gap(FiniteNatSet([], 5))

    def test_every_window_of_gap_length_meets_set(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            H = int(rng.integers(30, 400))
            elements = np.nonzero(rng.random(H + 1) < 0.2)[0]
            if elements.size == 0:
                continue
            A = FiniteNatSet.from_iterable(elements, H)
            g = syndetic_gap(A)
            members = A.as_set()
            for m in range(H - g + 1):
                assert any(n in members for n in range(m, m + g + 1))


# ---------------------------------------------------------------------------
# summary assembly


class TestDensitySummary:
    def test_summary_fields(self):
        A = EVENS_9999
        s = density_summary(A, window_lengths=[10, 100])
        assert s.lower_at_horizon <= s.upper_at_horizon
        assert s.banach_upper[100].ratio == Fraction(51, 101)
        ns = [n for n, _ in s.prefix_profile]
        assert ns == sorted(ns) and ns[-1] == 9999

    def test_profile_values_exact(self):
        A = factorial_blocks()
        s = density_summary(A)
        for n, frac in s.prefix_profile:
            assert frac == Fraction(oracle_prefix_count(A.elements, n), n + 1)

    def test_prefix_counts_equal_cumsum(self):
        # the counter shared with the run summary's series, at sample points
        # that include 0, neighbours and the mask's last entry
        inside = np.random.default_rng(3).random(1001) < 0.3
        ns = [0, 1, 2, 7, 8, 500, 999, 1000]
        assert prefix_counts(inside, ns) == np.cumsum(inside)[ns].tolist()
        assert prefix_counts(inside, []) == []


class TestDensityInvariants:
    def test_running_bounds_order(self):
        # running inf <= value <= running sup at the same N, exactly
        rng = np.random.default_rng(41)
        for _ in range(30):
            N = int(rng.integers(10, 500))
            elements = np.nonzero(rng.random(N + 1) < rng.uniform(0.05, 0.95))[0]
            A = FiniteNatSet.from_iterable(elements, N)
            lo = lower_density(A, N)
            hi = upper_density(A, N)
            assert lo.running <= lo.value == hi.value <= hi.running

    def test_full_window_banach_equals_density(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            H = int(rng.integers(10, 300))
            elements = np.nonzero(rng.random(H + 1) < 0.4)[0]
            A = FiniteNatSet.from_iterable(elements, H)
            assert upper_banach_density(A, H).ratio == lower_density(A, H).value


# ---------------------------------------------------------------------------
# block passes over masks

B = natset._ROWS


def whole_array_statistics(inside, window_len):
    """``mask_statistics`` as one whole-array pass: a single ``cumsum``, the
    argmin/argmax of every prefix ratio and of every window count, and one
    ``diff`` of all the return times."""
    h = inside.size - 1
    counts = np.cumsum(inside)
    burn = h // 10
    ratios = counts[burn:] / np.arange(burn + 1, h + 2, dtype=np.float64)
    lo, hi = burn + int(np.argmin(ratios)), burn + int(np.argmax(ratios))
    window = counts[window_len:].copy()
    window[1:] -= counts[: h - window_len]
    m = int(np.argmax(window))
    returns = np.flatnonzero(inside)
    positive = returns[returns > 0]
    inner = int(np.diff(returns).max()) if returns.size > 1 else 0
    value = Fraction(int(counts[h]), h + 1)
    return MaskStatistics(
        count=returns.size,
        first_return=int(positive[0]) if positive.size else None,
        lower=DensityEstimate(value, Fraction(int(counts[lo]), lo + 1)),
        upper=DensityEstimate(value, Fraction(int(counts[hi]), hi + 1)),
        banach=BanachWindow(Fraction(int(window[m]), window_len + 1), m),
        gap=max(int(returns[0]), inner, h - int(returns[-1])),
    )


def block_masks(size):
    """Masks whose statistics sit on or across the block edges."""
    rng = np.random.default_rng(size)
    edges = np.arange(B, size, B)
    masks = {
        "random": rng.random(size) < 0.3,
        "sparse": rng.random(size) < 1e-3,
        "only_zero": np.zeros(size, dtype=bool),
        "all_true": np.ones(size, dtype=bool),
        # returns only on the two sides of each block edge (and none at 0)
        "block_edges": np.isin(np.arange(size), np.concatenate([edges - 1, edges, [size - 1]])),
        # every prefix ratio at 4k + 3 is exactly 1/4, the minimum for the
        # first and the maximum for the second, in every block
        "period_four_first": np.arange(size) % 4 == 0,
        "period_four_last": np.arange(size) % 4 == 3,
    }
    masks["only_zero"][0] = True
    # a 600-long run across the last block edge with room after it, in an
    # otherwise empty mask: the best windows straddle two blocks
    edge = max(B * ((size - 401) // B), 200)
    run = np.zeros(size, dtype=bool)
    run[edge - 200 : edge + 400] = True
    masks["straddling_run"] = run
    return masks


def whole_array_summary(A, window_lengths):
    """``density_summary`` from one int64 ``cumsum`` of the set's indicator
    over the whole horizon."""
    H = A.horizon
    counts = np.cumsum(A.indicator())
    mask = A.indicator().astype(bool)
    first = whole_array_statistics(mask, 0)
    ns = [0] if H == 0 else sorted(set(np.geomspace(1, H, num=min(32, H)).astype(int)))
    return DensitySummary(
        lower_at_horizon=first.lower.running,
        upper_at_horizon=first.upper.running,
        banach_upper={N: whole_array_statistics(mask, N).banach for N in window_lengths},
        prefix_profile=tuple((int(n), Fraction(int(counts[n]), int(n) + 1)) for n in ns),
    )


def first_member_masks(size, window_len):
    """Masks whose best window of ``window_len + 1`` slots starts at a block
    edge of the window pass, whose blocks start at offsets ``1 + k B``: one
    member at ``m + window_len`` for ``m`` on both sides of each edge, and a
    second, equal window further on, which must lose the tie."""
    masks = {}
    for edge in range(1, size - window_len, B):
        for m in (edge - 1, edge):
            if 0 <= m and m + 2 * window_len + 2 < size:
                mask = np.zeros(size, dtype=bool)
                mask[[m + window_len, m + 2 * window_len + 2]] = True
                masks[f"m={m}"] = mask
    return masks


class TestBlockPasses:
    """The carried block passes of ``mask_statistics`` against the
    whole-array formulas, on masks sized around the block length."""

    @pytest.mark.parametrize("size", [B - 1, B, B + 1, 3 * B + 7])
    def test_mask_statistics_equals_whole_array_pass(self, size):
        h = size - 1
        for name, mask in block_masks(size).items():
            for window_len in sorted({0, 1, 300, h // 3, h - 1, h}):
                got = mask_statistics(mask, window_len)
                assert got == whole_array_statistics(mask, window_len), (name, window_len)
                assert isinstance(got.first_return, (int, type(None)))

    def test_ties_across_blocks_go_to_the_smallest_index(self):
        size = 3 * B + 7
        # every block holds windows of the best count, 101 of 401 slots,
        # starting at each m = 3 mod 4 (or 0 mod 4); every prefix ratio at
        # 4k + 3 is 1/4, the running sup (or inf) in every block
        got = mask_statistics(np.arange(size) % 4 == 3, 400)
        assert got.banach == BanachWindow(Fraction(101, 401), 3)
        assert got.upper.running == Fraction(1, 4)
        got = mask_statistics(np.arange(size) % 4 == 0, 400)
        assert got.banach == BanachWindow(Fraction(101, 401), 0)
        assert got.lower.running == Fraction(1, 4)
        # full windows inside the run start on both sides of the block edge
        # at 2B + 1 of the window offsets
        run = block_masks(size)["straddling_run"]
        assert mask_statistics(run, 250).banach == BanachWindow(Fraction(1), 2 * B - 200)

    def test_first_return_and_gap_at_block_edges(self):
        size = 3 * B + 7
        got = mask_statistics(block_masks(size)["block_edges"], 10)
        assert got.first_return == B - 1
        assert got.gap == B - 1
        only_zero = block_masks(size)["only_zero"]
        assert mask_statistics(only_zero, 10).first_return is None
        assert mask_statistics(only_zero, 10).gap == size - 1
        with pytest.raises(EmptySetError):
            mask_statistics(np.zeros(size, dtype=bool), 10)

    @pytest.mark.parametrize("size", [1, B - 1, B, B + 1, 3 * B + 7])
    def test_counts_equal_cumsum(self, size):
        # the carried blocks from any start are the whole mask's cumsum
        mask = np.random.default_rng(size).random(size) < 0.5
        for start in sorted({0, 1, size // 10, B - 1, B, size - 1} & set(range(size))):
            # each block overwrites the one before, so each is copied
            blocks = [(a, counts.copy()) for a, counts in _count_blocks(mask, start)]
            assert [a for a, _ in blocks] == list(range(start, size, B))
            assert all(counts.dtype == np.int32 for _, counts in blocks)
            got = np.concatenate([counts for _, counts in blocks])
            assert np.array_equal(got, np.cumsum(mask)[start:])

    def test_int64_counts_past_the_int32_limit(self, monkeypatch):
        size = 3 * B + 7
        h = size - 1
        monkeypatch.setattr(natset, "_INT32_ENTRIES", B)
        for name, mask in block_masks(size).items():
            blocks = [(a, counts.copy()) for a, counts in _count_blocks(mask, h // 10)]
            assert all(counts.dtype == np.int64 for _, counts in blocks)
            got = np.concatenate([counts for _, counts in blocks])
            assert np.array_equal(got, np.cumsum(mask)[h // 10 :])
            for window_len in (1, B - 1, B + 1, h):
                want = whole_array_statistics(mask, window_len)
                assert mask_statistics(mask, window_len) == want, (name, window_len)

    @pytest.mark.parametrize("size", [B + 1, 3 * B + 7])
    def test_window_lengths_around_the_block_length(self, size):
        h = size - 1
        lengths = [n for n in (1, B - 1, B, B + 1, 2 * B + 3, h - 1, h) if 0 <= n <= h]
        for window_len in lengths:
            masks = {**block_masks(size), **first_member_masks(size, window_len)}
            for name, mask in masks.items():
                want = whole_array_statistics(mask, window_len)
                assert mask_statistics(mask, window_len) == want, (name, window_len)

    def test_best_windows_at_the_window_pass_edges(self):
        size = 3 * B + 7
        for window_len in (1, 300):
            for name, mask in first_member_masks(size, window_len).items():
                m = int(name[2:])
                # every window holding the first member counts 1; the
                # smallest offset that reaches it is m
                got = mask_statistics(mask, window_len).banach
                assert got == BanachWindow(Fraction(1, window_len + 1), m), name

    def test_per_set_functions_across_blocks(self):
        size = 3 * B + 7
        h = size - 1
        for name, mask in block_masks(size).items():
            A = FiniteNatSet(np.flatnonzero(mask), h)
            want = whole_array_statistics(mask, 1000)
            assert lower_density(A, h) == want.lower, name
            assert upper_density(A, h) == want.upper, name
            assert upper_banach_density(A, 1000) == want.banach, name
            assert density_summary(A, [1000]).banach_upper[1000] == want.banach, name

    def test_density_summary_of_a_set_file(self):
        # the whole-array summary of 11 members over 2 * 10^6 slots added
        # 30.5 MiB (an int64 indicator and its int64 cumsum); the runs
        # arithmetic holds arrays of the set's runs only
        A = FiniteNatSet.from_runs([[0, 10]], 2_000_000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = density_summary(A, [1000])
            added = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert added <= 3 * 2**20
        assert got == whole_array_summary(A, [1000])

    def test_density_summary_equals_whole_array_oracle(self):
        rng = np.random.default_rng(77)
        for size in (1, 2, B - 1, B + 1, 3 * B + 7):
            h = size - 1
            for mask in (rng.random(size) < 0.3, np.arange(size) % 7 == 0):
                mask[0] = True
                A = FiniteNatSet(np.flatnonzero(mask), h)
                windows = sorted({0, h // 3, h})
                assert density_summary(A, windows) == whole_array_summary(A, windows)

    def test_peak_memory_bound(self):
        # the whole-array pass added 16 MiB here (int64 cumsum plus numpy's
        # int64 cast copy of the mask), and a whole-mask int32 running count
        # 5 MiB; the carried passes hold block temporaries only
        mask = np.random.default_rng(5).random(2**20 + 1) < 0.3
        mask[0] = True
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mask_statistics(mask, 2**17)
            added = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert added <= 2 * 2**20


# ---------------------------------------------------------------------------
# the runs form and its arithmetic


def expand_runs(runs):
    """The members of inclusive runs ``[[a, b], ...]``, by a plain loop."""
    return sorted({n for a, b in runs for n in range(a, b + 1)})


@st.composite
def runs_lists(draw, max_horizon=300):
    """A horizon and inclusive runs inside it, in any order, overlapping,
    touching and repeated."""
    horizon = draw(st.integers(min_value=0, max_value=max_horizon))
    point = st.integers(min_value=0, max_value=horizon)
    runs = [sorted(pair) for pair in draw(st.lists(st.tuples(point, point), max_size=12))]
    repeats = draw(st.lists(st.sampled_from(runs), max_size=3)) if runs else []
    touching = [[b + 1, min(b + 1 + k, horizon)] for (_, b), k in
                zip(runs, draw(st.lists(st.integers(0, 3), max_size=3))) if b < horizon]
    return horizon, draw(st.permutations(runs + repeats + touching))


@st.composite
def structured_masks(draw, max_size=10**5):
    """A bool mask of up to ``max_size`` entries: alternating gaps and runs
    of drawn lengths, repeated to fill it, with drawn single flips; or,
    for masks of many short runs, seeded coin flips of a drawn bias."""
    size = draw(st.integers(min_value=1, max_value=max_size))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return rng.random(size) < draw(st.floats(0.0, 1.0))
    lengths = draw(st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=16))
    pattern = np.concatenate(
        [np.full(n, k % 2 == 1, dtype=bool) for k, n in enumerate(lengths)] + [np.zeros(1, bool)]
    )
    mask = np.resize(pattern, size)
    flips = draw(st.lists(st.integers(min_value=0, max_value=size - 1), max_size=20))
    mask[flips] = ~mask[flips]
    return mask


class TestRunsForm:
    def test_bounds_are_the_maximal_runs(self):
        A = FiniteNatSet.from_runs([[5, 7], [0, 2], [3, 3], [6, 9], [0, 2], [12, 12]], 12)
        assert A.bounds.tolist() == [0, 4, 5, 10, 12, 13]
        assert A == FiniteNatSet([0, 1, 2, 3, 5, 6, 7, 8, 9, 12], 12)
        assert A.bounds.dtype == np.int64
        with pytest.raises(ValueError):
            A.bounds[...] = 0
        assert FiniteNatSet([], 5).bounds.tolist() == []

    @PROPERTY_SETTINGS
    @given(runs_lists())
    def test_runs_equal_their_members(self, case):
        horizon, runs = case
        A = FiniteNatSet.from_runs(runs, horizon)
        members = expand_runs(runs)
        B = FiniteNatSet.from_iterable(members, horizon)
        assert A == B and hash(A) == hash(B)
        assert A.elements == tuple(members) and len(A) == len(members)
        assert A.as_set() == frozenset(members)
        assert A.indicator().tolist() == [int(n in set(members)) for n in range(horizon + 1)]
        assert [n for n in range(-2, horizon + 3) if n in A] == members
        # strictly increasing bounds: disjoint runs, none touching the next
        assert (np.diff(A.bounds) > 0).all() and A.bounds.size % 2 == 0

    def test_membership_is_of_integers(self):
        A = FiniteNatSet.from_runs([[2, 4]], 10)
        assert 2 in A and 4 in A and 5 not in A and 1 not in A
        assert 2.5 not in A and 3.0 in A

    def test_horizon_bound_named(self):
        top = natset._MAX_HORIZON
        assert top == 2**63 - 2
        A = FiniteNatSet.from_runs([[0, 5], [top - 9, top]], top)
        assert len(A) == 16 and A.bounds[-1] == 2**63 - 1
        for horizon in (top + 1, 10**19, 10**30):
            with pytest.raises(ValueError, match=f"horizon {horizon} is too large"):
                FiniteNatSet.from_runs([[0, 5]], horizon)
            with pytest.raises(ValueError, match=f"horizon {horizon} is too large"):
                FiniteNatSet([], horizon)


class TestRunsArithmetic:
    """The runs arithmetic of the per-set functions against the carried
    block passes of ``mask_statistics``, which share none of it but the
    exact comparison of ratios."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(structured_masks(), st.data())
    def test_sets_read_as_their_masks(self, mask, data):
        h = mask.size - 1
        A = FiniteNatSet(np.flatnonzero(mask), h)
        window = data.draw(st.integers(min_value=0, max_value=h))
        N = data.draw(st.integers(min_value=0, max_value=h))
        if not mask.any():
            with pytest.raises(EmptySetError):
                syndetic_gap(A)
            assert upper_banach_density(A, window) == BanachWindow(Fraction(0), 0)
            return
        want = mask_statistics(mask, window)
        assert lower_density(A, h) == want.lower
        assert upper_density(A, h) == want.upper
        assert upper_banach_density(A, window) == want.banach
        assert syndetic_gap(A) == want.gap
        if mask[: N + 1].any():
            prefix = mask_statistics(mask[: N + 1], 0)
            assert (lower_density(A, N), upper_density(A, N)) == (prefix.lower, prefix.upper)
        summary = density_summary(A, [window])
        assert summary.banach_upper == {window: want.banach}
        assert (summary.lower_at_horizon, summary.upper_at_horizon) == (
            want.lower.running, want.upper.running
        )
        ns = [n for n, _ in summary.prefix_profile]
        counts = prefix_counts(mask, ns)
        assert summary.prefix_profile == tuple(
            (n, Fraction(c, n + 1)) for n, c in zip(ns, counts)
        )

    def test_huge_horizons_answer_in_milliseconds(self):
        # 10^15 and int64's last horizon, from two runs each: exact values
        # by hand, and no allocation in proportion to the horizon
        cases = [
            (10**15, [[0, 5], [10**14, 10**14 + 10**12]]),
            (natset._MAX_HORIZON, [[0, 5], [natset._MAX_HORIZON - 806, natset._MAX_HORIZON]]),
        ]
        for h, runs in cases:
            A = FiniteNatSet.from_runs(runs, h)
            tracemalloc.start()
            try:
                t0 = time.perf_counter()
                summary = density_summary(A, [0, 10, 10**12, h])
                gap = syndetic_gap(A)
                elapsed = time.perf_counter() - t0
                added = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert elapsed < 0.1 and added < 2**16
            (_, b0), (a1, b1) = runs
            count = b0 + 1 + b1 - a1 + 1
            assert len(A) == count
            assert gap == max(a1 - b0, h - b1)
            assert summary.prefix_profile[-1] == (h, Fraction(count, h + 1))
            assert summary.banach_upper[h] == BanachWindow(Fraction(count, h + 1), 0)
            assert summary.banach_upper[10] == BanachWindow(Fraction(1), a1)
            # the best 10^12 + 1 slots hold the whole second run, and the
            # first start that reaches its end is the smallest best one
            start = max(0, b1 - 10**12)
            assert summary.banach_upper[10**12] == BanachWindow(
                Fraction(min(b1 - a1 + 1, 10**12 + 1), 10**12 + 1), start
            )
        # at 10^15 the burn-in starts inside the second run, and the sup is
        # at its last member
        A = FiniteNatSet.from_runs(cases[0][1], 10**15)
        assert lower_density(A, 10**15).running == Fraction(7, 10**14 + 1)
        assert upper_density(A, 10**15).running == Fraction(10**12 + 7, 10**14 + 10**12 + 1)


# ---------------------------------------------------------------------------
# exact running extremes past float resolution


def farey_construction():
    """Runs whose two gap ends have prefix ratios ``a/p > b/q`` with ``aq - bp
    = 1``, so they differ by ``1/(pq)``, below float resolution: members
    ``[0, a) u [p, p + b - a) u [q, q + 999]`` at horizon ``q + 999``."""
    p = 100_000_071
    a, q = (p - 1) // 2, 2 * p - 2
    b = 2 * a - 1
    assert a * q - b * p == 1 and a / p == b / q
    runs = [[0, a - 1], [p, p + b - a - 1], [q, q + 999]]
    return runs, q + 999, Fraction(b, q)


class TestExactExtremes:
    def test_float_tied_ratios_compare_exactly(self):
        runs, _, infimum = farey_construction()
        (_, a1), (p, _), (q, _) = runs
        a, b = a1 + 1, infimum.numerator
        counts, lengths = np.array([a, b]), np.array([p, q])
        assert natset._extremes(counts, lengths) == (Fraction(b, q), Fraction(a, p))
        assert natset._extremes(counts[::-1], lengths[::-1]) == (Fraction(b, q), Fraction(a, p))

    def test_rounded_lengths_compare_exactly(self):
        # past 2^53 a count and a length round before they divide, so the
        # float order of two ratios can be the reverse of the exact one
        c1, n1 = 1414720106429544050, 4244160319288632156
        c2, n2 = 821125093762740149, 2463375281288220445
        assert Fraction(c1, n1) < Fraction(c2, n2) and float(c1) / n1 > float(c2) / n2
        got = natset._extremes(np.array([c1, c2]), np.array([n1, n2]))
        assert got == (Fraction(c1, n1), Fraction(c2, n2))

    def test_a_multiple_of_the_extreme_is_not_a_tie_unless_equal(self):
        # (k - 1) / 3k rounds to 1/3; its length is a multiple of 3, and
        # only its count tells it from a tie
        k = 10**17
        counts, lengths = np.array([1, k - 1, k]), np.array([3, 3 * k, 3 * k])
        assert natset._extremes(counts, lengths) == (Fraction(k - 1, 3 * k), Fraction(1, 3))

    def test_farey_runs_read_exactly(self):
        runs, h, infimum = farey_construction()
        A = FiniteNatSet.from_runs(runs, h)
        t0 = time.perf_counter()
        assert lower_density(A, h).running == infimum
        assert density_summary(A).lower_at_horizon == infimum
        assert time.perf_counter() - t0 < 0.1

    def test_farey_mask_reads_exactly(self):
        # the block winners a/p and b/q round to one float; the mask is
        # 2 * 10^8 entries, the smallest size at which distinct prefix
        # ratios can
        runs, h, infimum = farey_construction()
        mask = np.zeros(h + 1, dtype=bool)
        for a, b in runs:
            mask[a : b + 1] = True
        assert mask_statistics(mask, 10).lower.running == infimum
