"""Acceptance battery: fifteen end-to-end checks of the shipped behavior.

Each criterion is one test. Oracles are recomputed here from scratch:
sliding-window maxima by direct enumeration, rotation-ball masses from the
closed-form arc length, periodic orbits from modular arithmetic. Every test
finishes by printing its own pass line (visible with ``pytest -s`` or in the
captured output).
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from recurlab import (
    DenseMatrix,
    DiagonalUnimodular,
    DirectSum,
    EmpiricalMeasure,
    Inverse,
    JordanBlock,
    Scale,
    Thresholds,
    birkhoff_frequent_check,
    classify_vector,
    conjugation_invariance_check,
    covariance,
    direct_sum,
    empirical_from_window,
    eigenvector_from_power_relation,
    inverse_recurrence_check,
    invariance_defect,
    iterate,
    jdg_split,
    principal_angle,
    product_recurrence_check,
    realize,
    return_set,
    support_span_vs_kernel,
    unimodular_eigenpairs,
    upper_banach_density,
)
from recurlab import FiniteNatSet
from recurlab.classify import FLAG_ORDER
from recurlab.cli import document_has_failures, load_config, run_config
from recurlab.errors import NotPowerBoundedError

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def arc_mass(epsilon):
    """Normalized arc length of {z on the circle : |z - 1| < eps}."""
    return (2.0 / math.pi) * math.asin(epsilon / 2.0)


def passed(num, detail):
    print(f"[criterion {num:02d}] PASS - {detail}")


def random_unitary_diagonal(rng, max_dim):
    d = int(rng.integers(1, max_dim + 1))
    T = realize(DiagonalUnimodular(tuple(rng.uniform(size=d))))
    x = np.exp(2j * np.pi * rng.uniform(size=d))
    return T, x


def test_criterion_01_window_density_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    H = 10_000
    for _ in range(200):
        p = float(rng.uniform(0.01, 0.9))
        mask = rng.random(H + 1) < p
        mask[0] = True
        A = FiniteNatSet.from_iterable(np.flatnonzero(mask), horizon=H)
        c = np.concatenate([[0], np.cumsum(A.indicator())])
        for N in (10, 100, 1000):
            counts = c[N + 1 :] - c[: H - N + 1]  # count in [m, m+N], every m
            bw = upper_banach_density(A, N)
            assert bw.ratio == Fraction(int(counts.max()), N + 1)
            assert bw.start == int(counts.argmax())
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    passed(1, f"600 sliding-window maxima equal enumeration in {elapsed:.2f}s")


def test_criterion_02_birkhoff_matches_arc_measure():
    t0 = time.perf_counter()
    T = realize(DiagonalUnimodular((GOLDEN,)))
    rep = birkhoff_frequent_check(iterate(T, np.array([1.0 + 0j]), 10**6), 0.1)
    target = arc_mass(0.1)
    dens_err = abs(float(rep.density) - target)
    mass_err = abs(rep.window_mass - target)
    assert dens_err < 5e-3
    assert mass_err < 5e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    passed(
        2,
        f"density off by {dens_err:.1e}, window mass off by {mass_err:.1e} "
        f"from the arc value {target:.5f} in {elapsed:.2f}s",
    )


def test_criterion_03_exact_period_four():
    T = realize(DiagonalUnimodular((0.25,)))
    x = np.array([1.0 + 0j])
    orb = iterate(T, x, 9999)
    R = return_set(orb, 0.5)
    assert R.elements == tuple(range(0, 10_000, 4))
    assert Fraction(len(R), orb.horizon_effective + 1) == Fraction(1, 4)
    mu = empirical_from_window(orb, 0, 3)
    rng = np.random.default_rng(303)
    balls = []
    for k in range(25):
        center = orb.points[int(rng.integers(0, 100))] if k % 2 else (
            rng.normal(size=1) + 1j * rng.normal(size=1)
        )
        balls.append((center, float(rng.uniform(0.05, 2.0))))
    defect = invariance_defect(T, mu, balls)
    assert defect == 0.0
    conj = conjugation_invariance_check(T, covariance(mu))
    assert conj <= 1e-12
    passed(3, f"multiples of 4, density 1/4, defect 0.0, conjugation {conj:.1e}")


def test_criterion_04_window_boundary_bound():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        T, x = random_unitary_diagonal(rng, 4)
        orb = iterate(T, x, 4000)
        N = int(rng.integers(50, 2001))
        m = int(rng.integers(0, 4000 - N + 1))
        mu = empirical_from_window(orb, m, N)
        balls = [
            (orb.points[int(rng.integers(0, 4001))], float(rng.uniform(0.05, 2.0)))
            for _ in range(5)
        ]
        defect = invariance_defect(T, mu, balls)
        assert defect <= 2.0 / (N + 1)
        worst = max(worst, defect * (N + 1))
    passed(4, f"100 windows stay within 2/(N+1); worst defect*(N+1) = {worst:.1f}")


def test_criterion_05_covariance_conjugation():
    rng = np.random.default_rng(505)
    worst_exact = 0.0
    for _ in range(10):
        d = int(rng.integers(1, 4))
        fracs = [
            Fraction(int(rng.integers(1, q)), int(q))
            for q in rng.integers(2, 13, size=d)
        ]
        T = realize(DiagonalUnimodular(tuple(float(f) for f in fracs)))
        period = math.lcm(*(f.denominator for f in fracs))
        x = np.exp(2j * np.pi * rng.uniform(size=d))
        orb = iterate(T, x, period)
        mu = empirical_from_window(orb, 0, period - 1)
        defect = conjugation_invariance_check(T, covariance(mu))
        assert defect <= 1e-10
        worst_exact = max(worst_exact, defect)

    worst_window = 0.0
    for angles in ((GOLDEN,), (0.25, GOLDEN)):
        T = realize(DiagonalUnimodular(angles))
        x = np.ones(len(angles), dtype=complex)
        orb = iterate(T, x, 10**5)
        mu = empirical_from_window(orb, 0, 10**5)
        defect = conjugation_invariance_check(T, covariance(mu))
        assert defect <= 1e-4
        worst_window = max(worst_window, defect)
    passed(
        5,
        f"full periods conjugate within {worst_exact:.1e}, "
        f"length-1e5 windows within {worst_window:.1e}",
    )


def test_criterion_06_support_span_vs_kernel():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 7))
        k = int(rng.integers(2, 2 * d + 2))
        atoms = rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d))
        w = rng.uniform(0.1, 1.0, size=k)
        w /= w.sum()
        atoms = atoms - w @ atoms  # center the measure
        mu = EmpiricalMeasure(atoms, w)
        ang = support_span_vs_kernel(mu, covariance(mu))
        assert ang <= 1e-6
        worst = max(worst, ang)
    passed(6, f"100 centered measures; worst span-vs-kernel angle {worst:.1e}")


def test_criterion_07_rotation_dissipative_split():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 11))
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, _ = np.linalg.qr(g)
        j = int(rng.integers(1, d + 1))
        radii = np.concatenate([np.ones(j), rng.uniform(0.2, 0.9, size=d - j)])
        lam = np.exp(2j * np.pi * rng.uniform(size=d)) * radii
        M = (q * lam) @ q.conj().T
        T = realize(DenseMatrix(tuple(map(tuple, M))))
        rev, fl = jdg_split(T)
        assert rev.shape[1] == j and fl.shape[1] == d - j
        ang = principal_angle(rev, unimodular_eigenpairs(T).espan_basis)
        assert ang <= 1e-10
        worst = max(worst, ang)
    with pytest.raises(NotPowerBoundedError):
        jdg_split(realize(JordanBlock(1j, 2)))
    passed(
        7,
        f"100 normal splits agree with the eigenvector span "
        f"(worst angle {worst:.1e}); the size-2 unimodular block is rejected",
    )


def test_criterion_08_power_relation_eigenvectors():
    rng = np.random.default_rng(808)
    worst = 0.0
    for case in range(50):
        n = int(rng.integers(2, 7))
        if case % 2 == 0:
            dim = n
            phase = complex(np.exp(2j * np.pi * rng.uniform()))
            perm = np.zeros((n, n), dtype=complex)
            for i in range(n):
                perm[(i + 1) % n, i] = 1.0
            T = realize(DenseMatrix(tuple(map(tuple, phase * perm))))
            alpha = phase**n
        else:
            dim = int(rng.integers(1, 7))
            c = float(rng.uniform(0.1, 0.9))
            ks = rng.integers(0, n, size=dim)
            T = realize(DiagonalUnimodular(tuple((int(k) + c) / n for k in ks)))
            alpha = complex(np.exp(2j * np.pi * c))
        x = rng.uniform(0.5, 1.5, size=dim) * np.exp(
            2j * np.pi * rng.uniform(size=dim)
        )
        y, lam = eigenvector_from_power_relation(T, x, n, alpha)
        rel = float(
            np.linalg.norm(T.apply(y) - lam * y) / np.linalg.norm(y)
        )
        assert rel <= 1e-10
        assert abs(lam**n - alpha) <= 1e-8
        worst = max(worst, rel)
    passed(8, f"50 extracted eigenvectors; worst relative residual {worst:.1e}")


def test_criterion_09_flag_cascade_monotone():
    rng = np.random.default_rng(909)
    total = 0
    for _ in range(100):
        T, x = random_unitary_diagonal(rng, 3)
        eps = [float(rng.uniform(0.02, 1.5)) for _ in range(5)]
        rep = classify_vector(T, x, epsilons=eps, horizon=10_000)
        for rec in rep.records:
            total += 1
            for weaker, stronger in zip(FLAG_ORDER, FLAG_ORDER[1:]):
                assert rec.flags[stronger] <= rec.flags[weaker]
    assert total == 500
    passed(9, "500 random triples; no record violates the flag cascade")


def test_criterion_10_reiterative_implies_frequent():
    rng = np.random.default_rng(1010)
    implications = 0
    for k in range(40):
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
                implications += 1
                assert rec.flags["frequently"]
    assert implications >= 40
    passed(
        10,
        f"unitary battery: {implications} reiteratively-flagged records, "
        f"all frequently-flagged",
    )


def test_criterion_11_uniform_implies_span():
    rng = np.random.default_rng(1111)
    uniform_seen = 0
    for _ in range(20):
        d = int(rng.integers(1, 3))
        spec = DirectSum(
            (
                DiagonalUnimodular(tuple(rng.uniform(size=d))),
                Scale(float(rng.uniform(0.3, 0.8)), DenseMatrix(((1.0,),))),
            )
        )
        T = realize(spec)
        in_span = np.concatenate(
            [np.exp(2j * np.pi * rng.uniform(size=d)), [0.0]]
        )
        mixed = np.concatenate([np.exp(2j * np.pi * rng.uniform(size=d)), [1.0]])
        for v in (in_span, mixed):
            rep = classify_vector(T, v, epsilons=[0.5], horizon=20_000)
            if rep.vector_flags["uniformly"]:
                uniform_seen += 1
                assert rep.eigen_span_residual <= 1e-6
    assert uniform_seen >= 10

    T = realize(DenseMatrix(((0.0, 1.0), (1.0, 0.0))))
    rep = classify_vector(
        T, np.array([1.0, 1.0], dtype=complex), epsilons=[0.5, 0.1], horizon=10_000
    )
    assert all(rep.vector_flags.values())
    assert rep.eigen_span_residual <= 1e-12
    passed(
        11,
        f"{uniform_seen} uniformly-flagged vectors all sit in the eigenvector "
        f"span; the exchange fixed point has residual "
        f"{rep.eigen_span_residual:.1e}",
    )


def test_criterion_12_jordan_never_returns():
    for lam in (1.0 + 0j, 1j, complex(np.exp(2j * np.pi * GOLDEN))):
        T = realize(JordanBlock(lam, 2))
        x = np.array([0.0, 1.0], dtype=complex)
        orb = iterate(T, x, 1000)
        dists = np.linalg.norm(orb.points[1:] - x, axis=1)
        assert (dists >= 1.0).all()
        rep = classify_vector(
            T, x, epsilons=[0.9, 0.5], horizon=1000,
            thresholds=Thresholds(min_horizon=1000),
        )
        assert not any(rec.flags["recurrent"] for rec in rep.records)
    passed(12, "three unimodular size-2 blocks never approach e2 closer than 1")


def test_criterion_13_product_return_set_exact():
    rng = np.random.default_rng(1313)
    for _ in range(100):
        T1, x1 = random_unitary_diagonal(rng, 2)
        T2, x2 = random_unitary_diagonal(rng, 2)
        eps = float(rng.uniform(0.2, 0.8))
        cases = ((T1, x1), (T2, x2), (direct_sum([T1, T2]), np.concatenate([x1, x2])))
        part1, part2, total = (
            classify_vector(T, x, epsilons=[eps], horizon=10_000) for T, x in cases
        )
        rep = product_recurrence_check(part1, part2, total, eps)
        assert rep.return_sets_match
        R1, R2, R12 = (return_set(r.orbit, eps) for r in (part1, part2, total))
        assert R12.as_set() == R1.as_set() & R2.as_set()
    passed(13, "100 rotation pairs: joint return set equals the intersection")


def test_criterion_14_inverse_symmetry():
    rng = np.random.default_rng(1414)
    for _ in range(20):
        T, x = random_unitary_diagonal(rng, 3)
        forward, backward = (
            classify_vector(S, x, epsilons=[0.5, 0.25, 0.1], horizon=10_000)
            for S in (T, realize(Inverse(T.spec)))
        )
        rep = inverse_recurrence_check(forward, backward)
        assert rep.return_sets_identical
        assert rep.flags_match
    passed(14, "20 unitary diagonals: forward and inverse return sets identical")


def test_criterion_15_cli_determinism(tmp_path):
    config = {
        "schema_version": 1,
        "seed": 11,
        "experiments": [
            {
                "name": "quarter",
                "operator": {"type": "diagonal_unimodular", "angles_turns": [0.25]},
                "vectors": ["ones", "random:0"],
                "epsilons": [0.5],
                "horizon": 10_000,
                "checks": ["classify", "birkhoff", "measure"],
            },
            {
                "name": "pair",
                "operator": {
                    "type": "diagonal_unimodular",
                    "angles_turns": [0.25, GOLDEN],
                },
                "vectors": ["ones"],
                "epsilons": [0.5],
                "horizon": 10_000,
                "checks": ["unimodular_return", "inverse", "eigen_span"],
            },
            {
                "name": "sum",
                "operator": {
                    "type": "direct_sum",
                    "parts": [
                        {"type": "diagonal_unimodular", "angles_turns": [0.25]},
                        {"type": "diagonal_unimodular", "angles_turns": [0.5]},
                    ],
                },
                "vectors": ["ones"],
                "epsilons": [0.5],
                "horizon": 10_000,
                "checks": ["product"],
            },
            {
                "name": "jordan",
                "operator": {
                    "type": "jordan_block",
                    "eigenvalue": [1.0, 0.0],
                    "size": 2,
                },
                "vectors": ["basis:1"],
                "epsilons": [0.5],
                "horizon": 2000,
                "thresholds": {"min_horizon": 1000},
                "checks": ["classify"],
            },
            {
                "name": "exchange",
                "operator": {
                    "type": "dense_matrix",
                    "entries": [
                        [[0.0, 0.0], [1.0, 0.0]],
                        [[1.0, 0.0], [0.0, 0.0]],
                    ],
                },
                "vectors": ["ones"],
                "epsilons": [0.5],
                "horizon": 10_000,
                "checks": ["classify", "jdg"],
            },
        ],
    }
    path = tmp_path / "battery.json"
    path.write_text(json.dumps(config, indent=1))

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k != "wall_time_s"}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    doc_first = run_config(load_config(path))
    assert not document_has_failures(doc_first)
    doc_second = run_config(load_config(path))
    blob_first = json.dumps(strip(doc_first.to_json_dict()), sort_keys=True).encode()
    blob_second = json.dumps(strip(doc_second.to_json_dict()), sort_keys=True).encode()
    assert blob_first == blob_second
    jordan_recs = doc_first.experiments["jordan"]["summary"]["result"]["records"]
    assert jordan_recs[0]["flags"]["recurrent"] is False
    passed(
        15,
        f"5-experiment battery is byte-identical across two independent "
        f"runs ({len(blob_first)} bytes compared)",
    )
