"""The recurrence hierarchy measured on live orbits.

Classification flags form a one-way street: uniformly recurrent implies
frequently, implies upper-frequently, implies reiteratively, implies
recurrent. The script classifies a gallery of operators and prints the
flag ladder for each, then spot-checks three structural theorems on random
batteries: reiteratively implies frequently for unitary operators, a
uniformly recurrent vector lies in the span of unimodular eigenvectors, and
joint recurrence of a direct sum is the exact intersection of the parts.
"""

import argparse
import math

import numpy as np

from recurlab import (
    DenseMatrix,
    DiagonalUnimodular,
    DirectSum,
    Inverse,
    JordanBlock,
    Scale,
    Thresholds,
    classify_vector,
    direct_sum,
    inverse_recurrence_check,
    product_recurrence_check,
    realize,
    return_set,
)
from recurlab.classify import FLAG_ORDER

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def ladder(flags):
    return " ".join(f"{name}={'Y' if flags[name] else '.'}" for name in FLAG_ORDER)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    gallery = [
        ("golden rotation", DiagonalUnimodular((GOLDEN,)),
         np.array([1.0 + 0j]), 0.2, 100_000, None),
        ("rotation + decay, mixed vector",
         DirectSum((DiagonalUnimodular((GOLDEN,)),
                    Scale(0.5, DenseMatrix(((1.0,),))))),
         np.array([1.0, 1.0], dtype=complex), 0.2, 100_000, None),
        ("exchange matrix, fixed vector", DenseMatrix(((0.0, 1.0), (1.0, 0.0))),
         np.array([1.0, 1.0], dtype=complex), 0.2, 10_000, None),
        ("Jordan block at 1, second basis vector", JordanBlock(1.0, 2),
         np.array([0.0, 1.0], dtype=complex), 0.9, 1000,
         Thresholds(min_horizon=1000)),
    ]
    print("flag ladder per operator (Y = flag set)")
    for name, spec, x, eps, H, th in gallery:
        rep = classify_vector(realize(spec), x, epsilons=[eps], horizon=H,
                              thresholds=th)
        print(f"  {name:38s} eps={eps:<4} {ladder(rep.records[0].flags)}")

    print("\nreiteratively -> frequently on 15 random unitary diagonals")
    holds = checked = 0
    for _ in range(15):
        d = int(rng.integers(1, 3))
        T = realize(DiagonalUnimodular(tuple(rng.uniform(size=d))))
        x = np.exp(2j * np.pi * rng.uniform(size=d))
        rep = classify_vector(T, x, epsilons=[0.3, 0.5], horizon=20_000)
        for rec in rep.records:
            if rec.flags["reiteratively"]:
                checked += 1
                holds += rec.flags["frequently"]
    print(f"  implication held in {holds}/{checked} flagged records")

    print("\nuniformly recurrent -> in the unimodular eigenvector span")
    for _ in range(5):
        T = realize(DirectSum((
            DiagonalUnimodular(tuple(rng.uniform(size=2))),
            Scale(float(rng.uniform(0.3, 0.8)), DenseMatrix(((1.0,),))),
        )))
        v = np.concatenate([np.exp(2j * np.pi * rng.uniform(size=2)), [0.0]])
        rep = classify_vector(T, v, epsilons=[0.5], horizon=20_000)
        print(f"  uniformly={str(rep.vector_flags['uniformly']):5s} "
              f"span residual {rep.eigen_span_residual:.2e}")

    print("\njoint return set of a direct sum = intersection of the parts")
    T1 = realize(DiagonalUnimodular((0.25,)))
    T2 = realize(DiagonalUnimodular((0.5,)))
    one = np.array([1.0 + 0j])
    # the check reads three classified orbits: each part and their sum
    cases = ((T1, one), (T2, one), (direct_sum([T1, T2]), np.concatenate([one, one])))
    part1, part2, total = (
        classify_vector(T, x, epsilons=[0.5], horizon=10_000) for T, x in cases
    )
    rep = product_recurrence_check(part1, part2, total, 0.5)
    print(f"  quarter + half turn at eps 0.5: joint returns start "
          f"{return_set(total.orbit, 0.5).elements[:5]} (every lcm(4,2)=4 steps), "
          f"match={rep.return_sets_match}")

    print("\nrecurrence survives inversion for unitary operators")
    T = realize(DiagonalUnimodular((0.25, GOLDEN)))
    x = np.exp(2j * np.pi * np.array([0.1, 0.7]))
    forward, backward = (
        classify_vector(S, x, epsilons=[0.5, 0.25], horizon=10_000)
        for S in (T, realize(Inverse(T.spec)))
    )
    rep = inverse_recurrence_check(forward, backward)
    print(f"  return sets identical: {rep.return_sets_identical}, "
          f"flags match: {rep.flags_match}")


if __name__ == "__main__":
    main()
