"""Return times of irrational rotations versus the arc-length prediction.

For a unimodular diagonal operator the orbit of a unit vector lives on a
torus, and the fraction of times it re-enters an epsilon-ball around the
start should converge to the normalized arc length (2/pi) * arcsin(eps/2)
per angle. The script prints measured densities against that prediction,
then shows the syndetic gap and the structured "probe" sets that certify
the return sets are fat enough to meet every long arithmetic progression.
"""

import argparse
import math

import numpy as np

from recurlab import (
    DiagonalUnimodular,
    classify_vector,
    realize,
    unimodular_return_set,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def arc(eps):
    return (2.0 / math.pi) * math.asin(eps / 2.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=100_000)
    args = ap.parse_args()
    H = args.horizon

    print(f"single golden-ratio rotation, horizon {H}")
    print(f"{'eps':>6} {'measured':>10} {'arc length':>10} {'abs diff':>10} "
          f"{'gap':>5}")
    T = realize(DiagonalUnimodular((GOLDEN,)))
    one = np.array([1.0 + 0j])
    for eps in (0.8, 0.4, 0.2, 0.1, 0.05):
        rep = classify_vector(T, one, epsilons=[eps], horizon=H)
        rec = rep.records[0]
        measured = float(rec.lower.value)
        print(f"{eps:>6.2f} {measured:>10.6f} {arc(eps):>10.6f} "
              f"{abs(measured - arc(eps)):>10.2e} {rec.gap:>5d}")

    print("\nsimultaneous angles: the product of arcs bounds the density "
          "from below only after")
    print("the angles decorrelate; the probe battery checks the set still "
          "hits every structure.")
    batteries = [
        ((0.25,), 0.5),
        ((GOLDEN,), 0.3),
        ((0.25, GOLDEN), 0.3),
        ((0.25, GOLDEN, math.sqrt(2.0) - 1.0), 0.3),
    ]
    for angles, eps in batteries:
        (rep,) = unimodular_return_set(list(angles), [eps], H)
        hits = sum(p.hit for p in rep.probes)
        print(f"\n  angles { {round(a, 6) for a in angles} }  eps {eps}")
        print(f"    returns {rep.returns.size}  density "
              f"{rep.returns.size / (H + 1):.5f}  gap {rep.gap}")
        print(f"    probes hit: {hits}/{len(rep.probes)}  "
              f"({', '.join(p.label for p in rep.probes if p.hit)})")


if __name__ == "__main__":
    main()
