"""Seeded experiment configs for the benchmark workloads.

Each builder takes the benchmark seed and returns the config text that
``recurlab run`` reads; the program under test sees only that text.
"""

from __future__ import annotations

import json

import numpy as np

# The fixed end-to-end config of the project roadmap, byte for byte except
# for the seed.
_PAIR_SUM = (
    '{{"schema_version":1,"seed":{seed},"experiments":[\n'
    '{{"name":"golden_pair","operator":{{"type":"diagonal_unimodular","angles_turns":[0.25,0.618034]}},'
    '"vectors":["ones","basis:0","random:0"],"epsilons":[0.5,0.25],"horizon":200000,'
    '"checks":["classify","birkhoff","unimodular_return","inverse","measure","eigen_span"]}},\n'
    '{{"name":"sum","operator":{{"type":"direct_sum","parts":[{{"type":"diagonal_unimodular","angles_turns":[0.618034]}},'
    '{{"type":"diagonal_unimodular","angles_turns":[0.41421356]}}]}},'
    '"vectors":["ones","random:1"],"epsilons":[0.5,0.25],"horizon":200000,'
    '"checks":["classify","birkhoff","product","inverse","measure"]}}\n'
    "]}}\n"
)


def pair_sum(seed: int) -> str:
    return _PAIR_SUM.format(seed=seed)


def eps_sweep(seed: int) -> str:
    rng = np.random.default_rng([seed, 1])
    angle = float(rng.uniform(0.1, 0.4))
    radii = [round(0.4 + 0.1 * k, 10) for k in range(16)]
    return json.dumps(
        {
            "schema_version": 1,
            "seed": seed,
            "experiments": [
                {
                    "name": "rotation",
                    "operator": {"type": "diagonal_unimodular", "angles_turns": [angle]},
                    "vectors": ["ones"],
                    "epsilons": radii,
                    "horizon": 1_000_000,
                    "checks": ["classify"],
                }
            ],
        }
    )


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def dense_measure(seed: int) -> str:
    rng = np.random.default_rng([seed, 2])
    u = _haar_unitary(rng, 4)
    # An eigenvector of the unitary block stands in for "basis:0": a basis
    # vector winds on a 4-torus, so at this horizon its 0.25-ball returns
    # are too sparse for the "in the eigenvector span => uniformly
    # recurrent" verdict of eigen_span, while an eigenvector's orbit is a
    # single rotation and passes it.
    eigvec = np.concatenate([np.linalg.eig(u)[1][:, 0], np.zeros(2)])
    return json.dumps(
        {
            "schema_version": 1,
            "seed": seed,
            "experiments": [
                {
                    "name": "unitary_jordan",
                    "operator": {
                        "type": "direct_sum",
                        "parts": [
                            {"type": "dense_matrix", "entries": [_pairs(row) for row in u]},
                            {"type": "jordan_block", "eigenvalue": [0.5, 0.0], "size": 2},
                        ],
                    },
                    "vectors": ["ones", "random:0", _pairs(eigvec)],
                    "epsilons": [0.5, 0.25],
                    "horizon": 200_000,
                    "thresholds": {"window_fraction": 0.5},
                    "checks": ["jdg", "eigen_span", "measure"],
                }
            ],
        }
    )


WORKLOADS = {
    # Orbit iteration dominates (47 iterate calls, 14 orbits); the only threaded path.
    "pair_sum": (pair_sum, {"RECURLAB_THREADS": "2"}),
    # Per-epsilon return-set and density bookkeeping dominates; iteration is small.
    "eps_sweep": (eps_sweep, {"RECURLAB_THREADS": "1"}),
    # Dense per-block apply, the apply_to_rows row loop and window measures.
    "dense_measure": (dense_measure, {"RECURLAB_THREADS": "1"}),
}
