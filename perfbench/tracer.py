"""Outside-in tracer: wraps recurlab's public functions where callers bound them.

The program is not modified. Each wrapped name gets a span (name, start, end,
self time, parent, thread) per call; self time is the span's duration minus
the durations of the wrapped calls nested directly inside it on the same
thread. Spans stay in memory and are written once, by ``Tracer.dump``.

The per-step ``LinearOperator.apply`` is never wrapped: an orbit makes one
call per step, and wrapping it would measure the tracer.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import threading
import time
from collections import Counter

import numpy as np


def _orbit_kind(T) -> str:
    """Orbit kind for ``ns_per_step``: any multi-block operator is a direct sum."""
    if len(T.block_dims) > 1:
        return "direct_sum"
    m = T.matrix
    return "diagonal" if not (m - np.diag(np.diagonal(m))).any() else "dense"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.orbit_keys: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording a span ``name``; after each call,
        ``count(tracer, span, args, kwargs, result)`` may add counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {
                "id": next(self._ids),
                "parent": stack[-1][0] if stack else None,
                "name": name,
                "thread": threading.get_ident(),
            }
            child_s = [0.0]
            stack.append((span["id"], child_s))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1][0] += t1 - t0
                span.update(start=t0, end=t1, self_s=t1 - t0 - child_s[0])
                with self._lock:
                    self.spans.append(span)
            if count is not None:
                with self._lock:
                    count(self, span, args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, count=None) -> None:
        setattr(module, attr, self.wrap(name, getattr(module, attr), count))

    def dump(self, path) -> None:
        counts = {**self.counts, "orbit.iterate.distinct": len(self.orbit_keys)}
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": counts}, fh)


def _count_iterate(tr: Tracer, span, args, kwargs, orbit) -> None:
    T, x = args[0], np.asarray(args[1], dtype=complex)
    horizon = args[2] if len(args) > 2 else kwargs["horizon"]
    key = hashlib.sha256(
        T.matrix.tobytes() + x.tobytes() + str(horizon).encode()
    ).hexdigest()
    tr.orbit_keys.add(key)
    steps = orbit.points.shape[0] - 1
    kind = _orbit_kind(T)
    tr.counts["orbit.iterate.steps"] += steps
    tr.counts[f"orbit.iterate.steps.{kind}"] += steps
    tr.counts[f"orbit.iterate.s.{kind}"] += span["self_s"]
    tr.counts["orbit.iterate.overflowed"] += int(orbit.overflow)


def _count_return_set(tr: Tracer, span, args, kwargs, R) -> None:
    tr.counts["orbit.return_set.hits"] += len(R)


def _count_rows(tr: Tracer, span, args, kwargs, out) -> None:
    tr.counts["linop.apply_to_rows.rows"] += out.shape[0]


def _count_window(tr: Tracer, span, args, kwargs, mu) -> None:
    window_len = args[2] if len(args) > 2 else kwargs["window_len"]
    tr.counts["empmeasure.empirical_from_window.atoms_in"] += window_len + 1
    tr.counts["empmeasure.empirical_from_window.atoms_out"] += mu.n_atoms


# (span name, counter hook, modules whose binding of the function is wrapped)
_TARGETS = {
    "realize": ("linop.realize", None, ("cli", "classify")),
    "unimodular_eigenpairs": ("linop.spectral", None, ("cli", "classify")),
    "jdg_split": ("linop.spectral", None, ("cli",)),
    "iterate": ("orbit.iterate", _count_iterate, ("cli", "classify")),
    "return_set": ("orbit.return_set", _count_return_set, ("cli", "classify")),
    "lower_density": ("natset.lower_density", None, ("classify",)),
    "upper_density": ("natset.upper_density", None, ("classify",)),
    "upper_banach_density": ("natset.upper_banach_density", None, ("classify", "empmeasure")),
    "syndetic_gap": ("natset.syndetic_gap", None, ("classify",)),
    "classify_vector": ("classify.classify_vector", None, ("cli", "classify")),
    "unimodular_return_set": ("classify.unimodular_return_set", None, ("cli",)),
    "empirical_from_window": (
        "empmeasure.empirical_from_window", _count_window, ("cli", "classify"),
    ),
    "invariance_defect": ("empmeasure.invariance_defect", None, ("cli",)),
    "ball_mass": ("empmeasure.ball_mass", None, ("classify",)),
    "moments": ("empmeasure.moments_cov", None, ("cli",)),
    "covariance": ("empmeasure.moments_cov", None, ("cli",)),
    "conjugation_invariance_check": ("empmeasure.moments_cov", None, ("cli",)),
}


def install(tracer: Tracer) -> None:
    """Wrap every traced function in the modules that call it, and the cli
    entry points used by the benchmark worker."""
    import recurlab.classify
    import recurlab.cli
    import recurlab.empmeasure
    import recurlab.linop

    modules = {
        "cli": recurlab.cli,
        "classify": recurlab.classify,
        "empmeasure": recurlab.empmeasure,
    }
    for attr, (name, count, where) in _TARGETS.items():
        for mod in where:
            tracer.patch(modules[mod], attr, name, count)
    LinearOperator = recurlab.linop.LinearOperator
    LinearOperator.apply_to_rows = tracer.wrap(
        "linop.apply_to_rows", LinearOperator.apply_to_rows, _count_rows
    )
    for attr in ("load_config", "run_config", "emit_report"):
        tracer.patch(recurlab.cli, attr, f"cli.{attr}")
