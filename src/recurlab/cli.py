"""Batch experiment driver and command-line interface.

Experiments are described by a JSON config (operator spec, vectors, epsilon
grid, horizon, thresholds, list of checks) and produce a report document that
embeds the config text byte for byte. Runs are deterministic: all randomness
flows from the single config-level seed, and report serialization sorts keys
so the emitted bytes do not depend on execution order. Per-check wall times
are the only nondeterministic fields; they live under dedicated
``wall_time_s`` keys so downstream comparisons can strip them.

Exit codes: 0 success, 2 validation/config errors or a failed numerical gate,
3 when ``--strict`` is set and at least one check failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .classify import (
    EIGEN_SPAN_RESIDUAL_TOL,
    EigenSpanCheckReport,
    Thresholds,
    birkhoff_frequent_check,
    classify_vector,
    eigen_span_entry,
    inverse_recurrence_check,
    product_recurrence_check,
    spectral_data,
    unimodular_return_set,
)
from .empmeasure import (
    conjugation_invariance_check,
    covariance,
    empirical_from_window,
    invariance_defect,
    moments,
)
from .errors import ConfigError, NumericalFailureError
from .linop import (
    DiagonalUnimodular,
    DirectSum,
    Inverse,
    LinearOperator,
    jdg_split,
    json_float,
    json_int,
    json_list,
    principal_angle,
    realize,
    spec_from_json_dict,
    unimodular_eigenpairs,  # noqa: F401 -- unused here; the benchmark tracer wraps this binding
)
from .natset import FiniteNatSet, density_summary, prefix_counts
# ``iterate`` and ``return_set`` stay bound here for the benchmark tracer,
# which wraps them by name
from .orbit import iterate, iterate_many, return_set  # noqa: F401

__all__ = [
    "ExperimentSpec",
    "ExperimentConfig",
    "ReportDocument",
    "load_config",
    "run_config",
    "emit_report",
    "main",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    operator: LinearOperator
    vectors: tuple[tuple[str, np.ndarray], ...]
    epsilons: tuple[float, ...]
    horizon: int
    thresholds: Thresholds
    checks: tuple[str, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    schema_version: int
    seed: int
    experiments: tuple[ExperimentSpec, ...]
    raw_text: str


@dataclass(frozen=True)
class ReportDocument:
    schema_version: int
    tool_version: str
    seed: int
    config_echo: str
    experiments: dict

    def to_json_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "tool_version": self.tool_version,
            "seed": self.seed,
            "config_echo": self.config_echo,
            "experiments": self.experiments,
        }


_KINDS = {json_int: "an integer", json_float: "a number", json_list: "a list"}


def _field(convert, value, what: str):
    """``convert(value)``; a value it rejects becomes a ConfigError naming ``what``."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be {_KINDS[convert]}, got {value!r}") from None


def _resolve_vector(token, dim: int, seed: int, exp_name: str) -> tuple[str, np.ndarray]:
    where = f"experiment {exp_name!r}"
    if isinstance(token, str):
        if token == "ones":
            return token, np.ones(dim, dtype=complex)
        kind, _, index = token.partition(":")
        if kind not in ("basis", "random") or not index:
            raise ConfigError(f"{where}: unknown vector generator {token!r}")
        k = _field(json_int, index, f"{where}: the index of {token!r}")
        if kind == "basis":
            if not 0 <= k < dim:
                raise ConfigError(f"{where}: basis index {k} out of range for dim {dim}")
            v = np.zeros(dim, dtype=complex)
            v[k] = 1.0
            return token, v
        if k < 0:
            raise ConfigError(f"{where}: random index {k} must be >= 0")
        rng = np.random.default_rng([seed, k])
        return token, rng.normal(size=dim) + 1j * rng.normal(size=dim)
    try:
        coords = [complex(json_float(re), json_float(im)) for re, im in token]
    except (TypeError, ValueError):
        raise ConfigError(
            f"{where}: an explicit vector is a list of [re, im] pairs, got {token!r}"
        ) from None
    if len(coords) != dim:
        raise ConfigError(f"{where}: vector of dim {len(coords)} with operator of dim {dim}")
    v = np.asarray(coords, dtype=complex)
    if not np.isfinite(v).all():
        raise ConfigError(
            f"{where}: an explicit vector's coordinates must be finite, got {token!r}"
        )
    return "explicit", v


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate an experiment config; all errors become ConfigError."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"the config is not UTF-8: {exc}") from None
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # such as an integer literal past the interpreter's digit limit
        raise ConfigError(f"parse error: {exc}") from None
    except RecursionError:
        raise ConfigError("parse error: the config nests too deeply") from None
    if not isinstance(obj, dict):
        raise ConfigError("config root must be an object")
    schema = _field(json_int, obj.get("schema_version", SCHEMA_VERSION), "schema_version")
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {schema}")
    seed = _field(json_int, obj.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    base_thresholds = obj.get("thresholds", {})
    try:
        global_thresholds = Thresholds.from_json_dict(base_thresholds)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad thresholds: {exc}") from exc

    experiments = []
    seen = set()
    for i, e in enumerate(_field(json_list, obj.get("experiments", []), "experiments")):
        if not isinstance(e, dict):
            raise ConfigError(f"experiment {i} must be an object, got {e!r}")
        name = e.get("name", f"experiment_{i}")
        if not isinstance(name, str):
            raise ConfigError(f"experiment {i}: name must be a string, got {name!r}")
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError(f"experiment {i}: name {name!r} is not valid Unicode") from None
        if name in seen:
            raise ConfigError(f"duplicate experiment name {name!r}")
        seen.add(name)
        where = f"experiment {name!r}"
        try:
            T = realize(spec_from_json_dict(e["operator"]))
        except KeyError as exc:
            raise ConfigError(f"{where}: missing {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        except RecursionError:
            raise ConfigError(f"{where}: the operator spec nests too deeply") from None
        vectors = tuple(
            _resolve_vector(tok, T.dim, seed, name)
            for tok in _field(json_list, e.get("vectors", ["ones"]), f"{where}: vectors")
        )
        if not vectors:
            raise ConfigError(f"{where}: vectors must be nonempty")
        epsilons = tuple(
            _field(json_float, x, f"{where}: an epsilon")
            for x in _field(json_list, e.get("epsilons", []), f"{where}: epsilons")
        )
        if not epsilons or any(not 0 < x < math.inf for x in epsilons):
            raise ConfigError(
                f"{where}: epsilons must be positive, finite and nonempty, got {list(epsilons)}"
            )
        horizon = _field(json_int, e.get("horizon", 10_000), f"{where}: horizon")
        if horizon < 1:
            raise ConfigError(f"{where}: horizon must be >= 1")
        try:
            thresholds = (
                Thresholds.from_json_dict({**base_thresholds, **e["thresholds"]})
                if "thresholds" in e
                else global_thresholds
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: bad thresholds: {exc}") from exc
        checks = tuple(_field(json_list, e.get("checks", ["classify"]), f"{where}: checks"))
        for c in checks:
            if c not in KNOWN_CHECKS:
                raise ConfigError(f"{where}: unknown check {c!r}")
            need = _CHECKS[c].operator
            if need and not need[0](T.spec):
                raise ConfigError(f"{where}: the {c} check needs {need[1]}")
        if "jdg" in checks:
            # jdg is the one check that needs scipy (a sorted Schur split
            # and a principal angle); loading it with the config keeps the
            # import out of the check's wall time and out of every run
            # without the check
            import scipy.linalg  # noqa: F401
        experiments.append(
            ExperimentSpec(
                name=name,
                operator=T,
                vectors=vectors,
                epsilons=epsilons,
                horizon=horizon,
                thresholds=thresholds,
                checks=checks,
            )
        )
    return ExperimentConfig(
        schema_version=schema,
        seed=seed,
        experiments=tuple(experiments),
        raw_text=raw,
    )


def _json_safe(value):
    """Recursively coerce report payloads into JSON-serializable primitives."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


@dataclass
class _VectorRun:
    """One vector of an experiment with its orbits and forward classification.

    Both are computed on first use and then shared by the summary and every
    per-vector check. The runner drops the object before it moves on to the
    next vector, so at most one vector's orbits are alive at a time.
    ``T_inv`` is the experiment's realized T^-1 while the inverse check runs
    without error, and None otherwise.
    """

    exp: ExperimentSpec
    T: LinearOperator
    parts: tuple[LinearOperator, ...]
    T_inv: LinearOperator | None
    index: int
    label: str
    v: np.ndarray

    @cached_property
    def orbits(self):
        """The forward orbit, the backward one under ``T_inv`` when there
        is one, and the orbits of ``parts``, stepped in one loop. The
        forward orbit keeps its points only when a check of the experiment
        reads them; the backward one never does, since the inverse check
        reads its distances only, nor do the parts, recorded off the
        forward orbit's columns."""
        forward = any(_CHECKS[c].reads_points for c in self.exp.checks)
        if self.T_inv is None:
            ops, points = (self.T,), (forward,)
        else:
            ops, points = (self.T, self.T_inv), (forward, False)
        return iterate_many(ops, self.v, self.exp.horizon, points, self.parts)

    @property
    def orbit(self):
        return self.orbits[0]

    @cached_property
    def report(self):
        return self.classify(self.T, self.v, self.label, orbit=self.orbit)

    def classify(self, T: LinearOperator, x: np.ndarray, vector_id: str, orbit=None):
        """``x`` under ``T`` classified at the experiment's epsilons and horizon."""
        exp = self.exp
        return classify_vector(
            T, x, exp.epsilons, exp.horizon, exp.thresholds, vector_id, orbit
        )


def _summary_rows(run: _VectorRun) -> list:
    rep, orb = run.report, run.orbit
    series = []
    h = rep.horizon_effective
    sample = [int(n) for n in np.unique(np.geomspace(1, max(h, 1), num=48).astype(int)) if n <= h]
    for eps in run.exp.epsilons:
        # the return times up to each sample n, one radius's mask at a time
        counts = prefix_counts(orb.dists < eps, sample)
        series.extend([eps, n, c / (n + 1)] for n, c in zip(sample, counts))
    return [
        {
            "vector": run.label,
            "records": [r.to_json_dict() for r in rep.records],
            "series": series,
        }
    ]


def _classify_rows(run: _VectorRun) -> list:
    return [run.report.to_json_dict()]


def _birkhoff_rows(run: _VectorRun) -> list:
    out = []
    for eps in run.exp.epsilons:
        r = birkhoff_frequent_check(run.orbit, eps)
        out.append(
            {
                "vector": run.label,
                "epsilon": eps,
                "density": float(r.density),
                "window_mass": r.window_mass,
                "discrepancy": r.discrepancy,
                "window_start": r.window_start,
                "window_len": r.window_len,
            }
        )
    return out


def _eigen_span_rows(run: _VectorRun) -> list:
    return [eigen_span_entry(run.report, f"v{run.index}")]


def _eigen_span_payload(entries: list) -> dict:
    rep = EigenSpanCheckReport(tuple(entries), EIGEN_SPAN_RESIDUAL_TOL)
    return {
        "residual_tol": rep.residual_tol,
        "all_ok": rep.all_ok,
        "entries": [e._asdict() for e in rep.entries],
    }


def _check_jdg(exp: ExperimentSpec, T, seed: int) -> dict:
    rev, fl = jdg_split(T)
    spectral = spectral_data(T)
    return {
        "rev_dim": rev.shape[1],
        "fl_dim": fl.shape[1],
        "principal_angle_rev_vs_espan": principal_angle(rev, spectral.espan_basis),
    }


def _check_unimodular_return(exp: ExperimentSpec, T, seed: int) -> dict:
    reports = unimodular_return_set(
        T.spec.angles_turns, exp.epsilons, exp.horizon, probe_seed=seed
    )
    out = []
    for eps, rep in zip(exp.epsilons, reports):
        out.append(
            {
                "epsilon": eps,
                "return_count": rep.returns.size,
                "first_times": rep.returns[:16].tolist(),
                "syndetic_gap": rep.gap,
                "probes": [p._asdict() for p in rep.probes],
            }
        )
    return {"per_epsilon": out}


def _product_rows(run: _VectorRun) -> list:
    part1, part2 = (
        run.classify(P, orbit.base, f"part{k}", orbit)
        for k, (P, orbit) in enumerate(zip(run.parts, run.orbits[-2:]), 1)
    )
    out = []
    for eps in run.exp.epsilons:
        r = product_recurrence_check(part1, part2, run.report, eps)
        out.append(
            {
                "vector": run.label,
                "epsilon": eps,
                "return_sets_match": r.return_sets_match,
                "intersection_density": float(r.intersection_density),
                "part1_flags": r.part1_flags,
                "part2_flags": r.part2_flags,
                "sum_flags": r.sum_flags,
                "reiterative_parts_imply_frequent_sum": (
                    r.reiterative_parts_imply_frequent_sum
                ),
            }
        )
    return out


def _inverse_rows(run: _VectorRun) -> list:
    backward = run.classify(run.T_inv, run.v, "backward", run.orbits[1])
    r = inverse_recurrence_check(run.report, backward)
    return [
        {
            "vector": run.label,
            "return_sets_identical": r.return_sets_identical,
            "flags_match": r.flags_match,
            "forward_flags": r.forward.vector_flags,
            "backward_flags": r.backward.vector_flags,
        }
    ]


def _measure_rows(run: _VectorRun) -> list:
    exp, T, v, orb = run.exp, run.T, run.v, run.orbit
    # the epsilon-0 record holds the density-realizing window of the
    # return set at epsilons[0], at the window length of the horizon
    rec = run.report.records[0]
    start, n_win = rec.banach.start, rec.window_len
    mu = empirical_from_window(orb, start, n_win)
    balls = [(v, eps) for eps in exp.epsilons]
    balls.append((np.zeros(T.dim, dtype=complex), max(1.0, 2 * T.norm_of(v))))
    cov = covariance(mu)
    mom = moments(mu)
    return [
        {
            "vector": run.label,
            "window_start": start,
            "window_len": n_win,
            "n_atoms": mu.n_atoms,
            "invariance_defect": invariance_defect(T, mu, balls),
            "defect_bound": 2.0 / (n_win + 1),
            "expectation_norm": float(np.linalg.norm(mom.expectation)),
            "second_moment": mom.second_moment,
            "covariance_trace": cov.trace,
            "conjugation_defect": conjugation_invariance_check(T, cov),
        }
    ]


class _Check(NamedTuple):
    """One check, or the summary: ``rows(run)`` gives one vector's rows and
    ``payload(rows)`` the result from all vectors' rows; a check without
    ``rows`` reads the operator only, as ``payload(exp, T, seed)``.
    ``passed(result)`` is the verdict that ``--strict`` reads;
    ``reads_points``, whether it reads the forward orbit's points and not
    only its distances; ``operator``, a ``(predicate, what it needs)`` pair
    on the operator spec. Entries hold this module's functions only, since
    the benchmark tracer wraps the library functions where they are bound.
    """

    rows: Callable | None
    payload: Callable
    passed: Callable[[dict], bool] = lambda result: True
    reads_points: bool = False
    operator: tuple | None = None


_CHECKS = {
    "summary": _Check(_summary_rows, lambda rows: rows[0]),
    "classify": _Check(_classify_rows, lambda rows: {"reports": rows}),
    "birkhoff": _Check(_birkhoff_rows, lambda rows: {"comparisons": rows}),
    "eigen_span": _Check(_eigen_span_rows, _eigen_span_payload, lambda r: r["all_ok"]),
    "jdg": _Check(None, _check_jdg),
    "unimodular_return": _Check(None, _check_unimodular_return, operator=(
        lambda spec: isinstance(spec, DiagonalUnimodular), "a diagonal_unimodular operator"
    )),
    "product": _Check(
        _product_rows,
        lambda rows: {"per_case": rows},
        lambda r: all(
            c["return_sets_match"] and c["reiterative_parts_imply_frequent_sum"]
            for c in r["per_case"]
        ),
        operator=(
            lambda spec: isinstance(spec, DirectSum) and len(spec.parts) == 2,
            "a direct_sum operator with exactly two parts",
        ),
    ),
    "inverse": _Check(_inverse_rows, lambda rows: {"per_vector": rows}),
    "measure": _Check(
        _measure_rows,
        lambda rows: {"per_vector": rows},
        lambda r: all(not v["invariance_defect"] > v["defect_bound"] for v in r["per_vector"]),
        reads_points=True,
    ),
}
KNOWN_CHECKS = tuple(name for name in _CHECKS if name != "summary")


def _timed(entry: dict, fn, *args):
    """``fn(*args)``, or None after recording its error in ``entry``.

    The call's duration is added to ``entry["wall_time_s"]`` either way.
    """
    t0 = time.perf_counter()
    try:
        return fn(*args)
    except Exception as exc:
        entry["error"] = f"{type(exc).__name__}: {exc}"
        return None
    finally:
        entry["wall_time_s"] += time.perf_counter() - t0


def _run_experiment(exp: ExperimentSpec, seed: int) -> dict:
    """Run the summary and every check of one experiment, vector by vector.

    Each vector's orbits and forward classification are computed once and
    shared; a check that raises for one vector records the error and skips
    the rest. A check's ``wall_time_s`` is the sum of its time over all
    vectors, and the one loop that steps a vector's forward and backward
    orbits is timed under the first check that reads them. T^-1 is realized
    once, timed under the ``inverse`` check, so an operator without an
    inverse fails that check alone; once that check has an error, the
    vectors step the forward orbit only.
    """
    T = exp.operator
    parts = tuple(map(realize, T.spec.parts)) if "product" in exp.checks else ()
    entries = {name: {"wall_time_s": 0.0} for name in ("summary", *exp.checks)}
    T_inv = _timed(entries["inverse"], realize, Inverse(T.spec)) if "inverse" in entries else None
    rows = {name: [] for name in entries if _CHECKS[name].rows}
    for index, (label, v) in enumerate(exp.vectors):
        if "error" in entries.get("inverse", {}):
            T_inv = None  # no later vector needs its backward orbit
        run = _VectorRun(exp, T, parts, T_inv, index, label, v)
        for name in rows:
            if "error" in entries[name] or (name == "summary" and index > 0):
                continue
            got = _timed(entries[name], _CHECKS[name].rows, run)
            if got is not None:
                rows[name] += got
        del run
    for name, entry in entries.items():
        check = _CHECKS[name]
        if check.rows is None:
            payload = _timed(entry, check.payload, exp, T, seed)
        else:
            payload = None if "error" in entry else check.payload(rows[name])
        if "error" not in entry:
            entry["result"] = payload
    summary = entries.pop("summary")
    return _json_safe({"summary": summary, "checks": entries})


def run_config(config: ExperimentConfig) -> ReportDocument:
    """Run the experiments one at a time, in config order.

    Individual check failures are recorded, not raised.
    """
    experiments = {exp.name: _run_experiment(exp, config.seed) for exp in config.experiments}
    return ReportDocument(
        schema_version=SCHEMA_VERSION,
        tool_version=__version__,
        seed=config.seed,
        config_echo=config.raw_text,
        experiments=experiments,
    )


def document_has_failures(doc: ReportDocument) -> bool:
    """True when the summary or a check raised, or a check's verdict failed."""
    for exp in doc.experiments.values():
        if "error" in exp.get("summary", {}):
            return True
        for check, payload in exp.get("checks", {}).items():
            if "error" in payload or not _CHECKS[check].passed(payload["result"]):
                return True
    return False


def emit_report(doc: ReportDocument, fmt: str, path: str | Path) -> None:
    """Write the document as canonical JSON or as summary + series CSV.

    The CSV at ``path`` holds exactly one (experiment, epsilon, lower, upper,
    banach, gap) row per classified epsilon; the per-prefix density series
    goes to a sibling ``<stem>_series.csv`` for plotting.
    """
    path = Path(path)
    if fmt == "json":
        text = json.dumps(doc.to_json_dict(), indent=2, sort_keys=True)
        path.write_text(text + "\n", encoding="utf-8")
        return
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "epsilon", "lower", "upper", "banach", "gap"])
        for name, exp in doc.experiments.items():
            summary = exp.get("summary", {})
            for rec in summary.get("result", {}).get("records", []):
                writer.writerow(
                    [
                        name,
                        rec["epsilon"],
                        rec["lower"]["running_inf"]["real"],
                        rec["upper"]["running_sup"]["real"],
                        rec["banach"]["ratio"]["real"],
                        rec["syndetic_gap"],
                    ]
                )
    series_path = path.with_name(path.stem + "_series.csv")
    with open(series_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "epsilon", "n", "prefix_density"])
        for name, exp in doc.experiments.items():
            summary = exp.get("summary", {})
            for eps, n, dens in summary.get("result", {}).get("series", []):
                writer.writerow([name, eps, n, dens])


def _parse_vector_arg(text: str, dim: int, seed: int):
    if text in ("ones",) or text.startswith(("basis:", "random:")):
        return _resolve_vector(text, dim, seed, "<cli>")[1]
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad vector literal: {exc.msg}") from exc
    return _resolve_vector(obj, dim, seed, "<cli>")[1]


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = run_config(config)
    try:
        emit_report(doc, args.format, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    if args.strict and document_has_failures(doc):
        print("error: at least one check failed (strict mode)", file=sys.stderr)
        return 3
    return 0


def _cmd_densities(args) -> int:
    try:
        obj = json.loads(Path(args.set).read_text(encoding="utf-8"))
        if not isinstance(obj, dict):
            raise ValueError(f"a set file holds an object, got {obj!r}")
        A = FiniteNatSet.from_json_dict(obj)
        windows = [json_int(w) for w in args.windows.split(",") if w]
        windows = [w for w in windows if 0 <= w <= A.horizon]
        # a horizon too large to index or to allocate raises here, from numpy
        summary = density_summary(A, window_lengths=windows)
    except (OSError, TypeError, ValueError, KeyError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the set file nests too deeply", file=sys.stderr)
        return 2
    out = {
        "horizon": A.horizon,
        "count": len(A),
        "lower_at_horizon": str(summary.lower_at_horizon),
        "upper_at_horizon": str(summary.upper_at_horizon),
        "banach_upper": {
            str(n): {"ratio": str(b.ratio), "start": b.start}
            for n, b in summary.banach_upper.items()
        },
        "prefix_profile": [[n, float(f)] for n, f in summary.prefix_profile],
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_classify(args) -> int:
    try:
        T = realize(spec_from_json_dict(json.loads(Path(args.op).read_text(encoding="utf-8"))))
        x = _parse_vector_arg(args.vector, T.dim, seed=0)
        epsilons = [float(e) for e in args.eps.split(",") if e]
        rep = classify_vector(T, x, epsilons=epsilons, horizon=args.horizon)
    except (OSError, ValueError, KeyError, MemoryError, NumericalFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the operator spec nests too deeply", file=sys.stderr)
        return 2
    print(json.dumps(rep.to_json_dict(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recurlab",
        description="Recurrence diagnostics for linear dynamical systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a batch of experiments from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the experiment config")
    p_run.add_argument("--out", required=True, help="path for the report")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument(
        "--strict", action="store_true", help="exit 3 if any check fails"
    )
    p_run.set_defaults(fn=_cmd_run)

    p_dens = sub.add_parser("densities", help="density summary of a stored set")
    p_dens.add_argument("--set", required=True, help="path to a FiniteNatSet JSON file")
    p_dens.add_argument("--windows", default="10,100,1000")
    p_dens.set_defaults(fn=_cmd_densities)

    p_cls = sub.add_parser("classify", help="classify one vector under one operator")
    p_cls.add_argument("--op", required=True, help="path to an operator spec JSON file")
    p_cls.add_argument(
        "--vector",
        required=True,
        help="'ones', 'basis:k', 'random:k', or a JSON list of [re, im] pairs",
    )
    p_cls.add_argument("--eps", required=True, help="comma-separated radii")
    p_cls.add_argument("--horizon", type=int, default=10_000)
    p_cls.set_defaults(fn=_cmd_classify)

    p_ver = sub.add_parser("version", help="print the tool version")
    p_ver.set_defaults(fn=lambda args: (print(__version__), 0)[1])

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
