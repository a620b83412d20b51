"""Batch experiment driver and command-line interface.

Experiments are described by a JSON config (operator spec, vectors, epsilon
grid, horizon, thresholds, list of checks) and produce a report document that
embeds the config text byte for byte. Runs are deterministic: all randomness
flows from the single config-level seed, and report serialization sorts keys
so the emitted bytes do not depend on execution order. Per-check wall times
are the only nondeterministic fields; they live under dedicated
``wall_time_s`` keys so downstream comparisons can strip them.

Exit codes: 0 success, 2 refused input, 3 when ``--strict`` is set and at
least one check failed. Every subcommand refuses input in one place,
:func:`main`: an ``OSError``, ``TypeError``, ``ValueError`` (``ConfigError``
among them), ``KeyError``, ``OverflowError``, ``MemoryError``,
``NumericalFailureError`` or ``RecursionError`` prints one ``error:`` line and
no traceback. ``run`` also exits 2 when it cannot write its report.

One function, :func:`_experiment`, reads an experiment's operator, vectors,
epsilons, horizon, thresholds and checks. :func:`load_config` adds the
experiment's name to its messages in one place, and ``classify`` reads its
one vector through it too, so both refuse the same input in the same words.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .classify import (
    EIGEN_SPAN_RESIDUAL_TOL,
    Thresholds,
    birkhoff_frequent_check,
    classify_vector,
    eigen_span_entry,
    inverse_recurrence_check,
    product_recurrence_check,
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
    unimodular_eigenpairs,
)
from .natset import FiniteNatSet, density_summary, prefix_counts
# ``iterate`` and ``return_set`` stay bound here for the benchmark tracer,
# which wraps them by name
from .orbit import (  # noqa: F401
    OVERFLOW_CAP, check_horizon, check_radii, iterate, iterate_many, keeps_points, return_set,
)

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
        return asdict(self)


_KINDS = {json_int: "an integer", json_float: "a number", json_list: "a list"}
# the errors of refused input: each exits 2 with one line (:func:`main`)
_REFUSED = (
    OSError, TypeError, ValueError, KeyError, OverflowError, MemoryError, NumericalFailureError,
    RecursionError,
)


def _field(convert, value, what: str):
    """``convert(value)``; a value it rejects becomes a ConfigError naming ``what``."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be {_KINDS[convert]}, got {value!r}") from None


def _resolve_vector(token, T: LinearOperator, seed: int) -> tuple[str, np.ndarray]:
    dim = T.dim
    if isinstance(token, str):
        if token == "ones":
            return token, np.ones(dim, dtype=complex)
        kind, _, index = token.partition(":")
        if kind not in ("basis", "random") or not index:
            raise ConfigError(f"unknown vector generator {token!r}")
        k = _field(json_int, index, f"the index of {token!r}")
        if kind == "basis":
            if not 0 <= k < dim:
                raise ConfigError(f"basis index {k} out of range for dim {dim}")
            v = np.zeros(dim, dtype=complex)
            v[k] = 1.0
            return token, v
        if k < 0:
            raise ConfigError(f"random index {k} must be >= 0")
        rng = np.random.default_rng([seed, k])
        return token, rng.normal(size=dim) + 1j * rng.normal(size=dim)
    try:
        coords = [complex(json_float(re), json_float(im)) for re, im in token]
    except (TypeError, ValueError):
        raise ConfigError(f"an explicit vector is a list of [re, im] pairs, got {token!r}") from None
    if len(coords) != dim:
        raise ConfigError(f"vector of dim {len(coords)} with operator of dim {dim}")
    v = np.asarray(coords, dtype=complex)
    if not np.isfinite(v).all():
        raise ConfigError(f"an explicit vector's coordinates must be finite, got {token!r}")
    with np.errstate(over="ignore"):  # a norm past the float range reads inf
        norm = T.norm_of(v)
    if not norm <= OVERFLOW_CAP:  # every orbit of it would stop at its base point
        raise ConfigError(
            f"an explicit vector's metric norm must be at most {OVERFLOW_CAP:g}, got {token!r}"
        )
    return "explicit", v


def _experiment(e: dict, name: str, seed: int, base_thresholds: dict) -> ExperimentSpec:
    """One experiment object of a config, read and checked, with the
    config's ``seed`` and ``thresholds`` object. Its messages do not name
    the experiment: :func:`load_config` adds the name, and ``recurlab
    classify`` reads its one vector through this function too."""
    T = realize(spec_from_json_dict(e["operator"]))
    vectors = tuple(
        _resolve_vector(tok, T, seed)
        for tok in _field(json_list, e.get("vectors", ["ones"]), "vectors")
    )
    if not vectors:
        raise ConfigError("vectors must be nonempty")
    epsilons = check_radii(
        _field(json_float, x, "an epsilon")
        for x in _field(json_list, e.get("epsilons", []), "epsilons")
    )
    horizon = _field(json_int, e.get("horizon", 10_000), "horizon")
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    check_horizon(horizon, T.dim)  # refused at load, before any check runs
    try:
        thresholds = Thresholds.from_json_dict({**base_thresholds, **e.get("thresholds", {})})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad thresholds: {exc}") from exc
    checks = tuple(_field(json_list, e.get("checks", ["classify"]), "checks"))
    for c in checks:
        if c not in KNOWN_CHECKS:
            raise ConfigError(f"unknown check {c!r}")
        need = _CHECKS[c].operator
        if need and not need[0](T.spec):
            raise ConfigError(f"the {c} check needs {need[1]}")
    if "jdg" in checks:
        # jdg is the one check that needs scipy (a sorted Schur split
        # and a principal angle); loading it with the config keeps the
        # import out of the check's wall time and out of every run
        # without the check
        import scipy.linalg  # noqa: F401
    return ExperimentSpec(name, T, vectors, epsilons, horizon, thresholds, checks)


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
    thresholds = obj.get("thresholds", {})
    try:  # refused once here, not under each experiment's name
        Thresholds.from_json_dict(thresholds)
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
        try:
            experiments.append(_experiment(e, name, seed, thresholds))
        except _REFUSED as exc:
            raise ConfigError(f"experiment {name!r}: {_reason(exc, 'the operator spec')}") from exc
    return ExperimentConfig(seed, tuple(experiments), raw)


@dataclass
class _VectorRun:
    """One vector of an experiment with its orbits and forward classification.

    ``orbits`` are the vector's segments from the runner's loop: the forward
    orbit, the backward one under ``T_inv`` when there is one, and the orbits
    of ``parts``, ranked on the experiment's epsilons. The classification is
    computed on first use and then shared by the summary and every
    per-vector check; the runner drops the object after the vector's checks.
    ``T_inv`` is the experiment's realized T^-1, or None when it could not
    be realized.
    """

    exp: ExperimentSpec
    T: LinearOperator
    parts: tuple[LinearOperator, ...]
    T_inv: LinearOperator | None
    index: int
    label: str
    v: np.ndarray
    orbits: list

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
        counts = prefix_counts(orb.inside(eps), sample)
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
        row = {"vector": run.label, "epsilon": eps, **r._asdict(), "density": float(r.density)}
        out.append(row)
    return out


def _eigen_span_rows(run: _VectorRun) -> list:
    return [eigen_span_entry(run.report, f"v{run.index}")]


def _eigen_span_payload(entries: list) -> dict:
    return {
        "residual_tol": EIGEN_SPAN_RESIDUAL_TOL,
        "all_ok": all(e.recurrence_implies_span and e.span_implies_uniform for e in entries),
        "entries": [e._asdict() for e in entries],
    }


def _check_jdg(exp: ExperimentSpec, T, seed: int) -> dict:
    rev, fl = jdg_split(T)
    espan = unimodular_eigenpairs(T).espan_basis
    return {
        "rev_dim": rev.shape[1],
        "fl_dim": fl.shape[1],
        "principal_angle_rev_vs_espan": principal_angle(rev, espan),
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
        row = {"vector": run.label, "epsilon": eps, **r._asdict(),
               "intersection_density": float(r.intersection_density)}
        out.append(row)
    return out


def _inverse_rows(run: _VectorRun) -> list:
    backward = run.classify(run.T_inv, run.v, "backward", run.orbits[1])
    r = inverse_recurrence_check(run.report, backward)
    return [{"vector": run.label, **r._asdict()}]


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
    ``reads_points``, whether it reads a window of the forward orbit's
    points, kept or re-stepped (:func:`orbit.keeps_points`), and not only
    its distances; ``operator``, a ``(predicate, what it needs)`` pair on
    the operator spec. Entries hold this module's functions only, since
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
    A ``MemoryError`` propagates: a horizon too large to allocate fails
    every check alike, so the run as a whole is refused.
    """
    t0 = time.perf_counter()
    try:
        return fn(*args)
    except MemoryError:
        raise
    except Exception as exc:
        entry["error"] = f"{type(exc).__name__}: {exc}"
        return None
    finally:
        entry["wall_time_s"] += time.perf_counter() - t0


def _run_experiment(exp: ExperimentSpec, seed: int) -> dict:
    """Run the summary and every check of one experiment, vector by vector.

    The orbits of every vector are lanes of one loop (:func:`iterate_many`),
    timed under the summary: each vector's forward orbit, its backward one
    and its product parts' orbits. The forward lane keeps its points only
    when a check reads a window of them and :func:`orbit.keeps_points`
    says the window is too long to re-step; then each vector has a loop of
    its own, so that kept points never exceed one vector's worth. Each
    vector's orbits and forward classification are shared by its checks and
    dropped after them; a check that raises for one vector records the
    error and skips the rest, and a loop that raises records its error
    under every per-vector check. A check's ``wall_time_s`` is the sum of
    its time over all vectors. T^-1 is realized once, timed under the
    ``inverse`` check, so an operator without an inverse fails that check
    alone, and the loops then step no backward lane.
    """
    T = exp.operator
    parts = tuple(map(realize, T.spec.parts)) if "product" in exp.checks else ()
    entries = {name: {"wall_time_s": 0.0} for name in ("summary", *exp.checks)}
    T_inv = _timed(entries["inverse"], realize, Inverse(T.spec)) if "inverse" in entries else None
    rows = {name: [] for name in entries if _CHECKS[name].rows}
    ops = (T,) if T_inv is None else (T, T_inv)
    forward = any(_CHECKS[c].reads_points for c in exp.checks) and keeps_points(
        exp.horizon, exp.thresholds.window_len(exp.horizon)
    )
    n = 1 if forward else len(exp.vectors)  # vectors per loop
    for first in range(0, len(exp.vectors), n):
        group = exp.vectors[first : first + n]
        orbits = _timed(entries["summary"], iterate_many, ops, np.array([v for _, v in group]),
                        exp.horizon, (forward, False)[: len(ops)], parts, exp.epsilons)
        if orbits is None:
            for name in rows:
                entries[name].setdefault("error", entries["summary"]["error"])
            break
        lanes = len(orbits) // len(group)
        for index, (label, v) in enumerate(group, first):
            run = _VectorRun(exp, T, parts, T_inv, index, label, v, orbits[:lanes])
            del orbits[:lanes]
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
    return {"summary": summary, "checks": entries}


def run_config(config: ExperimentConfig) -> ReportDocument:
    """Run the experiments one at a time, in config order.

    Individual check failures are recorded, not raised, except a
    ``MemoryError``.
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


def _cmd_run(args) -> int:
    doc = run_config(load_config(args.config))
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
    obj = json.loads(Path(args.set).read_text(encoding="utf-8"))
    if not isinstance(obj, dict):
        raise ValueError(f"a set file holds an object, got {obj!r}")
    A = FiniteNatSet.from_json_dict(obj)
    windows = [json_int(w) for w in args.windows.split(",") if w]
    windows = [w for w in windows if 0 <= w <= A.horizon]
    summary = density_summary(A, window_lengths=windows)
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
    op = json.loads(Path(args.op).read_text(encoding="utf-8"))
    try:
        vector = json.loads(args.vector)
    except json.JSONDecodeError:  # not a JSON literal, so a generator token
        vector = args.vector
    except RecursionError:
        raise ValueError("the vector nests too deeply") from None
    eps = [float(e) for e in args.eps.split(",") if e]
    e = {"operator": op, "vectors": [vector], "epsilons": eps, "horizon": args.horizon}
    exp = _experiment(e, "classify", 0, {})
    [(label, x)] = exp.vectors
    rep = classify_vector(exp.operator, x, exp.epsilons, exp.horizon, exp.thresholds, label)
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
    p_run.set_defaults(fn=_cmd_run, input="the config")

    p_dens = sub.add_parser("densities", help="density summary of a stored set")
    p_dens.add_argument("--set", required=True, help="path to a FiniteNatSet JSON file")
    p_dens.add_argument("--windows", default="10,100,1000")
    p_dens.set_defaults(fn=_cmd_densities, input="the set file")

    p_cls = sub.add_parser("classify", help="classify one vector under one operator")
    p_cls.add_argument("--op", required=True, help="path to an operator spec JSON file")
    p_cls.add_argument(
        "--vector",
        required=True,
        help="'ones', 'basis:k', 'random:k', or a JSON list of [re, im] pairs",
    )
    p_cls.add_argument("--eps", required=True, help="comma-separated radii")
    p_cls.add_argument("--horizon", type=int, default=10_000)
    p_cls.set_defaults(fn=_cmd_classify, input="the operator spec")

    p_ver = sub.add_parser("version", help="print the tool version")
    p_ver.set_defaults(fn=lambda args: (print(__version__), 0)[1])

    return parser


def _reason(exc: Exception, what: str) -> str:
    """The message of refused input: a missing key is named as missing, and
    a recursion error says that ``what`` nests too deeply."""
    if isinstance(exc, KeyError):
        return f"missing {exc}"
    return f"{what} nests too deeply" if isinstance(exc, RecursionError) else str(exc)


def main(argv=None) -> int:
    """Run one subcommand. Input it refuses exits 2 with one ``error:``
    line; any other exception is a programming error and shows its traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _REFUSED as exc:
        print(f"error: {_reason(exc, args.input)}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
