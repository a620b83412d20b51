"""Batch experiment driver and command-line interface.

Experiments are described by a JSON config (operator spec, vectors, epsilon
grid, horizon, thresholds, list of checks) and produce a report document that
embeds the config text byte for byte. Runs are deterministic: all randomness
flows from the single config-level seed, and report serialization sorts keys
so the emitted bytes do not depend on execution order. Per-check wall times
are the only nondeterministic fields; they live under dedicated
``wall_time_s`` keys so downstream comparisons can strip them.

Exit codes: 0 success, 2 validation/config errors, 3 when ``--strict`` is set
and at least one check failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .classify import (
    Thresholds,
    birkhoff_frequent_check,
    classify_vector,
    eigen_span_check,
    inverse_recurrence_check,
    product_recurrence_check,
    unimodular_return_set,
)
from .empmeasure import (
    best_banach_window,
    conjugation_invariance_check,
    covariance,
    empirical_from_window,
    invariance_defect,
    moments,
)
from .errors import ConfigError
from .linop import (
    DiagonalUnimodular,
    DirectSum,
    jdg_split,
    principal_angle,
    realize,
    spec_from_json_dict,
    unimodular_eigenpairs,
)
from .natset import FiniteNatSet, density_summary
from .orbit import iterate, return_set

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
KNOWN_CHECKS = (
    "classify",
    "birkhoff",
    "eigen_span",
    "jdg",
    "unimodular_return",
    "product",
    "inverse",
    "measure",
)


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    operator_spec: object
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


def _resolve_vector(token, dim: int, seed: int, exp_name: str) -> tuple[str, np.ndarray]:
    if isinstance(token, str):
        if token == "ones":
            return token, np.ones(dim, dtype=complex)
        if token.startswith("basis:"):
            k = int(token.split(":", 1)[1])
            if not 0 <= k < dim:
                raise ConfigError(
                    f"experiment {exp_name!r}: basis index {k} out of range for dim {dim}"
                )
            v = np.zeros(dim, dtype=complex)
            v[k] = 1.0
            return token, v
        if token.startswith("random:"):
            k = int(token.split(":", 1)[1])
            rng = np.random.default_rng([seed, k])
            return token, rng.normal(size=dim) + 1j * rng.normal(size=dim)
        raise ConfigError(f"experiment {exp_name!r}: unknown vector generator {token!r}")
    coords = [complex(re, im) for re, im in token]
    if len(coords) != dim:
        raise ConfigError(
            f"experiment {exp_name!r}: vector of dim {len(coords)} with operator of dim {dim}"
        )
    return "explicit", np.asarray(coords, dtype=complex)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate an experiment config; all errors become ConfigError."""
    raw = Path(path).read_text()
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(obj, dict):
        raise ConfigError("config root must be an object")
    schema = int(obj.get("schema_version", SCHEMA_VERSION))
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {schema}")
    seed = int(obj.get("seed", 0))
    base_thresholds = obj.get("thresholds", {})
    try:
        global_thresholds = Thresholds.from_json_dict(base_thresholds)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad thresholds: {exc}") from exc

    experiments = []
    seen = set()
    for i, e in enumerate(obj.get("experiments", [])):
        name = e.get("name", f"experiment_{i}")
        if name in seen:
            raise ConfigError(f"duplicate experiment name {name!r}")
        seen.add(name)
        try:
            spec = spec_from_json_dict(e["operator"])
            T = realize(spec)
        except KeyError as exc:
            raise ConfigError(f"experiment {name!r}: missing {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"experiment {name!r}: {exc}") from exc
        vectors = tuple(
            _resolve_vector(tok, T.dim, seed, name) for tok in e.get("vectors", ["ones"])
        )
        epsilons = tuple(float(x) for x in e.get("epsilons", []))
        if not epsilons or any(not x > 0 for x in epsilons):
            raise ConfigError(f"experiment {name!r}: epsilons must be positive and nonempty")
        horizon = int(e.get("horizon", 10_000))
        if horizon < 1:
            raise ConfigError(f"experiment {name!r}: horizon must be >= 1")
        try:
            thresholds = (
                Thresholds.from_json_dict({**base_thresholds, **e["thresholds"]})
                if "thresholds" in e
                else global_thresholds
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"experiment {name!r}: bad thresholds: {exc}") from exc
        checks = tuple(e.get("checks", ["classify"]))
        for c in checks:
            if c not in KNOWN_CHECKS:
                raise ConfigError(f"experiment {name!r}: unknown check {c!r}")
        if "product" in checks:
            if not (isinstance(spec, DirectSum) and len(spec.parts) == 2):
                raise ConfigError(
                    f"experiment {name!r}: the product check needs a direct_sum "
                    f"operator with exactly two parts"
                )
        if "unimodular_return" in checks and not isinstance(spec, DiagonalUnimodular):
            raise ConfigError(
                f"experiment {name!r}: the unimodular_return check needs a "
                f"diagonal_unimodular operator"
            )
        experiments.append(
            ExperimentSpec(
                name=name,
                operator_spec=spec,
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


def _check_classify(exp: ExperimentSpec, T, seed: int) -> dict:
    out = []
    for label, v in exp.vectors:
        rep = classify_vector(
            T,
            v,
            epsilons=exp.epsilons,
            horizon=exp.horizon,
            thresholds=exp.thresholds,
            vector_id=label,
        )
        out.append(rep.to_json_dict())
    return {"reports": out}


def _check_birkhoff(exp: ExperimentSpec, T, seed: int) -> dict:
    out = []
    for label, v in exp.vectors:
        for eps in exp.epsilons:
            r = birkhoff_frequent_check(T, v, eps, exp.horizon)
            out.append(
                {
                    "vector": label,
                    "epsilon": eps,
                    "density": float(r.density),
                    "window_mass": r.window_mass,
                    "discrepancy": r.discrepancy,
                    "window_start": r.window_start,
                    "window_len": r.window_len,
                }
            )
    return {"comparisons": out}


def _check_eigen_span(exp: ExperimentSpec, T, seed: int) -> dict:
    rep = eigen_span_check(
        T,
        [v for _, v in exp.vectors],
        horizon=exp.horizon,
        epsilons=exp.epsilons,
        thresholds=exp.thresholds,
    )
    return {
        "residual_tol": rep.residual_tol,
        "all_ok": rep.all_ok,
        "entries": [e._asdict() for e in rep.entries],
    }


def _check_jdg(exp: ExperimentSpec, T, seed: int) -> dict:
    rev, fl = jdg_split(T)
    spectral = unimodular_eigenpairs(T)
    return {
        "rev_dim": rev.shape[1],
        "fl_dim": fl.shape[1],
        "principal_angle_rev_vs_espan": principal_angle(rev, spectral.espan_basis),
    }


def _check_unimodular_return(exp: ExperimentSpec, T, seed: int) -> dict:
    angles = exp.operator_spec.angles_turns
    out = []
    for eps in exp.epsilons:
        rep = unimodular_return_set(angles, eps, exp.horizon, probe_seed=seed)
        out.append(
            {
                "epsilon": eps,
                "return_count": len(rep.return_set),
                "first_times": rep.return_set.array[:16].tolist(),
                "syndetic_gap": rep.gap,
                "probes": [p._asdict() for p in rep.probes],
            }
        )
    return {"per_epsilon": out}


def _check_product(exp: ExperimentSpec, T, seed: int) -> dict:
    part_specs = exp.operator_spec.parts
    T1 = realize(part_specs[0])
    T2 = realize(part_specs[1])
    out = []
    for label, v in exp.vectors:
        x1, x2 = v[: T1.dim], v[T1.dim :]
        for eps in exp.epsilons:
            r = product_recurrence_check(
                T1, x1, T2, x2, eps, exp.horizon, thresholds=exp.thresholds
            )
            out.append(
                {
                    "vector": label,
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
    return {"per_case": out}


def _check_inverse(exp: ExperimentSpec, T, seed: int) -> dict:
    out = []
    for label, v in exp.vectors:
        r = inverse_recurrence_check(
            T, v, exp.epsilons, exp.horizon, thresholds=exp.thresholds
        )
        out.append(
            {
                "vector": label,
                "return_sets_identical": r.return_sets_identical,
                "flags_match": r.flags_match,
                "forward_flags": r.forward.vector_flags,
                "backward_flags": r.backward.vector_flags,
            }
        )
    return {"per_vector": out}


def _check_measure(exp: ExperimentSpec, T, seed: int) -> dict:
    out = []
    for label, v in exp.vectors:
        orb = iterate(T, v, exp.horizon)
        h = orb.horizon_effective
        n_win = exp.thresholds.window_len(h)
        R = return_set(orb, exp.epsilons[0])
        start = best_banach_window(R, n_win)
        mu = empirical_from_window(orb, start, n_win)
        balls = [(v, eps) for eps in exp.epsilons]
        balls.append((np.zeros(T.dim, dtype=complex), max(1.0, 2 * T.norm_of(v))))
        cov = covariance(mu)
        mom = moments(mu)
        out.append(
            {
                "vector": label,
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
        )
    return {"per_vector": out}


_CHECK_FNS = {
    "classify": _check_classify,
    "birkhoff": _check_birkhoff,
    "eigen_span": _check_eigen_span,
    "jdg": _check_jdg,
    "unimodular_return": _check_unimodular_return,
    "product": _check_product,
    "inverse": _check_inverse,
    "measure": _check_measure,
}


def _run_experiment(exp: ExperimentSpec, seed: int) -> dict:
    T = realize(exp.operator_spec)
    result: dict = {"checks": {}}

    t0 = time.perf_counter()
    try:
        label, v0 = exp.vectors[0]
        orb = iterate(T, v0, exp.horizon)
        rep = classify_vector(
            T,
            v0,
            epsilons=exp.epsilons,
            horizon=exp.horizon,
            thresholds=exp.thresholds,
            vector_id=label,
            orbit=orb,
        )
        series = []
        h = rep.horizon_effective
        sample = sorted(set(np.geomspace(1, max(h, 1), num=48).astype(int)))
        for eps in exp.epsilons:
            R = return_set(orb, eps)
            counts = np.cumsum(R.indicator())
            for n in sample:
                if n <= h:
                    series.append([eps, int(n), float(counts[n] / (n + 1))])
        result["summary"] = {
            "result": {
                "vector": label,
                "records": [r.to_json_dict() for r in rep.records],
                "series": series,
            }
        }
    except Exception as exc:
        result["summary"] = {"error": f"{type(exc).__name__}: {exc}"}
    result["summary"]["wall_time_s"] = time.perf_counter() - t0

    for check in exp.checks:
        t0 = time.perf_counter()
        try:
            payload = _CHECK_FNS[check](exp, T, seed)
            result["checks"][check] = {"result": _json_safe(payload)}
        except Exception as exc:
            result["checks"][check] = {"error": f"{type(exc).__name__}: {exc}"}
        result["checks"][check]["wall_time_s"] = time.perf_counter() - t0
    return _json_safe(result)


def run_config(config: ExperimentConfig) -> ReportDocument:
    """Run every experiment; individual check failures are recorded, not raised.

    RECURLAB_THREADS > 1 runs experiments concurrently; results are assembled
    keyed by experiment name, so the report does not depend on scheduling.
    """
    try:
        workers = max(1, int(os.environ.get("RECURLAB_THREADS", "1")))
    except ValueError:
        workers = 1
    results: dict[str, dict] = {}
    if workers > 1 and len(config.experiments) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                exp.name: pool.submit(_run_experiment, exp, config.seed)
                for exp in config.experiments
            }
            for name, fut in futures.items():
                results[name] = fut.result()
    else:
        for exp in config.experiments:
            results[exp.name] = _run_experiment(exp, config.seed)
    ordered = {exp.name: results[exp.name] for exp in config.experiments}
    return ReportDocument(
        schema_version=SCHEMA_VERSION,
        tool_version=__version__,
        seed=config.seed,
        config_echo=config.raw_text,
        experiments=ordered,
    )


def document_has_failures(doc: ReportDocument) -> bool:
    for exp in doc.experiments.values():
        if "error" in exp.get("summary", {}):
            return True
        for payload in exp.get("checks", {}).values():
            if "error" in payload:
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
        path.write_text(text + "\n")
        return
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w", newline="") as fh:
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
    with open(series_path, "w", newline="") as fh:
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
        obj = json.loads(Path(args.set).read_text())
        A = FiniteNatSet.from_json_dict(obj)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    windows = [int(w) for w in args.windows.split(",") if w]
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
    try:
        spec = spec_from_json_dict(json.loads(Path(args.op).read_text()))
        T = realize(spec)
        x = _parse_vector_arg(args.vector, T.dim, seed=0)
        epsilons = [float(e) for e in args.eps.split(",") if e]
        rep = classify_vector(T, x, epsilons=epsilons, horizon=args.horizon)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
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
