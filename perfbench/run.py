"""recurlab benchmark: seeded ``recurlab run`` workloads, end to end and per layer.

    python3 perfbench/run.py --workload pair_sum --seed 7 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; recurlab is imported from ./src.
Every sample is a fresh process (see worker.py), one at a time, so peak
memory belongs to one workload run and nothing leaks between samples.

``--trace 0`` measures the end-to-end metrics: a few set-up-only samples,
then full report samples until ``--seconds`` would be exceeded (at least
one). ``--trace 1`` runs one untraced and one traced report and derives the
per-layer metrics from the traced one. Each report is checked by gate.py;
on the default seed its payloads must also equal expected_seed7.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same numbers by name with sample counts, plus the run facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 7
EXPECTED = HERE / "expected_seed7.json"
SETUP_SAMPLES = 3
# Every run, whatever --seconds says, ends within this many seconds.
RUN_CAP_S = 170
CHECKS = ("classify", "birkhoff", "eigen_span", "jdg", "unimodular_return", "product", "inverse", "measure")
NATSET = ("lower_density", "upper_density", "upper_banach_density", "syndetic_gap")
ORBIT_KINDS = ("diagonal", "direct_sum", "dense")
SAMPLE_UNITS = {"setup_s": "s", "report_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def run_facts(seed: int) -> dict:
    import numpy
    import scipy

    caches = {}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        for line in lscpu.splitlines():
            key, _, value = line.partition(":")
            if "cache" in key.lower():
                caches[key.strip()] = value.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "caches": caches,
        "src_lines": sum(len(p.read_text().splitlines()) for p in Path("src").rglob("*.py")),
    }


def sample(mode: str, config: Path, out: Path, env: dict, cap: float) -> dict:
    """Run one worker process and return its result, with ``setup_s`` added.

    The worker is killed if it is still running at monotonic time ``cap``.
    """
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, str(config), str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=max(cap - t_spawn, 1),
    )
    if proc.returncode != 0:
        raise BenchError(f"{mode} sample exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(out.read_text())
    result["setup_s"] = result["loaded_at"] - t_spawn
    return result


def layer_metrics(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics from a traced sample's spans and report."""
    data = json.loads(Path(traced["spans"]).read_text())
    spans, counts = data["spans"], data["counts"]
    report = json.loads(Path(traced["report"]).read_text())

    def calls(*names):
        return sum(1 for s in spans if s["name"] in names)

    def self_s(*names):
        return sum(s["self_s"] for s in spans if s["name"] in names)

    def inclusive_s(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    exps = report["experiments"].values()
    m = {
        "cli.load_config.s": (inclusive_s("cli.load_config"), "s"),
        "cli.summary.s": (sum(e["summary"]["wall_time_s"] for e in exps), "s"),
    }
    for c in CHECKS:
        wall = sum(e["checks"][c]["wall_time_s"] for e in exps if c in e["checks"])
        m[f"cli.check.{c}.s"] = (wall, "s")
    m["cli.emit_report.s"] = (inclusive_s("cli.emit_report"), "s")
    for layer in ("linop.realize", "linop.spectral"):
        m[f"{layer}.calls"] = (calls(layer), "count")
        m[f"{layer}.s"] = (self_s(layer), "s")
    m["linop.apply_to_rows.rows"] = (counts.get("linop.apply_to_rows.rows", 0), "count")
    m["linop.apply_to_rows.s"] = (self_s("linop.apply_to_rows"), "s")
    n_iter = calls("orbit.iterate")
    m["orbit.iterate.calls"] = (n_iter, "count")
    m["orbit.iterate.distinct"] = (counts["orbit.iterate.distinct"], "count")
    m["orbit.iterate.reuse_ratio"] = (counts["orbit.iterate.distinct"] / max(n_iter, 1), "ratio")
    m["orbit.iterate.steps"] = (counts.get("orbit.iterate.steps", 0), "count")
    m["orbit.iterate.s"] = (self_s("orbit.iterate"), "s")
    m["orbit.iterate.overflowed"] = (counts.get("orbit.iterate.overflowed", 0), "count")
    for kind in ORBIT_KINDS:
        steps = counts.get(f"orbit.iterate.steps.{kind}", 0)
        ns = 1e9 * counts.get(f"orbit.iterate.s.{kind}", 0.0) / steps if steps else 0.0
        m[f"orbit.iterate.ns_per_step.{kind}"] = (ns, "ns")
    m["orbit.return_set.calls"] = (calls("orbit.return_set"), "count")
    m["orbit.return_set.hits"] = (counts.get("orbit.return_set.hits", 0), "count")
    m["orbit.return_set.s"] = (self_s("orbit.return_set"), "s")
    for fn in NATSET:
        m[f"natset.{fn}.s"] = (self_s(f"natset.{fn}"), "s")
    m["natset.calls"] = (calls(*(f"natset.{fn}" for fn in NATSET)), "count")
    m["classify.classify_vector.calls"] = (calls("classify.classify_vector"), "count")
    m["classify.classify_vector.self_s"] = (self_s("classify.classify_vector"), "s")
    m["classify.unimodular_return_set.s"] = (self_s("classify.unimodular_return_set"), "s")
    for key in ("atoms_in", "atoms_out"):
        name = f"empmeasure.empirical_from_window.{key}"
        m[name] = (counts.get(name, 0), "count")
    for fn in ("empirical_from_window", "invariance_defect", "ball_mass", "moments_cov"):
        m[f"empmeasure.{fn}.s"] = (self_s(f"empmeasure.{fn}"), "s")
    m["trace.overhead_s"] = (traced["report_s"] - untraced["report_s"], "s")
    # Share of the traced report's thread time spent inside a wrapped layer
    # function; on a threaded workload each experiment thread counts in full.
    run = next(s for s in spans if s["name"] == "cli.run_config")
    inside = [
        s for s in spans
        if not s["name"].startswith("cli.") and run["start"] <= s["start"] <= run["end"]
    ]
    threads = len({s["thread"] for s in inside}) or 1
    m["trace.layer_share"] = (
        sum(s["self_s"] for s in inside) / (threads * traced["report_s"]), "ratio"
    )
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, record: bool = False) -> dict:
    build, extra_env = workloads.WORKLOADS[name]
    work = Path(".perfbench") / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(build(seed))
    config = json.loads(config_path.read_text())
    expected = None
    if seed == DEFAULT_SEED and not record:
        expected = json.loads(EXPECTED.read_text())[name]
    # glibc adapts its mmap threshold to the sizes freed so far, which makes
    # the peak RSS of one config swing by whole orbit arrays (191, 200 or
    # 210 MB on dense_measure) from run to run; pinned at its 128 KiB
    # default, large arrays are returned on free and the peak follows the
    # live data.
    env = {**os.environ, **extra_env, "MALLOC_MMAP_THRESHOLD_": "131072"}
    env.pop("PYTHONPATH", None)

    start = time.monotonic()
    deadline, cap = start + seconds, start + RUN_CAP_S
    attempted, failed = 0, []
    setups, reports = [], []

    def report_sample(mode: str) -> dict:
        nonlocal attempted
        result = sample(mode, config_path, work / f"{mode}-{len(reports)}.json", env, cap)
        report = json.loads(Path(result["report"]).read_text())
        attempted += len(gate.operations(config))
        failed.extend(gate.failures(report, config, expected))
        setups.append(result["setup_s"])
        reports.append(result)
        return result

    if trace:
        untraced = report_sample("report")
        traced = report_sample("traced")
        metrics = layer_metrics(traced, untraced)
    else:
        for i in range(SETUP_SAMPLES):
            setups.append(sample("setup", config_path, work / f"setup-{i}.json", env, cap)["setup_s"])
        report_sample("report")
        while time.monotonic() + statistics.median(r["setup_s"] + r["report_s"] for r in reports) <= deadline:
            report_sample("report")
        if record:
            report = json.loads(Path(reports[0]["report"]).read_text())
            stored = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
            stored[name] = {
                exp: gate.strip({"summary": e["summary"], **e["checks"]})
                for exp, e in report["experiments"].items()
            }
            EXPECTED.write_text(json.dumps(stored, sort_keys=True) + "\n")
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "report_s": (statistics.median(r["report_s"] for r in reports), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reports), "MB"),
        }
    plain = [r for r in reports if "spans" not in r]
    return {
        "workload": name,
        "trace": int(trace),
        "facts": run_facts(seed),
        "samples": {
            "setup_s": setups,
            "report_s": [r["report_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        },
        "attempted": attempted,
        "failures": failed,
        "metrics": metrics,
    }


def print_result(res: dict) -> None:
    print(f"workload {res['workload']}  trace {res['trace']}  facts {json.dumps(res['facts'])}")
    for key, values in res["samples"].items():
        unit = SAMPLE_UNITS[key]
        print(
            f"  {key:<16} median {statistics.median(values):.4f} {unit}  "
            f"min {min(values):.4f}  max {max(values):.4f}  n={len(values)}"
        )
    ratio = len(res["failures"]) / res["attempted"]
    print(f"  {'ops_failed_ratio':<16} {ratio:.4f} ({len(res['failures'])} of {res['attempted']} operations)")
    for line in res["failures"]:
        print(f"  FAILED {line}")
    if res["trace"]:
        for key, (value, unit) in res["metrics"].items():
            print(f"  {key:<44} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not res["failures"],
                "attempted": res["attempted"],
                "failed": len(res["failures"]),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
            }
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-expected",
        action="store_true",
        help=f"store this run's seed-{DEFAULT_SEED} payloads as the expected ones",
    )
    args = parser.parse_args(argv)
    if args.record_expected and (args.seed != DEFAULT_SEED or args.trace):
        parser.error(f"--record-expected needs --seed {DEFAULT_SEED} --trace 0")
    if not Path("src/recurlab/cli.py").is_file():
        print("error: run from the root of a recurlab checkout (no src/recurlab)", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.record_expected)
            (Path(".perfbench") / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(res, indent=1)
            )
            print_result(res)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
