"""Correctness gate over a ``recurlab run`` report.

An operation is the summary or one check of one experiment. It fails when it
is missing, carries an ``error`` key, breaks one of the report's invariants,
or, when expected payloads are given, differs from its expected payload once
``wall_time_s`` and ``profile`` keys are stripped.
"""

from __future__ import annotations

FLAG_ORDER = ("recurrent", "reiteratively", "u_frequently", "frequently", "uniformly")
STRIPPED_KEYS = ("wall_time_s", "profile")


def strip(value):
    """The payload without the keys that legitimately vary between runs."""
    if isinstance(value, dict):
        return {k: strip(v) for k, v in value.items() if k not in STRIPPED_KEYS}
    if isinstance(value, list):
        return [strip(v) for v in value]
    return value


def _dicts(value):
    if isinstance(value, dict):
        yield value
        for v in value.values():
            yield from _dicts(v)
    elif isinstance(value, list):
        for v in value:
            yield from _dicts(v)


def _is_diagonal(spec: dict) -> bool:
    if spec["type"] == "diagonal_unimodular":
        return True
    return spec["type"] == "direct_sum" and all(_is_diagonal(p) for p in spec["parts"])


def _problems(op: str, payload: dict, diagonal: bool) -> list[str]:
    dicts = list(_dicts(payload))
    if any("error" in d for d in dicts):
        return ["error key"]
    out = []
    for d in dicts:
        if set(FLAG_ORDER) <= d.keys():
            flags = [bool(d[f]) for f in FLAG_ORDER]
            if any(later and not earlier for earlier, later in zip(flags, flags[1:])):
                out.append(f"flags not monotone along the cascade: {d}")
    result = payload["result"]
    if op == "measure":
        out += [
            f"invariance_defect {row['invariance_defect']} > bound {row['defect_bound']}"
            for row in result["per_vector"]
            if row["invariance_defect"] > row["defect_bound"]
        ]
    if op == "product" and not all(c["return_sets_match"] for c in result["per_case"]):
        out.append("product return sets do not match the intersection")
    if op == "inverse" and diagonal:
        if not all(v["return_sets_identical"] for v in result["per_vector"]):
            out.append("inverse return sets differ on a diagonal operator")
    if op == "eigen_span" and not result["all_ok"]:
        out.append("eigen_span all_ok is false")
    return out


def operations(config: dict) -> list[tuple[str, str]]:
    """(experiment, operation) pairs a report of ``config`` must contain."""
    return [
        (e["name"], op)
        for e in config["experiments"]
        for op in ("summary", *e.get("checks", ["classify"]))
    ]


def failures(report: dict, config: dict, expected: dict | None) -> list[str]:
    """One line per failed operation; empty when every operation passed."""
    specs = {e["name"]: e["operator"] for e in config["experiments"]}
    out = []
    for exp, op in operations(config):
        entry = report["experiments"].get(exp, {})
        payload = entry.get(op) if op == "summary" else entry.get("checks", {}).get(op)
        if payload is None:
            problems = ["missing from the report"]
        else:
            problems = _problems(op, payload, _is_diagonal(specs[exp]))
            if not problems and expected is not None and strip(payload) != expected[exp][op]:
                problems = ["differs from the expected payload"]
        if problems:
            out.append(f"{exp}/{op}: {'; '.join(problems)}")
    return out
