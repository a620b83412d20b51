"""Tests for the batch runner: config loading, reports, and the CLI surface."""

import copy
import json
import math
import re
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import recurlab.classify
import recurlab.cli
import recurlab.orbit
from recurlab import (
    FiniteNatSet,
    __version__,
    classify_vector,
    direct_sum,
    iterate,
    realize,
    return_set,
    spec_from_json_dict,
)
from recurlab.cli import (
    document_has_failures,
    emit_report,
    load_config,
    main,
    run_config,
)
from recurlab.errors import ConfigError

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

ROTATION = {"type": "diagonal_unimodular", "angles_turns": [0.25]}
JORDAN_2_7 = {"type": "jordan_block", "eigenvalue": [1.0, 0.0], "size": 2.7}
POWER_2_5 = {"type": "power", "exponent": 2.5, "inner": ROTATION}
ANGLES_5 = {"type": "diagonal_unimodular", "angles_turns": 5}
# a list past the JSON parser's recursion limit, and an operator spec past
# the spec reader's; the chain is built as text, since json.dumps would
# hit the limit too
DEEP_LIST = "[" * 200_000 + "]" * 200_000
DEEP_CHAIN = (
    '{"type": "scale", "factor": [1.0, 0.0], "inner": ' * 900 + json.dumps(ROTATION) + "}" * 900
)
PARTS_5 = {"type": "direct_sum", "parts": 5}


def base_config(**extra):
    cfg = {
        "schema_version": 1,
        "seed": 7,
        "experiments": [
            {
                "name": "quarter",
                "operator": dict(ROTATION),
                "vectors": ["ones"],
                "epsilons": [0.5],
                "horizon": 10_000,
                "checks": ["classify"],
            }
        ],
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, obj, name="config.json"):
    # json.dumps writes integers past the interpreter's digit limit for
    # int-to-str conversion only with the limit lifted
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(obj, indent=1)
    finally:
        sys.set_int_max_str_digits(limit)
    path = tmp_path / name
    path.write_text(text)
    return path


def strip_wall_times(node):
    if isinstance(node, dict):
        return {
            k: strip_wall_times(v) for k, v in node.items() if k != "wall_time_s"
        }
    if isinstance(node, list):
        return [strip_wall_times(v) for v in node]
    return node


class TestLoadConfig:
    def test_minimal_valid(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        assert cfg.seed == 7 and len(cfg.experiments) == 1
        exp = cfg.experiments[0]
        assert exp.name == "quarter"
        assert exp.epsilons == (0.5,)
        assert exp.checks == ("classify",)
        assert exp.vectors[0][0] == "ones"
        assert np.array_equal(exp.vectors[0][1], np.ones(1, dtype=complex))

    def test_integral_floats_accepted(self, tmp_path):
        obj = base_config(seed=7.0, thresholds={"min_horizon": 1e4})
        obj["experiments"][0]["horizon"] = 2e5
        obj["experiments"][0]["operator"] = dict(JORDAN_2_7, size=2e0)
        exp = load_config(write_config(tmp_path, obj)).experiments[0]
        assert exp.horizon == 200_000 and type(exp.horizon) is int
        assert exp.operator.spec.size == 2 and type(exp.operator.spec.size) is int
        min_horizon = exp.thresholds.min_horizon
        assert min_horizon == 10_000 and type(min_horizon) is int

    def test_defaults_filled(self, tmp_path):
        obj = {"experiments": [{"operator": dict(ROTATION), "epsilons": [0.5]}]}
        cfg = load_config(write_config(tmp_path, obj))
        exp = cfg.experiments[0]
        assert cfg.seed == 0
        assert exp.name == "experiment_0"
        assert exp.horizon == 10_000
        assert exp.checks == ("classify",)

    def test_parse_error_names_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"experiments": [}')
        with pytest.raises(ConfigError, match=r"parse error at line 1, column 18"):
            load_config(path)

    def test_unknown_check_named(self, tmp_path):
        obj = base_config()
        obj["experiments"][0]["checks"] = ["classify", "foo"]
        with pytest.raises(ConfigError, match=r"'quarter': unknown check 'foo'"):
            load_config(write_config(tmp_path, obj))

    def test_vector_dim_mismatch_named(self, tmp_path):
        obj = base_config()
        obj["experiments"][0]["vectors"] = [[[1.0, 0.0], [0.0, 1.0]]]
        with pytest.raises(
            ConfigError, match=r"'quarter': vector of dim 2 with operator of dim 1"
        ):
            load_config(write_config(tmp_path, obj))

    def test_duplicate_names(self, tmp_path):
        obj = base_config()
        obj["experiments"].append(copy.deepcopy(obj["experiments"][0]))
        with pytest.raises(ConfigError, match=r"duplicate experiment name 'quarter'"):
            load_config(write_config(tmp_path, obj))

    def test_bad_epsilons(self, tmp_path):
        for eps in ([], [0.5, -0.1]):
            obj = base_config()
            obj["experiments"][0]["epsilons"] = eps
            with pytest.raises(ConfigError, match="epsilons must be positive"):
                load_config(write_config(tmp_path, obj))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("epsilons", [True], "an epsilon must be a number, got True"),
            ("operator", {"type": "diagonal_unimodular", "angles_turns": [True, 0.25]},
             "diagonal_unimodular operator: expected a number, got True"),
            ("operator", {"type": "weighted_backward_shift", "weights": [True], "dim": 2},
             "weighted_backward_shift operator: expected a number, got True"),
            ("operator", {"type": "jordan_block", "eigenvalue": [True, 0.0], "size": 1},
             "jordan_block operator: expected a number, got True"),
            ("operator", {"type": "jordan_block", "eigenvalue": [1.0, True], "size": 1},
             "jordan_block operator: expected a number, got True"),
            ("operator", {"type": "scale", "factor": True, "inner": ROTATION},
             "scale operator: expected a number, got True"),
            ("vectors", [[[True, 0.0]]], r"list of \[re, im\] pairs"),
        ],
        ids=["epsilon", "angle", "weight", "complex_re", "complex_im", "complex_scalar",
             "vector"],
    )
    def test_boolean_numbers_refused(self, tmp_path, key, value, message):
        # float(True) is 1.0, so a boolean would otherwise load as the number 1
        obj = base_config()
        obj["experiments"][0][key] = value
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, obj))

    def test_bad_horizon(self, tmp_path):
        obj = base_config()
        obj["experiments"][0]["horizon"] = 0
        with pytest.raises(ConfigError, match="horizon must be >= 1"):
            load_config(write_config(tmp_path, obj))

    def test_bad_schema_version(self, tmp_path):
        with pytest.raises(ConfigError, match="unsupported schema_version 99"):
            load_config(write_config(tmp_path, base_config(schema_version=99)))

    def test_unknown_threshold_field(self, tmp_path):
        obj = base_config(thresholds={"delta_low": 1e-3})
        with pytest.raises(ConfigError, match="bad thresholds"):
            load_config(write_config(tmp_path, obj))

    def test_experiment_thresholds_override_globals(self, tmp_path):
        obj = base_config(thresholds={"min_horizon": 5000})
        obj["experiments"][0]["thresholds"] = {"gap_fraction": 0.02}
        cfg = load_config(write_config(tmp_path, obj))
        th = cfg.experiments[0].thresholds
        assert th.min_horizon == 5000 and th.gap_fraction == 0.02

    def test_product_check_needs_two_part_sum(self, tmp_path):
        obj = base_config()
        obj["experiments"][0]["checks"] = ["product"]
        with pytest.raises(ConfigError, match="direct_sum .* exactly two parts"):
            load_config(write_config(tmp_path, obj))

    def test_unimodular_check_needs_diagonal(self, tmp_path):
        obj = base_config()
        obj["experiments"][0]["operator"] = {
            "type": "dense_matrix",
            "entries": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        }
        obj["experiments"][0]["checks"] = ["unimodular_return"]
        with pytest.raises(ConfigError, match="diagonal_unimodular"):
            load_config(write_config(tmp_path, obj))

    def test_basis_vector_range_checked(self, tmp_path):
        obj = base_config()
        obj["experiments"][0]["vectors"] = ["basis:3"]
        with pytest.raises(ConfigError, match="basis index 3 out of range"):
            load_config(write_config(tmp_path, obj))

    def test_unknown_generator_token(self, tmp_path):
        obj = base_config()
        obj["experiments"][0]["vectors"] = ["sevens"]
        with pytest.raises(ConfigError, match="unknown vector generator 'sevens'"):
            load_config(write_config(tmp_path, obj))

    def test_random_vectors_seeded_per_index(self, tmp_path):
        obj = base_config()
        obj["experiments"][0]["operator"]["angles_turns"] = [0.25, GOLDEN]
        obj["experiments"][0]["vectors"] = ["random:0", "random:1", "random:0"]
        cfg = load_config(write_config(tmp_path, obj))
        v0, v1, v0_again = (v for _, v in cfg.experiments[0].vectors)
        assert np.array_equal(v0, v0_again)
        assert not np.array_equal(v0, v1)
        rng = np.random.default_rng([7, 0])
        expect = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert np.array_equal(v0, expect)

    def test_echo_preserves_bytes(self, tmp_path):
        path = write_config(tmp_path, base_config())
        cfg = load_config(path)
        assert cfg.raw_text == path.read_text()


class TestRunConfig:
    def test_classify_records_flags(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        doc = run_config(cfg)
        exp = doc.experiments["quarter"]
        recs = exp["summary"]["result"]["records"]
        assert len(recs) == 1
        assert recs[0]["flags"]["uniformly"] is True
        assert recs[0]["syndetic_gap"] == 4
        assert "wall_time_s" in exp["summary"]
        assert "classify" in exp["checks"]
        assert not document_has_failures(doc)

    def test_summary_series_is_the_prefix_density(self, tmp_path):
        # |i^n - 1| < 0.5 exactly when 4 divides n, so n//4 + 1 of the
        # times 0..n return; at 1.5 the times n = 1, 3 mod 4 join them
        obj = base_config()
        obj["experiments"][0]["epsilons"] = [0.5, 1.5]
        doc = run_config(load_config(write_config(tmp_path, obj)))
        series = doc.experiments["quarter"]["summary"]["result"]["series"]
        assert len(series) > 2 * 30
        for eps, n, density in series:
            count = n // 4 + 1 if eps == 0.5 else n + 1 - (n + 2) // 4
            assert density == count / (n + 1), (eps, n)

    def test_empty_experiment_list(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"experiments": []}))
        doc = run_config(cfg)
        assert doc.experiments == {}
        assert doc.seed == 0 and doc.tool_version == __version__

    def test_check_failure_recorded_not_raised(self, tmp_path):
        obj = base_config()
        obj["experiments"][0]["horizon"] = 500  # below the minimum
        cfg = load_config(write_config(tmp_path, obj))
        doc = run_config(cfg)
        summary = doc.experiments["quarter"]["summary"]
        assert "InsufficientHorizonError" in summary["error"]
        assert document_has_failures(doc)

    def test_report_order_follows_config(self, tmp_path):
        obj = base_config()
        second = copy.deepcopy(obj["experiments"][0])
        second["name"] = "alpha"
        obj["experiments"].append(second)
        cfg = load_config(write_config(tmp_path, obj))
        doc = run_config(cfg)
        assert list(doc.experiments) == ["quarter", "alpha"]

    def test_singular_operator_fails_inverse_only(self, tmp_path):
        obj = base_config()
        exp = obj["experiments"][0]
        exp["operator"] = {"type": "jordan_block", "eigenvalue": [0.0, 0.0], "size": 2}
        exp["checks"] = ["classify", "inverse", "measure"]
        doc = run_config(load_config(write_config(tmp_path, obj)))
        checks = doc.experiments["quarter"]["checks"]
        assert checks["inverse"]["error"].startswith("SingularOperatorError")
        assert "result" not in checks["inverse"]
        for name in ("classify", "measure"):
            assert "error" not in checks[name] and checks[name]["result"]
        assert "error" not in doc.experiments["quarter"]["summary"]

    def test_measure_window_is_the_classified_window(self, tmp_path):
        # The measure check's window is the density-realizing window of the
        # epsilon-0 return set that the classification already found.
        c, s = math.cos(0.3), math.sin(0.3)
        rotation = [[[c, 0.0], [-s, 0.0]], [[s, 0.0], [c, 0.0]]]
        obj = base_config()
        obj["experiments"][0].update(
            operator={"type": "diagonal_unimodular", "angles_turns": [0.25, GOLDEN]},
            vectors=["ones", "basis:1", "random:0"],
            epsilons=[0.25, 0.5],
            checks=["classify", "measure"],
        )
        obj["experiments"].append(
            {
                "name": "unitary_jordan",
                "operator": {
                    "type": "direct_sum",
                    "parts": [
                        {"type": "dense_matrix", "entries": rotation},
                        {"type": "jordan_block", "eigenvalue": [0.5, 0.0], "size": 2},
                    ],
                },
                "vectors": ["ones", "random:0", "basis:2"],
                "epsilons": [0.5, 0.25],
                "horizon": 10_000,
                "thresholds": {"window_fraction": 0.3},
                "checks": ["classify", "measure"],
            }
        )
        doc = run_config(load_config(write_config(tmp_path, obj)))
        starts = []
        for name, exp in doc.experiments.items():
            reports = exp["checks"]["classify"]["result"]["reports"]
            rows = exp["checks"]["measure"]["result"]["per_vector"]
            assert len(rows) == len(reports) == 3
            for rep, row in zip(reports, rows):
                banach = rep["epsilon_records"][0]["banach"]
                assert row["window_start"] == banach["start"]
                assert row["window_len"] == banach["window_len"]
                starts.append(row["window_start"])
            assert rows[0]["window_len"] == (3000 if name == "unitary_jordan" else 100)
        # some windows start away from 0, so the equality has something to pin
        assert any(starts)

    def test_product_with_an_overflowing_part(self, tmp_path):
        # The scaled part passes the overflow cap near step 2776, so the
        # sum's orbit stops there and the runner cuts the other part's
        # masks at the sum's horizon; each row equals the intersection of
        # the parts' own return sets, built from orbits iterated apart.
        parts = [
            {"type": "scale", "factor": [1.01, 0.0],
             "inner": {"type": "diagonal_unimodular", "angles_turns": [GOLDEN]}},
            {"type": "diagonal_unimodular", "angles_turns": [0.41421356]},
        ]
        obj = base_config()
        obj["experiments"][0].update(
            operator={"type": "direct_sum", "parts": parts},
            vectors=["ones"],
            epsilons=[0.5, 0.25],
            checks=["product"],
        )
        exp = run_config(load_config(write_config(tmp_path, obj))).experiments["quarter"]
        rows = exp["checks"]["product"]["result"]["per_case"]
        one = np.ones(1, dtype=complex)
        T1, T2 = (realize(spec_from_json_dict(p)) for p in parts)
        orbits = [iterate(T, x, 10_000)
                  for T, x in ((T1, one), (T2, one), (direct_sum([T1, T2]), np.r_[one, one]))]
        assert orbits[2].overflow and orbits[2].horizon_effective < orbits[1].horizon_effective
        for row, eps in zip(rows, (0.5, 0.25)):
            R1, R2, R12 = (return_set(orbit, eps) for orbit in orbits)
            inter = R1.as_set() & R2.as_set()
            assert R12.as_set() == inter and row["return_sets_match"]
            assert row["intersection_density"] == float(Fraction(len(inter), R12.horizon + 1))
            for key, T, x in (("part1_flags", T1, one), ("part2_flags", T2, one)):
                rep = classify_vector(T, x, epsilons=[eps], horizon=10_000)
                assert row[key] == rep.records[0].flags

    def test_rerun_is_deterministic(self, tmp_path):
        obj = base_config()
        obj["experiments"][0]["vectors"] = ["random:0"]
        cfg = load_config(write_config(tmp_path, obj))
        a = strip_wall_times(run_config(cfg).to_json_dict())
        b = strip_wall_times(run_config(cfg).to_json_dict())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestEmitReport:
    def test_json_round_trip(self, tmp_path):
        path = write_config(tmp_path, base_config())
        doc = run_config(load_config(path))
        out = tmp_path / "report.json"
        emit_report(doc, "json", out)
        text = out.read_text()
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed == doc.to_json_dict()
        assert parsed["config_echo"] == path.read_text()

    def test_csv_row_counts(self, tmp_path):
        obj = base_config()
        obj["experiments"][0]["epsilons"] = [0.5, 0.25, 1.0]
        doc = run_config(load_config(write_config(tmp_path, obj)))
        out = tmp_path / "report.csv"
        emit_report(doc, "csv", out)
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "experiment,epsilon,lower,upper,banach,gap"
        assert len(rows) == 1 + 3
        series = (tmp_path / "report_series.csv").read_text().strip().splitlines()
        assert series[0] == "experiment,epsilon,n,prefix_density"
        assert len(series) > 1 + 3

    def test_unknown_format_rejected(self, tmp_path):
        doc = run_config(load_config(write_config(tmp_path, {"experiments": []})))
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(doc, "yaml", tmp_path / "x.yaml")


class TestMainEntry:
    def test_run_ok(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "report.json"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["seed"] == 7

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(
            ["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "parse error" in capsys.readouterr().err

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe" + json.dumps(base_config()).encode("utf-16-le"))
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "the config is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_lone_surrogate_name_exits_2(self, tmp_path, capsys, fmt):
        # valid JSON, but no UTF-8 report can hold the name
        obj = base_config()
        obj["experiments"][0]["name"] = "a\ud800"
        out = tmp_path / "report.csv"
        code = main(["run", "--config", str(write_config(tmp_path, obj)),
                     "--out", str(out), "--format", fmt])
        assert code == 2 and not out.exists()
        assert "is not valid Unicode" in capsys.readouterr().err

    def test_nan_epsilon_exits_2(self, tmp_path, capsys):
        obj = base_config()
        obj["experiments"][0]["epsilons"] = ["nan"]
        cfg_path = write_config(tmp_path, obj)
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'quarter'" in err and "epsilons must be positive" in err

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf], ids=["NaN", "Infinity", "-Infinity"]
    )
    @pytest.mark.parametrize(
        "where, key, make, message",
        [
            ("quarter", "epsilons", lambda x: [0.5, x], "epsilons must be positive, finite"),
            (None, "thresholds", lambda x: {"delta_banach": x}, "delta_banach must be finite"),
            (
                "quarter",
                "thresholds",
                lambda x: {"window_fraction": x},
                "bad thresholds: threshold window_fraction must be finite",
            ),
            ("quarter", "vectors", lambda x: [[[x, 0.0]]], "coordinates must be finite"),
        ],
        ids=["epsilon", "thresholds", "experiment_thresholds", "vector"],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, where, key, make, message, value):
        # Python's json module reads NaN, Infinity and -Infinity; each is
        # refused at load time, before it can fail every classification or
        # reach the report as a token that strict JSON does not allow
        obj = base_config()
        (obj["experiments"][0] if where else obj)[key] = make(value)
        cfg_path = write_config(tmp_path, obj)
        assert re.search(r"NaN|Infinity", cfg_path.read_text())
        out = tmp_path / "report.json"
        code = main(["run", "--config", str(cfg_path), "--out", str(out), "--strict"])
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert message in err
        assert (f"experiment {where!r}" in err) == (where is not None)

    @pytest.mark.parametrize(
        "where, key, value, message",
        [
            (None, "seed", "abc", "seed must be an integer, got 'abc'"),
            ("quarter", "vectors", [[1, 2, 3]], "list of \\[re, im\\] pairs"),
            ("quarter", "vectors", ["basis:x"], "index of 'basis:x' must be an integer"),
            ("quarter", "vectors", [], "vectors must be nonempty"),
            (None, "thresholds", {"delta_lower": "0.1"}, "delta_lower must be a number"),
            ("quarter", "thresholds", {"min_horizon": 1.5}, "min_horizon must be an integer"),
            (None, "seed", 7.9, "seed must be an integer, got 7.9"),
            (None, "seed", True, "seed must be an integer, got True"),
            ("quarter", "horizon", 10000.7, "horizon must be an integer, got 10000.7"),
            ("quarter", "operator", JORDAN_2_7, "jordan_block operator: .* got 2.7"),
            ("quarter", "operator", POWER_2_5, "power operator: .* got 2.5"),
            (None, "experiments", {"quarter": {}}, "experiments must be a list"),
            (None, "experiments", [5], "experiment 0 must be an object, got 5"),
            (None, "experiments", [{"name": ["a"]}], "name must be a string, got \\['a'\\]"),
            ("quarter", "epsilons", 0.5, "epsilons must be a list, got 0.5"),
            ("quarter", "operator", ANGLES_5, "diagonal_unimodular operator: .* got 5"),
            ("quarter", "operator", PARTS_5, "direct_sum operator: .* got 5"),
            ("quarter", "checks", "classify", "checks must be a list, got 'classify'"),
            ("quarter", "operator", {"type": "diagonal_unimodular", "angles_turns": [10**400]},
             "diagonal_unimodular operator: an integer too large for a float"),
            ("quarter", "vectors", [[[10**400, 0]]], "list of \\[re, im\\] pairs"),
            (None, "experiments", [{"epsilons": [10**5000]}],
             "parse error: Exceeds the limit \\(4300 digits\\)"),
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, where, key, value, message):
        obj = base_config()
        (obj["experiments"][0] if where else obj)[key] = value
        cfg_path = write_config(tmp_path, obj)
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(message, err)
        assert (f"experiment {where!r}" in err) == (where is not None)

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_strict_failure_exits_3(self, tmp_path, capsys):
        obj = base_config()
        obj["experiments"][0]["horizon"] = 500
        cfg_path = write_config(tmp_path, obj)
        out = tmp_path / "report.json"
        code = main(["run", "--config", str(cfg_path), "--out", str(out), "--strict"])
        assert code == 3
        assert "strict" in capsys.readouterr().err
        assert out.exists()  # the report is still written

    def test_strict_failed_verdict_exits_3(self, tmp_path, capsys):
        # a slow rotation returns to the 0.01-ball only for n < 160, so the
        # vector is in the eigenvector span but not uniformly recurrent
        obj = base_config()
        exp = obj["experiments"][0]
        exp["operator"]["angles_turns"] = [1e-5]
        exp["epsilons"] = [0.01]
        exp["checks"] = ["eigen_span"]
        cfg_path = write_config(tmp_path, obj)
        out = tmp_path / "report.json"
        code = main(["run", "--config", str(cfg_path), "--out", str(out), "--strict"])
        assert code == 3
        report = json.loads(out.read_text())
        check = report["experiments"]["quarter"]["checks"]["eigen_span"]
        assert "error" not in check and check["result"]["all_ok"] is False

    @pytest.mark.parametrize(
        "check, field, value",
        [
            ("product", "return_sets_match", False),
            ("product", "reiterative_parts_imply_frequent_sum", False),
            ("measure", "invariance_defect", 1.0),
        ],
    )
    def test_failed_verdict_is_a_failure(self, tmp_path, check, field, value):
        obj = base_config()
        if check == "product":
            obj["experiments"][0]["operator"] = {
                "type": "direct_sum", "parts": [dict(ROTATION), dict(ROTATION)]
            }
        obj["experiments"][0]["checks"] = [check]
        doc = run_config(load_config(write_config(tmp_path, obj)))
        assert not document_has_failures(doc)
        result = doc.experiments["quarter"]["checks"][check]["result"]
        for row in result.get("per_case", result.get("per_vector")):
            row[field] = value
        assert document_has_failures(doc)

    def test_non_strict_failure_exits_0(self, tmp_path):
        obj = base_config()
        obj["experiments"][0]["horizon"] = 500
        cfg_path = write_config(tmp_path, obj)
        code = main(
            ["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]
        )
        assert code == 0

    def test_densities_subcommand(self, tmp_path, capsys):
        A = FiniteNatSet.from_iterable(range(0, 1001, 4), horizon=1000)
        set_path = tmp_path / "set.json"
        set_path.write_text(json.dumps(A.to_json_dict()))
        code = main(["densities", "--set", str(set_path), "--windows", "10,100"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["count"] == 251
        # running inf touches exactly 1/4 at N = 3 mod 4; the running sup is
        # attained at the burn-in start N = 100
        assert out["lower_at_horizon"] == "1/4"
        assert out["upper_at_horizon"] == "26/101"
        assert set(out["banach_upper"]) == {"10", "100"}

    def test_classify_subcommand(self, tmp_path, capsys):
        op_path = tmp_path / "op.json"
        op_path.write_text(json.dumps(ROTATION))
        code = main(
            [
                "classify",
                "--op", str(op_path),
                "--vector", "ones",
                "--eps", "0.5,0.25",
                "--horizon", "10000",
            ]
        )
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["vector_flags"]["uniformly"] is True
        assert len(rep["epsilon_records"]) == 2

    @pytest.mark.parametrize(
        "op, eps, message",
        [
            # the eigen residual overflows to inf, whatever LAPACK's rounding
            (
                {"type": "dense_matrix", "entries": [[1e200, 1e200], [0, 1]]},
                "0.5",
                "error: eigen residual inf exceeds budget",
            ),
            (
                {"type": "jordan_block", "eigenvalue": 1, "size": 2},
                ",",
                "error: epsilons must be nonempty",
            ),
            # the norm estimate overflows, so no residual could fail the budget
            (
                {"type": "dense_matrix", "entries": [[1.7e308, 1.7e308], [0, 1]]},
                "0.5",
                "error: operator norm estimate inf overflowed",
            ),
            # the orbit passes the overflow cap at its first step
            (
                {"type": "dense_matrix", "entries": [[1e13]]},
                "0.5",
                "error: orbit norm passed the overflow cap 1e+12 at step 1",
            ),
        ],
    )
    def test_classify_failure_exits_2(self, tmp_path, capsys, op, eps, message):
        op_path = tmp_path / "op.json"
        op_path.write_text(json.dumps(op))
        code = main(["classify", "--op", str(op_path), "--vector", "ones", "--eps", eps])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(message)

    @pytest.mark.parametrize(
        "eps, vector, message",
        [
            ("inf", "ones", "error: epsilons must be positive and finite"),
            ("0.5,inf", "ones", "error: epsilons must be positive and finite"),
            ("0.5,-inf", "ones", "error: epsilons must be positive and finite"),
            ("nan", "ones", "error: epsilons must be positive and finite"),
            ("0.5", "[[NaN, 0.0]]", "error: experiment '<cli>': an explicit vector's"),
        ],
    )
    def test_classify_non_finite_exits_2(self, tmp_path, capsys, eps, vector, message):
        op_path = tmp_path / "op.json"
        op_path.write_text(json.dumps(ROTATION))
        code = main(["classify", "--op", str(op_path), "--vector", vector, "--eps", eps])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)

    def test_classify_bad_vector_exits_2(self, tmp_path, capsys):
        op_path = tmp_path / "op.json"
        op_path.write_text(json.dumps(ROTATION))
        code = main(
            ["classify", "--op", str(op_path), "--vector", "{oops", "--eps", "0.5"]
        )
        assert code == 2
        assert "bad vector literal" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, windows, message",
        [
            ([1, 2], "10", "a set file holds an object"),
            ({"horizon": 10, "elements": [1, 2]}, "a,b", "expected an integer, got 'a'"),
            ({"horizon": 10.7, "elements": [1, 2]}, "10", "expected an integer, got 10.7"),
            ({"horizon": 10, "elements": [1.5, True, 3]}, "10", "expected an integer, got 1.5"),
            # too large for an int64 element, and for an indicator array;
            # the message is numpy's
            ({"horizon": 10, "elements": [1e30]}, "10", "error: "),
            ({"horizon": 1e30, "elements": []}, "10", "error: "),
        ],
    )
    def test_densities_bad_input_exits_2(self, tmp_path, capsys, content, windows, message):
        set_path = tmp_path / "set.json"
        set_path.write_text(json.dumps(content))
        code = main(["densities", "--set", str(set_path), "--windows", windows])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_densities_oversized_run_exits_2_fast(self, tmp_path, capsys):
        # the run is checked against the horizon before it is expanded
        set_path = tmp_path / "set.json"
        set_path.write_text(json.dumps({"horizon": 10, "runs": [[0, 3_000_000]]}))
        t0 = time.perf_counter()
        code = main(["densities", "--set", str(set_path)])
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert "run [0, 3000000]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["densities", "classify"])
    def test_unallocatable_horizon_exits_2(self, tmp_path, capsys, command):
        # 2^60 mask bytes and 2^56 orbit rows pass any 57-bit address space,
        # so the allocation fails at once on every host
        path = tmp_path / "in.json"
        if command == "densities":
            path.write_text(json.dumps({"horizon": 2**60, "runs": [[0, 10]]}))
            argv = ["densities", "--set", str(path)]
        else:
            path.write_text(json.dumps(ROTATION))
            argv = ["classify", "--op", str(path), "--vector", "ones", "--eps", "0.5",
                    "--horizon", str(2**56)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and "allocate" in line

    def test_classify_malformed_op_exits_2(self, tmp_path, capsys):
        op_path = tmp_path / "op.json"
        op_path.write_text(json.dumps(ANGLES_5))
        code = main(["classify", "--op", str(op_path), "--vector", "ones", "--eps", "0.5"])
        assert code == 2
        assert "diagonal_unimodular operator: expected a list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("run", DEEP_LIST, "parse error: the config nests too deeply"),
            (
                "run",
                '{"experiments": [{"operator": ' + DEEP_CHAIN + "}]}",
                "experiment 'experiment_0': the operator spec nests too deeply",
            ),
            ("densities", DEEP_LIST, "the set file nests too deeply"),
            ("classify", DEEP_LIST, "the operator spec nests too deeply"),
            ("classify", DEEP_CHAIN, "the operator spec nests too deeply"),
        ],
        ids=["run_list", "run_chain", "densities_list", "classify_list", "classify_chain"],
    )
    def test_deeply_nested_input_exits_2(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "deep.json"
        path.write_text(text)
        out = tmp_path / "report.json"
        argv = {
            "run": ["run", "--config", str(path), "--out", str(out), "--strict"],
            "densities": ["densities", "--set", str(path)],
            "classify": ["classify", "--op", str(path), "--vector", "ones", "--eps", "0.5"],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("delta_banach", -1),
            ("gap_fraction", 5.0),
            ("window_fraction", -0.5),
            ("delta_lower", 1.5),
            ("delta_upper", -1e-300),
        ],
    )
    @pytest.mark.parametrize("where", [None, "quarter"])
    def test_threshold_outside_the_unit_interval_exits_2(
        self, tmp_path, capsys, where, key, value
    ):
        # a negative delta or a fraction above 1 would turn verdicts on: a
        # rotation by 1e-5 turns was flagged uniformly recurrent
        obj = base_config()
        (obj["experiments"][0] if where else obj)["thresholds"] = {key: value}
        out = tmp_path / "report.json"
        code = main(["run", "--config", str(write_config(tmp_path, obj)), "--out", str(out)])
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert f"threshold {key} must be finite and in [0, 1], got {value!r}" in err
        assert (f"experiment {where!r}" in err) == (where is not None)

    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == __version__


# The benchmark's pair_sum config at H = 10^4: 14 distinct orbits, namely
# 5 forward orbits, 5 backward orbits for the inverse check, and 2 part
# lanes for each of the 2 product vectors, all in 5 loops.
PAIR_SUM = {
    "schema_version": 1,
    "seed": 7,
    "experiments": [
        {
            "name": "golden_pair",
            "operator": {"type": "diagonal_unimodular", "angles_turns": [0.25, 0.618034]},
            "vectors": ["ones", "basis:0", "random:0"],
            "epsilons": [0.5, 0.25],
            "horizon": 10_000,
            "checks": [
                "classify", "birkhoff", "unimodular_return", "inverse", "measure",
                "eigen_span",
            ],
        },
        {
            "name": "sum",
            "operator": {
                "type": "direct_sum",
                "parts": [
                    {"type": "diagonal_unimodular", "angles_turns": [0.618034]},
                    {"type": "diagonal_unimodular", "angles_turns": [0.41421356]},
                ],
            },
            "vectors": ["ones", "random:1"],
            "epsilons": [0.5, 0.25],
            "horizon": 10_000,
            "checks": ["classify", "birkhoff", "product", "inverse", "measure"],
        },
    ],
}


class TestOrbitSharing:
    def test_each_orbit_iterated_once(self, tmp_path, monkeypatch):
        # Each vector's forward and backward orbits, and the product's part
        # orbits, are lanes of one loop.
        loops, classified = [], []
        iterate_many = recurlab.orbit.iterate_many

        def loop_counted(ops, x, horizon, points=True, parts=()):
            x = np.asarray(x, dtype=complex)
            lanes = [(T.matrix.tobytes(), x.tobytes()) for T in ops]
            start = 0
            for P in parts:
                lanes.append((P.matrix.tobytes(), x[start : start + P.dim].tobytes()))
                start += P.dim
            loops.append(lanes)
            return iterate_many(ops, x, horizon, points, parts)

        # iterate() calls the orbit module's binding
        for module in (recurlab.cli, recurlab.orbit):
            monkeypatch.setattr(module, "iterate_many", loop_counted)
        for module in (recurlab.cli, recurlab.classify):
            def classify_counted(T, *args, _classify=module.classify_vector, **kwargs):
                classified.append(T)
                return _classify(T, *args, **kwargs)

            monkeypatch.setattr(module, "classify_vector", classify_counted)
        doc = run_config(load_config(write_config(tmp_path, PAIR_SUM)))
        assert not document_has_failures(doc)
        # 5 vectors, each with a forward and a backward lane, and the sum
        # experiment's two vectors with two part lanes each
        assert [len(loop) for loop in loops] == [2, 2, 2, 4, 4]
        lanes = [lane for loop in loops for lane in loop]
        assert len(lanes) == 14
        # no (operator, vector) pair is stepped twice
        assert len(set(lanes)) == 14
        # one classification per orbit
        assert len(classified) == 14

    def test_one_eigendecomposition_per_operator(self, tmp_path, monkeypatch):
        decomposed = []
        eigenpairs = recurlab.classify.unimodular_eigenpairs

        def counted(T, *args, **kwargs):
            decomposed.append(T)
            return eigenpairs(T, *args, **kwargs)

        monkeypatch.setattr(recurlab.classify, "unimodular_eigenpairs", counted)
        doc = run_config(load_config(write_config(tmp_path, PAIR_SUM)))
        assert not document_has_failures(doc)
        # golden_pair's T and T^-1; sum's T, T^-1 and its two parts
        assert len(decomposed) == len({id(T) for T in decomposed}) == 6

    def test_one_realize_per_operator(self, tmp_path, monkeypatch):
        realized = []
        realize = recurlab.cli.realize

        def counted(spec):
            realized.append(spec)
            return realize(spec)

        monkeypatch.setattr(recurlab.cli, "realize", counted)
        doc = run_config(load_config(write_config(tmp_path, PAIR_SUM)))
        assert not document_has_failures(doc)
        # each experiment's T at load and its T^-1 at run; the sum's two parts
        assert [type(spec).__name__ for spec in realized] == [
            "DiagonalUnimodular", "DirectSum",
            "Inverse", "DiagonalUnimodular", "DiagonalUnimodular", "Inverse",
        ]

    def test_backward_lane_dropped_after_inverse_error(self, tmp_path, monkeypatch):
        lanes = []
        iterate_many = recurlab.cli.iterate_many

        def loop_counted(ops, *args, **kwargs):
            lanes.append(len(ops))
            return iterate_many(ops, *args, **kwargs)

        def broken(*args):
            raise RuntimeError("broken check")

        monkeypatch.setattr(recurlab.cli, "iterate_many", loop_counted)
        monkeypatch.setattr(recurlab.cli, "inverse_recurrence_check", broken)
        obj = dict(PAIR_SUM, experiments=PAIR_SUM["experiments"][:1])
        doc = run_config(load_config(write_config(tmp_path, obj)))
        checks = doc.experiments["golden_pair"]["checks"]
        assert checks["inverse"]["error"] == "RuntimeError: broken check"
        # the first vector's inverse check fails; later vectors step forward only
        assert lanes == [2, 1, 1]


class TestAllChecksRun:
    def test_full_battery_clean(self, tmp_path):
        obj = {
            "schema_version": 1,
            "seed": 3,
            "experiments": [
                {
                    "name": "rotation_pair",
                    "operator": {
                        "type": "diagonal_unimodular",
                        "angles_turns": [0.25, GOLDEN],
                    },
                    "vectors": ["ones"],
                    "epsilons": [0.5],
                    "horizon": 10_000,
                    "checks": [
                        "classify",
                        "birkhoff",
                        "eigen_span",
                        "jdg",
                        "unimodular_return",
                        "inverse",
                        "measure",
                    ],
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
            ],
        }
        doc = run_config(load_config(write_config(tmp_path, obj)))
        assert not document_has_failures(doc)
        checks = doc.experiments["rotation_pair"]["checks"]
        assert set(checks) == {
            "classify", "birkhoff", "eigen_span", "jdg",
            "unimodular_return", "inverse", "measure",
        }
        for payload in checks.values():
            assert "result" in payload
        assert "result" in doc.experiments["sum"]["checks"]["product"]

    def test_no_finite_nat_set_in_a_run(self, tmp_path, monkeypatch):
        # every check reads its return times from masks of the distances;
        # a FiniteNatSet is built only by the densities command and on
        # request from a product report
        made = []
        post_init = FiniteNatSet.__post_init__

        def counted(self):
            made.append(self.horizon)
            post_init(self)

        monkeypatch.setattr(FiniteNatSet, "__post_init__", counted)
        doc = run_config(load_config(write_config(tmp_path, PAIR_SUM)))
        assert not document_has_failures(doc)
        checks = set().union(*(exp["checks"] for exp in doc.experiments.values()))
        assert checks == set(recurlab.cli.KNOWN_CHECKS) - {"jdg"}
        assert made == []


class TestPointsOnlyForTheirReaders:
    """The runner keeps orbit points only for the checks that read them."""

    # a sum of two rotations: every per-vector check applies to it
    SUM = {
        "type": "direct_sum",
        "parts": [
            {"type": "diagonal_unimodular", "angles_turns": [0.25]},
            {"type": "diagonal_unimodular", "angles_turns": [GOLDEN]},
        ],
    }
    CHECKS = sorted(
        name for name, check in recurlab.cli._CHECKS.items() if check.rows and name != "summary"
    )

    def run_alone(self, tmp_path, check):
        obj = base_config()
        obj["experiments"][0].update(operator=self.SUM, checks=[check])
        exp = run_config(load_config(write_config(tmp_path, obj))).experiments["quarter"]
        assert "error" not in exp["summary"]
        return exp["checks"][check]

    def spy_on_points(self, monkeypatch):
        """The per-lane ``points`` flags of every ``iterate_many`` call."""
        kept = []
        iterate_many = recurlab.cli.iterate_many

        def spy(ops, x, horizon, points, parts):
            kept.append(tuple(points))
            return iterate_many(ops, x, horizon, points, parts)

        monkeypatch.setattr(recurlab.cli, "iterate_many", spy)
        return kept

    @pytest.mark.parametrize("check", CHECKS)
    def test_each_check_runs_alone(self, tmp_path, monkeypatch, check):
        kept = self.spy_on_points(monkeypatch)
        entry = self.run_alone(tmp_path, check)
        assert "error" not in entry and "result" in entry
        # the forward lane keeps points for their readers; the backward
        # lane, stepped for the inverse check, never does
        assert [lanes[0] for lanes in kept] == [check == "measure"]
        assert [len(lanes) for lanes in kept] == [1 + (check == "inverse")]
        assert not any(any(lanes[1:]) for lanes in kept)

    def test_backward_lane_keeps_no_points_beside_point_readers(self, tmp_path, monkeypatch):
        kept = self.spy_on_points(monkeypatch)
        obj = base_config()
        obj["experiments"][0].update(operator=self.SUM, checks=self.CHECKS)
        doc = run_config(load_config(write_config(tmp_path, obj)))
        assert not document_has_failures(doc)
        assert kept == [(True, False)]

    @pytest.mark.parametrize("check", CHECKS)
    def test_only_the_point_readers_need_points(self, tmp_path, monkeypatch, check):
        no_points = {
            name: check._replace(reads_points=False)
            for name, check in recurlab.cli._CHECKS.items()
        }
        monkeypatch.setattr(recurlab.cli, "_CHECKS", no_points)
        entry = self.run_alone(tmp_path, check)
        if check == "measure":
            assert "points=False" in entry["error"]
        else:
            assert "error" not in entry

    def test_birkhoff_reads_no_points(self, tmp_path, monkeypatch):
        # the window mass is the share of window times in the ball, read
        # off the distances like the density
        segments = []
        iterate_many = recurlab.cli.iterate_many

        def spy(*args):
            out = iterate_many(*args)
            segments.extend(out)
            return out

        monkeypatch.setattr(recurlab.cli, "iterate_many", spy)
        entry = self.run_alone(tmp_path, "birkhoff")
        assert "error" not in entry and len(entry["result"]["comparisons"]) == 1
        assert segments[0].points is None

    def test_classify_only_run_keeps_no_points(self, tmp_path):
        # one rotation at H = 10^6: its distances take 8 MB, and each
        # radius adds its mask and block temporaries; the peak is 9.6 MiB.
        # With the points and the whole-orbit distance temporaries it was
        # 53 MB, and with per-step norms and a whole-mask running count
        # 21.0 MiB
        obj = base_config()
        obj["experiments"][0].update(
            operator={"type": "diagonal_unimodular", "angles_turns": [GOLDEN]},
            epsilons=[0.5, 0.25],
            horizon=10**6,
        )
        config = load_config(write_config(tmp_path, obj))
        tracemalloc.start()
        try:
            doc = run_config(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not document_has_failures(doc)
        assert peak < 14 * 2**20


    def test_product_check_keeps_no_part_points(self, tmp_path):
        # a sum of two rotations at H = 2 * 10^5 with all five per-vector
        # checks: the forward orbit with its points and distances and the
        # backward lane's distances take 9.6 MB, and the product check
        # adds both part lanes' distances, recorded in the same loop
        # without points, and their classifications. With the backward
        # lane's points, both parts' orbits as views of the sum's points
        # and whole-orbit part temporaries, the peak was 29 MB; with
        # per-step norms and whole-mask running counts 17.6 MiB; with one
        # part made at a time off the sum's points 12.1 MiB; it is 14.0 MiB.
        obj = base_config()
        obj["experiments"][0].update(
            operator={
                "type": "direct_sum",
                "parts": [
                    {"type": "diagonal_unimodular", "angles_turns": [0.618034]},
                    {"type": "diagonal_unimodular", "angles_turns": [0.41421356]},
                ],
            },
            epsilons=[0.5, 0.25],
            horizon=200_000,
            checks=["classify", "birkhoff", "product", "inverse", "measure"],
        )
        config = load_config(write_config(tmp_path, obj))
        tracemalloc.start()
        try:
            doc = run_config(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not document_has_failures(doc)
        assert peak < 16 * 2**20


# A config that loads, with every operator kind, vector kind and field.
FUZZ_BASE = {
    "schema_version": 1,
    "seed": 3,
    "thresholds": {"delta_lower": 1e-3},
    "experiments": [
        {
            "name": "rotation",
            "operator": {"type": "diagonal_unimodular", "angles_turns": [0.25, 0.5]},
            "vectors": ["ones", "basis:1", "random:0", [[1.0, 0.0], [0.0, 1.0]]],
            "epsilons": [0.5, 0.25],
            "horizon": 100,
            "thresholds": {"min_horizon": 10},
            "checks": ["classify", "unimodular_return"],
        },
        {
            "name": "mixed",
            "operator": {
                "type": "direct_sum",
                "parts": [
                    {"type": "jordan_block", "eigenvalue": [0.5, 0.0], "size": 2},
                    {
                        "type": "power",
                        "exponent": 2,
                        "inner": {
                            "type": "scale",
                            "factor": [1.0, 0.0],
                            "inner": {
                                "type": "inverse",
                                "inner": {
                                    "type": "dense_matrix",
                                    "entries": [
                                        [[0.0, 0.0], [1.0, 0.0]],
                                        [[1.0, 0.0], [0.0, 0.0]],
                                    ],
                                },
                            },
                        },
                    },
                ],
            },
            "vectors": ["ones"],
            "epsilons": [0.5],
            "horizon": 100,
            "checks": ["product", "jdg"],
        },
        {
            "name": "shift",
            "operator": {"type": "weighted_backward_shift", "weights": [0.5, 2.0], "dim": 3},
            "epsilons": [0.5],
        },
    ],
}


def _paths(node, prefix=()):
    """Every key/index path inside a JSON tree, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


FUZZ_PATHS = list(_paths(FUZZ_BASE))
NEAR_MISSES = [None, True, False, 0, -1, 2.5, 1e300, -1e300, 2**64, "", "1", "x", [], {}, [[]]]
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


_GONE = object()


def _child(node, key):
    """``node[key]`` inside a JSON tree, or _GONE when there is no such child."""
    if isinstance(node, dict) and key in node:
        return node[key]
    if isinstance(node, list) and isinstance(key, int) and key < len(node):
        return node[key]
    return _GONE


@st.composite
def mutated_configs(draw):
    """FUZZ_BASE with one to three fields replaced by junk or deleted."""
    obj = copy.deepcopy(FUZZ_BASE)
    for path in draw(st.lists(st.sampled_from(FUZZ_PATHS), min_size=1, max_size=3)):
        node = obj
        for key in path:
            container, node = node, _child(node, key)
        if node is _GONE:
            continue  # an earlier mutation removed or replaced this path
        if draw(st.integers(0, 9)) == 0:
            del container[path[-1]]
        else:
            container[path[-1]] = draw(st.sampled_from(NEAR_MISSES) | JSON_VALUES)
    return obj


class TestConfigFuzz:
    def test_base_config_loads(self, tmp_path):
        cfg = load_config(write_config(tmp_path, FUZZ_BASE))
        assert [e.name for e in cfg.experiments] == ["rotation", "mixed", "shift"]

    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mutated_configs())
    def test_load_config_returns_or_raises_config_error(self, tmp_path, obj):
        path = write_config(tmp_path, obj, name="fuzz.json")
        try:
            load_config(path)
        except ConfigError:
            pass
