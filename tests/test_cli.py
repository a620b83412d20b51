"""Tests for the batch runner: config loading, reports, and the CLI surface."""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

from recurlab import FiniteNatSet, __version__
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
    path = tmp_path / name
    path.write_text(json.dumps(obj, indent=1))
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

    def test_threaded_run_equivalent(self, tmp_path, monkeypatch):
        obj = base_config()
        for name in ("beta", "gamma"):
            e = copy.deepcopy(obj["experiments"][0])
            e["name"] = name
            obj["experiments"].append(e)
        cfg = load_config(write_config(tmp_path, obj))
        doc_serial = run_config(cfg)
        monkeypatch.setenv("RECURLAB_THREADS", "4")
        doc_threaded = run_config(cfg)
        assert strip_wall_times(doc_serial.to_json_dict()) == strip_wall_times(
            doc_threaded.to_json_dict()
        )

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

    def test_nan_epsilon_exits_2(self, tmp_path, capsys):
        obj = base_config()
        obj["experiments"][0]["epsilons"] = ["nan"]
        cfg_path = write_config(tmp_path, obj)
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'quarter'" in err and "epsilons must be positive" in err

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

    def test_classify_bad_vector_exits_2(self, tmp_path, capsys):
        op_path = tmp_path / "op.json"
        op_path.write_text(json.dumps(ROTATION))
        code = main(
            ["classify", "--op", str(op_path), "--vector", "{oops", "--eps", "0.5"]
        )
        assert code == 2
        assert "bad vector literal" in capsys.readouterr().err

    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == __version__


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
