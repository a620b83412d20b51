"""scipy is loaded only for the work that needs it.

Only the ``jdg`` check (a sorted Schur split) and principal angles use
scipy; everything else runs on numpy alone. Each test runs in a fresh
interpreter, since this process may have loaded scipy already.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import recurlab

SRC = str(Path(recurlab.__file__).resolve().parents[1])

SUM = {
    "type": "direct_sum",
    "parts": [
        {"type": "diagonal_unimodular", "angles_turns": [0.618034]},
        {"type": "dense_matrix", "entries": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]},
    ],
}


def run_child(code: str, config: dict, tmp_path) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with recurlab on its path and
    ``CONFIG`` and ``OUT`` bound to a written config and a report path."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    prelude = (
        f"import sys\nsys.path.insert(0, {SRC!r})\n"
        f"CONFIG, OUT = {str(path)!r}, {str(tmp_path / 'report.json')!r}\n"
    )
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", prelude + textwrap.dedent(code)],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_every_check_but_jdg_runs_without_scipy(tmp_path):
    config = {
        "seed": 3,
        "experiments": [
            {
                "name": "sum",
                "operator": SUM,
                "vectors": ["ones", "random:0"],
                "epsilons": [0.5, 0.25],
                "horizon": 10_000,  # the classifier's minimum
                "checks": ["classify", "birkhoff", "eigen_span", "measure", "inverse", "product"],
            },
            {
                "name": "rotation",
                "operator": {"type": "diagonal_unimodular", "angles_turns": [0.25, 0.41421356]},
                "vectors": ["ones"],
                "epsilons": [0.5],
                "horizon": 2000,
                "checks": ["unimodular_return"],
            },
        ],
    }
    proc = run_child(
        """
        sys.modules["scipy"] = None  # any import of scipy now raises ImportError
        import recurlab.cli
        assert recurlab.cli.main(["run", "--config", CONFIG, "--out", OUT]) == 0
        """,
        config,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    checks = {
        name: entry
        for exp in report["experiments"].values()
        for name, entry in exp["checks"].items()
    }
    assert sorted(checks) == [
        "birkhoff", "classify", "eigen_span", "inverse", "measure", "product", "unimodular_return"
    ]
    # a check that raised, an ImportError included, records an "error" key
    assert not any("error" in entry for entry in checks.values())


def test_a_jdg_config_loads_scipy_with_the_config(tmp_path):
    config = {
        "experiments": [
            {
                "name": "split",
                "operator": {
                    "type": "direct_sum",
                    "parts": [
                        {"type": "diagonal_unimodular", "angles_turns": [0.3]},
                        {"type": "jordan_block", "eigenvalue": [0.5, 0.0], "size": 2},
                    ],
                },
                "epsilons": [0.5],
                "horizon": 300,
                "checks": ["jdg"],
            }
        ],
    }
    proc = run_child(
        """
        import recurlab.cli
        assert "scipy.linalg" not in sys.modules
        config = recurlab.cli.load_config(CONFIG)
        assert "scipy.linalg" in sys.modules
        result = recurlab.cli.run_config(config).experiments["split"]["checks"]["jdg"]["result"]
        assert (result["rev_dim"], result["fl_dim"]) == (1, 2), result
        """,
        config,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
