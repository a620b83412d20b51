"""Driving a batch of experiments through the config runner.

The same entry point the command line uses is called as a library: a JSON
config with several experiments is materialized and executed twice, one
experiment at a time in config order, and the two reports are shown to
agree byte for byte once the wall-time fields are dropped.
"""

import json
import tempfile
from pathlib import Path

from recurlab.cli import document_has_failures, load_config, run_config

CONFIG = {
    "schema_version": 1,
    "seed": 42,
    "experiments": [
        {
            "name": "quarter_turn",
            "operator": {"type": "diagonal_unimodular", "angles_turns": [0.25]},
            "vectors": ["ones"],
            "epsilons": [0.5, 0.25],
            "horizon": 10_000,
            "checks": ["classify", "birkhoff", "measure"],
        },
        {
            "name": "golden_pair",
            "operator": {
                "type": "diagonal_unimodular",
                "angles_turns": [0.25, 0.6180339887498949],
            },
            "vectors": ["ones", "random:0"],
            "epsilons": [0.4],
            "horizon": 20_000,
            "checks": ["classify", "unimodular_return", "inverse"],
        },
        {
            "name": "lcm_product",
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


def strip_times(node):
    if isinstance(node, dict):
        return {k: strip_times(v) for k, v in node.items() if k != "wall_time_s"}
    if isinstance(node, list):
        return [strip_times(v) for v in node]
    return node


def main():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(CONFIG, indent=2))
        config = load_config(path)

        doc = run_config(config)
        print(f"ran {len(doc.experiments)} experiments with seed {doc.seed}; "
              f"failures: {document_has_failures(doc)}")
        for name, exp in doc.experiments.items():
            checks = ", ".join(
                f"{c}({'ok' if 'result' in p else 'ERROR'})"
                for c, p in exp["checks"].items()
            )
            rec = exp["summary"]["result"]["records"][0]
            print(f"  {name:12s} eps {rec['epsilon']:<5} "
                  f"lower {rec['lower']['value']['rational']:>12} "
                  f"gap {rec['syndetic_gap']:<6} checks: {checks}")

        doc_again = run_config(load_config(path))
        a = json.dumps(strip_times(doc.to_json_dict()), sort_keys=True)
        b = json.dumps(strip_times(doc_again.to_json_dict()), sort_keys=True)
        print(f"\ntwo independent runs give identical reports modulo timing: {a == b}")


if __name__ == "__main__":
    main()
