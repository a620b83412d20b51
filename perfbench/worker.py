"""One benchmark sample in a fresh process.

    python3 perfbench/worker.py MODE CONFIG RESULT

MODE ``setup`` imports recurlab from ./src and loads CONFIG (which realizes
every operator), then stops. ``report`` goes on through ``run_config`` and
``emit_report``; ``traced`` does the same with the outside-in tracer
installed. The worker writes its timings to RESULT as JSON, the report next
to it as ``<RESULT stem>.report.json`` and, when traced, the spans as
``<RESULT stem>.spans.json``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    mode, config_path, result_path = argv
    src = Path("src").resolve()
    sys.path.insert(0, str(src))
    import recurlab.cli as cli

    if Path(cli.__file__).resolve().parents[1] != src:
        print(f"error: recurlab imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if mode == "traced":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    config = cli.load_config(config_path)
    result = {"loaded_at": time.monotonic()}
    result_path = Path(result_path)
    if mode != "setup":
        report_path = result_path.with_suffix(".report.json")
        t0 = time.perf_counter()
        doc = cli.run_config(config)
        cli.emit_report(doc, "json", report_path)
        result["report_s"] = time.perf_counter() - t0
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["report"] = str(report_path)
    if tracer is not None:
        result["spans"] = str(result_path.with_suffix(".spans.json"))
        tracer.dump(result["spans"])
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
