"""One NeuroCard benchmark, three workloads, judged against SQLite counts.

Run from the repository root::

    python3 perfbench/run.py --workload ranges-batch --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
public call into every layer and reports the per-layer metrics instead (see
``README.md`` in this directory). The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The lines
before it are a human-readable report.

This module must stay import-safe: the worker pool starts processes with
``spawn``, which re-imports the main module in every worker.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: name -> unit of the gated end-to-end metrics, as BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "estimates_per_s": "estimates/s",
    "latency_p50_ms": "ms",
    "qerror_p50": "ratio",
    "qerror_p95": "ratio",
    "qerror_p99": "ratio",
    "model_bytes": "B",
    "peak_rss_mb": "MB",
}
#: Measured on some workloads only, so reported but not gated.
EXTRA_UNITS = {"latency_p99_ms": "ms", "refresh_s": "s", "worker_peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ranges-batch", "subplans-http", "ingest-refresh"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stop_resource_tracker() -> None:
    """End multiprocessing's resource-tracker process, if the pool started one."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def result_line(outcome, per_layer) -> str:
    """The closing JSON object of a run.

    A metric that was not measured (no operation succeeded, say) reads
    ``null`` and makes the run incorrect; the counts are reported anyway.
    """
    if per_layer is None:
        values = {name: outcome.metrics.get(name, math.nan) for name in END_TO_END}
        units = END_TO_END
    else:
        from spans import PER_LAYER

        values = {name: per_layer.get(name, math.nan) for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
    metrics = {}
    for name, value in values.items():
        value = float(value)
        finite = math.isfinite(value)
        outcome.check("every metric measured", finite)
        metrics[name] = {"value": value if finite else None, "unit": units[name]}
    return json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from spans import Tracer, install
    from workloads import WORKLOADS

    tracer = install(Tracer()) if args.trace else None
    try:
        outcome, per_layer = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        stop_resource_tracker()

    line = result_line(outcome, per_layer)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, unit in END_TO_END.items():
        print(f"# {name} {outcome.metrics.get(name, math.nan):.6g} {unit}")
    for name, value in outcome.extra.items():
        unit = EXTRA_UNITS.get(name, "")
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"# {name} {shown} {unit}".rstrip())
    for name, ok in outcome.checks.items():
        print(f"# check {'ok  ' if ok else 'FAIL'} {name}")
    for note in outcome.notes[:20]:
        print(f"# note {note}")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
