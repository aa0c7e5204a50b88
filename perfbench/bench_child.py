"""One timed run of one workload, in the fresh process ``run.py`` spawns.

Usage (``run.py`` builds this command; ``src/`` must be on ``PYTHONPATH``)::

    python3 perfbench/bench_child.py --workload crawl-chaos --seed 42 \\
        --scale full --trace 0 --t0 <CLOCK_MONOTONIC seconds> --out run.json

Writes the run record as JSON to ``--out``.  With ``--trace 1`` the record
also carries the spans and per-layer metrics, and the spans are written as
Chrome trace-event JSON next to it (``--out`` with ``.trace.json``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_workloads import SIZES, RunContext, run_workload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SIZES), required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    ctx = RunContext(
        workload=args.workload,
        seed=args.seed,
        scale=args.scale,
        t0=args.t0,
        out_dir=args.out.parent,
        traced=bool(args.trace),
    )
    record = run_workload(ctx)
    if ctx.traced:
        trace_path = args.out.with_suffix(".trace.json")
        trace_path.write_text(json.dumps(ctx.tracer.chrome_trace()), encoding="utf-8")
        record["trace_file"] = trace_path.name
    args.out.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
