"""The repository's end-to-end benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pipeline-large --seed 42 --seconds 30 --trace 0

Runs the workload repeatedly for ``--seconds``, each run in a fresh child
process (``bench_child.py``) that builds its inputs from ``--seed``, and
prints, as the last line of standard output, one JSON object::

    {"correct": true, "attempted": 48, "failed": 0,
     "metrics": {"setup_s": {"value": 2.31, "unit": "s"}, ...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json`` (medians over the runs).  With ``--trace 1`` one more
run follows with spans around every call into a layer, and the metrics are
the ``per_layer`` ones; its Chrome trace-event JSON is written under
``perfbench/out/``.  The line before the result is a report with every
run's figures, the work counts and the host stamps.  See ``README.md``.

Exits non-zero without printing a result when the program is missing or
any run fails to produce a record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from bench_workloads import IDLE_LAYERS, program_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

WORKLOADS = ("pipeline-large", "federate-viral-xl", "crawl-chaos")

#: Wall-clock budget of one invocation, in seconds: no run starts that
#: could not end within it.
BUDGET_S = 165.0

#: Iterations of the fixed calibration loop behind ``host.calib_ms``.
CALIBRATION_ITERATIONS = 200_000


class BenchError(RuntimeError):
    """A run produced no record; the invocation prints no result."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Milliseconds of a fixed pure-Python loop: tells a slow host from a slow commit.

    Reported beside each run; never a gate and never a normaliser.
    """
    start = now()
    total = 0
    for index in range(CALIBRATION_ITERATIONS):
        total += index * index % 7
    return (now() - start) * 1e3


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def spawn(
    args: argparse.Namespace, index: int, seed: int, traced: bool, deadline: float
) -> dict[str, Any]:
    """Run one child on program ``seed``; return its record (plus ``calib_ms``, ``wall_s``)."""
    calib_ms = calibrate()
    out = OUT_DIR / f"{args.workload}-{seed}-{os.getpid()}-{index}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if part
    )
    command = [
        sys.executable,
        str(HERE / "bench_child.py"),
        "--workload", args.workload,
        "--seed", str(seed),
        "--scale", args.scale,
        "--trace", "1" if traced else "0",
        "--out", str(out),
    ]
    t0 = now()
    process = subprocess.Popen(
        [*command, "--t0", repr(t0)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        _, stderr = process.communicate(timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired:
        # The child's own shard workers share its session: stop them all.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError(f"run {index} exceeded the {BUDGET_S:.0f} s budget") from None
    wall_s = now() - t0
    if process.returncode != 0 or not out.is_file():
        tail = stderr.decode("utf-8", "replace")[-4000:]
        raise BenchError(f"run {index} exited with {process.returncode}:\n{tail}")
    record = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    record["calib_ms"] = calib_ms
    record["wall_s"] = wall_s
    return record


def account(runs: list[dict[str, Any]]) -> list[int]:
    """Failed operations of each run, judged against the invocation's first
    run on the same program seed.

    A run whose own check failed, or whose work counts differ from that
    first run's, fails every operation.  Otherwise each output digest that
    differs fails the operations it stands for (one experiment in
    ``pipeline-large``; every request in ``crawl-chaos``).
    """
    references: dict[int, dict[str, Any]] = {}
    failed = []
    for run in runs:
        reference = references.setdefault(run["seed"], run)
        if not run["check_ok"] or run["counts"] != reference["counts"]:
            failed.append(run["attempted"])
            continue
        wrong = sum(
            ops
            for key, ops in run["digest_ops"].items()
            if run["digests"].get(key) != reference["digests"].get(key)
        )
        failed.append(min(wrong, run["attempted"]))
    return failed


def end_to_end(runs: list[dict[str, Any]]) -> dict[str, float]:
    """The end-to-end metrics of the untraced runs.

    The median over each program seed's runs, averaged over the seeds of
    the invocation's panel (one seed, except in ``pipeline-large``).
    """
    by_seed: dict[int, list[dict[str, Any]]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], []).append(run)
    return {
        name: statistics.mean(
            statistics.median(run[name] for run in seed_runs)
            for seed_runs in by_seed.values()
        )
        for name in ("setup_s", "run_s", "peak_rss_mb")
    }


def per_layer(
    runs: list[dict[str, Any]], traced: dict[str, Any], failed: list[int]
) -> dict[str, float]:
    """The per-layer metrics: the traced run's, plus host and trace figures."""
    values = dict(traced["layers"])
    values["host.calib_ms"] = statistics.median(run["calib_ms"] for run in runs)
    values["host.cpus"] = usable_cpus()
    same_input = [run for run in runs if run["seed"] == traced["seed"]]
    values["trace.overhead_s"] = traced["run_s"] - end_to_end(same_input)["run_s"]
    values["trace.spans"] = len(traced["spans"])
    everything = [*runs, traced]
    # Injected faults fail crawl requests by design (``client_failed``);
    # they count here, beside any operation failed by an output check.
    lost = sum(
        count or run.get("client_failed", 0) for run, count in zip(everything, failed)
    )
    values["failed_share"] = lost / sum(run["attempted"] for run in everything)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="input size; 'tiny' is for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)

    start = now()
    deadline = start + BUDGET_S
    runs: list[dict[str, Any]] = []
    traced = None
    try:
        while True:
            seed = program_seed(args.workload, args.seed, len(runs))
            runs.append(spawn(args, len(runs), seed, False, deadline))
            elapsed = now() - start
            longest = max(run["wall_s"] for run in runs)
            reserve = 1.5 * longest if args.trace else 0.0
            if elapsed >= args.seconds or elapsed + longest + reserve > BUDGET_S:
                break
        if args.trace:
            # The traced run repeats the first run's input, so its outputs
            # are checked against an untraced run of the same seed.
            seed = program_seed(args.workload, args.seed, 0)
            traced = spawn(args, len(runs), seed, True, deadline)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    everything = runs + ([traced] if traced else [])
    failed = account(everything)
    if traced:
        values = per_layer(runs, traced, failed)
        declared = spec["per_layer"]
    else:
        values = end_to_end(runs)
        declared = spec["end_to_end"]
    idle = IDLE_LAYERS[args.workload] if traced else ()
    metrics = {
        metric["name"]: {
            "value": 0 if metric["name"].startswith(idle) else values[metric["name"]],
            "unit": metric["unit"],
        }
        for metric in declared
    }

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "stamps": {
            "usable_cpus": usable_cpus(),
            "python": platform.python_version(),
            "shard_mode": sorted({run["shard_mode"] for run in everything}),
        },
        "runs": [
            {
                key: run[key]
                for key in ("traced", "setup_s", "run_s", "peak_rss_mb", "calib_ms", "wall_s", "attempted")
            }
            | {"seed": run["seed"], "failed": count, "problems": run["problems"]}
            for run, count in zip(everything, failed)
        ],
        "counts": {},
    }
    for run in runs:
        report["counts"].setdefault(run["seed"], run["counts"])
    if traced:
        trace_file = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        (OUT_DIR / traced["trace_file"]).replace(trace_file)
        report["self_times"] = traced["self_times"]
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    name = f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=2), encoding="utf-8")

    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": not any(failed),
                "attempted": sum(run["attempted"] for run in everything),
                "failed": sum(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
