#!/usr/bin/env python
"""Run the perf harness and emit ``BENCH_<scenario>.json`` files.

This is deliberately *not* a pytest module: the tier-1 test run stays fast
and unaffected.  Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py
    PYTHONPATH=src python benchmarks/run_benchmarks.py --scenario small --scenario large
    PYTHONPATH=src python benchmarks/run_benchmarks.py --stage sharding --workers 1 --workers 4
    PYTHONPATH=src python benchmarks/run_benchmarks.py --out-dir benchmarks/results

See PERFORMANCE.md for what each number means.
"""

from __future__ import annotations

import argparse
import faulthandler
import sys
from pathlib import Path

if __package__ is None or __package__ == "":  # pragma: no cover - script mode
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.perf.harness import STAGES, BenchReport, run_scenario, write_bench_json
from repro.synth.scenario import SCENARIOS


def _print_scaling_table(metrics: dict, workers: list[int]) -> None:
    """Print the sharding stage's per-worker-count scaling table."""
    naive = metrics.get("naive_seconds", 0.0)
    engine = metrics.get("engine_seconds", 0.0)
    print(
        f"   {'sharding':16s} engine {engine * 1000:9.2f} ms, "
        f"naive {naive * 1000:9.2f} ms, "
        f"best sharded {metrics.get('sharded_seconds', 0.0) * 1000:9.2f} ms"
        f"  -> {metrics.get('speedup', 0.0):6.1f}x"
    )
    print(
        f"   {'':16s} {'workers':>8s} {'seconds':>10s} {'speedup':>8s} "
        f"{'vs engine':>9s} {'efficiency':>10s} {'mode':>6s}"
    )
    for n in workers:
        seconds = metrics.get(f"sharded_seconds_workers_{n}")
        if seconds is None:
            continue
        forked = metrics.get(f"forked_workers_{n}", 0.0)
        print(
            f"   {'':16s} {n:8d} {seconds:10.4f} "
            f"{metrics.get(f'speedup_workers_{n}', 0.0):7.2f}x "
            f"{metrics.get(f'engine_ratio_workers_{n}', 0.0):8.2f}x "
            f"{metrics.get(f'scaling_efficiency_workers_{n}', 0.0):10.3f} "
            f"{'fork' if forked else 'inline':>6s}"
        )
    gate = metrics.get("fork_gate_seconds", 0.0)
    if gate:
        print(
            f"   {'':16s} forced-fork determinism gate passed "
            f"(2 workers, {gate:.4f}s)"
        )


def _print_shard_chaos(metrics: dict) -> None:
    """Print the shard_chaos stage's worker-death recovery summary."""
    if not metrics.get("fork_available"):
        print(
            f"   {'shard_chaos':16s} skipped (fork unavailable on this platform)"
        )
        return
    print(
        f"   {'shard_chaos':16s} recovery {metrics['recovery_rate']:.3f} "
        f"({metrics['recovered_shards']:.0f}/{metrics['failed_shards']:.0f} "
        f"failed shards), "
        f"{metrics['inline_fallbacks']:.0f} inline fallbacks, "
        f"retry cost {metrics['recovery_retry_seconds'] * 1000:.0f} ms"
    )
    print(
        f"   {'':16s} zero-fault supervised "
        f"{metrics['supervised_seconds'] * 1000:9.2f} ms"
    )
    kinds = ", ".join(
        f"{key[len('recovered_'):]} {value:.0f}"
        for key, value in sorted(metrics.items())
        if key.startswith("recovered_") and key != "recovered_shards"
    )
    if kinds:
        print(f"   {'':16s} recovered by kind: {kinds}")


def _print_serving(metrics: dict) -> None:
    """Print the serving stage's per-thread-count latency table."""
    print(
        f"   {'serving':16s} best concurrent "
        f"{metrics.get('concurrent_seconds', 0.0) * 1000:9.2f} ms, "
        f"engine {metrics.get('engine_seconds', 0.0) * 1000:9.2f} ms, "
        f"naive {metrics.get('naive_seconds', 0.0) * 1000:9.2f} ms"
        f"  -> {metrics.get('speedup', 0.0):6.1f}x"
    )
    print(
        f"   {'':16s} {'threads':>8s} {'seconds':>10s} {'p50 ms':>9s} "
        f"{'p95 ms':>9s} {'p99 ms':>9s} {'tail':>6s} {'req/s':>10s}"
    )
    thread_counts = sorted(
        int(key[len("concurrent_seconds_threads_"):])
        for key in metrics
        if key.startswith("concurrent_seconds_threads_")
    )
    for n in thread_counts:
        print(
            f"   {'':16s} {n:8d} "
            f"{metrics[f'concurrent_seconds_threads_{n}']:10.4f} "
            f"{metrics[f'p50_ms_threads_{n}']:9.3f} "
            f"{metrics[f'p95_ms_threads_{n}']:9.3f} "
            f"{metrics[f'p99_ms_threads_{n}']:9.3f} "
            f"{metrics[f'tail_amplification_threads_{n}']:5.1f}x "
            f"{metrics[f'requests_per_second_threads_{n}']:10.0f}"
        )


def _print_report(report: BenchReport) -> None:
    print(f"== {report.scenario} (seed {report.seed}) ==")
    print(
        "   dataset: "
        + ", ".join(f"{key}={value}" for key, value in report.dataset.items())
    )
    for section, metrics in report.metrics.items():
        if section == "sharding":
            _print_scaling_table(metrics, report.workers)
            continue
        if section == "shard_chaos":
            _print_shard_chaos(metrics)
            continue
        if section == "serving":
            _print_serving(metrics)
            continue
        if "recovery_rate" in metrics:
            print(
                f"   {section:16s} recovery {metrics['recovery_rate']:.3f} "
                f"(frail {metrics['frail_recovery_rate']:.3f}), "
                f"{metrics['faults_injected']:.0f} faults, "
                f"{metrics['retries']:.0f} retries, "
                f"recall none/mixed/heavy "
                f"{metrics['reject_recall_none']:.3f}/"
                f"{metrics['reject_recall_mixed']:.3f}/"
                f"{metrics['reject_recall_heavy']:.3f}"
            )
            continue
        speedup = metrics.get("speedup", 0.0)
        naive = metrics.get("naive_seconds", 0.0)
        fast = (
            metrics.get("indexed_seconds")
            or metrics.get("compiled_seconds")
            or metrics.get("columns_seconds")
            or metrics.get("single_pass_seconds")
            or metrics.get("optimised_seconds")
            or metrics.get("engine_seconds")
            or 0.0
        )
        print(
            f"   {section:16s} {fast * 1000:9.2f} ms vs {naive * 1000:9.2f} ms naive"
            f"  -> {speedup:6.1f}x"
        )


def _check_speedups(reports: list[BenchReport], minimum: float) -> list[str]:
    """Return one line per bench stage whose recorded speedup is below ``minimum``.

    The CI smoke job runs with ``--min-speedup 1.0``: a regenerated BENCH
    output in which any optimised path is *slower* than its seed-faithful
    baseline fails the job, so perf regressions surface on the PR that
    introduces them rather than in a later re-measure.
    """
    failures = []
    for report in reports:
        for section, metrics in report.metrics.items():
            speedup = metrics.get("speedup")
            if speedup is not None and speedup < minimum:
                failures.append(
                    f"{report.scenario}/{section}: speedup {speedup:.2f}x "
                    f"below the {minimum:.2f}x floor"
                )
    return failures


def _check_recovery(reports: list[BenchReport], minimum: float) -> list[str]:
    """Return one line per stage whose recovery rate is below ``minimum``.

    The CI smoke job runs with ``--min-recovery``: the chaos and
    shard_chaos stages already gate zero-fault reproduction and
    bit-identical recovery internally (raising on divergence), and this
    check additionally fails the job when the resilient crawl recovers
    less than the given fraction of the fault-free crawl's snapshots, or
    when the shard supervisor recovers less than that fraction of the
    shards whose workers were killed.
    """
    failures = []
    for report in reports:
        for section, metrics in report.metrics.items():
            recovery = metrics.get("recovery_rate")
            if recovery is not None and recovery < minimum:
                failures.append(
                    f"{report.scenario}/{section}: recovery {recovery:.3f} "
                    f"below the {minimum:.3f} floor"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        help="scenario(s) to benchmark (default: small and large)",
    )
    parser.add_argument(
        "--stage",
        action="append",
        choices=STAGES,
        help="bench stage(s) to run (default: all; xxlarge defaults to sharding)",
    )
    parser.add_argument(
        "--workers",
        action="append",
        type=int,
        help="worker count(s) for the sharding stage (repeatable; default 1 2 4)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--campaign-days", type=float, default=2.0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="where BENCH_<scenario>.json files are written (default: repo root)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail (exit 1) if any stage's recorded speedup falls below this",
    )
    parser.add_argument(
        "--min-recovery",
        type=float,
        default=None,
        help="fail (exit 1) if the chaos or shard_chaos recovery rate "
        "falls below this",
    )
    parser.add_argument(
        "--hang-timeout",
        type=float,
        default=1800.0,
        help="dump every thread's stack and abort if one scenario runs longer "
        "than this many seconds (0 disables)",
    )
    args = parser.parse_args(argv)
    scenarios = tuple(args.scenario) if args.scenario else ("small", "large")

    reports = []
    for scenario in scenarios:
        if args.hang_timeout > 0:
            # Hang tripwire, re-armed per scenario: if a wedged worker pipe
            # or supervisor poll loop ever stalls the harness, faulthandler
            # dumps every thread's stack to stderr and kills the process,
            # instead of the CI job idling until its global timeout.
            faulthandler.dump_traceback_later(args.hang_timeout, exit=True)
        report = run_scenario(
            scenario,
            seed=args.seed,
            campaign_days=args.campaign_days,
            repeats=args.repeats,
            stages=tuple(args.stage) if args.stage else None,
            workers=tuple(args.workers) if args.workers else None,
        )
        path = write_bench_json(report, args.out_dir)
        _print_report(report)
        print(f"   wrote {path}")
        reports.append(report)
    faulthandler.cancel_dump_traceback_later()

    if args.min_speedup is not None:
        failures = _check_speedups(reports, args.min_speedup)
        if failures:
            print("PERF REGRESSION:")
            for line in failures:
                print(f"   {line}")
            return 1
        print(f"all speedups clear the {args.min_speedup:.2f}x floor")
    if args.min_recovery is not None:
        failures = _check_recovery(reports, args.min_recovery)
        if failures:
            print("RESILIENCE REGRESSION:")
            for line in failures:
                print(f"   {line}")
            return 1
        print(f"chaos recovery clears the {args.min_recovery:.2f} floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
