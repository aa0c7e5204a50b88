"""Tests of the benchmark itself, on tiny inputs.

Every workload runs end to end through ``run.py`` and prints every metric
``BENCHMARK.json`` declares, with its unit; the output checks trip on a
corrupted output; and the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import bench_workloads
import run as bench_run
from bench_trace import Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _invoke(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "0",
            "--trace", str(trace),
            "--scale", "tiny",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def invocations() -> dict[tuple[str, int], subprocess.CompletedProcess]:
    """Every workload, untraced and traced, two invocations at a time."""
    cases = [(workload, trace) for workload in WORKLOADS for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        done = list(pool.map(lambda case: _invoke(*case), cases))
    return dict(zip(cases, done))


def test_spec_names_the_workloads_and_metrics():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert WORKLOADS == list(bench_run.WORKLOADS) == list(bench_workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == ["setup_s", "run_s", "peak_rss_mb"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_runs_and_prints_every_metric(invocations, workload, trace):
    done = invocations[(workload, trace)]
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    assert all(
        isinstance(metric["value"], (int, float)) for metric in result["metrics"].values()
    )
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_writes_a_chrome_trace(invocations):
    report = json.loads(invocations[("federate-viral-xl", 1)].stdout.splitlines()[-2])
    trace = json.loads((HERE.parent / report["report"]["trace_file"]).read_text())
    names = {event["name"] for event in trace["traceEvents"]}
    assert {"import", "synth.prepare", "shard.federate", "delivery.federate"} <= names
    assert all(event["ph"] == "X" and event["dur"] >= 0 for event in trace["traceEvents"])


def _pipeline_record(payload: list[dict]) -> dict:
    ids = [entry["experiment_id"] for entry in payload]
    return {
        "seed": 3,
        "attempted": len(ids),
        "check_ok": not bench_workloads.payload_problems(payload, ids),
        "counts": {"posts": 1},
        "digests": bench_workloads.experiment_digests(payload),
        "digest_ops": {experiment_id: 1 for experiment_id in ids},
    }


def test_an_altered_experiment_row_fails_that_experiment(tmp_path):
    from repro.experiments import runner

    out = tmp_path / "tiny.json"
    assert runner.main(["--scenario", "tiny", "--seed", "3", "--json", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    tampered = json.loads(out.read_text(encoding="utf-8"))
    entry = next(entry for entry in tampered if entry["rows"])
    entry["rows"][0] = dict(entry["rows"][0], tampered=True)

    runs = [_pipeline_record(payload), _pipeline_record(payload), _pipeline_record(tampered)]
    assert bench_run.account(runs) == [0, 0, 1]
    assert bench_workloads.payload_problems(payload[1:], [e["experiment_id"] for e in payload])


def test_a_tampered_merged_state_fails_every_batch():
    from repro.shard.engine import federate_sharded
    from repro.synth.generator import FediverseGenerator
    from repro.synth.scenario import scenario_config

    generator = FediverseGenerator(scenario_config("viral", seed=3, n_pleroma_instances=40))
    prepared = generator.prepare()
    work = list(generator.federation_batches(prepared))
    result = federate_sharded(prepared, work, 2, processes=False)
    twin = generator.prepare()
    reference = bench_workloads.reference_state(twin, list(generator.federation_batches(twin)))
    assert bench_workloads.federation_failures(result.state, reference, len(work)) == 0

    events = dict(result.state["events"])
    domain = next(domain for domain, stream in events.items() if stream)
    events[domain] = events[domain][:-1]
    tampered = dict(result.state, events=events)
    assert bench_workloads.federation_failures(tampered, reference, len(work)) == len(work)


def test_changed_counts_or_dataset_fail_every_request():
    first = {
        "seed": 1,
        "attempted": 100,
        "check_ok": True,
        "counts": {"client.requests": 100},
        "digests": {"dataset": "a"},
        "digest_ops": {"dataset": 100},
    }
    drifted = dict(first, counts={"client.requests": 99})
    altered = dict(first, digests={"dataset": "b"})
    broken = dict(first, check_ok=False)
    assert bench_run.account([first, first, drifted, altered, broken]) == [0, 0, 100, 100, 100]
    # Another program seed of a panel is judged against its own first run.
    other_seed = dict(drifted, seed=2)
    assert bench_run.account([first, other_seed, altered, other_seed]) == [0, 0, 100, 0]


def test_panel_metrics_average_each_seeds_median():
    seeds = [bench_workloads.program_seed("pipeline-large", 5, index) for index in range(4)]
    assert seeds == [5, 1_000_005, 2_000_005, 5]
    assert bench_workloads.program_seed("federate-viral-xl", 5, 2) == 5
    runs = [
        {"seed": seed, "setup_s": 1.0, "run_s": run_s, "peak_rss_mb": 100.0}
        for seed, run_s in zip(seeds, [2.0, 6.0, 7.0, 4.0])
    ]
    assert bench_run.end_to_end(runs)["run_s"] == (3.0 + 6.0 + 7.0) / 3


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    root = tracer.add("root", ("a",), 0.0, 10.0)
    tracer.add("left", ("b",), 1.0, 5.0, parent=root["id"])
    tracer.add("right", ("b",), 3.0, 7.0, parent=root["id"])
    tracer.add("both", ("b", "c"), 8.0, 9.0, parent=root["id"])
    layers = tracer.self_times()
    assert layers["a"] == {"self_s": 10.0 - 6.0 - 1.0, "spans": 1}
    assert layers["b"] == {"self_s": 8.0, "spans": 2}
    assert layers["b+c"] == {"self_s": 1.0, "spans": 1}
    assert tracer.self_total("root") == 3.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / "perfbench").mkdir()
    for source in HERE.glob("*.py"):
        shutil.copy(source, tmp_path / "perfbench" / source.name)
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", "crawl-chaos", "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
