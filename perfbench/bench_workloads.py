"""The benchmark's three workloads: one timed run each, in the calling process.

Each workload function takes a :class:`RunContext` and returns one run
record: ``setup_s`` (process start to the first timed call), ``run_s`` (the
timed phase), ``peak_rss_mb``, the operations attempted and failed by the
run's own output check, its deterministic work ``counts``, ``digests`` of
its outputs (compared across runs by ``run.py``) and, in a traced run,
every per-layer metric.  ``bench_child.py`` calls one per fresh process.

* ``pipeline-large`` — the CLI: ``repro.experiments.runner.main`` on the
  ``large`` scenario (generate, 2-day crawl, labelling, the 16
  experiments, the JSON write).  Operations: the 16 experiments.
* ``federate-viral-xl`` — the ``viral`` activity mix at 1,600 Pleroma
  instances through the sharded engine with 2 workers.  Operations: the
  delivery batches, all failed when the merged state differs from the
  single-process engine's.
* ``crawl-chaos`` — a 30-day campaign over the ``chaos`` scenario under
  its ``mixed`` fault profile with the resilient client.  Operations: the
  client's API requests, all failed when the crawl's counts or dataset
  differ from the invocation's first run.

Nothing here imports ``repro.perf``: heap levelling and the transport
timing are the benchmark's own.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from bench_trace import Meter, NullTracer, Patches, Tracer, now, spanned

#: Shard workers of ``federate-viral-xl`` (the host has 2 CPUs).
N_WORKERS = 2

#: Workload -> scale -> the parameters that size it.  ``full`` is what the
#: benchmark measures; ``tiny`` is for the benchmark's own tests.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "pipeline-large": {"full": {"scenario": "large"}, "tiny": {"scenario": "tiny"}},
    "federate-viral-xl": {
        "full": {"n_pleroma_instances": 1600},
        "tiny": {"n_pleroma_instances": 40},
    },
    "crawl-chaos": {
        "full": {},
        "tiny": {"n_pleroma_instances": 40, "campaign_days": 3.0},
    },
}

#: Workload -> how many program seeds one invocation spreads its runs over.
#: ``large`` generates 41k-63k posts depending on the seed and the chaos
#: crawl collects 11k-17k, and run time and memory follow; averaging a panel
#: of inputs keeps one invocation's figures from hanging on one draw.  The
#: viral batch stream varies by about 1%, and its ~3 runs per invocation
#: could not repeat a panel, so every run repeats one seed.
PANELS: dict[str, int] = {"pipeline-large": 3, "federate-viral-xl": 1, "crawl-chaos": 3}

#: Distance between the program seeds of one panel, far beyond any seed a
#: caller passes, so the panels of two workload seeds never share an input.
PANEL_STRIDE = 1_000_000


def program_seed(workload: str, seed: int, index: int) -> int:
    """The program seed of an invocation's ``index``-th run (panels cycle)."""
    return seed + PANEL_STRIDE * (index % PANELS[workload])


#: Workload -> per-layer metric prefixes of the layers it never runs.
#: A traced run reports 0 for those; any other missing metric is a bug.
IDLE_LAYERS: dict[str, tuple[str, ...]] = {
    "pipeline-large": ("shard.",),
    "federate-viral-xl": (
        "api.", "faults.", "client.", "crawl.", "dataset.", "perspective.", "experiment.",
    ),
    "crawl-chaos": ("shard.", "perspective.", "experiment."),
}

#: The API server's transport entry points (what the client calls).
API_METHODS = ("get", "handle_batch", "metadata_round", "stream_timeline")


@dataclass
class RunContext:
    """One run's inputs and the instruments it records into."""

    workload: str
    seed: int
    scale: str
    #: ``CLOCK_MONOTONIC`` stamp taken by the parent just before spawning.
    t0: float
    out_dir: Path
    traced: bool = False
    tracer: Tracer | NullTracer = field(default_factory=NullTracer)
    patches: Patches = field(default_factory=Patches)
    delivery: Meter = field(default_factory=Meter)
    api: Meter = field(default_factory=Meter)
    #: Objects captured from inside the program (pipelines, campaigns).
    captured: dict[str, Any] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    setup_s: float = 0.0
    run_s: float = 0.0
    #: Peak RSS of this process and of its largest reaped child (MiB),
    #: read when the timed phase ends, before any output check runs.
    rss: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.traced:
            self.tracer = Tracer()

    @property
    def size(self) -> dict[str, Any]:
        return SIZES[self.workload][self.scale]

    @contextmanager
    def timed_import(self):
        """Time the first import of ``repro`` (``import.s``, ``import.modules``)."""
        modules = len(sys.modules)
        start = time.perf_counter()
        with self.tracer.span("import", ("repro",)):
            yield
        self.layers["import.s"] = time.perf_counter() - start
        self.layers["import.modules"] = len(sys.modules) - modules

    @contextmanager
    def timed_phase(self, name: str, layers: tuple[str, ...]):
        """The timed region: ``setup_s`` ends and ``run_s`` starts here."""
        self.setup_s = now() - self.t0
        start = time.perf_counter()
        try:
            with self.tracer.span(name, layers):
                yield
        finally:
            self.run_s = time.perf_counter() - start
            self.rss = peak_rss_mb()


def level_heap() -> None:
    """Collect, then freeze the survivors out of later collections.

    Applied only between set-up and the timed phase of workloads whose
    set-up builds a large heap the timed phase merely reads; users of the
    CLI pay GC on every run, so ``pipeline-large`` is never levelled.
    """
    gc.collect()
    gc.freeze()


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, child


def digest(value: Any) -> str:
    """SHA-256 of a JSON-serialisable value in canonical form."""
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def experiment_digests(payload: list[dict]) -> dict[str, str]:
    """Experiment id -> digest of that experiment's runner JSON entry."""
    return {entry["experiment_id"]: digest(entry) for entry in payload}


def payload_problems(payload: list[dict], expected_ids: list[str]) -> list[str]:
    """Structural problems of the runner's JSON (empty when well-formed)."""
    ids = [entry.get("experiment_id") for entry in payload]
    problems = []
    if ids != expected_ids:
        problems.append(f"experiment ids {ids} != {expected_ids}")
    for entry in payload:
        if not isinstance(entry.get("rows"), list):
            problems.append(f"{entry.get('experiment_id')}: rows missing")
    return problems


def dataset_digest(dataset) -> str:
    """Digest of a crawled dataset's headline statistics and moderation edges."""
    return digest(
        {
            "stats": dataset.stats(),
            "instances": sorted(dataset.instances),
            "edges": sorted(repr(edge) for edge in dataset.reject_edges),
        }
    )


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# --------------------------------------------------------------------- #
# Instrumentation for the traced run
# --------------------------------------------------------------------- #
def _capture(ctx: RunContext, key: str) -> Callable[[Callable], Callable]:
    """Wrap a method so the instance it runs on is kept in ``ctx.captured``."""

    def wrapper(fn: Callable) -> Callable:
        def capturing(self, *args, **kwargs):
            ctx.captured.setdefault(key, self)
            return fn(self, *args, **kwargs)

        return capturing

    return wrapper


def instrument_generation(ctx: RunContext) -> None:
    """Spans on generation and a meter on the batched delivery entry point."""
    from repro.activitypub.delivery import FederationDelivery
    from repro.synth.generator import FediverseGenerator

    tracer = ctx.tracer
    ctx.patches.wrap(
        FediverseGenerator, "prepare", spanned(tracer, "synth.prepare", ("synth",))
    )
    # federate() materialises the batch stream while it delivers it: one
    # call spanning two layers, reported as one span naming both.
    ctx.patches.wrap(
        FediverseGenerator,
        "federate",
        spanned(tracer, "synth.federate", ("synth", "delivery")),
    )
    ctx.patches.wrap(
        FederationDelivery,
        "deliver_batch_counted",
        lambda fn: ctx.delivery.wrap(fn, count_items=lambda args: len(args[1])),
    )


def instrument_crawl(ctx: RunContext) -> None:
    """Spans on the campaign phases, a meter on the API server's transport."""
    from repro.api.server import FediverseAPIServer
    from repro.crawler.campaign import MeasurementCampaign

    tracer = ctx.tracer
    for name in API_METHODS:
        ctx.patches.wrap(FediverseAPIServer, name, ctx.api.wrap)
    ctx.patches.wrap(MeasurementCampaign, "crawl", _capture(ctx, "campaign"))
    ctx.patches.wrap(
        MeasurementCampaign, "crawl", spanned(tracer, "crawl.crawl", ("crawler",))
    )
    ctx.patches.wrap(
        MeasurementCampaign,
        "assemble",
        spanned(tracer, "crawl.assemble", ("crawler", "datasets")),
    )


def instrument_analysis(ctx: RunContext) -> None:
    """Spans on the corpus scan and on every experiment's run function."""
    from repro.experiments.registry import EXPERIMENTS
    from repro.perspective.corpus import CorpusColumns

    tracer = ctx.tracer

    def corpus_span(fn: Callable) -> Callable:
        def extend(self, texts):
            with tracer.span("perspective.corpus", ("perspective",)) as record:
                added = fn(self, texts)
                record["attrs"]["texts"] = added
            return added

        return extend

    ctx.patches.wrap(CorpusColumns, "extend", corpus_span)
    for experiment_id, run in EXPERIMENTS.items():
        module = sys.modules[run.__module__]
        ctx.patches.wrap(
            module,
            "run",
            spanned(tracer, f"experiment.{experiment_id}", ("core", "experiments")),
        )


def generation_layers(ctx: RunContext, stats, delivery) -> None:
    """``synth.*`` and ``delivery.*`` from a federate() run in this process."""
    layers = ctx.layers
    tracer = ctx.tracer
    meter = ctx.delivery
    federate_s = tracer.total("synth.federate")
    layers["synth.prepare_s"] = tracer.total("synth.prepare")
    # The materialising half of federate(): its span minus delivery time.
    layers["synth.materialise_s"] = federate_s - meter.busy
    layers["synth.posts"] = stats.posts
    layers["synth.batches"] = meter.calls
    layers["synth.activities"] = meter.items
    layers["delivery.federate_s"] = meter.busy
    layers["delivery.deliveries"] = stats.federated_deliveries
    layers["delivery.rejected"] = stats.rejected_deliveries
    layers["delivery.fastpath_share"] = share(
        delivery.batch_rejects + delivery.batch_rewrites, meter.calls
    )


def crawl_layers(ctx: RunContext, campaign, result) -> None:
    """``api.*``, ``faults.*``, ``client.*``, ``crawl.*`` and ``dataset.*``."""
    counts = crawl_counts(campaign, result)
    api = ctx.api
    ctx.layers.update(
        {
            "api.calls": api.calls,
            "api.busy_s": api.busy,
            "api.call_p50_ms": api.percentile_ms(0.50),
            "api.call_p99_ms": api.percentile_ms(0.99),
            "api.call_samples": len(api.samples),
            "client.retry_share": share(counts["client.retries"], counts["client.requests"]),
            "crawl.crawl_s": ctx.tracer.total("crawl.crawl"),
            "crawl.assemble_s": ctx.tracer.total("crawl.assemble"),
            "crawl.rounds": campaign.config.snapshot_rounds,
            "crawl.salvage_share": share(
                counts["crawl.round_salvaged"], counts["crawl.round_retried"]
            ),
        }
    )
    for name in (
        "faults.injected", "client.requests", "client.retries", "client.short_circuited",
        "client.failed", "crawl.snapshots", "dataset.instances", "dataset.posts",
    ):
        ctx.layers[name] = counts[name]


def crawl_counts(campaign, result) -> dict[str, int]:
    """The crawl's deterministic work counts."""
    client = campaign.client.stats
    fault_stats = getattr(campaign.transport, "stats", None)
    return {
        "client.requests": client.requests,
        "client.failed": client.failed,
        "client.retries": client.retries,
        "client.short_circuited": client.short_circuited,
        "faults.injected": fault_stats.total if fault_stats is not None else 0,
        "crawl.snapshots": sum(result.snapshot_counts.values()),
        "crawl.round_retried": campaign.round_retried,
        "crawl.round_salvaged": campaign.round_salvaged,
        "dataset.instances": len(result.dataset.instances),
        "dataset.posts": len(result.dataset.posts),
        "dataset.moderation_edges": len(result.dataset.reject_edges),
    }


# --------------------------------------------------------------------- #
# pipeline-large
# --------------------------------------------------------------------- #
def pipeline_large(ctx: RunContext) -> dict[str, Any]:
    """The paper pipeline exactly as the CLI runs it."""
    with ctx.timed_import():
        from repro.experiments import runner
        from repro.experiments.pipeline import ReproPipeline
        from repro.experiments.registry import EXPERIMENTS

    # Keep the CLI's pipeline object so its counts can be read afterwards;
    # the wrapper runs once per invocation, so it costs nothing measurable.
    ctx.patches.wrap(ReproPipeline, "__init__", _capture(ctx, "pipeline"))
    if ctx.traced:
        instrument_generation(ctx)
        instrument_crawl(ctx)
        instrument_analysis(ctx)

    json_path = ctx.out_dir / f"pipeline-{os.getpid()}.json"
    argv = [
        "--scenario", ctx.size["scenario"],
        "--seed", str(ctx.seed),
        "--json", str(json_path),
    ]
    expected = list(EXPERIMENTS)
    error = None
    with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
        try:
            with ctx.timed_phase("runner.main", ("experiments",)):
                code = runner.main(argv)
            if code != 0:
                error = f"runner exited with {code}"
        except Exception:  # noqa: BLE001 - an experiment raising fails the run
            error = traceback.format_exc()
    ctx.patches.restore()

    problems = [error] if error else []
    digests: dict[str, str] = {}
    counts: dict[str, int] = {}
    if not problems:
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        problems = payload_problems(payload, expected)
        digests = experiment_digests(payload)
    json_path.unlink(missing_ok=True)

    pipeline = ctx.captured.get("pipeline")
    fediverse = pipeline.__dict__.get("fediverse") if pipeline else None
    crawl = pipeline.__dict__.get("crawl") if pipeline else None
    if fediverse is not None and crawl is not None:
        stats = fediverse.stats
        counts = {
            "synth.posts": stats.posts,
            "delivery.deliveries": stats.federated_deliveries,
            "delivery.rejected": stats.rejected_deliveries,
            "delivery.batch_rejects": fediverse.delivery.batch_rejects,
            "delivery.batch_rewrites": fediverse.delivery.batch_rewrites,
            "client.requests": crawl.api_requests,
            "crawl.snapshots": sum(crawl.snapshot_counts.values()),
            "dataset.instances": len(crawl.dataset.instances),
            "dataset.posts": len(crawl.dataset.posts),
            "dataset.moderation_edges": len(crawl.dataset.reject_edges),
        }
        if ctx.traced:
            generation_layers(ctx, stats, fediverse.delivery)
            crawl_layers(ctx, ctx.captured["campaign"], crawl)
            ctx.layers["perspective.corpus_s"] = ctx.tracer.total("perspective.corpus")
            ctx.layers["perspective.texts"] = sum(
                s["attrs"].get("texts", 0)
                for s in ctx.tracer.spans
                if s["name"] == "perspective.corpus"
            )
            for experiment_id in expected:
                # Self time: the first experiment to touch the pipeline
                # also triggers generation and the crawl, nested inside it.
                ctx.layers[f"experiment.{experiment_id}_s"] = ctx.tracer.self_total(
                    f"experiment.{experiment_id}"
                )
    elif not problems:
        problems.append("the CLI built no pipeline")

    return {
        "attempted": len(expected),
        # Any structural problem fails every experiment; a differing
        # experiment digest fails that experiment (judged in run.py).
        "check_ok": not problems,
        "problems": problems,
        "counts": counts,
        "digests": digests,
        "digest_ops": {experiment_id: 1 for experiment_id in expected},
    }


# --------------------------------------------------------------------- #
# federate-viral-xl
# --------------------------------------------------------------------- #
def reference_state(prepared, work) -> dict[str, Any]:
    """The single-process engine's federation state for the same stream."""
    from repro.activitypub.delivery import FederationDelivery
    from repro.mrf.shared import clear_shared_state
    from repro.shard.state import federation_state

    delivery = FederationDelivery(prepared.registry, sinks=[])
    stats = prepared.stats
    try:
        for batch in work:
            delivered, rejected = delivery.deliver_batch_counted(
                batch.activities, batch.target_domain
            )
            stats.federated_deliveries += delivered
            stats.rejected_deliveries += rejected
    finally:
        clear_shared_state()
    return federation_state(prepared, delivery.stats)


def federation_failures(state: dict[str, Any], reference: dict[str, Any], batches: int) -> int:
    """Failed batches: all of them when the merged state differs at all."""
    return 0 if state == reference else batches


def instrument_shards(ctx: RunContext) -> None:
    """Spans on partitioning and, inside each shard, on delivery.

    Shard workers are forked, so their delivery meter lives in the worker;
    each worker writes its meter to ``out_dir`` when it captures its
    shard, and the coordinator turns the files into spans afterwards.
    """
    from repro.activitypub.delivery import FederationDelivery
    from repro.shard import engine

    tracer = ctx.tracer
    meter = ctx.delivery
    ctx.patches.wrap(
        engine, "partition_batches", spanned(tracer, "shard.partition", ("shard",))
    )
    ctx.patches.wrap(
        FederationDelivery,
        "deliver_batch_counted",
        lambda fn: meter.wrap(fn, count_items=lambda args: len(args[1])),
    )
    out_dir = ctx.out_dir
    parent_pid = os.getpid()

    def capture_with_record(fn: Callable) -> Callable:
        def capture_shard(shard, *args, **kwargs):
            start = now()
            result = fn(shard, *args, **kwargs)
            record = {
                "shard": shard,
                "pid": os.getpid(),
                "deliver_start": meter.first if meter.first is not None else start,
                "deliver_end": meter.last if meter.last is not None else start,
                "calls": meter.calls,
                "activities": meter.items,
                "busy": meter.busy,
                "capture_start": start,
                "capture_end": now(),
            }
            path = out_dir / f"shard-{parent_pid}-{shard}.json"
            path.write_text(json.dumps(record), encoding="utf-8")
            meter.reset()
            return result

        return capture_shard

    ctx.patches.wrap(engine, "capture_shard", capture_with_record)


def shard_spans(ctx: RunContext, parent: int | None) -> list[dict]:
    """Read the shard workers' records back and add them as spans."""
    records = []
    for path in sorted(ctx.out_dir.glob(f"shard-{os.getpid()}-*.json")):
        records.append(json.loads(path.read_text(encoding="utf-8")))
        path.unlink()
    for record in records:
        ctx.tracer.add(
            "delivery.federate",
            ("delivery", "mrf"),
            record["deliver_start"],
            record["deliver_end"],
            pid=record["pid"],
            parent=parent,
            shard=record["shard"],
            batches=record["calls"],
            activities=record["activities"],
            busy_s=record["busy"],
        )
        ctx.tracer.add(
            "shard.capture",
            ("shard",),
            record["capture_start"],
            record["capture_end"],
            pid=record["pid"],
            parent=parent,
            shard=record["shard"],
        )
    return records


def federate_viral_xl(ctx: RunContext) -> dict[str, Any]:
    """The sharded engine on the viral activity mix at xlarge population."""
    with ctx.timed_import():
        from repro.shard import engine
        from repro.synth.generator import FediverseGenerator
        from repro.synth.scenario import scenario_config

    config = scenario_config("viral", seed=ctx.seed, **ctx.size)
    generator = FediverseGenerator(config)
    tracer = ctx.tracer
    with tracer.span("synth.prepare", ("synth",)):
        prepared = generator.prepare()
    with tracer.span("synth.materialise", ("synth",)):
        work = list(generator.federation_batches(prepared))
    if ctx.traced:
        instrument_shards(ctx)
    level_heap()
    with ctx.timed_phase("shard.federate", ("shard",)):
        result = engine.federate_sharded(prepared, work, N_WORKERS)
    gc.unfreeze()
    ctx.patches.restore()
    worker_rss = ctx.rss[1]

    batches = len(work)
    activities = sum(len(batch.activities) for batch in work)
    if ctx.traced:
        root = next(s["id"] for s in tracer.spans if s["name"] == "shard.federate")
        records = shard_spans(ctx, root)
        layers = ctx.layers
        layers["synth.prepare_s"] = tracer.total("synth.prepare")
        layers["synth.materialise_s"] = tracer.total("synth.materialise")
        layers["synth.posts"] = prepared.stats.posts
        layers["synth.batches"] = batches
        layers["synth.activities"] = activities
        layers["delivery.federate_s"] = sum(record["busy"] for record in records)
        layers["delivery.deliveries"] = result.delivered
        layers["delivery.rejected"] = result.rejected
        layers["delivery.fastpath_share"] = share(
            result.batch_rejects + result.batch_rewrites, result.batches
        )
        layers["shard.partition_s"] = tracer.total("shard.partition")
        layers["shard.federate_s"] = tracer.total("shard.federate")
        layers["shard.slice_bytes"] = slice_bytes(work)

    # The single-process reference, outside every timed region.  Fork mode
    # leaves the coordinator's registry untouched; inline mode delivered
    # into it, so the reference needs a fresh twin.
    with tracer.span("bench.check", ("bench",)):
        if result.mode != "fork":
            prepared = generator.prepare()
            work = list(generator.federation_batches(prepared))
        reference = reference_state(prepared, work)
        failed = federation_failures(result.state, reference, batches)

    mean = sum(result.shard_batches) / len(result.shard_batches)
    layers = ctx.layers
    layers["shard.forked_workers"] = result.n_workers if result.mode == "fork" else 0
    layers["shard.skew"] = max(result.shard_batches) / mean if mean else 0.0
    layers["shard.worker_peak_rss_mb"] = worker_rss if result.mode == "fork" else 0.0
    return {
        "attempted": batches,
        "check_ok": failed == 0,
        "problems": [] if failed == 0 else ["merged state differs from the single-process engine"],
        "counts": {
            "synth.posts": prepared.stats.posts,
            "synth.batches": batches,
            "synth.activities": activities,
            "delivery.deliveries": result.delivered,
            "delivery.rejected": result.rejected,
            "delivery.batch_rejects": result.batch_rejects,
            "delivery.batch_rewrites": result.batch_rewrites,
            "shard.batches": list(result.shard_batches),
        },
        "digests": {},
        "digest_ops": {},
        "shard_mode": result.mode,
    }


def slice_bytes(work) -> int:
    """Pickled size of the batch slices the coordinator ships to workers."""
    from multiprocessing.reduction import ForkingPickler

    from repro.shard.partition import partition_batches

    return sum(
        len(ForkingPickler.dumps(part)) for part in partition_batches(work, N_WORKERS)
    )


# --------------------------------------------------------------------- #
# crawl-chaos
# --------------------------------------------------------------------- #
def crawl_chaos(ctx: RunContext) -> dict[str, Any]:
    """A 30-day campaign over the chaos scenario, faults and resilience on."""
    with ctx.timed_import():
        from repro.crawler.campaign import CampaignConfig, MeasurementCampaign
        from repro.faults import ResilienceConfig
        from repro.synth.scenario import build_scenario

    if ctx.traced:
        instrument_generation(ctx)
        instrument_crawl(ctx)
    with ctx.tracer.span("synth.build_scenario", ("synth",)):
        fediverse = build_scenario("chaos", seed=ctx.seed, **ctx.size)
    config = CampaignConfig(
        duration_days=fediverse.config.campaign_days,
        snapshot_interval_hours=fediverse.config.snapshot_interval_hours,
    )
    fault_spec = fediverse.fault_spec()
    level_heap()
    with ctx.timed_phase("crawl.campaign", ("crawler",)):
        campaign = MeasurementCampaign(
            fediverse.registry,
            config,
            faults=fault_spec,
            resilience=ResilienceConfig.default(),
        )
        result = campaign.run()
    gc.unfreeze()
    ctx.patches.restore()

    counts = crawl_counts(campaign, result)
    counts["synth.posts"] = fediverse.stats.posts
    counts["delivery.deliveries"] = fediverse.stats.federated_deliveries
    problems = []
    if result.api_requests != campaign.client.stats.requests:
        problems.append("campaign and client disagree on the request count")
    if not result.dataset.posts:
        problems.append("the crawl collected no posts")
    if ctx.traced:
        generation_layers(ctx, fediverse.stats, fediverse.delivery)
        crawl_layers(ctx, campaign, result)
    return {
        "attempted": campaign.client.stats.requests,
        "check_ok": not problems,
        "problems": problems,
        "counts": counts,
        "digests": {"dataset": dataset_digest(result.dataset)},
        "digest_ops": {"dataset": campaign.client.stats.requests},
        # Injected faults fail requests by design; reported, not gated.
        "client_failed": campaign.client.stats.failed,
    }


WORKLOADS: dict[str, Callable[[RunContext], dict[str, Any]]] = {
    "pipeline-large": pipeline_large,
    "federate-viral-xl": federate_viral_xl,
    "crawl-chaos": crawl_chaos,
}


def run_workload(ctx: RunContext) -> dict[str, Any]:
    """Run one workload and return its complete run record."""
    record = WORKLOADS[ctx.workload](ctx)
    record.update(
        workload=ctx.workload,
        seed=ctx.seed,
        scale=ctx.scale,
        traced=ctx.traced,
        setup_s=ctx.setup_s,
        run_s=ctx.run_s,
        peak_rss_mb=max(ctx.rss),
        layers=ctx.layers,
    )
    record.setdefault("shard_mode", "none")
    if ctx.traced:
        record["spans"] = ctx.tracer.spans
        record["self_times"] = ctx.tracer.self_times()
    return record
