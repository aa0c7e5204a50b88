"""The measurement campaign: the paper's Section 3 methodology end-to-end.

A campaign discovers instances through a directory, expands the instance set
through the Peers API, snapshots every Pleroma instance's metadata on a
fixed interval over the campaign window (four hours in the paper), collects
public timelines, and finally assembles the analysis dataset.

Since the batched crawl engine, every phase emits per-round domain batches
through the API layer's batch entry points (one instance resolution and
availability check per domain per group, fused snapshot follow-ups,
server-side timeline streams), and crawl events flow through pluggable
:class:`CrawlSink`\\ s — the seed-compatible :class:`CrawlResult` assembly is
the default, while :class:`CountingCrawlSink` (via :meth:`MeasurementCampaign.run_counted`)
observes a campaign in O(1) memory, mirroring the delivery engine's sinks.

One class runs the crawl at any client fan-out:
``MeasurementCampaign(..., threads=N)`` splits each phase's sorted domain
list across N worker clients and merges their outputs in slice order, so
the result is bit-identical at every thread count; the default
``threads=1`` is the plain sequential crawl.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.api.client import APIClient
from repro.api.server import FediverseAPIServer, RequestExecutor
from repro.crawler.builder import build_dataset
from repro.crawler.crawler import PEERS_PATH, InstanceCrawler, TimelineCrawler
from repro.crawler.directory import InstanceDirectory
from repro.crawler.snapshots import CrawlFailure, InstanceSnapshot, TimelineCollection
from repro.datasets.store import Dataset
from repro.faults.plan import FaultPlan, FaultSpec, compile_for_campaign
from repro.faults.retry import ResilienceConfig
from repro.fediverse.registry import FediverseRegistry


@dataclass
class CampaignConfig:
    """Parameters of one measurement campaign."""

    #: Length of the campaign window, in days (paper: ~129 days).
    duration_days: float = 14.0
    #: Metadata snapshot interval, in hours (paper: 4 hours).
    snapshot_interval_hours: float = 4.0
    #: Page size used against the Timeline API.
    timeline_page_size: int = 40
    #: Cap on posts collected per instance (``None`` = collect everything).
    max_posts_per_instance: int | None = None
    #: Directory coverage of the Pleroma instance population.
    directory_coverage: float = 0.95
    #: Whether to keep every snapshot (memory-heavy) or only the latest.
    keep_all_snapshots: bool = False

    def __post_init__(self) -> None:
        if self.duration_days <= 0:
            raise ValueError("duration_days must be positive")
        if self.snapshot_interval_hours <= 0:
            raise ValueError("snapshot_interval_hours must be positive")

    @property
    def snapshot_rounds(self) -> int:
        """Return how many snapshot rounds the window contains."""
        return max(1, int(self.duration_days * 24 / self.snapshot_interval_hours))


@dataclass
class CrawlResult:
    """Everything a campaign produces."""

    dataset: Dataset
    latest_snapshots: dict[str, InstanceSnapshot] = field(default_factory=dict)
    snapshot_counts: dict[str, int] = field(default_factory=dict)
    all_snapshots: list[InstanceSnapshot] = field(default_factory=list)
    timelines: list[TimelineCollection] = field(default_factory=list)
    failures: list[CrawlFailure] = field(default_factory=list)
    discovered_domains: set[str] = field(default_factory=set)
    pleroma_domains: set[str] = field(default_factory=set)
    first_seen: dict[str, float] = field(default_factory=dict)
    api_requests: int = 0

    @property
    def crawlable_pleroma(self) -> int:
        """Return how many Pleroma instances answered the metadata API."""
        return len(self.latest_snapshots)

    @property
    def degraded_domains(self) -> set[str]:
        """Domains whose metadata was snapshotted but whose timeline failed.

        The graceful-degradation set: a partial crawl record was salvaged
        (the snapshot is kept, the timeline marked unreachable) instead of
        the domain being dropped.  Derived from the retained collections,
        so it is identical across crawl engines by construction.
        """
        return {
            collection.domain
            for collection in self.timelines
            if not collection.reachable
            and collection.domain in self.latest_snapshots
        }

    @property
    def failure_status_breakdown(self) -> dict[int, int]:
        """Return counts of the final failure status per uncrawlable domain."""
        last: dict[str, int] = {}
        for failure in self.failures:
            last[failure.domain] = failure.status_code
        breakdown: dict[int, int] = {}
        for domain, status in last.items():
            if domain in self.latest_snapshots:
                continue
            breakdown[status] = breakdown.get(status, 0) + 1
        return breakdown


def assemble_result(result: CrawlResult) -> CrawlResult:
    """Build the analysis dataset from a finished crawl.

    The single assembly point shared by :meth:`MeasurementCampaign.assemble`,
    the seed-faithful baseline and the perf harness — every
    :class:`CrawlResult` field the dataset depends on is threaded through
    here exactly once.
    """
    result.dataset = build_dataset(
        snapshots=result.latest_snapshots,
        timelines=result.timelines,
        failures=result.failures,
        snapshot_counts=result.snapshot_counts,
        first_seen=result.first_seen,
        discovered_domains=result.discovered_domains,
    )
    return result


# --------------------------------------------------------------------- #
# Crawl sinks
# --------------------------------------------------------------------- #
class CrawlSink(ABC):
    """Consumer of crawl events, in crawl order.

    Mirrors the delivery engine's sinks: the campaign notifies every sink
    of each metadata snapshot, recorded failure and timeline collection as
    it happens, so observers can choose how much state to materialise —
    the seed-compatible :class:`CrawlResult` retains everything, while
    :class:`CountingCrawlSink` keeps aggregates only.
    """

    def on_snapshot(self, round_index: int, snapshot: InstanceSnapshot) -> None:
        """Observe one metadata snapshot (after peer-list carry-forward)."""

    def on_failure(self, failure: CrawlFailure) -> None:
        """Observe one recorded crawl failure."""

    def on_timeline(self, collection: TimelineCollection) -> None:
        """Observe one collected timeline."""


class CountingCrawlSink(CrawlSink):
    """Keep aggregate campaign counters only — O(1) memory at any scale."""

    def __init__(self) -> None:
        self.snapshots = 0
        self.failures = 0
        self.failures_by_status: dict[int, int] = {}
        self.timelines = 0
        self.unreachable_timelines = 0
        self.posts = 0

    def on_snapshot(self, round_index: int, snapshot: InstanceSnapshot) -> None:
        """Count the snapshot."""
        self.snapshots += 1

    def on_failure(self, failure: CrawlFailure) -> None:
        """Count the failure, by status code."""
        self.failures += 1
        self.failures_by_status[failure.status_code] = (
            self.failures_by_status.get(failure.status_code, 0) + 1
        )

    def on_timeline(self, collection: TimelineCollection) -> None:
        """Count the collection and its posts."""
        self.timelines += 1
        if collection.reachable:
            self.posts += collection.post_count
        else:
            self.unreachable_timelines += 1


class MeasurementCampaign:
    """Run the full Section-3 measurement over a simulated fediverse.

    ``threads`` crawler workers share one thread-safe
    :class:`~repro.api.server.FediverseAPIServer`.  Each worker owns its own
    :class:`~repro.api.client.APIClient`,
    :class:`~repro.crawler.crawler.InstanceCrawler` (private template cache
    and failure log) and :class:`~repro.crawler.crawler.TimelineCrawler`.
    Every phase partitions its sorted domain list into contiguous slices
    (:func:`_partition`), one per worker, and runs them on a
    :class:`~repro.api.server.RequestExecutor` scoped to the crawl; with
    one thread the executor runs the single slice inline.  The main thread
    alone advances the simulation clock and keeps the campaign bookkeeping
    (first-seen stamps, peer carry-forward, the retry queue, sink emission).

    Determinism contract: concatenating contiguous slices of a sorted list
    in slice order *is* the sorted list, so snapshots, failures (contents
    and order), timelines, request accounting and the assembled dataset
    are bit-identical at every thread count.  Failures are harvested from
    the workers after each phase and emitted before that round's
    snapshots, so sinks see the same event stream at every thread count.

    Faults and resilience need ``threads=1``: a retrying client advances
    the shared simulated clock, which has no deterministic equivalent when
    several worker threads do it at once.
    """

    def __init__(
        self,
        registry: FediverseRegistry,
        config: CampaignConfig | None = None,
        server: FediverseAPIServer | None = None,
        directory: InstanceDirectory | None = None,
        sinks: Sequence[CrawlSink] | None = None,
        faults: FaultSpec | FaultPlan | None = None,
        resilience: ResilienceConfig | None = None,
        threads: int = 1,
    ) -> None:
        if threads < 1:
            raise ValueError("threads must be at least 1")
        if threads > 1 and (faults is not None or resilience is not None):
            raise ValueError("faults and resilience need threads=1")
        self.registry = registry
        self.config = config or CampaignConfig()
        self.threads = threads
        #: The server, or a wrapper sharing its transport interface (the
        #: load harness passes a latency-recording proxy here).
        self.server = server or FediverseAPIServer(registry)
        if isinstance(faults, FaultSpec):
            faults = compile_for_campaign(faults, registry, self.config.duration_days)
        self.fault_plan = faults
        #: The transport the clients talk to: the server itself for a
        #: ``None``/inert plan, a
        #: :class:`~repro.faults.injector.FaultInjector` otherwise.
        self.transport = faults.wrap(self.server) if faults is not None else self.server
        self.resilience = resilience
        retry_policy = resilience.retry_policy if resilience is not None else None
        self.directory = directory or InstanceDirectory(
            registry, coverage=self.config.directory_coverage
        )
        self.clients = [
            APIClient(self.transport, retry=retry_policy) for _ in range(threads)
        ]
        #: Worker 0's client — the only client at ``threads=1``.
        self.client = self.clients[0]
        self.instance_crawlers = [InstanceCrawler(client) for client in self.clients]
        self.timeline_crawlers = [
            TimelineCrawler(client, page_size=self.config.timeline_page_size)
            for client in self.clients
        ]
        self.sinks: list[CrawlSink] = list(sinks or [])
        #: Domains re-snapshotted by the per-round retry queue, and how
        #: many of those second passes produced a snapshot.  Campaign-side
        #: bookkeeping (not part of :class:`CrawlResult`) read by the
        #: chaos bench.
        self.round_retried = 0
        self.round_salvaged = 0

    def add_sink(self, sink: CrawlSink) -> None:
        """Attach another sink to the campaign."""
        self.sinks.append(sink)

    # ------------------------------------------------------------------ #
    # Sink notification (main thread only)
    # ------------------------------------------------------------------ #
    def _emit_snapshot(self, round_index: int, snapshot: InstanceSnapshot) -> None:
        for sink in self.sinks:
            sink.on_snapshot(round_index, snapshot)

    def _emit_failure(self, failure: CrawlFailure) -> None:
        for sink in self.sinks:
            sink.on_failure(failure)

    def _emit_timeline(self, collection: TimelineCollection) -> None:
        for sink in self.sinks:
            sink.on_timeline(collection)

    def _harvest_failures(self, result: CrawlResult) -> list[CrawlFailure]:
        """Move every worker's new failures into the result, in slice order.

        Each worker records its slice's failures in domain order, so
        harvesting worker by worker concatenates them back into the
        sorted-domain order.  The harvested failures are emitted to the
        sinks and returned (the retry queue reads them).
        """
        new: list[CrawlFailure] = []
        for crawler in self.instance_crawlers:
            new.extend(crawler.failures)
            crawler.failures.clear()
        result.failures.extend(new)
        if self.sinks:
            for failure in new:
                self._emit_failure(failure)
        return new

    # ------------------------------------------------------------------ #
    # Campaign phases
    # ------------------------------------------------------------------ #
    def _fan_out(
        self,
        executor: RequestExecutor,
        workers: Sequence[Any],
        domains: Sequence[str],
        work: Callable[[Any, list[str]], Any],
    ) -> list[Any]:
        """Run ``work(worker, slice)`` for each worker on its contiguous
        slice of ``domains``; results come back in slice order."""
        return executor.run(
            [
                (lambda worker=worker, part=part: work(worker, part))
                for worker, part in zip(workers, _partition(domains, self.threads))
            ]
        )

    def _discover(self, executor: RequestExecutor) -> tuple[set[str], set[str]]:
        """Phase 1: discover Pleroma instances and every peer they name.

        Returns ``(pleroma_domains, all_known_domains)``.
        """
        pleroma_domains = set(self.directory.pleroma_instances())
        all_domains: set[str] = set(pleroma_domains)

        def fetch_peers(client: APIClient, part: list[str]) -> set[str]:
            found: set[str] = set()
            for domain in part:
                response = client.get_many(domain, (PEERS_PATH,))[0]
                if response.ok:
                    found.update(response.body)
            return found

        for found in self._fan_out(
            executor, self.clients, sorted(pleroma_domains), fetch_peers
        ):
            all_domains |= found
        return pleroma_domains, all_domains

    def _snapshot_round(
        self,
        executor: RequestExecutor,
        domains: list[str],
        now: float,
        fetch_peers: bool,
    ) -> dict[str, InstanceSnapshot]:
        """Phase 2 (one round): snapshot every domain's metadata.

        Each worker emits its slice as per-domain batches through the crawl
        engine — one request group per instance.
        """
        merged: dict[str, InstanceSnapshot] = {}
        for snapshots in self._fan_out(
            executor,
            self.instance_crawlers,
            domains,
            lambda crawler, part: crawler.snapshot_many(
                part, now, fetch_peers=fetch_peers
            ),
        ):
            merged.update(snapshots)
        return merged

    def _collect_timelines(
        self, executor: RequestExecutor, domains: list[str], now: float
    ) -> Iterable[TimelineCollection]:
        """Phase 3: collect public posts from every snapshotted instance.

        With one thread this is the single crawler's lazy stream, so
        :meth:`run_counted` keeps flat memory; with more, each worker
        materialises its slice so the collection runs in parallel.
        """

        def collect(
            crawler: TimelineCrawler, part: list[str]
        ) -> Iterator[TimelineCollection]:
            return crawler.collect_many(
                part, now, local_only=True, max_posts=self.config.max_posts_per_instance
            )

        if self.threads == 1:
            return collect(self.timeline_crawlers[0], domains)
        return chain.from_iterable(
            self._fan_out(
                executor,
                self.timeline_crawlers,
                domains,
                lambda crawler, part: list(collect(crawler, part)),
            )
        )

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def crawl(self) -> CrawlResult:
        """Run discovery, the snapshot rounds and timeline collection.

        The returned result's dataset is left empty; :meth:`assemble`
        builds it (and :meth:`run` does both — dataset assembly is kept
        separate so the perf harness can time the crawl itself against the
        seed loop without the shared dataset-building cost).
        """
        return self._crawl_phases(retain_timelines=True)

    def assemble(self, result: CrawlResult) -> CrawlResult:
        """Build the analysis dataset from a finished crawl."""
        return assemble_result(result)

    def run(self) -> CrawlResult:
        """Run discovery, the snapshot rounds, timeline collection and build
        the dataset."""
        return self.assemble(self.crawl())

    def run_counted(self) -> CountingCrawlSink:
        """Run the campaign keeping aggregate counters only.

        The crawl-side analogue of the delivery engine's counting mode:
        every timeline collection is dropped as soon as the sinks have
        seen it and no dataset is assembled, so at ``threads=1`` the
        campaign's memory footprint stays flat regardless of how many
        posts it crawls.
        """
        sink = CountingCrawlSink()
        self.sinks.append(sink)
        try:
            self._crawl_phases(retain_timelines=False)
        finally:
            self.sinks.remove(sink)
        return sink

    def _retry_round(
        self,
        executor: RequestExecutor,
        snapshots: dict[str, InstanceSnapshot],
        round_failures: list[CrawlFailure],
        pleroma_domains: set[str],
        now: float,
        fetch_peers: bool,
    ) -> None:
        """Give a round's fault-stricken domains one more snapshot pass.

        The retry queue holds exactly the domains whose metadata failure
        this round was *fault-attributed* (non-empty ``fault_kind``) — an
        injected outage, not the instance's own permanent error — and that
        produced no snapshot.  With a zero-fault transport no failure
        carries an attribution, so the queue is provably always empty.
        """
        queue = sorted(
            {
                failure.domain
                for failure in round_failures
                if failure.fault_kind
                and failure.domain not in snapshots
                and failure.domain in pleroma_domains
            }
        )
        if not queue:
            return
        self.round_retried += len(queue)
        salvaged = self._snapshot_round(executor, queue, now, fetch_peers)
        self.round_salvaged += len(salvaged)
        snapshots.update(salvaged)

    def _crawl_phases(self, retain_timelines: bool) -> CrawlResult:
        clock = self.registry.clock
        result = CrawlResult(dataset=Dataset())
        interval = self.config.snapshot_interval_hours * 3600.0
        keep_all = self.config.keep_all_snapshots
        round_retry = self.resilience is not None and self.resilience.round_retry
        first_seen = result.first_seen

        with RequestExecutor(self.threads) as executor:
            pleroma_domains, all_domains = self._discover(executor)
            result.pleroma_domains = pleroma_domains
            result.discovered_domains = all_domains
            sorted_pleroma = sorted(pleroma_domains)

            for round_index in range(self.config.snapshot_rounds):
                now = clock.now()
                # Peer lists are large and barely change; fetching them on
                # the first round only mirrors how the paper's crawler was run.
                fetch_peers = round_index == 0
                snapshots = self._snapshot_round(
                    executor, sorted_pleroma, now, fetch_peers
                )
                round_failures = self._harvest_failures(result)
                if round_retry:
                    self._retry_round(
                        executor,
                        snapshots,
                        round_failures,
                        pleroma_domains,
                        now,
                        fetch_peers,
                    )
                    self._harvest_failures(result)
                for domain, snapshot in snapshots.items():
                    first_seen.setdefault(domain, now)
                    previous = result.latest_snapshots.get(domain)
                    if previous is not None and not snapshot.peers:
                        snapshot.peers = previous.peers
                    result.latest_snapshots[domain] = snapshot
                    result.snapshot_counts[domain] = (
                        result.snapshot_counts.get(domain, 0) + 1
                    )
                    if keep_all:
                        result.all_snapshots.append(snapshot)
                    if self.sinks:
                        self._emit_snapshot(round_index, snapshot)
                clock.advance(interval)

            for collection in self._collect_timelines(
                executor, sorted(result.latest_snapshots), clock.now()
            ):
                if retain_timelines:
                    result.timelines.append(collection)
                if self.sinks:
                    self._emit_timeline(collection)
        result.api_requests = sum(client.stats.requests for client in self.clients)
        return result


def _partition(items: Sequence, parts: int) -> list[list]:
    """Split ``items`` into ``parts`` contiguous, near-equal slices.

    Contiguity is the campaign's whole determinism story: each worker
    crawls one slice of the round's *sorted* domain list, and
    concatenating the per-slice outputs in slice order reproduces the
    sorted order exactly.  Leading slices get the remainder, so slice
    sizes differ by at most one.
    """
    if parts < 1:
        raise ValueError("parts must be at least 1")
    items = list(items)
    base, extra = divmod(len(items), parts)
    slices = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        slices.append(items[start : start + size])
        start += size
    return slices
