"""Multi-client load generation against the concurrent serving layer.

:func:`run_load` drives N concurrent crawler clients — a full
:class:`~repro.crawler.campaign.MeasurementCampaign` with ``threads=N`` —
against a shared :class:`~repro.api.server.FediverseAPIServer`, recording
the wall-clock latency of every transport call through a
:class:`LatencyRecordingTransport` proxy passed to the campaign as its
``server``, and reports latency percentiles (p50/p95/p99), tail
amplification and throughput next to the merged
:class:`~repro.crawler.campaign.CrawlResult`.

Clocks: the *simulation* clock never advances during a request (a batch
models one instant), so request latency is meaningless in simulated time —
every latency sample here is **wall-clock** ``time.perf_counter`` seconds
around one transport call, while campaign semantics (snapshot rounds,
availability flips) keep running on the simulated clock.  One sample per
*transport call*, not per accounted API request: a batch of 40 metadata
requests served in one call is one latency sample covering 40 requests,
which is exactly the latency a batched crawler client observes.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Sequence

from repro.api.http import HTTPRequest, HTTPResponse
from repro.api.server import FediverseAPIServer, TimelineStream
from repro.crawler.campaign import CampaignConfig, CrawlResult, MeasurementCampaign
from repro.fediverse.registry import FediverseRegistry


class LatencyRecordingTransport:
    """A transparent server proxy timing every transport call.

    Mirrors the transport surface the crawler clients use (``get``,
    ``handle_batch``, ``metadata_round``, ``stream_timeline`` and the
    ``registry`` attribute — the same interface the fault injector wraps),
    delegating to the real server and recording one wall-clock sample per
    call under a lock, with the number of accounted API requests the call
    served.
    """

    def __init__(self, server: FediverseAPIServer) -> None:
        self.server = server
        self.registry = server.registry
        self._lock = threading.Lock()
        #: Wall-clock seconds of every transport call, in completion order.
        self.samples: list[float] = []
        #: Accounted API requests served across all recorded calls.
        self.requests = 0

    def _record(self, elapsed: float, requests: int) -> None:
        with self._lock:
            self.samples.append(elapsed)
            self.requests += requests

    def get(self, domain: str, url: str, *, user_agent: str = "") -> HTTPResponse:
        start = time.perf_counter()
        response = self.server.get(domain, url, user_agent=user_agent)
        self._record(time.perf_counter() - start, 1)
        return response

    def handle_batch(
        self,
        domain: str,
        requests: Sequence[HTTPRequest | str],
        *,
        user_agent: str = "",
    ) -> list[HTTPResponse]:
        start = time.perf_counter()
        responses = self.server.handle_batch(domain, requests, user_agent=user_agent)
        self._record(time.perf_counter() - start, len(requests))
        return responses

    def metadata_round(
        self, domains: Sequence[str], *, user_agent: str = ""
    ) -> list[HTTPResponse]:
        start = time.perf_counter()
        responses = self.server.metadata_round(domains, user_agent=user_agent)
        self._record(time.perf_counter() - start, len(domains))
        return responses

    def stream_timeline(self, domain: str, **kwargs: Any) -> TimelineStream:
        start = time.perf_counter()
        stream = self.server.stream_timeline(domain, **kwargs)
        self._record(time.perf_counter() - start, stream.pages)
        return stream


def percentile(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample list."""
    if not sorted_samples:
        return 0.0
    rank = max(0, math.ceil(q / 100.0 * len(sorted_samples)) - 1)
    return sorted_samples[min(rank, len(sorted_samples) - 1)]


@dataclass
class LoadReport:
    """Latency and throughput of one multi-client campaign run."""

    threads: int
    wall_seconds: float
    transport_calls: int
    api_requests: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    #: p99 / p50 — how much worse the tail is than the typical call.
    tail_amplification: float
    requests_per_second: float


def load_report(
    transport: LatencyRecordingTransport, threads: int, wall_seconds: float
) -> LoadReport:
    """Summarise one recorded run into a :class:`LoadReport`."""
    samples = sorted(transport.samples)
    p50 = percentile(samples, 50.0)
    p99 = percentile(samples, 99.0)
    return LoadReport(
        threads=threads,
        wall_seconds=wall_seconds,
        transport_calls=len(samples),
        api_requests=transport.requests,
        p50_ms=p50 * 1000.0,
        p95_ms=percentile(samples, 95.0) * 1000.0,
        p99_ms=p99 * 1000.0,
        mean_ms=(sum(samples) / len(samples) * 1000.0) if samples else 0.0,
        max_ms=(samples[-1] * 1000.0) if samples else 0.0,
        tail_amplification=(p99 / p50) if p50 > 0 else 1.0,
        requests_per_second=(
            transport.requests / wall_seconds if wall_seconds > 0 else float("inf")
        ),
    )


def run_load(
    registry: FediverseRegistry,
    config: CampaignConfig | None = None,
    threads: int = 2,
    server: FediverseAPIServer | None = None,
) -> tuple[LoadReport, CrawlResult]:
    """Drive a full campaign with ``threads`` concurrent crawler clients.

    Returns the latency/throughput report and the merged crawl result
    (dataset unassembled, mirroring ``MeasurementCampaign.crawl`` so
    callers can time the crawl and assemble separately).  The registry's
    simulation clock is consumed by the crawl — one registry, one run.
    """
    server = server or FediverseAPIServer(registry)
    transport = LatencyRecordingTransport(server)
    campaign = MeasurementCampaign(
        registry,
        config,
        server=transport,  # type: ignore[arg-type]
        threads=threads,
    )
    start = time.perf_counter()
    result = campaign.crawl()
    wall_seconds = time.perf_counter() - start
    return load_report(transport, threads, wall_seconds), result
