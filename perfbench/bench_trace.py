"""Spans, layer meters and method patching for the benchmark's traced run.

Everything here lives in the benchmark, not in ``src/``: the traced run
wraps the public entry points of each layer from the outside, keeps every
span in memory and writes them out once, at the end, as Chrome
trace-event JSON (loadable in ``chrome://tracing`` or Perfetto).

Span clocks use ``CLOCK_MONOTONIC``, which is system-wide on Linux, so
spans recorded by forked shard workers line up with the coordinator's.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator


def now() -> float:
    """Seconds on the system-wide monotonic clock (comparable across processes)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """An in-memory span recorder with parent links.

    A span is a dict with ``id``, ``name``, ``layers`` (the layers whose
    code the call runs — two when one public call spans two layers),
    ``parent`` (the enclosing span's id or ``None``), ``start``/``end`` on
    :func:`now`, the recording ``pid`` and free-form ``attrs``.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layers: tuple[str, ...], **attrs: Any) -> Iterator[dict]:
        """Record one span around the ``with`` body."""
        record = self.add(name, layers, now(), None, **attrs)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = now()
            self._stack.pop()

    def add(
        self,
        name: str,
        layers: tuple[str, ...],
        start: float,
        end: float | None,
        pid: int | None = None,
        parent: int | None = None,
        **attrs: Any,
    ) -> dict[str, Any]:
        """Append a span; its parent defaults to the innermost open span."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        record = {
            "id": len(self.spans),
            "name": name,
            "layers": list(layers),
            "parent": parent,
            "start": start,
            "end": end,
            "pid": os.getpid() if pid is None else pid,
            "attrs": attrs,
        }
        self.spans.append(record)
        return record

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def _self_seconds(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals.

        Children running in parallel worker processes overlap, so the
        union, not the sum, is subtracted.
        """
        children: dict[int, list[dict]] = {}
        for record in self.spans:
            if record["parent"] is not None:
                children.setdefault(record["parent"], []).append(record)
        seconds = []
        for record in self.spans:
            covered = 0.0
            cursor = record["start"]
            intervals = sorted(
                (max(c["start"], record["start"]), min(c["end"], record["end"]))
                for c in children.get(record["id"], ())
            )
            for start, end in intervals:
                start = max(start, cursor)
                if end > start:
                    covered += end - start
                    cursor = end
            seconds.append(record["end"] - record["start"] - covered)
        return seconds

    def self_total(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        return sum(
            seconds
            for record, seconds in zip(self.spans, self._self_seconds())
            if record["name"] == name
        )

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per-layer self time and span count.

        A span naming two layers is reported under ``"a+b"``.
        """
        layers: dict[str, dict[str, float]] = {}
        for record, seconds in zip(self.spans, self._self_seconds()):
            entry = layers.setdefault("+".join(record["layers"]), {"self_s": 0.0, "spans": 0})
            entry["self_s"] += seconds
            entry["spans"] += 1
        return layers

    def chrome_trace(self) -> dict[str, Any]:
        """The spans as Chrome trace-event JSON (complete ``X`` events, µs)."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        events = [
            {
                "name": s["name"],
                "cat": "+".join(s["layers"]),
                "ph": "X",
                "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "pid": s["pid"],
                "tid": s["pid"],
                "args": {"id": s["id"], "parent": s["parent"], **s["attrs"]},
            }
            for s in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class NullTracer:
    """The untraced run's tracer: spans cost one no-op context manager."""

    def span(self, name: str, layers: tuple[str, ...], **attrs: Any):
        return nullcontext({})


class Meter:
    """Call count, busy time and per-call samples of one layer boundary.

    Used where a span per call would be too many (tens of thousands of API
    or delivery calls): the wrapped calls are aggregated, and the first
    call's start and last call's end are kept so the meter can be turned
    into one summary span.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.items = 0
        self.busy = 0.0
        self.samples: list[float] = []
        self.first: float | None = None
        self.last: float | None = None

    def wrap(self, fn: Callable, count_items: Callable | None = None) -> Callable:
        """Return ``fn`` timed into this meter; ``count_items(args)`` adds items."""
        meter = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                meter.calls += 1
                meter.busy += end - start
                meter.samples.append(end - start)
                if meter.first is None:
                    meter.first = start
                meter.last = end
                if count_items is not None:
                    meter.items += count_items(args)

        return timed

    def percentile_ms(self, q: float) -> float:
        """The ``q`` quantile (nearest rank) of the per-call samples, in ms."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))
        return ordered[rank] * 1e3


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, name: str, wrapper: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.name`` (a module or class attribute) by ``wrapper(original)``."""
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def spanned(tracer: Tracer, name: str, layers: tuple[str, ...]) -> Callable[[Callable], Callable]:
    """A wrapper factory recording one span per call of the wrapped function."""

    def wrapper(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name, layers):
                return fn(*args, **kwargs)

        return traced

    return wrapper
