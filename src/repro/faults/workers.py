"""Deterministic process-level fault schedules for the sharded engine.

PR 6's :class:`~repro.faults.plan.FaultPlan` makes the simulated *network*
misbehave reproducibly; this module does the same one level down, for the
sharded federation engine's *worker processes*.  A
:class:`WorkerFaultSpec` names how often (and how) forked shard workers
die; :meth:`WorkerFaultPlan.compile` turns it into a per-shard schedule —
which fault kind fires on which delivery attempt — that the
:class:`~repro.shard.supervisor.ShardSupervisor` injects into
``_shard_worker`` exactly the way :class:`~repro.faults.injector.
FaultInjector` wraps the API server: at the process boundary, scripted by
the plan, never by ambient randomness.

Determinism contract (mirroring :mod:`repro.faults.plan`):

- Compilation walks shards in index order drawing from one dedicated RNG
  seeded by ``spec.seed``, so the same spec compiled for the same shard
  count always yields the same schedules.
- A shard's schedule is a tuple of fault kinds indexed by attempt number;
  every attempt past the end of the tuple runs clean.  Because each
  shard's batch slice is a pure function of the partition, re-executing a
  failed shard — in a fresh fork or inline — produces bit-identical
  output, which is what lets the supervisor promise a fault-free merge no
  matter which workers died.
- The zero-share spec is provably inert: it compiles to an empty plan and
  :meth:`WorkerFaultPlan.fault_for` always answers ``None``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum


class WorkerFaultKind(str, Enum):
    """Every way an injected shard worker can die."""

    #: ``os._exit`` before delivering any of the inherited slice — the
    #: coordinator sees an immediate result EOF.
    CRASH_EARLY = "crash_early"
    #: The worker delivers its whole slice, then ``os._exit``\ s instead of
    #: sending the capture — all the work done, none of it reported.
    CRASH_LATE = "crash_late"
    #: The worker sleeps forever before delivering, sending nothing; only
    #: the supervisor's inactivity deadline can unblock the run.
    HANG = "hang"
    #: The worker sends unpicklable garbage bytes instead of a
    #: :class:`~repro.shard.state.ShardResult`.
    CORRUPT = "corrupt"
    #: The worker raises — the clean failure path: a traceback comes back
    #: through the normal ``("error", ...)`` report.
    ERROR = "error"


@dataclass(frozen=True)
class WorkerFaultSpec:
    """The knobs of one worker-fault mix.

    Share-style knobs select the probability that a *shard* is afflicted
    with the corresponding death; ``faulty_attempts`` is how many
    consecutive delivery attempts fail before the shard's worker runs
    clean (set it at or above the supervisor's forked-attempt budget to
    force the inline fallback).  All defaults are zero: the default spec
    is the zero-fault plan.
    """

    #: Seed of the dedicated worker-fault RNG stream (never shared with
    #: the generator's or the network fault plan's streams).
    seed: int = 4242
    crash_early_share: float = 0.0
    crash_late_share: float = 0.0
    hang_share: float = 0.0
    corrupt_share: float = 0.0
    error_share: float = 0.0
    faulty_attempts: int = 1

    def __post_init__(self) -> None:
        for name in (
            "crash_early_share",
            "crash_late_share",
            "hang_share",
            "corrupt_share",
            "error_share",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        if self.faulty_attempts < 1:
            raise ValueError("faulty_attempts must be at least 1")

    @property
    def inert(self) -> bool:
        """Return ``True`` when this spec can never kill a worker."""
        return (
            self.crash_early_share == 0.0
            and self.crash_late_share == 0.0
            and self.hang_share == 0.0
            and self.corrupt_share == 0.0
            and self.error_share == 0.0
        )

    @classmethod
    def none(cls, seed: int = 4242) -> "WorkerFaultSpec":
        """The zero-fault spec (compiles to an empty, provably inert plan)."""
        return cls(seed=seed)

    @classmethod
    def profile(cls, name: str, seed: int = 4242) -> "WorkerFaultSpec":
        """Return a named profile (``none``/``light``/``mixed``/``heavy``)."""
        try:
            overrides = WORKER_FAULT_PROFILES[name]
        except KeyError:
            raise ValueError(
                f"unknown worker fault profile {name!r}; "
                f"available: {', '.join(sorted(WORKER_FAULT_PROFILES))}"
            ) from None
        return cls(seed=seed, **overrides)

    @classmethod
    def for_config(cls, config) -> "WorkerFaultSpec":
        """Build the spec a :class:`~repro.synth.config.SynthConfig` names.

        Reads the config's ``worker_fault_profile``/``worker_fault_seed``
        knobs, so a scenario fully describes the process weather its
        sharded runs are supervised under.
        """
        return cls.profile(
            getattr(config, "worker_fault_profile", "none"),
            seed=getattr(config, "worker_fault_seed", 4242),
        )


#: Named worker-fault mixes, applied as overrides on top of the zero defaults.
WORKER_FAULT_PROFILES: dict[str, dict] = {
    "none": {},
    # An occasional dead worker: the common production failure.
    "light": {"crash_early_share": 0.2, "crash_late_share": 0.1},
    # Every death kind fires, none dominates — the shard-chaos default.
    "mixed": {
        "crash_early_share": 0.15,
        "crash_late_share": 0.15,
        "hang_share": 0.10,
        "corrupt_share": 0.10,
        "error_share": 0.10,
    },
    # Most shards lose a worker somehow, some repeatedly.
    "heavy": {
        "crash_early_share": 0.25,
        "crash_late_share": 0.2,
        "hang_share": 0.15,
        "corrupt_share": 0.15,
        "error_share": 0.15,
        "faulty_attempts": 2,
    },
}


class WorkerFaultPlan:
    """A worker-fault spec compiled against a shard count.

    ``schedules`` maps shard index to the tuple of fault kinds its
    successive delivery attempts are killed with; attempts past the tuple
    run clean.  The plan is immutable once compiled and pure to query, so
    the supervisor's retry loop is as deterministic as the spec.
    """

    def __init__(
        self,
        n_shards: int,
        schedules: dict[int, tuple[WorkerFaultKind, ...]],
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        for shard in schedules:
            if not 0 <= shard < n_shards:
                raise ValueError(f"shard {shard} outside [0, {n_shards})")
        self.n_shards = n_shards
        self.schedules = {
            shard: tuple(kinds) for shard, kinds in schedules.items() if kinds
        }

    @property
    def inert(self) -> bool:
        """Return ``True`` when this plan can never kill a worker."""
        return not self.schedules

    def fault_for(self, shard: int, attempt: int) -> WorkerFaultKind | None:
        """Return the fault killing ``shard``'s ``attempt``, or ``None``."""
        schedule = self.schedules.get(shard)
        if schedule is None or attempt >= len(schedule):
            return None
        return schedule[attempt]

    @classmethod
    def scripted(
        cls,
        n_shards: int,
        schedules: dict[int, "WorkerFaultKind | tuple[WorkerFaultKind, ...]"],
    ) -> "WorkerFaultPlan":
        """Build an explicit plan (tests and the bench's per-kind gates).

        A bare kind is shorthand for a single first-attempt failure.
        """
        normalised = {
            shard: (kinds,) if isinstance(kinds, WorkerFaultKind) else tuple(kinds)
            for shard, kinds in schedules.items()
        }
        return cls(n_shards, normalised)

    @classmethod
    def compile(cls, spec: WorkerFaultSpec, n_shards: int) -> "WorkerFaultPlan":
        """Compile ``spec`` for ``n_shards`` shards.

        Walks shards in index order drawing from one dedicated stream; a
        shard is afflicted with the *first* kind whose share-roll hits (a
        worker dies one way at a time) and fails ``spec.faulty_attempts``
        consecutive attempts with it.
        """
        if spec.inert:
            return cls(n_shards, {})
        rng = random.Random(f"{spec.seed}:workers")
        rolls = (
            (WorkerFaultKind.CRASH_EARLY, spec.crash_early_share),
            (WorkerFaultKind.CRASH_LATE, spec.crash_late_share),
            (WorkerFaultKind.HANG, spec.hang_share),
            (WorkerFaultKind.CORRUPT, spec.corrupt_share),
            (WorkerFaultKind.ERROR, spec.error_share),
        )
        schedules: dict[int, tuple[WorkerFaultKind, ...]] = {}
        for shard in range(n_shards):
            for kind, share in rolls:
                if share and rng.random() < share:
                    schedules[shard] = (kind,) * spec.faulty_attempts
                    break
        return cls(n_shards, schedules)
