"""Fault injection — one fail-stop vocabulary, fired through one injector on every backend.

The paper assumes *fail-stop* faults: a process disappears nondeterministically
but behaves correctly until it does (§2.4).  A :class:`KillEvent` is one such
fault: a *victim* — a rank, the compute node holding a rank, or any element of
the failure-domain hierarchy (§5) — and a *trigger*, exactly one of

* a position in the completion stream (``after_ops``): the injector is an
  :class:`~repro.rma.interceptor.RmaInterceptor` counting ``after_comm``
  completions — a sequence the backends are contractually required to emit
  identically — so the same fault strikes at the same point of the *program*
  on every backend (differential testing, chaos soaks);
* a virtual time (``time``): the kill fires once the job's virtual time passes
  it, observed where the job synchronizes (a barrier, a failure poll) — the
  notion resilience studies draw their fault loads in
  (:func:`exponential_schedule`, after the exponential fits the paper makes to
  the TSUBAME2.0 failure history, §7.1).

Firing is physical where it can be: on the real-process backend
(:class:`~repro.backends.proc.ProcBackend`) every victim's worker receives a
real ``SIGKILL``, the injector waits on the process sentinel until the death
is confirmed, and only then marks the rank failed in the cluster — so control
flow stays deterministic.  On in-process backends the same event simply marks
the rank failed.  Either way the failure then surfaces through the one
fail-stop path (:meth:`~repro.rma.runtime.RmaRuntime.observe_failures` →
:class:`~repro.errors.ProcessFailedError` → recovery), which is what lets the
differential harness demand bit-identical results between a killed ``proc``
run and a simulated one.
"""

from __future__ import annotations

import enum
import math
import os
import signal
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import FailureScheduleError
from repro.rma.actions import CommAction
from repro.rma.interceptor import RmaInterceptor
from repro.simulator.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.api.session import Job
    from repro.rma.runtime import RmaRuntime

__all__ = [
    "KillKind",
    "KillEvent",
    "KillPlan",
    "FiredKill",
    "FaultInjector",
    "exponential_schedule",
    "install_injector",
]


class KillKind(enum.Enum):
    """What a kill event takes out, graded by failure-domain granularity."""

    #: A single rank process.
    POD_KILL = "pod_kill"
    #: Every rank sharing the named rank's compute node (the level-1 element
    #: that holds it): the smallest correlated failure.
    NODE_KILL = "node_kill"
    #: Every rank placed under one element of the hierarchy, named by
    #: ``(level, index)``; level 0 is the rank ``index`` itself.
    ELEMENT_KILL = "element_kill"


@dataclass(frozen=True)
class KillEvent:
    """One planned kill: a victim and a trigger.

    The victim is ``rank`` (``POD_KILL``), every rank on ``rank``'s node
    (``NODE_KILL``), or every rank under ``element = (level, index)``
    (``ELEMENT_KILL``, which naming an element implies).  The trigger is
    exactly one of ``after_ops`` — strike after that many completed operations
    of the job-wide stream (identical across backends, not per-rank activity)
    — and ``time``, a virtual time in seconds.
    """

    after_ops: int | None = None
    rank: int | None = None
    kind: KillKind = KillKind.POD_KILL
    time: float | None = None
    element: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if (self.after_ops is None) == (self.time is None):
            raise FailureScheduleError("a kill has exactly one trigger: after_ops or time")
        if self.after_ops is not None and self.after_ops < 1:
            raise FailureScheduleError(
                "kills must strike after at least one completed operation "
                "(the session needs its phase-opening checkpoint first)"
            )
        if self.time is not None and not self.time >= 0:
            raise FailureScheduleError(f"kill time must be non-negative: {self}")
        if self.element is not None:
            if self.rank is not None or self.kind is KillKind.NODE_KILL:
                raise FailureScheduleError("a kill names either a rank or an element")
            object.__setattr__(self, "kind", KillKind.ELEMENT_KILL)
            if min(self.element) < 0:
                raise FailureScheduleError(f"kill element must be non-negative: {self}")
        elif self.rank is None or self.kind is KillKind.ELEMENT_KILL:
            raise FailureScheduleError("a rank or node kill names its rank")
        elif self.rank < 0:
            raise FailureScheduleError("kill victim rank must be non-negative")

    def describe(self) -> str:
        """Human-readable one-liner."""
        if self.element is None:
            target = f"rank {self.rank}"
            if self.kind is KillKind.NODE_KILL:
                target = f"the node of {target}"
        elif self.element[0] == 0:
            target = f"rank {self.element[1]}"
        else:
            target = f"level-{self.element[0]} element {self.element[1]}"
        when = f"t={self.time:.6f}s" if self.time is not None else f"op {self.after_ops}"
        return f"{when}: failure of {target}"


def _order(event: KillEvent) -> tuple:
    """Plan order: completion-stream kills by offset, then timed ones by time, each by victim."""
    victim = event.element or (0, event.rank)
    return (event.time is not None, event.after_ops or 0, event.time or 0.0, victim)


@dataclass
class KillPlan:
    """An ordered collection of :class:`KillEvent` (the injector's schedule)."""

    events: list[KillEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events.sort(key=_order)

    @classmethod
    def single(
        cls,
        rank: int,
        after_ops: int | None = None,
        *,
        time: float | None = None,
    ) -> "KillPlan":
        """Kill one rank at one stream offset or one virtual time."""
        return cls([KillEvent(after_ops=after_ops, rank=rank, time=time)])

    @classmethod
    def seeded(
        cls,
        seed: int | np.random.Generator | np.random.SeedSequence,
        *,
        nprocs: int,
        max_ops: int,
        kills: int = 1,
        min_ops: int = 1,
    ) -> "KillPlan":
        """Draw ``kills`` pod kills uniformly over offsets and victims.

        Identical seeds yield identical plans, event for event — the property
        the kill-timing sweep and the differential harness rely on to run the
        *same* plan on every backend.
        """
        if nprocs < 1 or max_ops <= min_ops:
            raise FailureScheduleError("seeded plan needs nprocs >= 1 and max_ops > min_ops")
        rng = make_rng(seed)
        events = []
        for _ in range(kills):
            after_ops, rank = int(rng.integers(min_ops, max_ops)), int(rng.integers(0, nprocs))
            rng.random()  # the kind's draw: kept, so every seed's plan stays the same
            events.append(KillEvent(after_ops=after_ops, rank=rank))
        return cls(events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


def exponential_schedule(
    *,
    horizon: float,
    rates_per_level: dict[int, float],
    max_index_per_level: dict[int, int],
    seed: int | np.random.Generator | np.random.SeedSequence = 0,
) -> KillPlan:
    """Draw time-triggered element kills from per-level Poisson processes.

    Parameters
    ----------
    horizon:
        Length of the simulated period in seconds.
    rates_per_level:
        ``{level: failures_per_second}``; levels not listed never fail.
    max_index_per_level:
        ``{level: H_j}`` — how many elements exist at each level; failing
        elements are drawn uniformly among them.
    seed:
        Seed, seed sequence or generator for reproducibility.  Identical
        seeds yield identical plans, event for event — the property the
        Monte-Carlo campaign's trial seeding and the determinism tests rely
        on.
    """
    if horizon <= 0:
        raise FailureScheduleError("horizon must be positive")
    rng = make_rng(seed)
    events: list[KillEvent] = []
    for level, rate in sorted(rates_per_level.items()):
        if rate < 0:
            raise FailureScheduleError(f"rate for level {level} must be non-negative")
        if rate == 0:
            continue
        if level not in max_index_per_level:
            raise FailureScheduleError(f"missing element count for level {level}")
        n_elems = max_index_per_level[level]
        t = 0.0
        while True:
            t += rng.exponential(1.0 / rate)
            if t > horizon:
                break
            events.append(KillEvent(time=t, element=(level, int(rng.integers(0, n_elems)))))
    return KillPlan(events)


@dataclass(frozen=True)
class FiredKill:
    """Record of one fired event: who actually died, and how.

    An event whose victims were all already dead or excised is *skipped*;
    ``on_kill`` still sees it, as a record with an empty ``victims`` tuple, so
    the chaos log can account for every planned event.
    """

    event: KillEvent
    victims: tuple[int, ...]
    #: True when real SIGKILLs were delivered (proc backend), False when the
    #: deaths were simulated by marking the cluster.
    real: bool

    @property
    def skipped(self) -> bool:
        """Whether the event struck no one (victims all dead or excised)."""
        return not self.victims


class FaultInjector(RmaInterceptor):
    """Fires a :class:`KillPlan` against whatever backend the job runs on.

    Register it on the runtime (or use :func:`install_injector`).  The two
    trigger kinds wait in two sorted queues: ``after_comm`` compares the
    stream position with the next offset only, and the timed queue's head is
    the cluster's ``next_due``, which the cluster's barrier and the runtime's
    failure poll compare their clocks with (``fire_due`` fires what is due).
    A plan of timed kills only leaves the completion stream alone.  Events
    whose victims are all already dead or excised are skipped, not deferred.
    ``kill_on_respawn`` additionally kills the ``n``-th respawned rank the
    moment its replacement process appears — the "failure during recovery"
    case, whose retry loop the session already owns.
    """

    def __init__(self, plan: KillPlan, *, kill_on_respawn: int | None = None) -> None:
        self.kill_on_respawn = kill_on_respawn
        self.ops_seen = 0
        self.respawns_seen = 0
        self.fired: list[FiredKill] = []
        self.skipped: list[KillEvent] = []
        self._by_ops = [e for e in plan.events if e.time is None]
        self._by_time = [e for e in plan.events if e.time is not None]
        self._next_op = self._by_ops[0].after_ops if self._by_ops else math.inf
        if self._by_time and not self._by_ops:  # no per-op hook on the chain
            self.after_comm = super().after_comm
        self._runtime: RmaRuntime | None = None

    # ------------------------------------------------------------------
    def attach(self, runtime: "RmaRuntime") -> None:
        self._runtime = runtime
        if self._by_time:
            cluster = runtime.cluster
            if cluster.fire_due is not None:
                raise FailureScheduleError("a job takes one plan of time-triggered kills")
            cluster.next_due, cluster.fire_due = self._by_time[0].time, self._fire_due

    def after_comm(self, action: CommAction) -> None:
        self.ops_seen += 1
        if self.ops_seen >= self._next_op:
            queue = self._by_ops
            while queue and queue[0].after_ops <= self.ops_seen:
                self._fire(queue.pop(0))
            self._next_op = queue[0].after_ops if queue else math.inf

    def _fire_due(self, now: float) -> None:
        """Fire every timed kill due by virtual time ``now``, in time order."""
        cluster, queue = self._runtime.cluster, self._by_time
        while queue and queue[0].time <= now:
            event = queue.pop(0)
            cluster.next_due = queue[0].time if queue else math.inf
            self._fire(event)

    def on_respawn(self, rank: int) -> None:
        self.respawns_seen += 1
        if self.kill_on_respawn is not None and self.respawns_seen == self.kill_on_respawn:
            self._fire(KillEvent(after_ops=max(1, self.ops_seen), rank=rank))

    def _victims(self, event: KillEvent, cluster) -> list[int]:
        """The ranks ``event`` names, alive or not."""
        placement = cluster.placement
        if event.element is not None and event.element[0] > 0:
            return placement.ranks_on(*event.element)
        rank = event.rank if event.element is None else event.element[1]
        if rank >= cluster.nprocs:
            raise FailureScheduleError(
                f"kill targets rank {rank} but the job has only {cluster.nprocs} processes"
            )
        if event.kind is KillKind.NODE_KILL:
            return placement.ranks_on(1, placement.node(rank))
        return [rank]

    def _fire(self, event: KillEvent) -> None:
        runtime = self._runtime
        assert runtime is not None, "injector fired before being attached"
        cluster = runtime.cluster
        victims = [
            r
            for r in self._victims(event, cluster)
            if cluster.is_alive(r) and r not in runtime.excised
        ]
        if not victims:
            self.skipped.append(event)
            self._announce(FiredKill(event=event, victims=(), real=False))
            return
        backend = runtime.backend
        real = hasattr(backend, "worker_pid") and hasattr(backend, "wait_dead")
        if real:
            # Deliver the physical kills first and *wait for confirmed death*
            # (sentinel), so marking the cluster — the step that makes the
            # control plane observe the failure — happens at the same stream
            # position as on the in-process backends.
            for rank in victims:
                try:
                    os.kill(backend.worker_pid(rank), signal.SIGKILL)
                except ProcessLookupError:  # pragma: no cover - already gone
                    pass
                backend.wait_dead(rank)
        for rank in victims:
            if cluster.is_alive(rank):
                cluster.fail_rank(rank)
            cluster.metrics.incr("inject.kills", rank=rank)
        record = FiredKill(event=event, victims=tuple(victims), real=real)
        self.fired.append(record)
        self._announce(record)

    def _announce(self, record: FiredKill) -> None:
        """Hand ``record`` to the chain's ``on_kill`` at the stream position the
        kill lands — before the failure surfaces through the fail-stop path,
        which is what lets the chaos log stamp ``failure_initiated`` apart from
        ``failure_detected``."""
        on_kill = self._runtime.interceptors.on_kill
        if on_kill is not None:
            on_kill(record)


def install_injector(job: "Job", plan: KillPlan) -> FaultInjector:
    """Attach a :class:`FaultInjector` for ``plan`` to a launched job.

    Every fired and skipped kill reaches the job's interceptors through
    ``on_kill`` — a traced job's tracer among them — with no further wiring.
    """
    injector = FaultInjector(plan)
    job.runtime.add_interceptor(injector)
    return injector
