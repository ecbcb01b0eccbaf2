"""Kill injection — real ``SIGKILL`` faults on a seeded, backend-portable schedule.

The simulator's :class:`~repro.simulator.failures.FailureSchedule` expresses
failures in *virtual time*; that is the right notion for resilience studies
but the wrong one for differential testing, where the same fault must strike
at the same point of the *program* on every backend.  This module times kills
by position in the completion stream instead: the injector is an
:class:`~repro.rma.interceptor.RmaInterceptor` counting ``after_comm``
completions — a sequence the backends are contractually required to emit
identically — and fires each :class:`KillEvent` when its offset is reached.

Firing is physical where it can be: on the real-process backend
(:class:`~repro.backends.proc.ProcBackend`) the victim's worker receives a
real ``SIGKILL``, the injector waits on the process sentinel until the death
is confirmed, and only then marks the rank failed in the cluster — so control
flow stays deterministic.  On in-process backends the same event simply marks
the rank failed.  Either way the failure then surfaces through the one
fail-stop path (:meth:`~repro.rma.runtime.RmaRuntime.observe_failures` →
:class:`~repro.errors.ProcessFailedError` → recovery), which is what lets the
differential harness demand bit-identical results between a killed ``proc``
run and an exception-injected ``sim`` run.

The kill taxonomy follows the paper's failure-domain hierarchy (§5):
``POD_KILL`` takes out a single rank, ``NODE_KILL`` every rank placed on the
victim's compute node — the smallest correlated failure the topology-aware
checkpoint placement must survive.
"""

from __future__ import annotations

import enum
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
    "install_injector",
]


class KillKind(enum.Enum):
    """What a kill event takes out."""

    #: A single rank process.
    POD_KILL = "pod_kill"
    #: Every rank sharing the victim's compute node (correlated failure).
    NODE_KILL = "node_kill"


@dataclass(frozen=True, order=True)
class KillEvent:
    """One scheduled kill: strike after ``after_ops`` completed operations.

    ``rank`` names the primary victim; a ``NODE_KILL`` extends to every rank
    on its node.  Offsets count the job-wide completion stream (identical
    across backends), not per-rank activity.
    """

    after_ops: int
    rank: int
    kind: KillKind = KillKind.POD_KILL

    def __post_init__(self) -> None:
        if self.after_ops < 1:
            raise FailureScheduleError(
                "kills must strike after at least one completed operation "
                "(the session needs its phase-opening checkpoint first)"
            )
        if self.rank < 0:
            raise FailureScheduleError("kill victim rank must be non-negative")


@dataclass
class KillPlan:
    """An ordered collection of :class:`KillEvent` (the injector's schedule)."""

    events: list[KillEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events.sort()

    @classmethod
    def single(cls, rank: int, after_ops: int, kind: KillKind = KillKind.POD_KILL) -> "KillPlan":
        """Kill one victim at one stream offset."""
        return cls([KillEvent(after_ops=after_ops, rank=rank, kind=kind)])

    @classmethod
    def seeded(
        cls,
        seed: int | np.random.Generator | np.random.SeedSequence,
        *,
        nprocs: int,
        max_ops: int,
        kills: int = 1,
        node_kill_prob: float = 0.0,
        min_ops: int = 1,
    ) -> "KillPlan":
        """Draw ``kills`` events uniformly over offsets and victims.

        Identical seeds yield identical plans, event for event — the property
        the kill-timing sweep and the differential harness rely on to run the
        *same* plan on every backend.
        """
        if nprocs < 1 or max_ops <= min_ops:
            raise FailureScheduleError("seeded plan needs nprocs >= 1 and max_ops > min_ops")
        rng = make_rng(seed)
        events = []
        for _ in range(kills):
            events.append(
                KillEvent(
                    after_ops=int(rng.integers(min_ops, max_ops)),
                    rank=int(rng.integers(0, nprocs)),
                    kind=(
                        KillKind.NODE_KILL
                        if rng.random() < node_kill_prob
                        else KillKind.POD_KILL
                    ),
                )
            )
        return cls(events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


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

    Register it on the runtime (or use :func:`install_injector`).  Events
    whose victims are all already dead or excised are skipped, not deferred.
    ``kill_on_respawn`` additionally kills the ``n``-th respawned rank the
    moment its replacement process appears — the "failure during recovery"
    case, whose retry loop the session already owns.
    """

    def __init__(
        self,
        plan: KillPlan,
        *,
        wait_timeout: float = 10.0,
        kill_on_respawn: int | None = None,
    ) -> None:
        self.plan = plan
        self.wait_timeout = wait_timeout
        self.kill_on_respawn = kill_on_respawn
        self.ops_seen = 0
        self.respawns_seen = 0
        self.fired: list[FiredKill] = []
        self.skipped: list[KillEvent] = []
        self._pending: list[KillEvent] = list(plan.events)
        self._runtime: RmaRuntime | None = None

    # ------------------------------------------------------------------
    def attach(self, runtime: "RmaRuntime") -> None:
        self._runtime = runtime

    def after_comm(self, action: CommAction) -> None:
        self.ops_seen += 1
        while self._pending and self._pending[0].after_ops <= self.ops_seen:
            self._fire(self._pending.pop(0))

    def on_respawn(self, rank: int) -> None:
        self.respawns_seen += 1
        if self.kill_on_respawn is not None and self.respawns_seen == self.kill_on_respawn:
            self._fire(KillEvent(after_ops=max(1, self.ops_seen), rank=rank))

    def _fire(self, event: KillEvent) -> None:
        runtime = self._runtime
        assert runtime is not None, "injector fired before being attached"
        cluster = runtime.cluster
        if event.rank >= cluster.nprocs:
            raise FailureScheduleError(
                f"kill targets rank {event.rank} but the job has only "
                f"{cluster.nprocs} processes"
            )
        if event.kind is KillKind.NODE_KILL:
            victims = [
                r
                for r in range(cluster.nprocs)
                if cluster.same_node(r, event.rank)
            ]
        else:
            victims = [event.rank]
        victims = [
            r
            for r in victims
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
                backend.wait_dead(rank, self.wait_timeout)
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


def install_injector(
    job: "Job",
    plan: KillPlan,
    *,
    wait_timeout: float = 10.0,
    kill_on_respawn: int | None = None,
) -> FaultInjector:
    """Attach a :class:`FaultInjector` for ``plan`` to a launched job.

    Every fired and skipped kill reaches the job's interceptors through
    ``on_kill`` — a traced job's tracer among them — with no further wiring.
    """
    injector = FaultInjector(
        plan, wait_timeout=wait_timeout, kill_on_respawn=kill_on_respawn
    )
    job.runtime.add_interceptor(injector)
    return injector
