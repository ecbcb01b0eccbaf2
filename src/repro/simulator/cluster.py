"""The simulated machine: processes, clocks, placement, failures.

:class:`Cluster` is the substrate on which the RMA runtime
(:mod:`repro.rma.runtime`) and the fault-tolerance protocols are built.  It
knows nothing about RMA semantics — it only provides:

* per-process virtual clocks and a cost model,
* a failure-domain hierarchy with a process placement,
* fail-stop failure injection and detection,
* a metrics registry shared by all layers.

Simulated applications are SPMD: the caller iterates over ranks and issues
work on behalf of each of them; collective operations synchronize the clocks
of the participants.  This keeps the simulation single-threaded and perfectly
deterministic while still exposing per-process timing, which is all the
paper's evaluation needs.
"""

from __future__ import annotations

from repro.errors import ProcessFailedError, SimulationError
from repro.simulator.costs import CostModel, cray_xe6_like
from repro.simulator.failures import FailureInjector, FailureSchedule
from repro.simulator.metrics import MetricsRegistry
from repro.simulator.placement import Placement, block_placement
from repro.simulator.timebase import ClockCollection, VirtualClock
from repro.simulator.topology import FailureDomainHierarchy

__all__ = ["Cluster"]


class Cluster:
    """A running simulated job on a simulated machine."""

    def __init__(
        self,
        nprocs: int,
        placement: Placement,
        cost_model: CostModel | None = None,
        failure_schedule: FailureSchedule | None = None,
    ) -> None:
        if nprocs <= 0:
            raise SimulationError("nprocs must be positive")
        if placement.nprocs != nprocs:
            raise SimulationError(
                f"placement covers {placement.nprocs} processes but nprocs={nprocs}"
            )
        self.nprocs = nprocs
        self.placement = placement
        self.fdh = placement.fdh
        self.costs = cost_model or cray_xe6_like()
        self.clocks = ClockCollection(nprocs)
        # The collection never replaces a clock, so the per-rank objects can
        # be resolved once.
        self._clock_of = [self.clocks.clock(rank) for rank in range(nprocs)]
        self.metrics = MetricsRegistry()
        self.injector = FailureInjector(failure_schedule or FailureSchedule.none(), placement)
        #: Ranks that crashed and were later replaced; kept for reporting.
        self.recovered_ranks: list[int] = []

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def simple(
        cls,
        nprocs: int,
        *,
        procs_per_node: int = 32,
        cost_model: CostModel | None = None,
        failure_schedule: FailureSchedule | None = None,
        fdh: FailureDomainHierarchy | None = None,
    ) -> "Cluster":
        """Build a cluster with block placement and sensible defaults
        (a flat single-level machine when ``fdh`` is omitted)."""
        fdh = fdh or FailureDomainHierarchy.flat(max(1, -(-nprocs // procs_per_node)))
        placement = block_placement(fdh, nprocs, procs_per_node)
        return cls(nprocs, placement, cost_model, failure_schedule)

    # ------------------------------------------------------------------
    # Clock operations
    # ------------------------------------------------------------------
    def clock(self, rank: int) -> VirtualClock:
        """Virtual clock of ``rank``."""
        if not 0 <= rank < self.nprocs:
            self._check_rank(rank)
        return self._clock_of[rank]

    def now(self, rank: int) -> float:
        """Current virtual time of ``rank``."""
        return self.clock(rank).now

    def advance(self, rank: int, dt: float, *, kind: str = "compute") -> float:
        """Advance the clock of ``rank`` by ``dt`` seconds."""
        return self.clock(rank).advance(dt, kind=kind)

    def elapsed(self) -> float:
        """Job makespan so far (max over all ranks)."""
        return self.clocks.elapsed()

    def barrier(self, ranks: list[int] | None = None, *, cost: float | None = None) -> float:
        """Synchronize clocks of ``ranks`` (all alive ranks by default).

        Returns the post-barrier time.  Failure detection happens here: any
        scheduled failure whose time has passed fires before the barrier
        completes, and if a *participant* has failed the barrier raises
        :class:`ProcessFailedError` naming one failed participant (the caller —
        typically the fault-tolerance layer — handles recovery).
        """
        if ranks is None and not self.injector.failed_ranks:
            participants, count = None, self.nprocs  # all alive: every clock, no list
        else:
            participants = list(self.alive_ranks() if ranks is None else ranks)
            count = len(participants)
        if not count:
            raise SimulationError("barrier requires at least one participant")
        if cost is None:
            cost = self.costs.barrier_prices[count]
        t = self.clocks.synchronize(participants, extra=cost)
        self.check_failures(t)
        failed = self.injector.failed_ranks
        dead = [r for r in participants or range(count) if r in failed] if failed else ()
        if dead:
            raise ProcessFailedError(dead[0], f"barrier observed failed ranks {dead}")
        return t

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def check_failures(self, now: float | None = None) -> list[int]:
        """Fire scheduled failures up to ``now`` and return newly dead ranks."""
        if now is None:
            now = self.elapsed()
        newly = self.injector.newly_failed_ranks(now)
        for rank in newly:
            self.metrics.incr("cluster.failures", rank=rank)
        return newly

    def fail_rank(self, rank: int) -> None:
        """Explicitly fail ``rank`` at its current virtual time.

        Mostly used by tests and examples that want to crash a specific
        process at a specific point of the program rather than relying on a
        time-based :class:`~repro.simulator.failures.FailureSchedule`.
        """
        self._check_rank(rank)
        self.injector.fail(rank)
        self.metrics.incr("cluster.failures", rank=rank)

    def is_alive(self, rank: int) -> bool:
        """Whether ``rank`` is currently alive."""
        self._check_rank(rank)
        return not self.injector.is_failed(rank)

    def alive_ranks(self) -> list[int]:
        """All currently alive ranks, in rank order."""
        failed = self.injector.failed_ranks
        return [r for r in range(self.nprocs) if r not in failed]

    def failed_ranks(self) -> list[int]:
        """All currently failed (not yet replaced) ranks."""
        return sorted(self.injector.failed_ranks)

    def respawn_rank(self, rank: int) -> None:
        """Replace a failed rank with a fresh process ``p_new``.

        The paper assumes an underlying batch system that provides a new
        process in place of the failed one (§4.3).  The replacement inherits
        the rank number; its clock continues from the current job time (the
        replacement starts "now").
        """
        self._check_rank(rank)
        if self.is_alive(rank):
            raise SimulationError(f"rank {rank} is alive; nothing to respawn")
        self.injector.revive(rank)
        self.recovered_ranks.append(rank)
        self.clock(rank).synchronize_to(self.elapsed())
        self.metrics.incr("cluster.respawns", rank=rank)

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def same_node(self, rank_a: int, rank_b: int) -> bool:
        """Whether two ranks share a compute node."""
        return self.placement.node(rank_a) == self.placement.node(rank_b)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nprocs:
            raise SimulationError(f"rank {rank} out of range 0..{self.nprocs - 1}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Cluster(nprocs={self.nprocs}, nodes={self.fdh.num_nodes}, "
            f"costs={self.costs.name!r}, failed={len(self.failed_ranks())})"
        )
