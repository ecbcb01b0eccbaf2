"""The simulated machine: processes, clocks, placement, failures.

:class:`Cluster` is the substrate on which the RMA runtime
(:mod:`repro.rma.runtime`) and the fault-tolerance protocols are built.  It
knows nothing about RMA semantics — it only provides:

* per-process virtual clocks and a cost model,
* a failure-domain hierarchy with a process placement,
* the failed set, and the barrier where time-triggered kills are observed,
* a metrics registry shared by all layers.

Simulated applications are SPMD: the caller iterates over ranks and issues
work on behalf of each of them; collective operations synchronize the clocks
of the participants.  This keeps the simulation single-threaded and perfectly
deterministic while still exposing per-process timing, which is all the
paper's evaluation needs.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from repro.errors import ProcessFailedError, SimulationError
from repro.simulator.costs import CostModel, cray_xe6_like
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
        #: Ranks that have failed so far (and not been replaced).  Every change
        #: bumps :attr:`generation`, so consumers cache what they derive from
        #: the set and revalidate with one comparison.
        self.failed: frozenset[int] = frozenset()
        self.generation = 0
        #: Virtual time of the next time-triggered kill (``inf`` when none is
        #: pending), and what fires the kills due by a given time: both set by
        #: the fault injector that holds the plan (:mod:`repro.ft.inject`).
        self.next_due = math.inf
        self.fire_due: Callable[[float], None] | None = None
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
        fdh: FailureDomainHierarchy | None = None,
    ) -> "Cluster":
        """Build a cluster with block placement and sensible defaults
        (a flat single-level machine when ``fdh`` is omitted)."""
        fdh = fdh or FailureDomainHierarchy.flat(max(1, -(-nprocs // procs_per_node)))
        placement = block_placement(fdh, nprocs, procs_per_node)
        return cls(nprocs, placement, cost_model)

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
        if ranks is None and not self.failed:
            participants, count = None, self.nprocs  # all alive: every clock, no list
        else:
            participants = list(self.alive_ranks() if ranks is None else ranks)
            count = len(participants)
        if not count:
            raise SimulationError("barrier requires at least one participant")
        if cost is None:
            cost = self.costs.barrier_prices[count]
        t = self.clocks.synchronize(participants, extra=cost)
        if t >= self.next_due:
            self.fire_due(t)
        failed = self.failed
        dead = [r for r in participants or range(count) if r in failed] if failed else ()
        if dead:
            raise ProcessFailedError(dead[0], f"barrier observed failed ranks {dead}")
        return t

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def _set_failed(self, ranks: frozenset[int]) -> None:
        self.failed = ranks
        self.generation += 1

    def fail_rank(self, rank: int) -> None:
        """Explicitly fail ``rank`` at its current virtual time.

        Mostly used by tests and examples that want to crash a specific
        process at a specific point of the program rather than relying on a
        :class:`~repro.ft.inject.KillPlan`, whose injector fires through here.
        """
        self._check_rank(rank)
        if rank not in self.failed:
            self._set_failed(self.failed | {rank})
        self.metrics.incr("cluster.failures", rank=rank)

    def is_alive(self, rank: int) -> bool:
        """Whether ``rank`` is currently alive."""
        self._check_rank(rank)
        return rank not in self.failed

    def alive_ranks(self) -> list[int]:
        """All currently alive ranks, in rank order."""
        failed = self.failed
        return [r for r in range(self.nprocs) if r not in failed]

    def failed_ranks(self) -> list[int]:
        """All currently failed (not yet replaced) ranks."""
        return sorted(self.failed)

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
        self._set_failed(self.failed - {rank})
        self.recovered_ranks.append(rank)
        self.clock(rank).synchronize_to(self.elapsed())
        self.metrics.incr("cluster.respawns", rank=rank)

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nprocs:
            raise SimulationError(f"rank {rank} out of range 0..{self.nprocs - 1}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Cluster(nprocs={self.nprocs}, nodes={self.fdh.num_nodes}, "
            f"costs={self.costs.name!r}, failed={len(self.failed_ranks())})"
        )
