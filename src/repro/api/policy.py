"""Declarative specifications consumed by :func:`repro.api.launch`.

Instead of hand-wiring ``Cluster`` + ``RmaRuntime`` + ``ActionLog`` +
``CoordinatedCheckpointer`` + ``RecoveryManager``, a program *declares* what
it wants:

* :class:`Topology` — the shape of the simulated machine (processes per node,
  an optional failure-domain hierarchy, an optional cost model);
* :class:`FaultTolerancePolicy` — how the session should protect the run
  (checkpoint interval, demand threshold, buddy level, versions kept).

The session turns these into the concrete stack via
:meth:`Topology.build` and :meth:`FaultTolerancePolicy.install`; user code
never sees the underlying objects.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import PolicyError
from repro.ft.recovery import PROTOCOLS, RecoveryProtocol
from repro.ft.stack import FtStack, build_ft_stack
from repro.ft.stores import STORES, CheckpointStore
from repro.registry import resolve_component
from repro.simulator.cluster import Cluster
from repro.simulator.costs import CostModel
from repro.simulator.failures import FailureSchedule
from repro.simulator.topology import FailureDomainHierarchy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.rma.runtime import RmaRuntime

__all__ = ["FaultTolerancePolicy", "Topology"]


@dataclass(frozen=True)
class Topology:
    """Shape of the simulated machine a session runs on.

    The default packs two processes per node so that even small jobs span
    several failure domains — a prerequisite for buddy checkpointing at node
    level (``buddy_level=1``).
    """

    procs_per_node: int = 2
    fdh: FailureDomainHierarchy | None = None
    cost_model: CostModel | None = None

    def __post_init__(self) -> None:
        if self.procs_per_node < 1:
            raise PolicyError("procs_per_node must be at least 1")

    def build(
        self, nprocs: int, failure_schedule: FailureSchedule | None = None
    ) -> Cluster:
        """Instantiate the simulated cluster for an ``nprocs``-process job."""
        if nprocs < 1:
            raise PolicyError("a job needs at least one process")
        return Cluster.simple(
            nprocs,
            procs_per_node=self.procs_per_node,
            cost_model=self.cost_model,
            failure_schedule=failure_schedule,
            fdh=self.fdh,
        )


@dataclass(frozen=True)
class FaultTolerancePolicy:
    """How a session protects a run — the whole ftRMA protocol, declaratively.

    Attributes
    ----------
    interval:
        Take a coordinated checkpoint every ``interval`` job steps (§3.1).
        ``None`` disables periodic checkpoints; the session still takes one
        initial checkpoint so recovery is always possible.  The string
        ``"auto"`` asks the session to resolve the interval through the
        analytic Young/Daly model (:class:`repro.study.model.IntervalModel`)
        from the topology's cost model, the declared store, the job's window
        footprint, the measured per-step cost and :attr:`failure_rates`; the
        resolution is exposed as :attr:`repro.api.session.Job.resolved_interval`.
    failure_rates:
        Per-FDH-level exponential failure rates ``{level: failures/second}``
        feeding the ``interval="auto"`` resolution (§7.1).  ``None`` falls
        back to estimating an aggregate rate from the session's injected
        :class:`~repro.simulator.failures.FailureSchedule` (zero on a
        failure-free schedule — "auto" then takes no periodic checkpoints).
        Ignored for numeric intervals.
    demand_threshold_bytes:
        Per-rank put/get-log volume that triggers a demand checkpoint (§6.2);
        ``None`` disables demand checkpoints.
    buddy_level:
        FDH level across which checkpoint buddies are spread (§5); ``1``
        means "a different compute node".
    keep_versions:
        Committed checkpoint versions the store retains.
    store:
        Checkpoint placement strategy — ``"memory"`` (default; local + buddy
        copies, §3.1/§5), ``"disk"`` (spill to a directory, survives node
        loss), ``"parity"`` (XOR stripe across t-aware groups, §3.3),
        ``"multilevel"`` (a base store plus parity-/disk-class upper levels
        mirrored incrementally every n-th checkpoint, §5–§7), or a ready
        :class:`~repro.ft.stores.CheckpointStore` instance.
    recovery:
        Recovery protocol rule — ``"global"`` (default; coordinated
        rollback of every rank, §4.2), ``"localized"`` (only failed ranks
        restore, survivors keep state, the log replays, §7), ``"degraded"``
        (failed ranks are excised, survivors continue without them),
        ``"best_effort"`` (failed ranks are *suspended*: operations toward
        them deterministically drop or serve stale checkpoint data, survivors
        never stall, and the session repairs the suspended ranks at step
        boundaries — result quality traded for makespan), or a ready
        :class:`~repro.ft.recovery.RecoveryProtocol` instance (e.g.
        ``BestEffort(seed=7, stale_fraction=0.8)``).
    """

    interval: int | str | None = 10
    demand_threshold_bytes: int | None = None
    buddy_level: int = 1
    keep_versions: int = 2
    store: "CheckpointStore | str" = "memory"
    recovery: "RecoveryProtocol | str" = "global"
    failure_rates: Mapping[int, float] | None = None

    def __post_init__(self) -> None:
        if isinstance(self.interval, str):
            if self.interval != "auto":
                raise PolicyError(
                    f"interval must be a positive int, None, or 'auto'; "
                    f"got {self.interval!r}"
                )
        elif self.interval is not None and self.interval < 1:
            raise PolicyError("checkpoint interval must be at least 1 step")
        if self.failure_rates is not None:
            for level, rate in self.failure_rates.items():
                if rate < 0:
                    raise PolicyError(
                        f"failure rate for level {level} must be non-negative"
                    )
        if self.demand_threshold_bytes is not None and self.demand_threshold_bytes < 1:
            raise PolicyError("demand_threshold_bytes must be positive")
        if self.buddy_level < 1:
            raise PolicyError("buddy_level must be at least 1")
        if self.keep_versions < 1:
            raise PolicyError("keep_versions must be at least 1")
        # Reject unknown names at declaration time, through the same shared
        # resolver every seam uses (same error shape, nothing instantiated).
        resolve_component(
            "store", self.store, STORES, CheckpointStore, PolicyError, dry_run=True
        )
        resolve_component(
            "recovery", self.recovery, PROTOCOLS, RecoveryProtocol, PolicyError,
            dry_run=True,
        )

    def install(self, runtime: "RmaRuntime") -> FtStack:
        """Wire the protocol onto ``runtime`` (log, store, checkpointer, recovery)."""
        return build_ft_stack(
            runtime,
            buddy_level=self.buddy_level,
            demand_threshold_bytes=self.demand_threshold_bytes,
            keep_versions=self.keep_versions,
            store=self.store,
            recovery=self.recovery,
        )
