"""Policy-driven construction of the fault-tolerance stack.

Hand-wiring the ftRMA protocol takes four objects in the right order: an
:class:`~repro.ft.checkpoint.ActionLog` interceptor, a
:class:`~repro.ft.stores.CheckpointStore` placement strategy, a
:class:`~repro.ft.checkpoint.CoordinatedCheckpointer` registered *after* the
log, and a :class:`~repro.ft.recovery.RecoveryManager` bound to both plus a
:class:`~repro.ft.recovery.RecoveryProtocol` rule.
:func:`build_ft_stack` performs that wiring once, from plain keyword
parameters, so higher layers (notably the declarative
:class:`~repro.api.policy.FaultTolerancePolicy` of :mod:`repro.api`) can
install the whole protocol with one call.

The :class:`FtStack` also owns the job-step boundary: the session's one loop
calls :meth:`~FtStack.begin_step` before the kernels, :meth:`~FtStack.end_step`
after them and after the step-closing sync, and :meth:`~FtStack.repair` last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ProcessFailedError
from repro.ft.checkpoint import ActionLog, CoordinatedCheckpointer
from repro.ft.recovery import (
    RecoveryManager,
    RecoveryProtocol,
    make_protocol,
    respawn_ranks,
    restore_rank,
)
from repro.ft.stores import CheckpointStore, make_store

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.rma.runtime import RmaRuntime

__all__ = ["FtStack", "build_ft_stack"]


@dataclass
class FtStack:
    """The fully-wired fault-tolerance protocol of one job."""

    #: Put/get log: demand checkpoints, the store's trust rule, localized replay.
    log: ActionLog
    checkpointer: CoordinatedCheckpointer
    recovery: RecoveryManager

    @property
    def store(self) -> CheckpointStore:
        """The checkpoint store shared by checkpointer and recovery."""
        return self.checkpointer.store

    def begin_step(self, step: int, *, due: bool) -> tuple[float, bool] | None:
        """Open job step ``step``: observe failures, repair, then checkpoint —
        periodically when ``due``, else on demand if the log passed its threshold.

        A failure fired since the last synchronization surfaces here as
        :class:`~repro.errors.ProcessFailedError` (driving recovery), not as a
        :class:`~repro.errors.CheckpointError`.  Returns the committed
        checkpoint's ``(t_start, demand)``, or ``None`` when none was taken.
        """
        checkpointer = self.checkpointer
        runtime = checkpointer.runtime
        if runtime.replaying:
            # A localized recovery's replay is re-executing logged work; the
            # log being replayed must not be truncated by a fresh checkpoint
            # until the re-execution has caught up with the crash point.
            return None
        runtime.observe_failures()
        # A failure may have fired since the previous step's repair (time-based
        # schedules fire at observation points): repair it before snapshotting,
        # or the checkpoint would trip over the suspended rank's invalidated
        # buffers.  Any rank still dead is non-tolerated and fails the step.
        self.repair()
        dead = [r for r in runtime.cluster.failed_ranks() if r not in runtime.excised]
        if dead:
            raise ProcessFailedError(dead[0], f"step {step} observed failed ranks {dead}")
        if not due and checkpointer.demand_threshold_bytes is None:
            return None
        attempt = checkpointer.checkpoint if due else checkpointer.maybe_checkpoint
        t_start = runtime.cluster.elapsed()
        while True:
            try:
                taken = attempt(tag=step)
                return None if taken is None else (t_start, not due)
            except ProcessFailedError:
                # The checkpoint's own barriers can fire a scheduled failure;
                # under a tolerant rule that is a suspension, not a
                # rollback trigger: repair the rank and retry.
                if not self.recovery.protocol.tolerates_failures:
                    raise
                runtime.observe_failures()
                if not runtime.suspended_ranks():
                    raise
                self.repair()

    def end_step(self, *, kernels_only: bool = False) -> None:
        """Close a job step — or, ``kernels_only``, its kernels, before the
        step-closing sync: mark the put/get log, so a later replay knows what
        completed — or, during a replay, advance the cursor past the boundary
        (the log marks it already)."""
        runtime = self.checkpointer.runtime
        if runtime.replaying:
            runtime.replay_step_boundary()
        else:
            self.log.mark_step(kernels_only=kernels_only)

    def repair(self) -> None:
        """Repair suspended ranks in place (tolerant recovery rules only).

        Best-effort repair is the anti-rollback: each suspended rank is
        respawned and *only its* windows are restored, from the newest
        checkpoint version that still holds a copy for it (fresh zeroed
        buffers when none does — possible only before the first commit).
        Survivors keep their state and their clocks; nothing is re-executed.
        The repaired rank simply rejoins at the next step, its lost
        post-checkpoint progress being exactly the result quality the rule
        trades for never stalling admission.
        """
        rule = self.recovery.protocol
        if not rule.tolerates_failures:
            return
        runtime = self.checkpointer.runtime
        suspended = sorted(runtime.suspended_ranks())
        if not suspended:
            return
        store = self.store
        runtime.quiesce_suspended()
        respawn_ranks(runtime, suspended)
        for rank in suspended:
            version = next(
                (v for v in reversed(store.versions) if store.available(v, rank)),
                None,
            )
            if version is not None:
                restore_rank(runtime, store, version, rank)
            rule.count("repairs", rank)

    def uninstall(self, runtime: "RmaRuntime") -> None:
        """Fully detach the stack from ``runtime``.  Idempotent.

        Removes the interceptors, closes the store (releasing scratch
        directories and the like), uninstalls the tolerant rule and detaches
        the recovery manager, so nothing in the stack keeps a live reference
        into a runtime it no longer observes.  The store close runs even when an earlier teardown
        step raises: a leaked scratch directory outlives the process, a
        dangling interceptor does not.
        """
        try:
            runtime.remove_interceptor(self.log)
            runtime.remove_interceptor(self.checkpointer)
            runtime.set_tolerant(None)
        finally:
            try:
                self.checkpointer.store.close()
            finally:
                self.recovery.detach()


def build_ft_stack(
    runtime: "RmaRuntime",
    *,
    buddy_level: int = 1,
    demand_threshold_bytes: int | None = None,
    keep_versions: int = 2,
    store: CheckpointStore | str | None = None,
    recovery: RecoveryProtocol | str | None = None,
) -> FtStack:
    """Install the ftRMA protocol on ``runtime`` and return its pieces.

    Parameters
    ----------
    buddy_level:
        FDH level across which checkpoint copies are spread (§5).
    demand_threshold_bytes:
        Per-rank logged volume that triggers a demand checkpoint (§6.2);
        ``None`` disables demand checkpoints.
    keep_versions:
        How many committed checkpoint versions the store retains (ignored
        when a ready store instance is given — its own configuration wins).
    store:
        Checkpoint placement: ``"memory"`` (default; local + buddy copies),
        ``"disk"`` (spill to a directory), ``"parity"`` (XOR stripe across
        t-aware groups), ``"multilevel"`` (upper levels mirrored every n-th
        checkpoint), or a ready :class:`~repro.ft.stores.CheckpointStore`.
    recovery:
        Recovery rule: ``"global"`` (default; coordinated rollback of
        every rank), ``"localized"`` (restore only the failed ranks, replay
        the log), ``"degraded"`` (excise failed ranks, continue
        without them), ``"best_effort"`` (suspend failed ranks — operations
        toward them drop or serve stale checkpoint data, :meth:`FtStack.repair`
        mends them at step boundaries), or a ready
        :class:`~repro.ft.recovery.RecoveryProtocol` instance.
    """
    protocol = make_protocol(recovery)
    # Retaining completed actions (payloads included) is only needed by
    # log-replaying protocols; everyone else keeps byte counts only, so the
    # log's memory stays bounded between truncations.
    log = ActionLog(retain_actions=protocol.needs_log)
    runtime.add_interceptor(log)
    checkpointer = CoordinatedCheckpointer(
        level=buddy_level,
        store=make_store(store, keep_versions=keep_versions),
        log=log,
        demand_threshold_bytes=demand_threshold_bytes,
    )
    runtime.add_interceptor(checkpointer)
    manager = RecoveryManager(runtime, checkpointer, protocol)
    if protocol.tolerates_failures:
        protocol.bind(runtime, checkpointer.store)
        runtime.set_tolerant(protocol)
    return FtStack(log=log, checkpointer=checkpointer, recovery=manager)
