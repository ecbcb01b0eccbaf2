"""Policy-driven construction of the fault-tolerance stack.

Hand-wiring the ftRMA protocol takes four objects in the right order: an
:class:`~repro.ft.checkpoint.ActionLog` interceptor, a
:class:`~repro.ft.stores.CheckpointStore` placement strategy, a
:class:`~repro.ft.checkpoint.CoordinatedCheckpointer` registered *after* the
log, and a :class:`~repro.ft.recovery.RecoveryManager` bound to both plus a
:class:`~repro.ft.protocols.RecoveryProtocol` strategy.
:func:`build_ft_stack` performs that wiring once, from plain keyword
parameters, so higher layers (notably the declarative
:class:`~repro.api.policy.FaultTolerancePolicy` of :mod:`repro.api`) can
install the whole protocol with one call.

The :class:`FtStack` also owns the job-step boundary: the session's one loop
calls :meth:`~FtStack.begin_step` before the kernels, :meth:`~FtStack.end_step`
after them and after the closing sync, and :meth:`~FtStack.repair` last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ProcessFailedError
from repro.ft.checkpoint import ActionLog, CoordinatedCheckpointer
from repro.ft.protocols import RecoveryProtocol, make_protocol
from repro.ft.recovery import RecoveryManager
from repro.ft.stores import CheckpointStore, make_store
from repro.qos.delivery import DeliveryMode, make_delivery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.rma.runtime import RmaRuntime

__all__ = ["FtStack", "build_ft_stack"]


@dataclass
class FtStack:
    """The fully-wired fault-tolerance protocol of one job."""

    #: Put/get log driving demand checkpoints; ``None`` when logging is off.
    log: ActionLog | None
    checkpointer: CoordinatedCheckpointer
    recovery: RecoveryManager
    #: Delivery mode installed on the runtime (reliable unless declared).
    delivery: DeliveryMode

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
                # under a tolerant delivery mode that is a suspension, not a
                # rollback trigger: repair the rank and retry.
                if not self.delivery.tolerates_failures:
                    raise
                runtime.observe_failures()
                if not runtime.suspended_ranks():
                    raise
                self.repair()

    def end_step(self) -> None:
        """Close a job step: advance an active replay, then mark the log.

        Step boundaries anchor the localized-recovery machinery: during a
        replay they advance the cursor's phases (and end replay mode once the
        log has drained); in normal execution they mark the put/get log so a
        later replay knows where the fully-completed steps end.
        """
        runtime = self.checkpointer.runtime
        runtime.replay_step_boundary()
        # The boundary that *ends* a replay completes the crash-aborted step —
        # a boundary the original execution never got to mark.  Record it now:
        # without the mark, a later localized recovery would fold this step's
        # actions into the partial phase of its cursor, restore the survivor
        # snapshot one boundary too early and re-apply survivor-local work twice.
        if not runtime.replaying and self.log is not None:
            self.log.mark_step()

    def repair(self) -> None:
        """Repair suspended ranks in place (tolerant delivery modes only).

        Best-effort repair is the anti-rollback: each suspended rank is
        respawned and *only its* windows are restored, from the newest
        checkpoint version that still holds a copy for it (fresh zeroed
        buffers when none does — possible only before the first commit).
        Survivors keep their state and their clocks; nothing is re-executed.
        The repaired rank simply rejoins at the next step, its lost
        post-checkpoint progress being exactly the result quality the mode
        trades for never stalling admission.
        """
        if not self.delivery.tolerates_failures:
            return
        runtime = self.checkpointer.runtime
        suspended = sorted(runtime.suspended_ranks())
        if not suspended:
            return
        store = self.store
        runtime.quiesce_suspended()
        RecoveryProtocol._respawn(runtime, suspended)
        for rank in suspended:
            version = next(
                (v for v in reversed(store.versions) if store.available(v, rank)),
                None,
            )
            if version is not None:
                RecoveryProtocol._restore_rank(runtime, store, version, rank)
            self.delivery.count("repairs", rank)

    def uninstall(self, runtime: "RmaRuntime") -> None:
        """Fully detach the stack from ``runtime``.  Idempotent.

        Removes the interceptors, closes the store (releasing scratch
        directories and the like), uninstalls the delivery mode and detaches
        the recovery manager, so nothing in the stack keeps a live reference
        into a runtime it no longer observes.  The store close runs even when an earlier teardown
        step raises: a leaked scratch directory outlives the process, a
        dangling interceptor does not.
        """
        try:
            if self.log is not None:
                runtime.remove_interceptor(self.log)
            runtime.remove_interceptor(self.checkpointer)
            runtime.set_delivery(None)
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
    log_actions: bool = True,
    store: CheckpointStore | str | None = None,
    recovery: RecoveryProtocol | str | None = None,
    delivery: DeliveryMode | str | None = None,
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
    log_actions:
        Whether to install the put/get :class:`ActionLog`.  Forced on when
        ``demand_threshold_bytes`` is set (the threshold is measured on the
        log) or when the recovery protocol is the log-based
        :class:`~repro.ft.protocols.LocalizedReplay` (the log is what it
        replays).
    store:
        Checkpoint placement: ``"memory"`` (default; local + buddy copies),
        ``"disk"`` (spill to a directory), ``"parity"`` (XOR stripe across
        t-aware groups), or a ready
        :class:`~repro.ft.stores.CheckpointStore` instance.
    recovery:
        Recovery strategy: ``"global"`` (default; coordinated rollback of
        every rank), ``"localized"`` (restore only the failed ranks, replay
        the log), ``"degraded"`` (excise failed ranks, continue
        best-effort), or a ready
        :class:`~repro.ft.protocols.RecoveryProtocol` instance.
    delivery:
        Delivery mode under failure: ``"reliable"`` (default; any touch of a
        failed rank raises and a recovery protocol runs), ``"best_effort"``
        (failed ranks are suspended — operations toward them drop or serve
        stale checkpoint data, the session repairs them at step boundaries),
        or a ready :class:`~repro.qos.delivery.DeliveryMode` instance.
    """
    protocol = make_protocol(recovery)
    log: ActionLog | None = None
    if log_actions or demand_threshold_bytes is not None or protocol.needs_log:
        # Retaining completed actions (payloads included) is only needed by
        # log-replaying protocols; everyone else keeps byte counts only, so
        # the log's memory stays bounded between truncations.
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
    mode = make_delivery(delivery)
    mode.bind(runtime, checkpointer.store)
    runtime.set_delivery(mode)
    return FtStack(
        log=log,
        checkpointer=checkpointer,
        recovery=manager,
        delivery=mode,
    )
