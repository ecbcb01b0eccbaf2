"""Pluggable recovery protocols — *how* a job survives a failure (§4.2–§4.3, §7).

The paper's deepest protocol point is that recovery is a policy choice, not a
fixed mechanism.  A :class:`RecoveryProtocol` receives control when the
session observes a :class:`~repro.errors.ProcessFailedError` and decides what
"recovered" means:

* :class:`GlobalRollback` (``"global"``) — the classic coordinated rollback
  (§4.2–§4.3): respawn the failed ranks, restore **every** rank from the
  newest checkpoint usable for all, and re-execute from the checkpoint's
  step.  Simple and always applicable; survivors lose their post-checkpoint
  progress.
* :class:`LocalizedReplay` (``"localized"``) — log-based recovery (§7): only
  the failed ranks restore from the newest checkpoint; survivors keep their
  state.  The deterministic re-execution from the checkpoint step then runs
  under a :class:`~repro.rma.replay.ReplayCursor` — completed actions found
  in the put/get log are suppressed against survivors (no double-applied
  combining puts, the paper's ``M`` flag problem), re-applied only to the
  restoring ranks' windows, and gets are served their logged data.  Strictly
  fewer bytes move than under a global rollback; when the log cannot reach
  back to a version usable for the failed ranks (a rank lost together with
  its copies), the protocol *falls back* to the coordinated checkpoint,
  exactly as §3.2.3 prescribes.
* :class:`ContinueDegraded` (``"degraded"``) — best-effort continuation (cf.
  Moreno & Ofria, arXiv:2211.10897): failed ranks are *excised* rather than
  respawned.  Survivors see a shrunk membership — operations targeting an
  excised rank are dropped, reads of its windows observe zeros — and the job
  keeps running without any rollback at all.  No bit-identity is promised;
  availability is.

Protocols are resolved by name through :data:`PROTOCOLS` (the same convention
as ``backend="sim"|"vector"``) and are orthogonal to the
:class:`~repro.ft.stores.CheckpointStore` they restore from.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.errors import CatastrophicFailure, RecoveryError
from repro.ft.stores import CheckpointStore, CheckpointVersion, RestorePayload
from repro.registry import register_kind, resolve_component
from repro.rma.replay import ReplayCursor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.ft.recovery import RecoveryManager
    from repro.rma.runtime import RmaRuntime

__all__ = [
    "RecoveryOutcome",
    "RecoveryProtocol",
    "GlobalRollback",
    "LocalizedReplay",
    "ContinueDegraded",
    "PROTOCOLS",
    "make_protocol",
]


@dataclass(frozen=True)
class RecoveryOutcome:
    """What a recovery protocol did, and where the session should resume.

    ``kind`` is ``"rollback"`` (resume at the restored checkpoint's ``tag``),
    ``"replay"`` (resume at ``tag`` too, but under an active replay cursor so
    already-completed work is suppressed), or ``"degraded"`` (no rollback —
    re-execute the aborted step with the shrunk membership; ``tag`` is
    ``None``).
    """

    kind: str
    tag: Any
    #: Ranks that were failed when this recovery ran.
    failed: tuple[int, ...]
    #: Bytes restored from checkpoint copies into window memory.
    restored_bytes: int
    #: Name of the protocol that produced the outcome.
    protocol: str
    #: True when a localized recovery had to fall back to a global rollback.
    fallback: bool = False


class RecoveryProtocol(abc.ABC):
    """Strategy invoked by the :class:`~repro.ft.recovery.RecoveryManager`."""

    #: Registry name of the protocol ("global", "localized", "degraded", ...).
    name: str = "abstract"

    #: Whether the protocol replays the put/get log and therefore requires an
    #: :class:`~repro.ft.checkpoint.ActionLog` that *retains* completed
    #: actions (not just their byte counts).  :func:`~repro.ft.stack.
    #: build_ft_stack` forces such a log on when this is set.
    needs_log: bool = False

    @abc.abstractmethod
    def recover(self, manager: "RecoveryManager") -> RecoveryOutcome:
        """Handle all currently failed ranks; return where to resume.

        Raises
        ------
        RecoveryError
            If no rank is failed (nothing to recover) or the protocol's
            prerequisites are unmet (e.g. no checkpoint was ever taken).
        CatastrophicFailure
            If the job cannot be recovered under this protocol at all.
        """

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _require_failed(runtime: "RmaRuntime") -> list[int]:
        """Observe pending failures; return the failed ranks or raise."""
        runtime.observe_failures()
        failed = [
            r for r in runtime.cluster.failed_ranks() if r not in runtime.excised
        ]
        if not failed:
            raise RecoveryError("recover() called but no rank is failed")
        return failed

    @staticmethod
    def _restore_rank(
        runtime: "RmaRuntime",
        store: CheckpointStore,
        version: CheckpointVersion,
        rank: int,
    ) -> RestorePayload:
        """Restore one rank's windows from ``version``, charging the cost."""
        payload = store.fetch(version, rank)
        if payload is None:  # pragma: no cover - callers check availability
            raise CatastrophicFailure(f"no surviving copy for rank {rank}")
        cluster = runtime.cluster
        for name, data in payload.windows.items():
            runtime.windows.get(name).restore(rank, data)
        cluster.advance(rank, payload.seconds, kind="protocol")
        for peer in payload.peers:
            cluster.advance(peer, payload.seconds, kind="protocol")
        cluster.metrics.incr("ft.restored_bytes", payload.nbytes, rank=rank)
        return payload

    @staticmethod
    def _respawn(runtime: "RmaRuntime", ranks: list[int]) -> None:
        """Respawn ``ranks``: fresh processes, reallocated buffers (§4.3)."""
        for rank in ranks:
            runtime.cluster.respawn_rank(rank)
            # Through the backend hook (not the registry directly): storage
            # ownership lives with the backend, and a custom one may rebuild
            # per-rank state of its own on respawn.
            runtime.backend.reallocate_rank(rank)
            runtime.notify_respawn(rank)


class GlobalRollback(RecoveryProtocol):
    """Coordinated rollback of every rank (§4.2–§4.3), the historical behavior.

    1. every failed rank is **respawned** — the batch system provides a
       replacement process that inherits the rank number (§4.3);
    2. the replacement's invalidated window buffers are **reallocated**;
    3. every rank — replacements *and* survivors — **restores** its window
       contents from the newest checkpoint version the store can still serve
       for all ranks; windows *and* protocol state (epochs, counters, locks)
       roll back together, so the re-executed program performs exactly the
       same transitions as the first execution;
    4. a closing barrier re-synchronizes the job, and the session resumes
       from the restored step (the checkpoint's ``tag``).

    If some rank cannot be served by any stored version (it failed together
    with its buddy and no older version helps),
    :class:`~repro.errors.CatastrophicFailure` is raised — the paper's
    restart case (§3.3).
    """

    name = "global"

    def recover(self, manager: "RecoveryManager") -> RecoveryOutcome:
        runtime = manager.runtime
        cluster = runtime.cluster
        store = manager.store
        failed = self._require_failed(runtime)
        if len(store) == 0:
            raise RecoveryError("no checkpoint has been taken; cannot recover")
        all_ranks = list(range(cluster.nprocs))
        version = store.latest_usable(all_ranks)
        if version is None:
            raise CatastrophicFailure(
                f"ranks {failed} failed and no stored checkpoint retains a "
                f"copy for every rank; the job must restart"
            )
        # Operations issued after the checkpoint but never completed are part
        # of the execution being undone: drop them from the backend's queues
        # (and poison their handles) before restoring, or a later flush would
        # replay them on top of the rolled-back windows.
        runtime.discard_pending()
        runtime.interceptors.on_recovery_start(failed, localized=False)
        self._respawn(runtime, failed)
        runtime.counters.restore(version.counter_states)
        restored_bytes = 0
        for rank in all_ranks:
            restored_bytes += self._restore_rank(runtime, store, version, rank).nbytes
        # The rolled-back actions' log entries describe execution that is
        # being undone; the restored checkpoint starts with an empty log.
        if manager.log is not None:
            manager.log.truncate()
        runtime.interceptors.on_recovery_complete(failed)
        cluster.barrier()
        cluster.metrics.incr("ft.recoveries")
        for rank in failed:
            cluster.metrics.incr("ft.recovered_ranks", rank=rank)
        return RecoveryOutcome(
            kind="rollback",
            tag=version.tag,
            failed=tuple(failed),
            restored_bytes=restored_bytes,
            protocol=self.name,
        )


class LocalizedReplay(RecoveryProtocol):
    """Log-based recovery (§7): restore only the failed ranks, replay the log.

    Requires the put/get :class:`~repro.ft.checkpoint.ActionLog` — the log is
    truncated at every committed checkpoint, so together the *newest* version
    and the log describe exactly the execution since it.  The failed ranks'
    windows are restored from that version; survivors are untouched (their
    uncommitted operations are discarded effect-free).  The session then
    re-executes the deterministic step loop from the checkpoint's step under
    a :class:`~repro.rma.replay.ReplayCursor`: survivors re-derive state they
    already hold (completed actions are suppressed, logged get data is
    served), while the restoring ranks genuinely re-execute — reconstructing
    their lost local computation — and receive the logged writes that
    targeted them, in issue order.

    When the newest version cannot serve one of the failed ranks (its copies
    died with it), the log cannot bridge from any older version and the
    protocol falls back to :class:`GlobalRollback` — the paper's fallback to
    the last coordinated checkpoint (§3.2.3), surfaced in the outcome's
    ``fallback`` flag.
    """

    name = "localized"
    needs_log = True

    def recover(self, manager: "RecoveryManager") -> RecoveryOutcome:
        runtime = manager.runtime
        cluster = runtime.cluster
        store = manager.store
        log = manager.log
        # A failure can strike *during* an earlier replay; its partially
        # reconstructed ranks must be restored afresh along with the newly
        # failed ones, under a fresh cursor over the (unchanged) log.
        interrupted = runtime.end_replay()
        prior = set(interrupted.restoring) if interrupted is not None else set()
        failed = self._require_failed(runtime)
        if len(store) == 0:
            raise RecoveryError("no checkpoint has been taken; cannot recover")
        restoring = sorted(set(failed) | prior)
        version = store.latest()
        assert version is not None
        replayable = log is not None and log.retain_actions
        if not replayable or not all(store.available(version, r) for r in restoring):
            # The log only reaches back to the newest committed version; if
            # that version cannot serve a failed rank, localized replay is
            # impossible — fall back to the coordinated checkpoint (§3.2.3).
            cluster.metrics.incr("ft.recovery_fallbacks")
            outcome = GlobalRollback().recover(manager)
            return replace(outcome, protocol=self.name, fallback=True)
        runtime.discard_pending()
        if interrupted is not None:
            # The interrupted replay left survivor windows as scratch space;
            # put their crash-time contents back before snapshotting anew.
            interrupted.restore_survivors(runtime)
        runtime.interceptors.on_recovery_start(restoring, localized=True)
        self._respawn(runtime, failed)
        restored_bytes = 0
        for rank in restoring:
            restored_bytes += self._restore_rank(runtime, store, version, rank).nbytes
        # Survivors keep epochs and window state, but locks acquired inside
        # the aborted step would deadlock its re-execution: release them.
        runtime.counters.release_locks()
        runtime.interceptors.on_recovery_complete(restoring)
        survivor_snapshot = {
            rank: {
                window.name: window.snapshot(rank)
                for window in runtime.windows.all()
            }
            for rank in range(cluster.nprocs)
            if rank not in restoring
        }
        # Install the cursor *before* the closing barrier: if the barrier
        # observes yet another failure, the retry finds the cursor active and
        # folds its restoring set into the next attempt.
        runtime.begin_replay(
            ReplayCursor(
                list(log.actions),
                set(restoring),
                partial_start=log.last_mark(),
                survivor_snapshot=survivor_snapshot,
            )
        )
        cluster.barrier()
        cluster.metrics.incr("ft.recoveries")
        cluster.metrics.incr("ft.localized_recoveries")
        for rank in failed:
            cluster.metrics.incr("ft.recovered_ranks", rank=rank)
        return RecoveryOutcome(
            kind="replay",
            tag=version.tag,
            failed=tuple(failed),
            restored_bytes=restored_bytes,
            protocol=self.name,
        )


class ContinueDegraded(RecoveryProtocol):
    """Best-effort continuation: excise the failed ranks, keep running.

    No respawn, no rollback, no checkpoint required.  Failed ranks are
    removed from the membership (:meth:`~repro.rma.runtime.RmaRuntime.
    excise_rank`): their window buffers are reallocated to zeros so
    survivors' reads stay defined, operations targeting them are silently
    dropped, and the cooperative scheduler stops running their kernels.  The
    aborted step is re-executed by the survivors alone.  This is the
    best-effort communication mode of Moreno & Ofria (arXiv:2211.10897):
    the result is *not* bit-identical to a failure-free run — availability
    and forward progress are traded for precision.  Failures that would
    excise every rank leave nobody to continue: that is a
    :class:`~repro.errors.CatastrophicFailure`, raised before anything is
    excised.
    """

    name = "degraded"

    def recover(self, manager: "RecoveryManager") -> RecoveryOutcome:
        runtime = manager.runtime
        cluster = runtime.cluster
        failed = self._require_failed(runtime)
        if runtime.excised | set(failed) >= set(range(cluster.nprocs)):
            raise CatastrophicFailure(
                f"ranks {failed} failed and every other rank is already excised; "
                f"no rank is left to continue the job"
            )
        runtime.discard_pending()
        runtime.interceptors.on_recovery_start(failed, localized=False)
        for rank in failed:
            runtime.excise_rank(rank)
        # Locks held inside the aborted step — by survivors or the excised
        # ranks themselves — would wedge the re-execution: release them.
        runtime.counters.release_locks()
        runtime.interceptors.on_recovery_complete(failed)
        cluster.barrier()
        cluster.metrics.incr("ft.recoveries")
        cluster.metrics.incr("ft.degraded_continuations")
        return RecoveryOutcome(
            kind="degraded",
            tag=None,
            failed=tuple(failed),
            restored_bytes=0,
            protocol=self.name,
        )


#: Registry of constructable recovery protocols, by name.
PROTOCOLS: dict[str, type[RecoveryProtocol]] = {
    GlobalRollback.name: GlobalRollback,
    LocalizedReplay.name: LocalizedReplay,
    ContinueDegraded.name: ContinueDegraded,
}
register_kind("recovery", PROTOCOLS)


def make_protocol(
    spec: "str | RecoveryProtocol | None",
    *,
    error: type[Exception] = RecoveryError,
) -> RecoveryProtocol:
    """Resolve a protocol specification into a fresh (or given) instance.

    ``None`` means the default (``"global"``); a string is looked up in
    :data:`PROTOCOLS` (an unknown name raises ``error`` listing the
    registered choices); a :class:`RecoveryProtocol` instance passes through.
    """
    return resolve_component(
        "recovery", spec, PROTOCOLS, RecoveryProtocol, error,
        default=GlobalRollback.name,
    )
