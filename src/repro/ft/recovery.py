"""Recovery: one procedure over a restoring set, four rules (§4.2–§4.3, §7).

When the application (or the session layer) observes a
:class:`~repro.errors.ProcessFailedError` it calls
:meth:`RecoveryManager.recover`.  The manager runs the one recovery
procedure; the configured :class:`RecoveryProtocol` is a *rule* that answers
its three questions — which ranks restore, from which checkpoint version,
and what the survivors do:

* :class:`GlobalRollback` (``"global"``) — the classic coordinated rollback
  (§4.2–§4.3): **every** rank restores from the newest checkpoint usable for
  all; survivors lose their post-checkpoint progress.
* :class:`LocalizedReplay` (``"localized"``) — log-based recovery (§7): only
  the failed ranks (and those an interrupted replay was rebuilding) restore
  and re-execute under a :class:`~repro.rma.replay.ReplayCursor` over the
  put/get log while the survivors keep their state and wait, so strictly
  fewer bytes move.  When the log cannot bridge, the rule falls back to the
  coordinated checkpoint (§3.2.3): the same recovery with every rank in the
  restoring set.
* :class:`ContinueDegraded` (``"degraded"``) — best-effort continuation (cf.
  Moreno & Ofria, arXiv:2211.10897): no rank restores; failed ranks are
  *excised* rather than respawned — operations targeting them are dropped,
  reads of their windows observe zeros — and the survivors keep running.
* :class:`BestEffort` (``"best_effort"``) — the same paper's other end: a
  failed rank is never fatal, so the procedure never runs.  The rank is
  *suspended* — operations toward it drop or serve stale checkpoint data —
  and :meth:`~repro.ft.stack.FtStack.repair` restores only it at the next
  step boundary.

A recovery no rule can serve — no stored version holds a copy of some rank
to roll back to, or no rank is left to continue — raises
:class:`~repro.errors.CatastrophicFailure`, the paper's restart case (§3.3).

Protocols are resolved by name through :data:`PROTOCOLS` (the same convention
as ``backend="sim"|"vector"``) and are orthogonal to the
:class:`~repro.ft.stores.CheckpointStore` they restore from.
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import CatastrophicFailure, QosError, RecoveryError
from repro.ft.checkpoint import ActionLog, CoordinatedCheckpointer
from repro.ft.stores import CheckpointStore, CheckpointVersion, RestorePayload
from repro.registry import register_kind, resolve_component
from repro.rma.replay import ReplayCursor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.rma.actions import CommAction
    from repro.rma.runtime import RmaRuntime
    from repro.rma.window import Window

__all__ = [
    "RecoveryOutcome",
    "RecoveryPlan",
    "RecoveryProtocol",
    "GlobalRollback",
    "LocalizedReplay",
    "ContinueDegraded",
    "BestEffort",
    "PROTOCOLS",
    "make_protocol",
    "RecoveryManager",
]


@dataclass(frozen=True)
class RecoveryOutcome:
    """What a recovery did, and where the session should resume.

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


@dataclass(frozen=True)
class RecoveryPlan:
    """A rule's answer: who restores, from which version, what survivors do.

    ``kind`` is the survivor mode and becomes the outcome's kind:
    ``"rollback"`` (survivors restore too — ``restoring`` is every rank),
    ``"replay"`` (survivors keep their state and wait out a replay) or
    ``"degraded"`` (nobody restores; the failed ranks are excised).
    ``version`` is ``None`` for ``"degraded"``, and for a rollback no stored
    version can serve.
    """

    kind: str
    restoring: tuple[int, ...]
    version: CheckpointVersion | None
    #: True when a localized rule fell back to the coordinated rollback.
    fallback: bool = False


class RecoveryProtocol(abc.ABC):
    """The rule :meth:`RecoveryManager.recover` asks how to recover."""

    #: Registry name of the protocol ("global", "localized", "degraded", ...).
    name: str = "abstract"

    #: Whether a failed rank is suspended instead of fatal: then no
    #: :class:`~repro.errors.ProcessFailedError` reaches :meth:`plan`, the
    #: runtime consults the rule on every path toward the rank, and
    #: :meth:`~repro.ft.stack.FtStack.repair` mends it at step boundaries.
    tolerates_failures: bool = False

    #: Whether the protocol replays the put/get log and therefore requires an
    #: :class:`~repro.ft.checkpoint.ActionLog` that *retains* completed
    #: actions (not just their byte counts).  :func:`~repro.ft.stack.
    #: build_ft_stack` makes its log retain them when this is set.
    needs_log: bool = False

    @abc.abstractmethod
    def plan(
        self, manager: "RecoveryManager", failed: list[int], prior: frozenset[int]
    ) -> RecoveryPlan:
        """Decide how to recover ``failed``; ``prior`` are the ranks an
        interrupted replay was still rebuilding.

        Raises :class:`~repro.errors.RecoveryError` when the rule's
        prerequisites are unmet (e.g. no checkpoint was ever taken).
        """


def _rollback_plan(
    store: CheckpointStore, nprocs: int, *, fallback: bool = False
) -> RecoveryPlan:
    """Every rank restores from the newest version usable for all."""
    everyone = list(range(nprocs))
    return RecoveryPlan("rollback", tuple(everyone), store.latest_usable(everyone), fallback)


def _checkpointed(store: CheckpointStore) -> CheckpointStore:
    """``store``, unless no checkpoint was ever committed to it."""
    if len(store) == 0:
        raise RecoveryError("no checkpoint has been taken; cannot recover")
    return store


class GlobalRollback(RecoveryProtocol):
    """Coordinated rollback (§4.2–§4.3): every rank restores from the newest
    version usable for all — windows *and* Eq. (1) state — so the re-executed
    program performs exactly the transitions of the first execution."""

    name = "global"

    def plan(
        self, manager: "RecoveryManager", failed: list[int], prior: frozenset[int]
    ) -> RecoveryPlan:
        return _rollback_plan(_checkpointed(manager.store), manager.runtime.cluster.nprocs)


class LocalizedReplay(RecoveryProtocol):
    """Log-based recovery (§7): the failed and interrupted-replay ranks restore
    from the newest version and re-execute under a cursor; survivors wait.

    The log is truncated at every committed checkpoint, so only the *newest*
    version and the log together describe the execution since it.  When that
    version cannot serve a restoring rank, the log cannot bridge from an
    older one: the plan is the coordinated rollback, flagged ``fallback``
    (§3.2.3).
    """

    name = "localized"
    needs_log = True

    def plan(
        self, manager: "RecoveryManager", failed: list[int], prior: frozenset[int]
    ) -> RecoveryPlan:
        store, log = _checkpointed(manager.store), manager.log
        restoring = tuple(sorted(set(failed) | prior))
        version = store.latest()
        if (
            log is None
            or not log.retain_actions
            or not all(store.available(version, r) for r in restoring)
        ):
            return _rollback_plan(store, manager.runtime.cluster.nprocs, fallback=True)
        return RecoveryPlan("replay", restoring, version)


class ContinueDegraded(RecoveryProtocol):
    """Best-effort continuation (Moreno & Ofria): no rank restores, no
    checkpoint is needed; the failed ranks are excised (:meth:`~repro.rma.
    runtime.RmaRuntime.excise_rank`) and the survivors re-execute the
    aborted step alone.  The result is *not* bit-identical to a failure-free
    run — availability is traded for precision."""

    name = "degraded"

    def plan(
        self, manager: "RecoveryManager", failed: list[int], prior: frozenset[int]
    ) -> RecoveryPlan:
        return RecoveryPlan("degraded", (), None)


#: The events :meth:`BestEffort.count` counts (as ``qos.<event>`` metrics), in
#: report order.  ``dropped_puts``/``dropped_gets``/``stale_reads``/``dropped_syncs``
#: are attributed to the *origin* (the survivor whose operation was
#: tolerated), ``discarded_inflight``/``suspended_steps``/``repairs`` to the
#: failed rank itself.
_COUNTER_FIELDS = (
    "dropped_puts",
    "dropped_gets",
    "stale_reads",
    "dropped_syncs",
    "discarded_inflight",
    "suspended_steps",
    "repairs",
)


class BestEffort(RecoveryProtocol):
    """Best-effort delivery (Moreno & Ofria): drop or serve stale, never stall.

    A failed (non-excised) rank is *suspended*: its own calls raise
    :class:`~repro.errors.RankSuspendedError` (the scheduler skips just its
    turn), puts toward it drop (there is no memory to write), and gets toward
    it deterministically either drop — the origin observes zeros — or are
    served *stale* from the newest checkpoint copy of its window.  The choice
    hashes ``(seed, GNC, tolerated-op index)`` through crc32, the library's
    seeded-entropy convention, so sim/vector/proc agree bit-for-bit: the
    suspended set changes only at injector-controlled completion-stream
    positions.  ``stale_fraction`` is the probability mass given to stale
    service (the rest drops); with no usable checkpoint copy a would-be stale
    read drops.  Every tolerated operation is counted once (:meth:`count`) in
    the job's per-rank ``qos.*`` metrics, which :mod:`repro.qos.engine`
    reports.

    The rule is bound once to a runtime and the store it serves stale reads
    from (one instance per job); the recovery procedure never asks it for a
    plan.
    """

    name = "best_effort"
    tolerates_failures = True

    def __init__(self, seed: int = 0, stale_fraction: float = 0.5) -> None:
        if not 0.0 <= stale_fraction <= 1.0:
            raise QosError(
                f"stale_fraction must be within [0, 1], got {stale_fraction}"
            )
        self.seed = int(seed)
        self.stale_fraction = float(stale_fraction)
        self._runtime: "RmaRuntime | None" = None
        self._store: CheckpointStore | None = None
        #: Per-origin count of tolerated ops (the deterministic op index).
        self._op_index: dict[int, int] = {}

    def bind(self, runtime: "RmaRuntime", store: CheckpointStore | None) -> None:
        """Attach the rule to a job; one instance per job (like backends)."""
        if self._runtime is not None and self._runtime is not runtime:
            raise QosError(
                f"recovery rule {self.name!r} is already bound to a job; it "
                f"holds per-job state and cannot be reused — construct a "
                f"fresh instance per job"
            )
        self._runtime = runtime
        self._store = store

    def plan(
        self, manager: "RecoveryManager", failed: list[int], prior: frozenset[int]
    ) -> RecoveryPlan:
        raise RecoveryError(
            "best-effort delivery suspends failed ranks and repairs them at step "
            "boundaries; the recovery procedure has nothing to plan"
        )

    def count(self, event: str, rank: int, n: int = 1) -> None:
        """Record ``n`` occurrences of delivery decision ``event`` at ``rank``:
        one bump of the job's ``qos.<event>`` metric, one ``on_qos_decision``."""
        if event not in _COUNTER_FIELDS:
            raise QosError(
                f"unknown qos event {event!r}; counted events are: "
                f"{', '.join(_COUNTER_FIELDS)}"
            )
        self._runtime.cluster.metrics.incr(f"qos.{event}", n, rank=rank)
        decided = self._runtime.interceptors.on_qos_decision
        if decided is not None:
            decided(event, rank, n)

    def suspended(self, runtime: "RmaRuntime") -> frozenset[int]:
        """The failed, non-excised ranks: derived from the cluster's failed
        set, so the answer is backend-independent at every program point."""
        return frozenset(
            rank
            for rank in runtime.cluster.failed_ranks()
            if rank not in runtime.excised
        )

    def _entropy(self, src: int, gnc: int, index: int) -> float:
        """Uniform-ish [0, 1) from the deterministic drop/stale coordinates."""
        h = 0
        for part in (self.seed, src, gnc, index):
            h = zlib.crc32(int(part).to_bytes(8, "little", signed=True), h)
        return h / 2**32

    def _stale_payload(self, action: "CommAction", win: "Window") -> np.ndarray | None:
        """The newest checkpointed copy of the targeted slice (None = none)."""
        if self._store is None:
            return None
        for version in reversed(self._store.versions):
            if not self._store.available(version, action.trg):
                continue
            payload = self._store.fetch(version, action.trg)
            if payload is None or action.window not in payload.windows:
                continue
            data = payload.windows[action.window]
            return np.array(
                data[action.offset : action.offset + action.count],
                dtype=win.dtype, copy=True,
            ).ravel()
        return None

    def resolve(
        self, action: "CommAction", win: "Window", runtime: "RmaRuntime"
    ) -> None:
        """Decide the fate of one operation toward a suspended rank: fill a
        get-like ``action.data`` (zeros on drop, checkpoint data on stale
        service) and :meth:`count` the event; never touch the suspended
        rank's (invalidated) window buffer."""
        src = action.src
        index = self._op_index.get(src, 0)
        self._op_index[src] = index + 1
        if not action.kind.is_get_like:
            self.count("dropped_puts", src)
            return
        stale = (
            self.stale_fraction > 0.0
            and self._entropy(src, action.GNC, index) < self.stale_fraction
        )
        payload = self._stale_payload(action, win) if stale else None
        served = np.zeros(action.count, dtype=win.dtype) if payload is None else payload
        action.data = served[0] if action.kind.is_scalar else served  # FAO/CAS: a scalar
        if payload is None:
            self.count("dropped_gets", src)
            return
        self.count("stale_reads", src)
        # The stale copy is served from a surviving checkpoint replica: a
        # local memory read, not a remote transfer to dead hardware.
        runtime.cluster.advance(
            src,
            runtime.cluster.costs.local_copy(action.count * win.itemsize),
            kind="comm",
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BestEffort(seed={self.seed}, stale_fraction={self.stale_fraction})"


#: Registry of constructable recovery protocols, by name.
PROTOCOLS: dict[str, type[RecoveryProtocol]] = {
    GlobalRollback.name: GlobalRollback,
    LocalizedReplay.name: LocalizedReplay,
    ContinueDegraded.name: ContinueDegraded,
    BestEffort.name: BestEffort,
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


def respawn_ranks(runtime: "RmaRuntime", ranks: list[int]) -> None:
    """Respawn ``ranks``: fresh processes, reallocated buffers (§4.3)."""
    for rank in ranks:
        runtime.cluster.respawn_rank(rank)
        # Through the backend hook (not the registry directly): storage
        # ownership lives with the backend, and a custom one may rebuild
        # per-rank state of its own on respawn.
        runtime.backend.reallocate_rank(rank)
        runtime.notify_respawn(rank)


def restore_rank(
    runtime: "RmaRuntime", store: CheckpointStore, version: CheckpointVersion, rank: int
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


def _unserved(store: CheckpointStore, failed: list[int], plan: RecoveryPlan) -> str:
    """The message of a rollback no stored version can serve: the newest
    version's tag and the restoring ranks it holds no copy for."""
    newest = store.latest()
    lost = [r for r in plan.restoring if not store.available(newest, r)]
    return (
        f"ranks {failed} failed and no stored checkpoint retains a copy for "
        f"every rank; the newest (tag {newest.tag}) has none for ranks {lost}; "
        f"the job must restart"
    )


class RecoveryManager:
    """Runs the one recovery procedure over a runtime, a checkpointer and a rule."""

    def __init__(
        self,
        runtime: "RmaRuntime",
        checkpointer: CoordinatedCheckpointer,
        protocol: RecoveryProtocol | str | None = None,
    ) -> None:
        self.runtime: RmaRuntime | None = runtime
        self.checkpointer: CoordinatedCheckpointer | None = checkpointer
        self.protocol = make_protocol(protocol)

    # ------------------------------------------------------------------
    @property
    def store(self) -> CheckpointStore:
        """The checkpoint store recovery restores from."""
        return self._attached().store

    @property
    def log(self) -> ActionLog | None:
        """The put/get log, if the stack keeps one."""
        return self._attached().log

    def _attached(self) -> CoordinatedCheckpointer:
        if self.checkpointer is None:
            raise RecoveryError(
                "the fault-tolerance stack was uninstalled; this manager is detached"
            )
        return self.checkpointer

    # ------------------------------------------------------------------
    def recover(self) -> RecoveryOutcome:
        """Recover all currently failed ranks as the configured rule plans it.

        Raises :class:`~repro.errors.RecoveryError` when no rank is failed,
        the rule's prerequisites are unmet or the manager is detached, and
        :class:`~repro.errors.CatastrophicFailure` when no stored version can
        serve a rollback or no rank is left to continue a degraded job.
        """
        checkpointer = self._attached()
        runtime, store, log = self.runtime, checkpointer.store, checkpointer.log
        cluster = runtime.cluster
        # A failure can strike *during* an earlier replay; its partially
        # reconstructed ranks restore afresh along with the newly failed ones,
        # under a fresh cursor over the log.
        interrupted = runtime.end_replay()
        runtime.observe_failures()
        failed = [r for r in cluster.failed_ranks() if r not in runtime.excised]
        if not failed:
            raise RecoveryError("recover() called but no rank is failed")
        prior = interrupted.restoring if interrupted is not None else frozenset()
        plan = self.protocol.plan(self, failed, prior)
        kind, version, restoring = plan.kind, plan.version, plan.restoring
        if plan.fallback:
            cluster.metrics.incr("ft.recovery_fallbacks")
        degraded, replay = kind == "degraded", kind == "replay"
        if degraded and runtime.excised | set(failed) >= set(range(cluster.nprocs)):
            raise CatastrophicFailure(
                f"ranks {failed} failed and every other rank is already excised; "
                f"no rank is left to continue the job"
            )
        if not degraded and version is None:
            raise CatastrophicFailure(_unserved(store, failed, plan))
        # Operations issued after the checkpoint but never completed are part
        # of the execution being undone (or re-executed): drop them from the
        # backend's queues (and poison their handles) before restoring, or a
        # later flush would apply them on top of the restored windows.  A crash
        # in a step-closing sync found every kernel finished: survivors do not
        # re-execute that step, their operations complete at the re-joined sync.
        closing = replay and log.in_closing_sync
        runtime.discard_pending(restoring if closing else None)
        announced = restoring if replay else failed
        runtime.interceptors.on_recovery_start(announced, localized=replay)
        respawned = [] if degraded else failed
        respawn_ranks(runtime, respawned)
        for rank in failed if degraded else ():
            runtime.excise_rank(rank)
        if kind == "rollback":
            # Survivors roll back with everyone: windows *and* Eq. (1) state.
            runtime.counters.restore(version.counter_states)
        else:
            # Survivors keep their state, but locks acquired inside the
            # aborted step would wedge its re-execution: release them.  A
            # restoring rank re-executes from the checkpoint, record and all.
            runtime.counters.release_locks()
            for rank in restoring:
                runtime.counters.records[rank] = version.counter_states[rank].copy()
        restored_bytes = 0
        for rank in restoring:
            restored_bytes += restore_rank(runtime, store, version, rank).nbytes
        if kind == "rollback" and log is not None:
            # The rolled-back actions' log entries describe execution that is
            # being undone; the restored checkpoint starts with an empty log.
            log.truncate()
        runtime.interceptors.on_recovery_complete(announced)
        if replay:
            # Install the cursor *before* the closing barrier: if the barrier
            # observes yet another failure, the retry finds the cursor active
            # and folds its restoring set into the next attempt.
            # The gsyncs the survivors joined since the checkpoint: their GNC's lead.
            gnc = [own.gnc for own in version.counter_states]
            ahead = [own.gnc - gnc[r] for r, own in enumerate(runtime.counters.records)]
            runtime.begin_replay(ReplayCursor(
                list(log.actions), set(restoring), log.step_marks, gnc, max(ahead), closing
            ))
        cluster.barrier()
        cluster.metrics.incr("ft.recoveries")
        if kind != "rollback":
            counter = "ft.localized_recoveries" if replay else "ft.degraded_continuations"
            cluster.metrics.incr(counter)
        for rank in respawned:
            cluster.metrics.incr("ft.recovered_ranks", rank=rank)
        return RecoveryOutcome(
            kind=kind,
            tag=None if version is None else version.tag,
            failed=tuple(failed),
            restored_bytes=restored_bytes,
            protocol=self.protocol.name,
            fallback=plan.fallback,
        )

    def detach(self) -> None:
        """Drop the live runtime/checkpointer references (stack uninstalled).

        A detached manager refuses further :meth:`recover` calls instead of
        silently operating on a runtime the stack no longer observes.
        Idempotent.
        """
        self.runtime = None
        self.checkpointer = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "detached" if self.runtime is None else "attached"
        return f"RecoveryManager(protocol={self.protocol.name!r}, {state})"
