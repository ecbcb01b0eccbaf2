"""Coordinated checkpointing of window contents (§3.1, §6.2).

The :class:`CoordinatedCheckpointer` decides *when* a checkpoint is taken —
collectively, at an epoch boundary, with the Locks scheme's guard (§3.1.2)
refusing to start while any rank holds a lock — and hands the per-rank window
snapshots to a pluggable :class:`~repro.ft.stores.CheckpointStore`, which
decides *where* the copies live (in-memory buddies, disk, XOR parity; §3.1,
§3.3, §5).

Two triggers are supported:

* **Coordinated** checkpoints (§3.1): a collective
  :meth:`CoordinatedCheckpointer.checkpoint` taken at an epoch boundary.
* **Demand** checkpoints (§6.2): an :class:`ActionLog` interceptor accumulates
  the put/get log; when the logged volume passes a threshold,
  :meth:`CoordinatedCheckpointer.maybe_checkpoint` takes a fresh checkpoint
  and truncates the log — bounding log growth exactly like the paper's
  demand checkpoints.

The :class:`ActionLog` is also the substrate of log-based recovery (§7): it
retains the completed actions themselves — determinants *and* payloads — so
:class:`~repro.ft.protocols.LocalizedReplay` can rebuild a failed rank's
post-checkpoint state without rolling survivors back.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any

from repro.errors import CheckpointError, EpochError
from repro.ft.stores import CheckpointStore, CheckpointVersion, make_store
from repro.rma.actions import CommAction
from repro.rma.interceptor import RmaInterceptor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.rma.runtime import RmaRuntime

__all__ = [
    "ActionLog",
    "CheckpointVersion",
    "CoordinatedCheckpointer",
]


class ActionLog(RmaInterceptor):
    """The put/get log of §6.2, kept at the origin of every action.

    The log observes the runtime's *completion stream*: ``after_comm`` fires
    when an operation completes (at the flush/unlock/gsync that closes its
    epoch, immediately for blocking calls), not when it is issued — so under
    a batching backend that reorders or coalesces execution, the log still
    records exactly the operations whose effects are part of the consistent
    state, and demand-checkpoint decisions stay correct.  Each completed
    communication action adds its payload size to the origin's logged volume;
    the bookkeeping plus the local copy of put data is charged on the
    origin's clock as protocol overhead (the paper's logging cost).  The
    per-rank logged volume drives demand checkpoints.  Determinants are not
    stored: a retained action derives its own on demand
    (:meth:`~repro.rma.actions.CommAction.determinant`).

    With ``retain_actions`` (on by default, but disabled by
    :func:`~repro.ft.stack.build_ft_stack` for protocols that never replay)
    the log also retains, since the last truncation, the completed
    :class:`~repro.rma.actions.CommAction` objects themselves, in completion
    order — puts keep the operand they were issued with, gets the data they
    fetched — which is what localized (log-based) recovery replays (§7).
    Retention pins the payload arrays until the next truncation, so
    protocols that only need the demand-checkpoint byte counts should turn
    it off.
    """

    name = "action-log"

    def __init__(self, *, retain_actions: bool = True) -> None:
        self.retain_actions = retain_actions
        self._runtime: RmaRuntime | None = None
        self.bytes_logged: dict[int, int] = defaultdict(int)
        #: Element ranges written by completed put-like actions since the
        #: last truncation, keyed ``(target rank, window name)`` — the stores
        #: read it (unmerged) as the change-set of every slab they trust.
        #: Local stores (``ctx.local`` writes) never reach it.  Kept regardless
        #: of ``retain_actions``: ranges are a few ints, not pinned payloads.
        self._dirty: dict[tuple[int, str], list[tuple[int, int]]] = defaultdict(list)
        #: Completed actions since the last truncation, in completion order.
        self.actions: list[CommAction] = []
        #: Positions into :attr:`actions` marking completed job-step
        #: boundaries (recorded by ``FtStack.end_step``); everything past the last
        #: marker is the partial work of a step a crash aborted.
        self.step_marks: list[int] = []
        #: While a localized recovery runs, respawns must not clear the log —
        #: it is exactly what reconstructs the restored ranks' windows.
        self._preserve_on_respawn = False

    def attach(self, runtime: "RmaRuntime") -> None:
        self._runtime = runtime

    def after_comm(self, action: CommAction) -> None:
        nbytes, src, put_like = action.nbytes, action.src, action.kind.is_put_like
        self.bytes_logged[src] += nbytes
        if self.retain_actions:
            self.actions.append(action)
        if put_like:
            self._dirty[action.trg, action.window].append((action.offset, action.count))
        if self._runtime is not None:  # in place, in VirtualClock.advance's field order
            clock, costs = self._runtime._clock_of[src], self._runtime.cluster.costs
            overhead = costs.log_prices[nbytes] if put_like else costs.log_bookkeeping
            clock.now += overhead
            clock.ticks += 1
            clock.protocol += overhead

    def on_recovery_start(self, ranks: list[int], *, localized: bool) -> None:
        self._preserve_on_respawn = localized

    def on_recovery_complete(self, ranks: list[int]) -> None:
        self._preserve_on_respawn = False

    def on_respawn(self, rank: int) -> None:
        if self._preserve_on_respawn:
            return
        # A replacement process starts with an empty log (its memory is new).
        # Positions in step_marks go stale with the filtering; the rollback
        # protocols that take this path truncate the whole log right after.
        self.bytes_logged.pop(rank, None)
        self.actions = [a for a in self.actions if a.src != rank]
        self.step_marks = [m for m in self.step_marks if m <= len(self.actions)]

    def mark_step(self) -> None:
        """Record a completed job-step boundary (called by ``FtStack.end_step``)."""
        if not self.step_marks or self.step_marks[-1] != len(self.actions):
            self.step_marks.append(len(self.actions))

    def last_mark(self) -> int:
        """Log position of the last completed step boundary (0 if none)."""
        return self.step_marks[-1] if self.step_marks else 0

    def max_logged_bytes(self) -> int:
        """Largest per-rank logged volume since the last truncation."""
        return max(self.bytes_logged.values(), default=0)

    def total_logged_bytes(self) -> int:
        """Sum of logged volume over all ranks."""
        return sum(self.bytes_logged.values())

    def truncate(self) -> None:
        """Drop the log (a fresh checkpoint makes replaying it unnecessary)."""
        self.bytes_logged.clear()
        self.actions.clear()
        self.step_marks.clear()
        self._dirty.clear()


class CoordinatedCheckpointer(RmaInterceptor):
    """Takes coordinated checkpoints through a pluggable placement store.

    Register it on the runtime with
    :meth:`~repro.rma.runtime.RmaRuntime.add_interceptor` so that failures
    propagate into the store automatically (lost copies are dropped the moment
    the failure is observed).

    Parameters
    ----------
    level:
        FDH level across which buddy/parity placement is spread; ``1`` means
        "a different compute node", higher levels survive larger failure
        domains (§5).
    store:
        A :class:`~repro.ft.stores.CheckpointStore` instance or registered
        name (``"memory"``, ``"disk"``, ``"parity"``, ``"multilevel"``);
        defaults to the in-memory buddy scheme.
    log:
        Optional :class:`ActionLog` driving demand checkpoints.
    demand_threshold_bytes:
        Per-rank logged volume above which :meth:`maybe_checkpoint` fires.
    """

    name = "coordinated-checkpointer"

    def __init__(
        self,
        *,
        level: int = 1,
        store: CheckpointStore | str | None = None,
        log: ActionLog | None = None,
        demand_threshold_bytes: int | None = None,
    ) -> None:
        self.level = level
        self.store = make_store(store)
        self.log = log
        self.demand_threshold_bytes = demand_threshold_bytes
        self._runtime: RmaRuntime | None = None

    def attach(self, runtime: "RmaRuntime") -> None:
        self._runtime = runtime
        self.store.bind(runtime, level=self.level)
        if self.log is not None:
            self.store.attach_log(self.log)

    @property
    def buddies(self) -> dict[int, int]:
        """Buddy assignment of the store, if its placement uses buddies."""
        return getattr(self.store, "buddies", {})

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    @property
    def runtime(self) -> "RmaRuntime":
        if self._runtime is None:
            raise CheckpointError("checkpointer is not attached to a runtime")
        return self._runtime

    def checkpoint(self, tag: Any = None) -> CheckpointVersion:
        """Take one coordinated checkpoint of every window at every rank.

        The checkpoint must start at an epoch boundary: per the Locks scheme
        (§3.1.2) no rank may hold a lock, and per §2.4 every rank must be
        alive (recovery must complete first; ranks excised by a degraded
        continuation are no longer members and do not count).
        """
        runtime = self.runtime
        cluster = runtime.cluster
        dead = [r for r in cluster.failed_ranks() if r not in runtime.excised]
        if dead:
            raise CheckpointError(
                f"cannot checkpoint while ranks {dead} are failed; recover first"
            )
        for rank in range(cluster.nprocs):
            if runtime.counters.holds_any_lock(rank):
                raise EpochError(
                    f"checkpoint must start at an epoch boundary, but rank "
                    f"{rank} holds a lock (LC={runtime.counters.lc(rank)})"
                )
        pending = runtime.pending_nb_ops()
        if pending:
            raise EpochError(
                f"checkpoint must start at an epoch boundary, but {pending} "
                f"nonblocking operations are issued and unflushed; complete "
                f"them (flush/unlock/gsync) before checkpointing"
            )
        # Coordination: agree to checkpoint (a barrier), then place.  The
        # store is handed the windows' live buffers — an epoch boundary, so
        # nothing is in flight — and copies what it retains.  Ranks excised by
        # a degraded continuation are no longer members: they are neither
        # checkpointed nor used as copy holders.
        cluster.barrier()
        # Local views end here (a store through a kept one now raises, not
        # goes unseen); the checkpoint's own read leaves no stamp.
        runtime.windows.seal()
        windows = runtime.windows.all()
        snapshots = {
            rank: {window.name: window._region(rank, 0, window.size) for window in windows}
            for rank in range(cluster.nprocs)
            if rank not in runtime.excised
        }
        version = self.store.prepare(
            tag=tag,
            snapshots=snapshots,
            epoch_states=runtime.epochs.snapshot(),
            counter_states=runtime.counters.snapshot(),
        )
        # The closing barrier confirms every copy completed; only then does
        # the version become restorable and the log dispensable.  A failure
        # firing during the checkpoint aborts it without committing anything.
        cluster.barrier()
        self.store.commit(version)
        if self.log is not None:
            self.log.truncate()
        cluster.metrics.incr("ft.checkpoints")
        return version

    def maybe_checkpoint(self, tag: Any = None) -> CheckpointVersion | None:
        """Demand checkpoint: fire when the put/get log passed the threshold."""
        if self.log is None or self.demand_threshold_bytes is None:
            return None
        if self.log.max_logged_bytes() < self.demand_threshold_bytes:
            return None
        version = self.checkpoint(tag=tag)
        self.runtime.cluster.metrics.incr("ft.demand_checkpoints")
        return version

    # ------------------------------------------------------------------
    # Interceptor hooks
    # ------------------------------------------------------------------
    def on_failure_detected(self, rank: int) -> None:
        self.store.drop_rank(rank)
