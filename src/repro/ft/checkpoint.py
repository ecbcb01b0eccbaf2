"""Coordinated checkpointing of window contents (§3.1, §6.2).

The :class:`CoordinatedCheckpointer` decides *when* a checkpoint is taken —
collectively, at an epoch boundary, with the Locks scheme's guard (§3.1.2)
refusing to start while any rank holds a lock — and hands the live windows and
their member ranks to a pluggable :class:`~repro.ft.stores.CheckpointStore`, which
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
:class:`~repro.ft.recovery.LocalizedReplay` can rebuild a failed rank's
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
    per-rank logged volume drives demand checkpoints.  Determinants are not stored:
    a retained action derives its own (:meth:`~repro.rma.actions.CommAction.determinant`).

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

    def __init__(self, *, retain_actions: bool = True) -> None:
        self.retain_actions = retain_actions
        self._charge: tuple | None = None  # (clocks, log prices, bookkeeping) at attach
        self.bytes_logged: dict[int, int] = defaultdict(int)
        #: Element ranges written by completed put-like actions since the
        #: last truncation, keyed ``(target rank, window name)`` — the stores
        #: read it (unmerged) as the change-set of every row they trust.
        #: Local stores (``ctx.local`` writes) never reach it.  Kept regardless
        #: of ``retain_actions``: ranges are a few ints, not pinned payloads.
        self._dirty: dict[tuple[int, str], list[tuple[int, int]]] = defaultdict(list)
        #: Completed actions since the last truncation, in completion order.
        self.actions: list[CommAction] = []
        #: Positions into :attr:`actions`, one per ``FtStack.end_step``: after a
        #: step's kernels when a step-closing sync follows, and after the step;
        #: everything past the last one is the partial work a crash aborted.
        self.step_marks: list[int] = []
        #: Whether the last mark closed only a step's kernels, not its sync.
        self.in_closing_sync = False

    def attach(self, runtime: "RmaRuntime") -> None:
        costs = runtime.cluster.costs  # frozen, and the clock list is never rebound
        self._charge = runtime._clock_of, costs.log_prices, costs.log_bookkeeping

    def after_comm(self, action: CommAction) -> None:
        nbytes, src, put_like = action.nbytes, action.src, action.kind.is_put_like
        self.bytes_logged[src] += nbytes
        if self.retain_actions:
            self.actions.append(action)
        if put_like:
            self._dirty[action.trg, action.window].append((action.offset, action.count))
        if self._charge is not None:  # in place, in VirtualClock.advance's field order
            clocks, prices, bookkeeping = self._charge
            clock, overhead = clocks[src], prices[nbytes] if put_like else bookkeeping
            clock.now += overhead
            clock.ticks += 1
            clock.protocol += overhead

    def forget(self, ranks: list[int]) -> None:
        """Drop the logged volume of ``ranks`` repaired in place (best-effort
        repair): a replacement process starts with an empty log, so only its
        own traffic counts toward the next demand checkpoint.  The rule never
        replays, so the log retains no actions to drop; a rollback truncates
        the whole log instead."""
        for rank in ranks:
            self.bytes_logged.pop(rank, None)

    def mark_step(self, *, kernels_only: bool = False) -> None:
        """Record the end of a job step, or of its kernels (``FtStack.end_step``)."""
        self.step_marks.append(len(self.actions))
        self.in_closing_sync = kernels_only

    def max_logged_bytes(self) -> int:
        """Largest per-rank logged volume since the last truncation."""
        return max(self.bytes_logged.values(), default=0)

    def truncate(self) -> None:
        """Drop the log (a fresh checkpoint makes replaying it unnecessary)."""
        self.bytes_logged.clear()
        self.actions = []  # a new list: a replay may still read the old one in place
        self.step_marks.clear()
        self.in_closing_sync = False
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
        for rank, own in enumerate(runtime.counters.records):
            if own.held_locks:
                raise EpochError(
                    f"checkpoint must start at an epoch boundary, but rank "
                    f"{rank} holds a lock (LC={own.lc})"
                )
        pending = runtime.pending_nb_ops()
        if pending:
            raise EpochError(
                f"checkpoint must start at an epoch boundary, but {pending} "
                f"nonblocking operations are issued and unflushed; complete "
                f"them (flush/unlock/gsync) before checkpointing"
            )
        # Coordination: agree to checkpoint (a barrier), then place.  The
        # store is handed the live windows and the member ranks whose rows it
        # places — an epoch boundary, so nothing is in flight, and every member
        # is alive — and copies what it retains.  Ranks excised by a degraded
        # continuation are no longer members: they are neither checkpointed
        # nor used as copy holders.
        cluster.barrier()
        # Local views end here (a store through a kept one now raises, not
        # goes unseen); the checkpoint's own read leaves no stamp.
        runtime.windows.seal()
        version = self.store.prepare(
            tag=tag,
            windows=runtime.windows.all(),
            ranks=[rank for rank in range(cluster.nprocs) if rank not in runtime.excised],
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
    def on_rank_failed(self, rank: int) -> None:
        self.store.drop_rank(rank)
