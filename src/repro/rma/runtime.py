"""The SPMD RMA runtime — the coordination layer of the reproduction (§6).

:class:`RmaRuntime` binds the formal model (:mod:`repro.rma`) to the virtual
cluster (:mod:`repro.simulator`) and to a pluggable execution
:class:`~repro.backends.base.Backend` that owns window storage:

* every ``put``/``get``/atomic is materialized as *one record*: a
  :class:`~repro.rma.actions.CommAction` stamped with the recovery counters
  (EC, GC, SC, GNC), announced to the registered
  :class:`~repro.rma.interceptor.RmaInterceptor` chain, queued by the
  backend and returned to the caller as its own handle
  (:data:`~repro.rma.actions.OpHandle`).  Nonblocking variants
  (``put_nb``/``get_nb``/``accumulate_nb``) stop there — their effects and
  buffers materialize when a completion point (``flush``/``unlock``/
  ``gsync``) closes the epoch.  A blocking call completes in the frame that
  issues it — the backend's single-action hook
  (:attr:`~repro.backends.base.Backend.apply_one`) applies it, then it is
  announced and charged in place — or with the ``src -> trg`` queue when its
  origin has one; a one-element atomic takes and returns a scalar of the
  window dtype;
* an operation is *charged when it completes*: the batch a completion point
  gets back from the backend is the account — the origin's clock moves per
  target, by costs summed one operation at a time in issue order, the ``rma.*``
  metrics per batch (:meth:`RmaRuntime._retire`; a blocking call's own
  completion charges as a batch of one) — and an operation that is discarded
  or diverted instead is never charged;
* every ``lock``/``unlock``/``flush``/``gsync`` maintains the epoch and
  counter state exactly as §2.2 and §4.1 prescribe (unlock and flush complete
  outstanding operations and close the ``src -> trg`` epoch, a gsync
  completes and closes everything everywhere and bumps GNC);
* interceptors observe the *completion stream*: ``before_comm`` fires at
  issue, ``after_comm`` when the operation completes — so fault-tolerance
  logging sees exactly the operations whose effects are part of the
  consistent state, independent of how the backend batches or reorders
  execution internally;
* fail-stop failures surface as
  :class:`~repro.errors.ProcessFailedError` the moment an action touches a
  process known dead or a collective observes one (a worker killed silently
  behind the injector: at the next blocking call, sync action or collective,
  §2.2/§2.4) — :mod:`repro.ft` catches it and drives recovery.

The driver is SPMD-by-iteration: a single thread issues actions on behalf of
each rank (``src`` is an explicit argument), which keeps the simulation
deterministic while preserving per-rank timing.  Determinism is
backend-independent: costs, counters, interceptor dispatch and failure observation all
happen here, so two backends given the same program produce bit-identical
traces and clocks.
"""

from __future__ import annotations

import math
from operator import index as _index
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.errors import (
    LockError,
    ProcessFailedError,
    RankSuspendedError,
    SynchronizationError,
    WindowError,
)
from repro.rma.actions import (
    _SEQ,
    _SUM,
    AccumulateOp,
    CommAction,
    OpHandle,
    OpKind,
    SyncAction,
    SyncKind,
)
from repro.rma.counters import CounterBoard
from repro.rma.interceptor import InterceptorChain, RmaInterceptor
from repro.rma.replay import ReplayCursor
from repro.rma.window import Window, WindowRegistry
from repro.simulator.cluster import Cluster

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.backends.base import Backend
    from repro.ft.recovery import BestEffort

__all__ = ["RmaRuntime"]

_new_object, _ndarray = object.__new__, np.ndarray
#: The enum members the per-op paths read, as globals (see ``repro.rma.actions``).
_PUT, _GET, _ACCUMULATE, _GET_ACCUMULATE, _FETCH_AND_OP, _COMPARE_AND_SWAP = OpKind
_LOCK, _UNLOCK, _FLUSH, _FLUSH_ALL, _GSYNC, _BARRIER = SyncKind


class _Membership(NamedTuple):
    """Who counts as a member of the job, derived once per change and
    revalidated by readers with one comparison of :attr:`generation`."""

    #: Failed-set generation (:attr:`Cluster.generation`) the snapshot was built from.
    generation: int
    #: Every failed, not yet replaced rank (excised ones included).
    failed: frozenset[int]
    #: Failed ranks the tolerant recovery rule suspends until their repair.
    suspended: frozenset[int]
    #: Failed ranks that make a collective raise (neither excised nor
    #: suspended), in rank order.
    dead: list[int]
    #: Nobody failed: no liveness check can fire.
    healthy: bool


class RmaRuntime:
    """Coordinates RMA programs of an SPMD job over a backend and a cluster."""

    def __init__(self, cluster: Cluster, *, backend: "str | Backend | None" = None) -> None:
        # Deferred import: repro.backends needs the rma model modules, which
        # this module's package pulls in — importing it lazily keeps every
        # entry-point import order (repro, repro.rma, repro.backends) valid.
        from repro.backends import Backend, make_backend

        self.cluster = cluster
        self.nprocs = cluster.nprocs
        self.backend = make_backend(backend)
        self.backend.bind(cluster.nprocs)
        self.counters = CounterBoard(cluster.nprocs)
        #: Eq. (1)'s state, one record per rank: the board's own list (never rebound).
        self._records = self.counters.records
        self.interceptors = InterceptorChain()
        self._finalized = False
        self._window = self.backend.windows.get
        #: The backend's single-action hook (a blocking call's in-place completion).
        self._apply_one = self.backend.apply_one
        #: The registry's own name -> window map (never rebound): the issue
        #: path looks a window up here and calls :attr:`_window` only for the
        #: error an unknown name deserves.
        self._windows = self.backend.windows._windows
        #: The per-rank clocks, resolved once (they are never replaced).
        self._clock_of = [cluster.clock(rank) for rank in range(cluster.nprocs)]
        #: The metric registry's own maps and the cost model's prices, read once: a per-op
        #: charge or bump is in place (``now += c; ticks += 1`` is ``advance(c, kind="comm")``).
        self._totals, self._per_rank = cluster.metrics._totals, cluster.metrics._per_rank
        costs = cluster.costs
        self._transfer, self._flop_time = costs.transfer_prices, float(costs.flop_time)
        self._lock_price, self._unlock_price = costs.lock(), costs.unlock()
        #: Whether ranks can die behind the injector's back (the backend overrides
        #: ``poll_failures``): then blocking calls, sync actions and collectives poll,
        #: a nonblocking issue reads the backend's set of noted, unreported deaths.
        self._vehicles = type(self.backend).poll_failures is not Backend.poll_failures
        self._noted_dead = self.backend._discovered_dead
        #: Failures already propagated to windows and interceptors, and the
        #: failed-set generation at which that propagation was last complete.
        self._known_failed: set[int] = set()
        self._observed_generation: int | None = None
        #: That generation while its membership is healthy, else ``None``: the
        #: one comparison of the liveness gate every issue and sync runs inline.
        self._settled: int | None = None
        #: Active log-driven replay of a localized recovery (None = normal).
        self._replay: ReplayCursor | None = None
        #: Ranks permanently removed by a degraded continuation: they are
        #: never respawned, their kernels are skipped, operations targeting
        #: them are dropped and reads observe zeroed buffers.  Written only
        #: by :meth:`excise_rank`.
        self.excised: frozenset[int] = frozenset()
        #: The recovery rule that tolerates failures (best-effort), if the
        #: job has one; ``None`` means every failure path is fatal.
        #: Written only by :meth:`set_tolerant`.
        self.tolerant: "BestEffort | None" = None
        #: ``None`` while every issued operation takes the normal pipeline,
        #: :meth:`_divert_op` while an excised rank, a suspended rank or a
        #: replay exists (see :meth:`_set_divert`).
        self._divert = None
        self._members = self._refresh_membership()

    @property
    def windows(self) -> WindowRegistry:
        """The backend-owned window registry (storage lives with the backend)."""
        return self.backend.windows

    # ------------------------------------------------------------------
    # Interceptors (the PMPI-interposition analogue, §6.1)
    # ------------------------------------------------------------------
    def add_interceptor(self, interceptor: RmaInterceptor) -> None:
        """Register ``interceptor``; its hooks fire on every subsequent action."""
        self.interceptors.add(interceptor, self)

    def remove_interceptor(self, interceptor: RmaInterceptor) -> None:
        """Unregister ``interceptor``."""
        self.interceptors.remove(interceptor)

    # ------------------------------------------------------------------
    # The tolerant recovery rule (best-effort delivery)
    # ------------------------------------------------------------------
    def set_tolerant(self, rule: "BestEffort | None") -> None:
        """Install the failure-tolerant rule consulted on every failure path.

        ``None`` (the default): any touch of a failed rank raises.  A
        tolerant rule (best-effort) turns failed non-excised ranks into
        *suspended* ones — operations toward them drop or serve stale data,
        the suspended rank's own calls raise
        :class:`~repro.errors.RankSuspendedError` (which the scheduler
        catches per rank), and ``FtStack.repair`` mends them at step boundaries.
        """
        self.tolerant = rule
        self._refresh_membership()

    def suspended_ranks(self) -> frozenset[int]:
        """Failed ranks the tolerant rule suspends (usually empty).

        Backend-independent at every point of the program: the failed set
        only changes at injector-controlled completion-stream positions and
        virtual times, which are identical across sim/vector/proc by construction.
        """
        return self._membership().suspended

    # ------------------------------------------------------------------
    # Window lifecycle
    # ------------------------------------------------------------------
    def win_allocate(self, name: str, size: int, dtype: np.dtype = np.float64) -> Window:
        """Collectively allocate a window on every rank (MPI_Win_allocate).

        Charged as a barrier plus the local allocation cost at each rank.
        """
        self._ensure_all_alive("win_allocate")
        window = self.backend.create_window(name, size, np.dtype(dtype))
        alloc_cost = self.cluster.costs.local_copy(window.nbytes_per_rank)
        for rank in self.cluster.alive_ranks():
            self.cluster.advance(rank, alloc_cost, kind="comm")
        self.cluster.barrier()
        if self.interceptors.on_window_create is not None:
            self.interceptors.on_window_create(window)
        self.cluster.metrics.incr("rma.windows_allocated")
        return window

    def window(self, name: str) -> Window:
        """Look up a window by name."""
        return self.windows.get(name)

    def local(self, rank: int, window: str) -> np.ndarray:
        """A view of ``rank``'s window buffer, writable until the next step
        boundary or checkpoint (:meth:`~repro.rma.window.Window.seal`).

        Per-rank contexts hand kernels these views of their own rows, so local
        loads/stores need no runtime call.  An excised rank's buffer stays
        readable (it was reallocated to zeros when the rank was removed), so
        degraded jobs can still gather results.  On a settled job a known
        window hands the row out with only the rank's range compared, inline.
        """
        win = self._windows.get(window)
        if win and self._settled == self.cluster.generation and 0 <= rank < self.nprocs:
            return win._hand_out(rank)
        self._require_alive(rank, excised_ok=True)
        return self.windows.get(window).local(rank)

    # ------------------------------------------------------------------
    # Nonblocking communication actions
    # ------------------------------------------------------------------
    def put_nb(
        self, src: int, trg: int, window: str, offset: int, data: np.ndarray
    ) -> OpHandle:
        """Issue a nonblocking write into ``trg``'s window (MPI_Put).

        The write becomes visible when the next ``flush``/``unlock``/``gsync``
        completes the ``src -> trg`` epoch.
        """
        return self._issue(_PUT, src, trg, window, offset, None, False, data)

    def get_nb(
        self, src: int, trg: int, window: str, offset: int, count: int
    ) -> OpHandle:
        """Issue a nonblocking read of ``trg``'s window (MPI_Get).

        The handle's buffer (:meth:`~repro.rma.actions.CommAction.result`)
        materializes at the next completion point; reading it earlier raises.
        """
        return self._issue(_GET, src, trg, window, offset, count, False)

    def accumulate_nb(
        self, src: int, trg: int, window: str, offset: int, data: np.ndarray,
        op: AccumulateOp = AccumulateOp.SUM,
    ) -> OpHandle:
        """Issue a nonblocking combining put into ``trg`` (MPI_Accumulate)."""
        return self._issue(
            _ACCUMULATE, src, trg, window, offset, None, op.combining, data, op=op
        )

    # ------------------------------------------------------------------
    # Blocking communication actions (issued and completed at the call)
    # ------------------------------------------------------------------
    def put(
        self, src: int, trg: int, window: str, offset: int, data: np.ndarray
    ) -> CommAction:
        """Write ``data`` into ``trg``'s window at ``offset`` (MPI_Put)."""
        return self._issue(
            _PUT, src, trg, window, offset, None, False, data, blocking=True
        )

    def get(
        self, src: int, trg: int, window: str, offset: int, count: int
    ) -> np.ndarray:
        """Read ``count`` elements from ``trg``'s window at ``offset`` (MPI_Get)."""
        return self._issue(_GET, src, trg, window, offset, count, False, blocking=True)._data

    def accumulate(
        self, src: int, trg: int, window: str, offset: int, data: np.ndarray,
        op: AccumulateOp = AccumulateOp.SUM,
    ) -> CommAction:
        """Combine ``data`` into ``trg``'s window (MPI_Accumulate)."""
        return self._issue(
            _ACCUMULATE, src, trg, window, offset, None, op.combining, data, op=op,
            blocking=True,
        )

    def get_accumulate(
        self, src: int, trg: int, window: str, offset: int, data: np.ndarray,
        op: AccumulateOp = AccumulateOp.SUM,
    ) -> np.ndarray:
        """Atomically combine ``data`` and return the previous target values."""
        return self._issue(
            _GET_ACCUMULATE, src, trg, window, offset, None, op.combining, data, op=op,
            blocking=True,
        )._data

    def fetch_and_op(
        self, src: int, trg: int, window: str, offset: int, value: float,
        op: AccumulateOp = AccumulateOp.SUM,
    ) -> np.generic:
        """Single-element atomic fetch-and-op (MPI_Fetch_and_op): ``value`` and the
        previous target value returned are scalars of the window dtype."""
        return self._issue(
            _FETCH_AND_OP, src, trg, window, offset, 1, op.combining, value, op=op,
            blocking=True,
        )._data

    def compare_and_swap(
        self, src: int, trg: int, window: str, offset: int, compare: float, value: float
    ) -> np.generic:
        """Single-element atomic CAS; returns the previous target value, a scalar."""
        return self._issue(
            _COMPARE_AND_SWAP, src, trg, window, offset, 1, True, value, compare,
            blocking=True,
        )._data

    def locked_fetch_and_op(
        self, src: int, trg: int, window: str, offset: int, value: float
    ) -> np.generic:
        """``lock``, a SUM :meth:`fetch_and_op`, ``unlock`` toward ``trg`` as one call
        (the Locks scheme's update, §3.1.2), bit-identical to the three: counters,
        stamps, charges, metrics, completions, errors and the state an error leaves.

        Where nothing tells them apart — settled, no vehicles (so nothing noted
        dead), no divert, an idle ``after_sync``, no event due, the lock free — the
        lock and the unlock run in this frame and build no record (nobody reads a
        lock's or an unlock's); the atomic is ``_issue``'s, which raises what
        ``fetch_and_op`` raises after the lock.  Otherwise it is the three, and from
        where a kill fired or an event fell due it is ``unlock``.
        """
        cluster, n = self.cluster, self.nprocs
        if (
            self._vehicles or self._settled != cluster.generation
            or self._divert is not None or self.interceptors.after_sync is not None
            or not (0 <= src < n and type(trg) is int and 0 <= trg < n)
            or self._clock_of[src].now >= cluster.next_due
            or (trg, None) in self._records[src].held_locks
        ):
            self.lock(src, trg)
            fetched = self.fetch_and_op(src, trg, window, offset, value)
            self.unlock(src, trg)
            return fetched
        own, target, clock = self._records[src], self._records[trg], self._clock_of[src]
        target.sc_local += 1  # the lock: §4.1 C's fetch-and-increment, charged
        own.sc_held[trg] = own.held_locks[trg, None] = target.sc_local
        clock.now += self._lock_price
        clock.ticks += 1
        totals, per_rank = self._totals, self._per_rank
        totals["rma.lock"] += 1
        per_rank["rma.lock"][src] += 1
        fetched = self._issue(
            _FETCH_AND_OP, src, trg, window, offset, 1, True, value, op=_SUM, blocking=True
        )._data
        # The unlock, unless a kill fired or an event fell due.  Nothing else moves
        # within the atomic: a divert or a hook comes with recovery or setup, and
        # the pair's queue is empty, so the unlock would complete nothing.
        if self._settled != cluster.generation or clock.now >= cluster.next_due:
            self.unlock(src, trg)
            return fetched
        del own.held_locks[trg, None]
        clock.now += self._unlock_price
        clock.ticks += 1
        totals["rma.unlock"] += 1
        per_rank["rma.unlock"][src] += 1
        own.epoch_of_target[trg] += 1
        own.pending_ops[trg] = 0
        return fetched

    # ------------------------------------------------------------------
    # Synchronization actions
    # ------------------------------------------------------------------
    def lock(self, src: int, trg: int, structure: str | None = None) -> SyncAction:
        """Acquire a lock on ``trg``; fetches-and-increments ``SC_trg`` (§4.1 C).

        Toward a rank suspended by a tolerant recovery rule the sync *drops*:
        there is no lock manager to talk to on dead hardware, no ``SC`` is
        consumed, and the caller proceeds against stale/zero data (counted as
        ``qos.dropped_syncs``).  During a localized replay a survivor's sync is
        free, and ``SC_trg`` is fetched but not incremented at a survivor, whose
        crash-time value counts the lock already (:mod:`repro.rma.replay`).
        """
        cluster, n = self.cluster, self.nprocs
        if self._vehicles or self._settled != cluster.generation or self._noted_dead or (
            not (0 <= src < n and type(trg) is int and 0 <= trg < n)
            or self._clock_of[src].now >= cluster.next_due
        ):
            trg = self._pre_sync(src, trg)
        own, divert = self._records[src], self._divert is not None
        dropped = divert and trg in self._members.suspended
        waits = divert and self._waits(src)
        if not dropped:  # §4.1 C, toward a waiting survivor a fetch only
            key = (trg, structure)
            if key in own.held_locks:
                raise LockError(f"rank {src} already holds lock {structure!r} on rank {trg}")
            target = self._records[trg]
            target.sc_local += not (divert and self._waits(trg))
            own.sc_held[trg] = own.held_locks[key] = target.sc_local
        action = _new_object(SyncAction)  # stamped inline, with the SC just fetched
        action.kind, action.src, action.trg = _LOCK, src, trg
        action.EC, action.GC = own.epoch_of_target[trg], own.gc
        action.SC, action.GNC = own.sc_held.get(trg, 0), own.gnc
        action.structure, action.seq = structure, next(_SEQ)
        if dropped or waits:
            if dropped:
                self.tolerant.count("dropped_syncs", src)
            return action
        clock = self._clock_of[src]  # charged in place, as ``_issue_sync`` charges
        clock.now += self._lock_price
        clock.ticks += 1
        if self.interceptors.after_sync is not None:
            self.interceptors.after_sync(action)
        self._totals["rma.lock"] += 1
        self._per_rank["rma.lock"][src] += 1
        return action

    def unlock(self, src: int, trg: int, structure: str | None = None) -> SyncAction:
        """Release a lock on ``trg``; completes and closes the epoch (§2.2).

        Toward a suspended rank the release degrades gracefully: a lock
        acquired before the target died is released locally, one whose
        acquisition was itself dropped unwinds without error, and the pair's
        in-flight operations resolve through the tolerant rule.
        """
        cluster, n = self.cluster, self.nprocs
        if self._vehicles or self._settled != cluster.generation or self._noted_dead or (
            not (0 <= src < n and type(trg) is int and 0 <= trg < n)
            or self._clock_of[src].now >= cluster.next_due
        ):
            trg = self._pre_sync(src, trg)
        own, divert = self._records[src], self._divert is not None
        dropped = divert and trg in self._members.suspended
        waits = divert and self._waits(src)
        try:
            del own.held_locks[trg, structure]
        except KeyError:
            if not dropped:  # toward a suspended rank the lock itself may have dropped
                raise LockError(
                    f"rank {src} does not hold lock {structure!r} on rank {trg}"
                ) from None
        if dropped or self.backend._pending[src]:
            self._complete_pair(src, trg)  # toward a suspended rank: via the rule
        action = _new_object(SyncAction)  # stamped inline, with the epoch it closes
        action.kind, action.src, action.trg = _UNLOCK, src, trg
        action.EC, action.GC = own.epoch_of_target[trg], own.gc
        action.SC, action.GNC = own.sc_held.get(trg, 0), own.gnc
        action.structure, action.seq = structure, next(_SEQ)
        if waits:
            return action
        if dropped:
            self.tolerant.count("dropped_syncs", src)
        else:  # charged in place, as ``_issue_sync`` charges
            clock = self._clock_of[src]
            clock.now += self._unlock_price
            clock.ticks += 1
            if self.interceptors.after_sync is not None:
                self.interceptors.after_sync(action)
            self._totals["rma.unlock"] += 1
            self._per_rank["rma.unlock"][src] += 1
        own.epoch_of_target[trg] += 1  # ``close_epoch``, inline
        own.pending_ops[trg] = 0
        return action

    def flush(self, src: int, trg: int) -> SyncAction:
        """Complete all outstanding ``src -> trg`` operations (MPI_Win_flush).

        Completes the pair's queued operations at the backend, closes the
        epoch and increments ``GC_src`` (§4.1 B).
        """
        cluster, n = self.cluster, self.nprocs
        if self._vehicles or self._settled != cluster.generation or self._noted_dead or (
            not (0 <= src < n and type(trg) is int and 0 <= trg < n)
            or self._clock_of[src].now >= cluster.next_due
        ):
            trg = self._pre_sync(src, trg)
        if self.backend._pending[src]:
            self._complete_pair(src, trg)
        if self._divert is not None and self._waits(src):
            return SyncAction.issued(_FLUSH, src, trg, self._stamp(src, trg))
        own = self._records[src]
        pending = own.pending_ops[trg]
        own.gc += 1
        action = SyncAction.issued(_FLUSH, src, trg, self._stamp(src, trg))
        result = self._issue_sync(action, cost=self.cluster.costs.flush(pending))
        own.close_epoch(trg)
        return result

    def flush_all(self, src: int) -> SyncAction:
        """Complete all outstanding operations of ``src`` (MPI_Win_flush_all)."""
        self.observe_failures()
        self._require_alive(src)
        # Completing towards a dead target must fail *before* any effect is
        # applied, on every backend alike, so the liveness check (not the
        # apply, which stops wherever the backend's batching puts the dead
        # target) is the common failure point.  Suspended targets are exempt:
        # their in-flight operations resolve through the tolerant rule.
        members = self._members
        if not members.healthy:
            for trg in self.backend.pending_targets(src):
                if trg in members.failed and trg not in members.suspended:
                    raise ProcessFailedError(trg)
        self._complete_rank(src)
        if self._divert is not None and self._waits(src):
            return SyncAction.issued(_FLUSH_ALL, src, None, self._stamp(src))
        own = self._records[src]
        pending = sum(own.pending_ops.values())
        own.gc += 1
        action = SyncAction.issued(_FLUSH_ALL, src, None, self._stamp(src))
        result = self._issue_sync(action, cost=self.cluster.costs.flush(pending))
        own.close_all_epochs()
        return result

    def gsync(self) -> list[SyncAction]:
        """Global window synchronization (MPI_Win_fence / upc_barrier).

        Collective over all ranks: completes every outstanding operation,
        closes every epoch at every process and increments every ``GNC``
        (§4.1 E).  Raises :class:`~repro.errors.ProcessFailedError` if any
        participant has failed — this is where failures are usually observed.
        Returns every alive rank's record when an ``after_sync`` hook reads them,
        else an empty list: nobody else reads one.
        """
        self._ensure_all_alive("gsync")
        records = self._records
        if any([records[r].held_locks for r in self.cluster.alive_ranks()]):
            raise SynchronizationError("gsync while a lock is held")
        replay = self._replay  # a waiting survivor's operations wait with it
        running = None if replay is None else replay.running
        moved = None if replay is None else replay.gsync(self)
        for rank in range(self.nprocs) if running is None else sorted(running):
            self._complete_rank(rank)
        # A failure that fired *during* the completion loop (an injected kill
        # counts completions) must surface here — the collective's second
        # sentinel poll — before any rank resumes past it: the closing barrier
        # only synchronizes ranks alive at its entry, so it cannot observe this
        # one, and a resumed rank would perform post-sync local stores the
        # action log never sees, which a localized replay could not reconstruct.
        self.observe_failures()
        failed = self._membership().dead
        if failed:
            raise ProcessFailedError(
                failed[0], f"gsync observed failed ranks {failed} (fail-stop)"
            )
        cost = self.cluster.costs.gsync(self.nprocs)
        self._collective_barrier(cost=cost)  # raises on failed participants
        self.counters.on_gsync(moved)
        actions, after_sync = [], self.interceptors.after_sync
        if after_sync is not None:  # a record per rank only for a reader
            for rank in self.cluster.alive_ranks():
                own = records[rank]
                action = SyncAction.issued(_GSYNC, rank, None, (0, own.gc, 0, own.gnc))
                after_sync(action)
                actions.append(action)
        self.cluster.metrics.incr("rma.gsyncs")
        return actions

    def barrier(self) -> float:
        """Plain barrier (no window synchronization, no epoch effect)."""
        self._ensure_all_alive("barrier")
        if self._replay is not None:
            self._replay.walk(self)
        return self._collective_barrier()

    def _collective_barrier(self, cost: float | None = None) -> float:
        """Cluster barrier that tolerates mid-barrier suspensions.

        Advancing the survivors' clocks to the barrier point can itself fire
        a time-scheduled failure, which :meth:`~repro.simulator.cluster.
        Cluster.barrier` reports as :class:`ProcessFailedError`.  Under a
        tolerant recovery rule a participant that merely became *suspended*
        must not abort the collective: the failure is folded into the
        suspended set and the survivors re-synchronize without it.  The
        retry's time points are injector-controlled, hence identical across
        backends — determinism is unaffected.
        """
        while True:
            try:
                return self.cluster.barrier(cost=cost)
            except ProcessFailedError:
                self.observe_failures()
                members = self._membership()
                if not members.suspended or members.dead:
                    raise

    # ------------------------------------------------------------------
    # Compute and lifecycle
    # ------------------------------------------------------------------
    def compute(self, rank: int, flops: float) -> float:
        """Charge ``flops`` of application compute on ``rank``'s clock.

        During a log-driven replay only the *restoring* ranks do real work; a
        survivor finishing the crash step re-derives values it already holds,
        so its charge is suppressed (§4.2).  The charge is a Python float, so a
        numpy ``flops`` never turns the clock into a numpy scalar; it is charged
        in place, as ``advance`` charges, and ``advance`` meets a negative one.
        """
        if self._settled != self.cluster.generation or not 0 <= rank < self.nprocs:
            self._require_alive(rank)
            self.cluster.clock(rank)  # a rank out of range raises here
        clock = self._clock_of[rank]
        if self._replay is not None and rank not in self._replay.restoring:
            return clock.now
        charge = float(flops) * self._flop_time
        if charge < 0:
            return clock.advance(charge)  # raises
        clock.now += charge  # ``advance``'s fields, in its order
        clock.ticks += 1
        clock.busy += charge
        return clock.now

    def finalize(self) -> None:
        """Finish the run: flush interceptor statistics, release the backend.

        Idempotent.  Backend teardown (worker processes, shared-memory
        segments of the real-process backend) happens here; window contents
        stay readable afterwards so results can still be gathered.
        """
        if not self._finalized:
            self._finalized = True
            if self.interceptors.on_finalize is not None:
                self.interceptors.on_finalize()
            self.backend.close()

    # ------------------------------------------------------------------
    # Failure plumbing
    # ------------------------------------------------------------------
    def observe_failures(self, now: float | None = None) -> list[int]:
        """Fire the time-triggered kills due and propagate failures to windows/interceptors.

        Diffing against the runtime's own known-failed set also catches ranks
        killed directly with :meth:`~repro.simulator.cluster.Cluster.fail_rank`:
        their window buffers are invalidated and every interceptor's
        ``on_rank_failed`` fires exactly once.  The diff only runs when the
        cluster's failed-set generation moved since the last complete propagation — every
        writer of the failed set bumps it.

        Begins with the sentinel poll (:meth:`_poll_vehicles`): a SIGKILLed worker
        surfaces like an injected one.  Who gets here on a healthy job, hence
        polls, once each: a collective (``gsync`` twice: at entry, and after its
        completions may have fired a kill), ``flush_all``, a step boundary and
        :meth:`_pre_action`.
        """
        cluster = self.cluster
        self._poll_vehicles()
        if cluster.next_due < math.inf:
            if now is None:
                now = cluster.elapsed()
            if now >= cluster.next_due:
                cluster.fire_due(now)
        generation = cluster.generation
        if generation == self._observed_generation:
            return []
        newly = sorted(cluster.failed - self._known_failed)
        for rank in newly:
            self._known_failed.add(rank)
            self.backend.invalidate_rank(rank)
            if self.interceptors.on_rank_failed is not None:
                self.interceptors.on_rank_failed(rank)
        self._observed_generation = generation
        if self._members.generation == generation and self._members.healthy:
            self._settled = generation
        return newly

    def _poll_vehicles(self) -> None:
        """The sentinel poll: fold vehicles (``proc``'s workers) that died behind
        the injector's back into the failed set — a generation bump every gate
        reads.  Never raises: a blocking call runs it first, bad addresses win."""
        for rank in self.backend.poll_failures():
            if self.cluster.is_alive(rank):
                self.cluster.fail_rank(rank)

    def notify_respawn(self, rank: int) -> None:
        """Tell the runtime a replacement process took over ``rank``.

        Called by :func:`~repro.ft.recovery.respawn_ranks` after the
        cluster respawned the rank: resets the rank's counter record,
        gives the backend a chance to provide a fresh execution vehicle (a new
        worker process on the ``proc`` backend) and notifies interceptors.
        """
        self._known_failed.discard(rank)
        self._observed_generation = self._settled = None  # re-diff at the next observation
        self.counters.reset_rank(rank)
        self.backend.respawn_rank(rank)
        if self.interceptors.on_respawn is not None:
            self.interceptors.on_respawn(rank)

    def pending_nb_ops(self, src: int | None = None) -> int:
        """Issued-but-uncompleted nonblocking operations of ``src`` (or all)."""
        return self.backend.pending_ops(src)

    def discard_pending(self, ranks: tuple[int, ...] | None = None) -> int:
        """Drop the outstanding nonblocking operations ``ranks`` issued (every
        rank's by default: a recovery rollback).

        The dropped operations were issued after the checkpoint being restored
        and never completed, so no committed state reflects them; their
        handles are poisoned so a later ``result()`` raises instead of
        reporting rolled-back data.  The epochs they were issued in stay open
        with no operation counted.  Returns the number of discarded ops.
        """
        discarded = 0
        for rank in range(self.nprocs) if ranks is None else ranks:
            for op in self.backend.discard_rank(rank):
                op._discarded = True
                discarded += 1
            self._records[rank].pending_ops.clear()
        return discarded

    def quiesce_suspended(self) -> None:
        """Drain in-flight operations involving suspended ranks, effect-free.

        Called by ``FtStack.repair`` immediately before *repairing* suspended
        ranks (``best_effort``): an operation still queued toward a rank about to
        be respawned-and-restored would otherwise apply after the restore, on
        top of the repaired state.  Survivor operations toward the suspended
        ranks resolve through the tolerant rule (drop/stale, same deterministic
        hash as post-failure issues); the suspended ranks' own queues are
        abandoned.
        """
        suspended = self.suspended_ranks()
        if not suspended:
            return
        for src in range(self.cluster.nprocs):
            if src in suspended:
                self._discard_from(src)
            elif self.backend.pending_ops(src):
                self._discard_toward(src, suspended)

    # ------------------------------------------------------------------
    # Log-driven replay (localized recovery, §7)
    # ------------------------------------------------------------------
    @property
    def replaying(self) -> bool:
        """Whether a localized recovery's replay is currently active."""
        return self._replay is not None

    @property
    def replay_restoring(self) -> frozenset[int]:
        """Ranks being reconstructed by the active replay (empty when none).

        Instrumented kernels (the KV service's latency recorder) use it to keep
        the measurements a survivor made before the crash instead of
        overwriting them with replay-time clocks."""
        return self._replay.restoring if self._replay is not None else frozenset()

    @property
    def replay_running(self) -> frozenset[int] | None:
        """The ranks whose kernels run (the scheduler asks): the restoring set
        while a replay re-executes fully-completed steps, else ``None`` (all)."""
        return None if self._replay is None else self._replay.running

    def begin_replay(self, cursor: ReplayCursor) -> None:
        """Enter replay mode under ``cursor`` (installed by a ``"replay"``
        recovery, :mod:`repro.ft.recovery`); it ends at the crash point."""
        if cursor.exhausted:
            return
        self._replay = cursor
        self._set_divert()

    def end_replay(self) -> ReplayCursor | None:
        """Leave replay mode (the crash point is reached, or a further failure
        interrupted the replay); return the cursor."""
        cursor, self._replay = self._replay, None
        self._set_divert()
        return cursor

    def replay_step_boundary(self) -> None:
        """Advance the replay past a fully-completed step (``FtStack.end_step``)."""
        if self._replay is not None:
            self._replay.step_boundary(self)

    # ------------------------------------------------------------------
    # Degraded continuation
    # ------------------------------------------------------------------
    def excise_rank(self, rank: int) -> None:
        """Permanently remove a failed rank from the job (degraded continuation).

        The rank is *not* respawned: its window buffers are reallocated to
        zeros so survivors' reads observe a defined value, operations
        targeting it are silently dropped, and the scheduler skips its
        kernels.  Used by a ``"degraded"`` recovery (:mod:`repro.ft.recovery`).
        """
        if self.cluster.is_alive(rank):
            raise ProcessFailedError(rank, f"rank {rank} is alive; cannot excise it")
        self.backend.reallocate_rank(rank)
        self._records[rank].held_locks.clear()
        self.excised = self.excised | {rank}
        self._refresh_membership()
        self.cluster.metrics.incr("ft.excised_ranks", rank=rank)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _refresh_membership(self) -> _Membership:
        """Rebuild the membership snapshot: the failed set's generation moved
        (every reader checks), or :meth:`excise_rank` / :meth:`set_tolerant`
        — the only writers of its other two inputs — ran."""
        generation, failed = self.cluster.generation, self.cluster.failed
        suspended = (
            self.tolerant.suspended(self) if self.tolerant is not None else frozenset()
        )
        healthy = not (failed or suspended)
        self._members = _Membership(
            generation, failed, suspended, sorted(failed - self.excised - suspended), healthy
        )
        settled = healthy and self._observed_generation == generation
        self._settled = generation if settled else None
        self._set_divert()
        return self._members

    def _membership(self) -> _Membership:
        """The current membership snapshot (rebuilt if the failed set moved)."""
        members = self._members
        if members.generation != self.cluster.generation:
            members = self._refresh_membership()
        return members

    def _waits(self, rank: int) -> bool:
        """Whether ``rank`` is a survivor of an active localized replay."""
        return self._replay is not None and rank not in self._replay.restoring

    def _set_divert(self) -> None:
        """Re-derive :attr:`_divert`; called by the membership rebuild and by
        the writers of :attr:`_replay` (:meth:`begin_replay`, :meth:`end_replay`)."""
        special = self.excised or self._members.suspended or self._replay is not None
        self._divert = self._divert_op if special else None

    def _require_alive(self, rank: int, *, excised_ok: bool = False) -> None:
        """Raise unless ``rank`` may act: :class:`RankSuspendedError` for a
        rank a tolerant recovery rule suspends (the scheduler skips just its
        turn), :class:`ProcessFailedError` for any other failed rank."""
        members = self._membership()
        if members.healthy or (excised_ok and rank in self.excised):
            return
        if rank in members.suspended:
            raise RankSuspendedError(rank)
        if rank in members.failed:
            raise ProcessFailedError(rank)

    def _ensure_all_alive(self, what: str) -> None:
        """Collectives observe pending failures and fail when any rank is dead.

        A collective involves every rank, so a process that already failed —
        even one whose failure was observed earlier — makes it raise; this is
        how the paper's applications learn they must recover before
        synchronizing again (§2.4).  Excised ranks left the (shrunk) job and do
        not count, nor do ranks a tolerant recovery rule merely *suspends*
        (repaired at the next step boundary; the collective proceeds without).
        """
        self.observe_failures()
        dead = self._membership().dead
        if dead:
            raise ProcessFailedError(dead[0], f"{what} observed failed ranks {dead}")

    def _pre_action(self, src: int, trg: int) -> None:
        """Failure check before any targeted action: src then trg must be alive.

        A target excised by a degraded continuation is exempt — operations
        towards it are dropped later rather than raising, which lets survivors
        run on without recovery code — and so is one *suspended* by a tolerant
        recovery rule (the issue path resolves the operation as a drop or stale
        read); a suspended *source* raises :class:`~repro.errors.RankSuspendedError`
        so the scheduler skips just that rank's turn.

        Callers gate it inline, on one expression: the generation is not
        :attr:`_settled`, a death is noted, ``src`` is out of range or an event
        is due — and, for ``lock``/``unlock``/``flush``, ranks have vehicles.
        The :meth:`observe_failures` scan runs only when the failed set moved,
        an event is due or there are vehicles: every sync polls once then (the
        completion that follows does not poll again), a nonblocking issue only
        after a death is known or noted.
        """
        cluster = self.cluster
        now = cluster.clock(src).now
        stale = self._observed_generation != cluster.generation
        if stale or now >= cluster.next_due or self._vehicles:
            self.observe_failures(now)
        members = self._membership()
        if not members.healthy:
            self._require_alive(src)
            if trg in members.failed and trg not in self.excised | members.suspended:
                raise ProcessFailedError(trg)

    def _pre_sync(self, src: int, trg: int) -> int:
        """:meth:`_pre_action`, once ``trg`` is checked as ``_issue`` checks it: a
        target that is no rank raises before any counter, epoch or clock moves."""
        rank = _index(trg) if hasattr(trg, "__index__") else -1
        if not 0 <= rank < self.nprocs:
            raise SynchronizationError(
                f"sync target must be a rank in [0, {self.nprocs}), got {trg!r} (origin rank {src})"
            )
        self._pre_action(src, rank)
        return rank

    def _stamp(self, src: int, trg: int | None = None) -> tuple:
        """``(EC, GC, SC, GNC)`` a fresh action of ``src`` carries (Eq. 1/3): ``EC``
        and the held ``SC`` (for a lock: the one it just fetched) of the
        ``src -> trg`` pair, zero for a sync towards everyone (``trg=None``).

        Read straight from the rank's one :class:`~repro.rma.counters.ProcessCounters`
        as a plain tuple the record unpacks into its four slots; :meth:`_issue`,
        :meth:`lock`, :meth:`unlock` and :meth:`gsync` stamp inline.
        """
        own = self._records[src]
        if trg is None:
            return (0, own.gc, 0, own.gnc)
        return (own.epoch_of_target[trg], own.gc, own.sc_held.get(trg, 0), own.gnc)

    def _issue(
        self, kind: OpKind, src: int, trg: int, window: str, offset: int, count: int | None,
        combine: bool, data: np.ndarray | list | None = None, compare: list | None = None,
        op: AccumulateOp = AccumulateOp.REPLACE, blocking: bool = False,
    ) -> OpHandle:
        """Issue one communication action: check, stamp, interceptors, backend.

        ``data`` (a CAS's ``compare`` too) is the one defensive copy, in the
        window's dtype — a plain put's as its bytes — and gives ``count``; one
        that does not convert raises :class:`~repro.errors.WindowError` naming
        window, dtype and origin.  Addressing errors come next (they name window
        and origin), then liveness: a malformed nonblocking op fails at its call
        site, identically on every backend.  Both checks run inline
        and call out (``Window.check_access``, :meth:`_pre_action`) only on the
        branch that has something to decide; a nonblocking issue only queues and
        makes no system call, a blocking one polls first.  Nothing is charged
        here (:meth:`_retire` charges at completion).  The record is the handle.

        A ``blocking`` action completes here.  With nothing of the origin queued
        and nothing diverted the backend's single-action hook applies it, then it
        is announced and charged in place, as :meth:`_retire` charges a batch of
        one; else it completes with the pair (so it sees the queued operations'
        effects).  An apply that raises leaves it queued, like a failed
        completion, for recovery's discard.  A one-element atomic's operand
        (a CAS's compare value too) is a scalar of the window dtype, and an array
        is refused with the conversion's :class:`~repro.errors.WindowError`.
        """
        if blocking and self._vehicles:
            self._poll_vehicles()
        win = self._windows.get(window) or self._window(window)
        if data is not None:  # the one copy, in the window dtype: a put's bytes
            try:
                if kind is _PUT:
                    if type(data) is not _ndarray or data.dtype is not win.dtype:
                        data = np.asarray(data, win.dtype)
                    count, data = data.size, data.tobytes()
                elif kind.is_scalar:  # one element: scalars of the window dtype
                    scalar = win.dtype.type
                    data = scalar(data)
                    compare = None if compare is None else scalar(compare)
                    if type(data) is _ndarray or type(compare) is _ndarray:
                        raise ValueError("a one-element atomic takes scalars, not arrays")
                else:
                    data = np.array(data, dtype=win.dtype).ravel()
                    count = data.size
            except (TypeError, ValueError) as exc:
                raise WindowError(
                    f"payload of {kind._value_} does not convert to window {win.name!r}'s "
                    f"dtype {win.dtype} (origin rank {src}): {exc}"
                ) from None
        try:
            trg, offset, count = _index(trg), _index(offset), _index(count)
        except TypeError:
            raise WindowError(
                f"target rank, offset and count must be integers, got "
                f"({trg!r}, {offset!r}, {count!r}) for window {win.name!r} "
                f"(origin rank {src})"
            ) from None
        if not (0 <= trg < win.nprocs and 0 <= offset and 0 < count <= win.size - offset):
            win.check_access(trg, offset, count)  # raises the precise error
        cluster = self.cluster
        if self._settled != cluster.generation or self._noted_dead or (
            not 0 <= src < self.nprocs or self._clock_of[src].now >= cluster.next_due
        ):
            self._pre_action(src, trg)
        # The stamp (:meth:`_stamp`) and the open epoch's op count: one record read.
        own = self._records[src]
        action = _new_object(CommAction)  # slot by slot; <= 3 a line: no tuple built
        action.kind, action.src, action.trg = kind, src, trg
        action.window, action.offset, action.count = win.name, offset, count
        action.combine, action.op, action.dtype = combine, op, win.dtype
        action.EC, action.GC = own.epoch_of_target[trg], own.gc
        action.SC, action.GNC = own.sc_held.get(trg, 0), own.gnc
        action._data, action._operand, action.compare = data, None, compare
        action.seq, action.nbytes = next(_SEQ), count * win.itemsize
        action._completed = action._discarded = False
        if self._divert is not None and self._divert(action, win):
            return action
        interceptors, backend = self.interceptors, self.backend
        if interceptors.before_comm is not None:
            interceptors.before_comm(action)
        own.pending_ops[trg] += 1  # what the closing flush is priced by
        if not blocking or backend._pending[src] or self._divert is not None:
            backend.issue(action)
            if blocking:
                self._complete_pair(src, trg)
            return action
        try:  # completes in place: applied, announced, charged as ``_retire`` charges
            self._apply_one(action, win)
        except BaseException:
            backend.issue(action)  # queued, as a failed completion leaves its batch
            raise
        action._completed = True
        if interceptors.after_comm is not None:
            interceptors.after_comm(action)
        clock, nbytes, metric = self._clock_of[src], action.nbytes, kind.metric
        clock.now += self._transfer[nbytes, kind.is_atomic]
        clock.ticks += 1
        totals, per_rank = self._totals, self._per_rank
        totals[metric] += 1
        per_rank[metric][src] += 1
        totals["rma.bytes_moved"] += nbytes
        per_rank["rma.bytes_moved"][src] += nbytes
        return action

    def _divert_op(self, action: CommAction, win: Window) -> bool:
        """Resolve an issued action outside the normal pipeline (and mark it
        completed), or return ``False`` when it must execute normally.

        The one home of the three special cases.  A diverted action sees no
        interceptors, backend, charge or epoch — it is not part of new
        committed state:

        * a target excised by a degraded continuation: the operation is
          *dropped*, get-like results observe the rank's zeroed buffer;
        * a target suspended by a tolerant recovery rule: the rule resolves
          the operation right here (drop or stale service);
        * an active :class:`~repro.rma.replay.ReplayCursor` matching the
          action: it already happened before the crash — the cursor re-applies
          it where a restoring rank needs it, and logged get data is served.
        """
        if action.trg in self.excised:
            if action.kind.is_get_like:  # a one-element atomic's: a scalar
                zeros = np.zeros(action.count, dtype=win.dtype)
                action._data = zeros[0] if action.kind.is_scalar else zeros
            self.cluster.metrics.incr("ft.dropped_ops", rank=action.src)
        elif action.trg in self._members.suspended:
            self.tolerant.resolve(action, win, self)
        else:
            logged = self._replay.consume(action, self) if self._replay is not None else None
            if logged is None:
                return False
            if action.kind.is_get_like and logged._data is not None:
                action._data = logged._data.copy()  # an array's, or a scalar's
        action._completed = True
        return True

    def _complete_pair(self, src: int, trg: int) -> None:
        """Complete all outstanding ``src -> trg`` ops: apply, notify, charge."""
        if trg in self._membership().suspended:
            self._discard_toward(src, frozenset((trg,)))
            return
        self._retire(src, self.backend.complete(src, trg))

    def _complete_rank(self, src: int) -> None:
        """Complete all outstanding ops of ``src`` across every target.

        Fail-stop: a process that died after issuing but before completing
        performs no further operations — its queue stays pending for
        recovery's discard.  The real-process backend enforces this naturally
        (the dead worker cannot apply its batch); raising here makes the
        in-process backends refuse at the exact same point, so completion
        streams — and everything downstream, like the action log a localized
        replay trusts — stay bit-identical across backends.

        Under a tolerant recovery rule neither raises: a suspended origin's
        queue is abandoned (poisoned handles, like a rollback's discard), and
        a surviving origin's in-flight operations toward suspended targets
        resolve through the rule (drop or stale service) instead of applying.
        """
        # Settled: nobody failed.  Else per rank: a completion may have fired a kill.
        if self._settled != self.cluster.generation:
            members = self._membership()
            if src in members.suspended:
                self._discard_from(src)
                return
            if members.suspended:
                self._discard_toward(src, members.suspended)
            if src in members.failed and src not in self.excised and (
                self.backend.pending_ops(src)
            ):
                raise ProcessFailedError(src)
        self._retire(src, self.backend.complete_rank(src))

    def _discard_toward(self, src: int, trgs: frozenset[int]) -> None:
        """Resolve ``src``'s in-flight ops toward suspended targets, effect-free.

        The operations were issued while their target was still alive; under
        a tolerant recovery rule their completion becomes a drop/stale
        resolution (there is no memory to apply them to) with the same
        deterministic hash as operations issued after the failure.  They
        never reach :meth:`_retire`, so nothing is charged for them: the
        message was never delivered.
        """
        for action in self.backend.discard_targeting(src, trgs):
            self.tolerant.resolve(action, self.windows.get(action.window), self)
            action._completed = True

    def _discard_from(self, src: int) -> None:
        """Abandon a suspended origin's whole in-flight queue (fail-stop).

        The dead rank performs no further operations: its handles are
        poisoned exactly as a rollback's discard poisons them, and nothing
        is charged to its clock — the repair at the next step boundary
        restores it from the newest checkpoint instead.
        """
        dropped = self.backend.discard_rank(src)
        for op in dropped:
            op._discarded = True
        if dropped:
            self.tolerant.count("discarded_inflight", src, len(dropped))

    def _retire(self, src: int, batch: list[CommAction]) -> None:
        """Retire a completed batch of ``src``: mark, notify, then charge.

        The batch the backend returns *is* the account.  Every operation is
        marked and announced to ``after_comm`` (the completion stream) first;
        then the origin's clock advances by each target's sum, targets in
        first-issue order — one float addition per operation, in issue order,
        starting from ``0.0``: clocks are compared bit-for-bit and ``n * c !=
        c + ... + c``, so no sum may be batched any further.  Counts are exact
        integers: ``rma.<kind>`` moves once per run, ``rma.bytes_moved`` once per
        batch.  A discarded or diverted operation never gets here, uncharged.
        """
        if not batch:
            return
        after_comm, transfer = self.interceptors.after_comm, self._transfer
        clock, totals, per_rank = self._clock_of[src], self._totals, self._per_rank
        sums: dict[int, float] = {}  # trg -> the pair's prices, summed in issue order
        runs: list[list] = []  # [kind, nbytes, ops] per run of equal (kind, nbytes)
        kind = nbytes = None
        for op in batch:
            op._completed = True
            if after_comm is not None:
                after_comm(op)
            if op.kind is not kind or op.nbytes != nbytes:  # one price lookup per run
                kind, nbytes = op.kind, op.nbytes
                price, run = transfer[nbytes, kind.is_atomic], [kind, nbytes, 0]
                runs.append(run)
            run[2] += 1
            sums[op.trg] = sums.get(op.trg, 0.0) + price
        now = clock.now  # the pairs in first-issue order, as one ``+=`` per pair
        for cost in sums.values():
            now += cost
        clock.now, clock.ticks = now, clock.ticks + len(sums)
        moved = 0
        for kind, nbytes, ops in runs:
            totals[kind.metric] += ops
            per_rank[kind.metric][src] += ops
            moved += ops * nbytes
        totals["rma.bytes_moved"] += moved
        per_rank["rma.bytes_moved"][src] += moved

    def _issue_sync(self, action: SyncAction, *, cost: float) -> SyncAction:
        """Run the sync hook unless idle; charge ``cost`` in place."""
        interceptors, src, metric = self.interceptors, action.src, action.kind.metric
        clock = self._clock_of[src]
        clock.now += cost
        clock.ticks += 1
        if interceptors.after_sync is not None:
            interceptors.after_sync(action)
        self._totals[metric] += 1
        self._per_rank[metric][src] += 1
        return action

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RmaRuntime(nprocs={self.nprocs}, backend={self.backend.name!r}, "
            f"windows={len(self.windows)}, interceptors={len(self.interceptors)})"
        )
