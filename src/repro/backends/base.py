"""The RMA backend protocol: who owns window storage and executes operations.

The runtime (:class:`~repro.rma.runtime.RmaRuntime`) is a *coordinator*: it
stamps actions with the recovery counters, runs the interceptor chain, tracks
epochs and charges virtual-time costs — but it never touches window memory
itself.  All storage and data movement belong to a :class:`Backend`:

* :meth:`Backend.issue` queues every communication action (the caller's handle
  too) that waits for a completion;
* :attr:`Backend.apply_one` applies a blocking call with nothing of its origin
  queued or diverted, at once: one region copy or one scalar read-modify-write
  in the window dtype in process (:func:`apply_action`), a batch of one on
  ``proc`` — the runtime then announces and charges it in place;
* :meth:`Backend.complete` / :meth:`Backend.complete_rank` are called by the
  runtime's completion points (flush, unlock, flush_all, gsync, and a blocking
  call behind queued ones) and return the completed records in issue order —
  with every effect applied to the window buffers by the time they return.

The pending queue (one issue-ordered list of records per origin) and
everything that selects, pops or discards from it live here, once.  No backend
touches window memory at issue: an action takes effect when its epoch
completes (§2, §2.2), so whatever was issued but not completed can be
discarded (§4.2, §7) by dropping it from the queue — there is nothing to
undo.  A concrete backend supplies one hook, what :meth:`~Backend._apply`
does when a batch *completes*: :class:`~repro.backends.sim.SimBackend` applies
it one action at a time (the reference),
:class:`~repro.backends.vector.VectorBackend` in coalesced writes, ``proc``
ships it to a worker process.  Whatever the strategy, the *completion stream*
— the issue-ordered sequence of records returned from the completion methods
— must be identical across backends, which is what keeps fault-tolerance
interceptors (who observe that stream) and recorded traces bit-identical.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import BackendError
from repro.rma.actions import (
    _COMPARE_AND_SWAP,
    _PUT,
    _REPLACE,
    _SUM,
    CommAction,
    apply_accumulate,
)
from repro.rma.window import Window, WindowRegistry

__all__ = ["Backend", "apply_action"]


def apply_action(action: CommAction, win: Window) -> None:
    """Execute one communication action against ``win``, in place.

    Get-like actions deposit the fetched values into ``action.data`` (the
    handle exposes them after completion); put-like actions mutate the
    target's buffer — a plain put by copying its payload bytes into the
    region.  A one-element atomic (``fetch_and_op``, ``compare_and_swap``) is a
    scalar read-modify-write in the window dtype: its fetched value is a scalar,
    and a floating sum is numpy's scalar ``+`` (IEEE, so the ufunc's bits, ≈ 8x
    faster).  Before a get-like atomic overwrites ``data`` with the fetched
    previous values, the issued operand is preserved in ``action.operand`` so
    the fault-tolerance log can later re-apply the action to a restored
    window (log-based recovery, §7).  Shared by all backends so the per-op
    semantics cannot drift between them, and the in-process backends'
    single-action hook (:attr:`Backend.apply_one`).

    The runtime validated the access range when it issued the action, so the
    target slice is taken unchecked; only a target invalidated since then
    (it may die between issue and completion) still raises.
    """
    kind, trg, offset = action.kind, action.trg, action.offset
    if trg in win._invalidated:
        win._check_alive(trg)  # Window._region's one check
    buffer = win.buffers[trg]
    if kind is _PUT:
        memoryview(buffer[offset : offset + action.count]).cast("B")[:] = action._data
        return
    if not kind.is_put_like:  # a get
        action._data = buffer[offset : offset + action.count].copy()
        return
    data = action._data
    if action._operand is None:
        action._operand = data
    if kind.is_scalar:  # one element: a scalar read-modify-write in the window dtype
        previous, op = buffer[offset], action.op
        if kind is _COMPARE_AND_SWAP:
            if previous == action.compare:
                buffer[offset] = data
        elif op is _SUM and isinstance(previous, np.floating):  # numpy's scalar ``+``
            buffer[offset] = previous + data
        elif op.ufunc is not None:  # the ufunc wraps integers silently, as arrays do
            buffer[offset] = op.ufunc(previous, data)
        elif op is _REPLACE:
            buffer[offset] = data
        action._data = previous
        return
    previous = apply_accumulate(buffer[offset : offset + action.count], data, action.op)
    if kind.is_get_like:  # get_accumulate
        action._data = previous


def _coalesce_puts(batch: list[CommAction], windows: dict[str, Window]) -> list[list]:
    """Merge each slab's back-to-back plain puts of an issue-ordered batch, in one pass.

    Returns ``[action, window, count, payload]`` entries to complete in order
    (``windows``: the registry's name -> :class:`Window` map).  A *run* — successive
    ``PUT``s on one ``(window, target)`` slab, each starting where the last ended —
    is one entry: its first action, the summed count and the list of the puts'
    payload bytes, i.e. a put of a larger count.  Any other action on the slab
    closes its run and follows it (same-slab order is issue order); other slabs are
    disjoint memory, so a run stays open across their actions.  Every other action,
    and a batch of one, is an entry of its own (its payload what it carries).
    """
    if len(batch) == 1:
        (action,) = batch
        data = [action._data] if action.kind is _PUT else action._data
        return [[action, windows[action.window], action.count, data]]
    entries: list[list] = []
    runs: dict[tuple[str, int], list] = {}  # slab -> its open run
    for action in batch:
        slab = (action.window, action.trg)
        if action.kind is not _PUT:
            runs.pop(slab, None)
            entries.append([action, windows[action.window], action.count, action._data])
            continue
        run = runs.get(slab)
        if run is not None and run[0].offset + run[2] == action.offset:
            run[2] += action.count
            run[3].append(action._data)
        else:
            runs[slab] = run = [action, windows[action.window], action.count, [action._data]]
            entries.append(run)
    return entries


class Backend(abc.ABC):
    """Owner of window storage and operation execution for one runtime."""

    #: Registry name of the backend ("sim", "vector", ...).
    name: str = "abstract"
    #: Vehicle deaths noted, not yet reported: a nonblocking issue reads it, never polls.
    _discovered_dead: frozenset[int] | set[int] = frozenset()

    def __init__(self) -> None:
        self.windows = WindowRegistry()
        self.nprocs = 0
        #: Issued-but-not-completed records, one issue-ordered list per
        #: origin (allocated by :meth:`bind`).
        self._pending: list[list[CommAction]] = []

    # ------------------------------------------------------------------
    # Lifecycle and window storage
    # ------------------------------------------------------------------
    def bind(self, nprocs: int) -> None:
        """Attach the backend to a job of ``nprocs`` ranks.

        A backend instance belongs to exactly one runtime: it owns that job's
        window storage and pending queues, so rebinding would leak one job's
        state into another.  Construct a fresh instance per job instead.
        """
        if self.nprocs:
            raise BackendError(
                f"backend {self.name!r} is already bound to a {self.nprocs}-rank "
                f"job; backends hold job state (windows, queues) and cannot be "
                f"reused — construct a fresh instance per job"
            )
        self.nprocs = nprocs
        self._pending = [[] for _ in range(nprocs)]

    def create_window(self, name: str, size: int, dtype: np.dtype) -> Window:
        """Allocate one window (its ``(nprocs, size)`` array) in backend-owned storage."""
        return self.windows.create(name, size, dtype, self.nprocs)

    def invalidate_rank(self, rank: int) -> None:
        """A rank failed: its buffers are lost in every window."""
        self.windows.invalidate_rank(rank)

    def reallocate_rank(self, rank: int) -> None:
        """A replacement process arrived: give it fresh buffers everywhere."""
        self.windows.reallocate_rank(rank)

    # ------------------------------------------------------------------
    # Real-failure plumbing (no-ops for in-process backends)
    # ------------------------------------------------------------------
    def poll_failures(self) -> list[int]:
        """Ranks whose *execution vehicle* died since the last poll.

        In-process backends have no vehicle to lose — failures only ever
        enter through the cluster's injector — so the default reports
        nothing.  A backend that runs ranks as real OS processes reports
        each dead worker exactly once per incarnation here; the runtime
        folds it into the cluster's failed set, so real deaths surface through
        the *same* fail-stop path (window invalidation, interceptor notification,
        :class:`~repro.errors.ProcessFailedError`) as simulated ones.  Called once
        per blocking call, sync action and collective, never by a nonblocking issue.
        """
        return []

    def respawn_rank(self, rank: int) -> None:
        """Provide a fresh execution vehicle for a respawned ``rank``.

        Called by the runtime's respawn notification (the recovery path) —
        *not* by :meth:`reallocate_rank`, which also serves excised ranks
        that must never get a new process.
        """

    def close(self) -> None:
        """Release backend-owned resources (processes, shared memory).

        Called by :meth:`~repro.rma.runtime.RmaRuntime.finalize`.  Must be
        idempotent.  Window buffers must stay readable afterwards (results
        are often gathered after a session closed), so a backend with
        external storage swaps in private copies before releasing it.
        """

    def describe_rank(self, rank: int) -> str:
        """One-line execution-vehicle state of ``rank`` for diagnostics."""
        return "in-process"

    # ------------------------------------------------------------------
    # Operation execution: one pending queue, one hook
    # ------------------------------------------------------------------
    def issue(self, op: CommAction) -> None:
        """Accept one issued operation: queue it, untouched, for its completion."""
        self._pending[op.src].append(op)

    #: The single-action hook: make one action's effect visible now, ``(action,
    #: window)``.  Raising leaves the action to the runtime, which queues it.
    apply_one = staticmethod(apply_action)

    @abc.abstractmethod
    def _apply(self, src: int, batch: list[CommAction]) -> None:
        """Make every effect of an issue-ordered ``batch`` of ``src`` visible.

        Raising leaves the batch queued — for recovery's discard, which
        poisons the handles identically on every backend.
        """

    def complete(self, src: int, trg: int) -> list[CommAction]:
        """Complete all outstanding ``src -> trg`` operations, in issue order."""
        queue = self._pending[src]
        batch = [op for op in queue if op.trg == trg]
        if batch:
            self._apply(src, batch)
            if len(batch) == len(queue):
                self._pending[src] = []
            else:
                self._pending[src] = [op for op in queue if op.trg != trg]
        return batch

    def complete_rank(self, src: int) -> list[CommAction]:
        """Complete all outstanding operations of ``src``, in issue order."""
        batch = self._pending[src]
        if not batch:
            return []
        self._apply(src, batch)
        self._pending[src] = []
        return batch

    def pending_ops(self, src: int | None = None) -> int:
        """Outstanding (issued, not completed) operations of ``src`` (or all)."""
        if src is not None:
            return len(self._pending[src])
        return sum(map(len, self._pending))

    def pending_targets(self, src: int) -> list[int]:
        """Targets of ``src``'s outstanding operations, in first-issue order."""
        return list(dict.fromkeys(op.trg for op in self._pending[src]))

    def discard_rank(self, src: int) -> list[CommAction]:
        """Drop every outstanding operation of origin ``src``, effect-free.

        Returns the discarded records so the runtime can poison them: a
        recovery's discard, or a failure-tolerant recovery rule (best-effort)
        abandoning a suspended rank's in-flight queue (on ``proc`` it was never
        shipped to the now dead worker).  None of them ever touched window memory.
        """
        dropped, self._pending[src] = self._pending[src], []
        return dropped

    def discard_targeting(self, src: int, trgs: frozenset[int]) -> list[CommAction]:
        """Drop ``src``'s outstanding operations toward the ranks in ``trgs``.

        The complement of :meth:`discard_rank`: a *surviving* origin's
        in-flight operations toward freshly-suspended targets must leave the
        queue without being applied (there is no memory to apply them to),
        so the runtime can resolve them through the tolerant rule instead.
        Returns the removed records in issue order.
        """
        queue = self._pending[src]
        dropped = [op for op in queue if op.trg in trgs]
        if dropped:
            self._pending[src] = [op for op in queue if op.trg not in trgs]
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(nprocs={self.nprocs}, "
            f"windows={len(self.windows)}, pending={self.pending_ops()})"
        )
