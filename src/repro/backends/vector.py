"""The vectorizing backend — queues issued ops, applies them in batches.

Nonblocking operations are not executed when issued: they are queued per
origin in issue order and applied only when the runtime completes the epoch
(flush, unlock, gsync, or a blocking wrapper).  At completion time the batch
is *coalesced per slab* (:func:`~repro.backends.base._coalesce_puts`, shared
with ``proc``): the plain puts streamed back-to-back into one ``(window,
target)`` slab collapse into a single numpy slice assignment, however they
interleave with traffic to other slabs — a halo exchange alternating between
two neighbours costs two vectorized writes, not one write per message.

Correctness note: within one epoch the model imposes no order between actions
(§2.2), but each slab's actions are still applied in issue order (anything but
an extending put closes the slab's run; slabs are disjoint memory) — so
overlapping puts and atomics land exactly as the eager backend lands them, and
gets read at the same completion point on every backend.  The two backends
are bit-identical for every program that observes results only after the
epoch completing them (which is all the model defines: intra-epoch races are
unordered by §2.2), and tests diff their traces directly.
"""

from __future__ import annotations

from repro.backends.base import Backend, _coalesce_puts, apply_action
from repro.rma.actions import OpKind
from repro.rma.handles import OpHandle
from repro.rma.window import Window

__all__ = ["VectorBackend"]


class VectorBackend(Backend):
    """Deferred execution: queue per epoch, per-slab coalesced apply at completion."""

    name = "vector"

    def __init__(self) -> None:
        super().__init__()
        #: Issued-but-unapplied (handle, window) pairs, one issue-ordered
        #: list per origin (allocated by :meth:`bind`).
        self._queues: list[list[tuple[OpHandle, Window]]] = []

    # ------------------------------------------------------------------
    def bind(self, nprocs: int) -> None:
        super().bind(nprocs)
        self._queues = [[] for _ in range(nprocs)]

    def issue(self, handle: OpHandle, win: Window) -> None:
        self._queues[handle.action.src].append((handle, win))

    def complete(self, src: int, trg: int) -> list[OpHandle]:
        queue = self._queues[src]
        if not queue:
            return []
        batch = [(h, w) for h, w in queue if h.action.trg == trg]
        if not batch:
            return []
        self._queues[src] = [(h, w) for h, w in queue if h.action.trg != trg]
        self._apply_batch(batch)
        return [h for h, _ in batch]

    def complete_rank(self, src: int) -> list[OpHandle]:
        batch, self._queues[src] = self._queues[src], []
        self._apply_batch(batch)
        return [h for h, _ in batch]

    def pending_ops(self, src: int | None = None) -> int:
        if src is not None:
            return len(self._queues[src])
        return sum(len(queue) for queue in self._queues)

    def discard_pending(self) -> list[OpHandle]:
        discarded = [h for queue in self._queues for h, _ in queue]
        self._queues = [[] for _ in self._queues]
        return discarded

    def discard_rank(self, src: int) -> list[OpHandle]:
        # Nothing was applied yet: dropping the queue is already effect-free.
        dropped, self._queues[src] = self._queues[src], []
        return [h for h, _ in dropped]

    def discard_targeting(self, src: int, trgs: frozenset[int]) -> list[OpHandle]:
        queue = self._queues[src]
        if not queue:
            return []
        dropped = [h for h, _ in queue if h.action.trg in trgs]
        if dropped:
            self._queues[src] = [
                (h, w) for h, w in queue if h.action.trg not in trgs
            ]
        return dropped

    # ------------------------------------------------------------------
    def _apply_batch(self, batch: list[tuple[OpHandle, Window]]) -> None:
        """Apply a queued batch: one region write per put run, issue order per slab."""
        for action, win, count, data in _coalesce_puts(batch):
            if action.kind is OpKind.PUT:
                win._region(action.trg, action.offset, count)[...] = data
            else:
                apply_action(action, win)
