"""The vectorizing backend — applies a completed batch in coalesced writes.

As on every backend, operations are not executed when issued: they are queued
per origin in issue order and applied only when the runtime completes the
epoch (flush, unlock, gsync, or a blocking wrapper).  Here the batch is first
*coalesced per slab* (:func:`~repro.backends.base._coalesce_puts`, shared
with ``proc``): the plain puts streamed back-to-back into one ``(window,
target)`` slab collapse into a single numpy slice assignment, however they
interleave with traffic to other slabs — a halo exchange alternating between
two neighbours costs two vectorized writes, not one write per message.

Correctness note: within one epoch the model imposes no order between actions
(§2.2), but each slab's actions are still applied in issue order (anything but
an extending put closes the slab's run; slabs are disjoint memory) — so
overlapping puts and atomics land exactly as ``sim``'s one-at-a-time loop
lands them, and a get reads what the slab's earlier actions left.  The two
backends are bit-identical, and tests diff their traces directly.
"""

from __future__ import annotations

from repro.backends.base import Backend, _coalesce_puts, apply_action
from repro.rma.actions import _PUT, CommAction

__all__ = ["VectorBackend"]


class VectorBackend(Backend):
    """Per-slab coalesced execution: one region write per run of puts."""

    name = "vector"

    def _apply(self, src: int, batch: list[CommAction]) -> None:
        """Apply a queued batch: one region write per put run, issue order per slab."""
        # Issued against registered windows: the registry's map is the lookup.
        for action, win, count, data in _coalesce_puts(batch, self.windows._windows):
            if action.kind is _PUT:  # ``data`` is the run's payloads (one: that very object)
                region = win._region(action.trg, action.offset, count)
                memoryview(region).cast("B")[:] = b"".join(data)
            else:
                apply_action(action, win)
