"""The reference simulator backend — applies a completed batch one op at a time.

Like every backend, ``sim`` queues an issued action and touches no memory
until the runtime completes the epoch (flush, unlock, gsync, or a blocking
wrapper); a discarded action therefore never had an effect.  What sets it
apart is *how* a completed batch is applied: strictly one action after the
other in issue order, with no merging and no wire — the plainest reading of
:func:`~repro.backends.base.apply_action`.  That makes it the per-op
*reference* the differential suites hold ``vector``'s coalescer and
``proc``'s wire format against.
"""

from __future__ import annotations

from repro.backends.base import Backend, apply_action
from repro.rma.actions import CommAction, OpKind

__all__ = ["SimBackend"]


class SimBackend(Backend):
    """Per-op execution: a completed batch is applied one action at a time."""

    name = "sim"

    def _apply(self, src: int, batch: list[CommAction]) -> None:
        """Apply a queued batch in issue order, one region access per action."""
        windows, put = self.windows._windows, OpKind.PUT
        for op in batch:
            win = windows[op.window]  # issued against a registered window
            if op.kind is put:  # apply_action's put branch, straight to the slab
                if op.trg in win._invalidated:
                    win._check_alive(op.trg)  # Window._region's one check
                op.operand = op.data
                win.buffers[op.trg][op.offset : op.offset + op.count] = op.data
            else:
                apply_action(op, win)
