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
from repro.rma.actions import _PUT, CommAction

__all__ = ["SimBackend"]


class SimBackend(Backend):
    """Per-op execution: a completed batch is applied one action at a time."""

    name = "sim"

    def _apply(self, src: int, batch: list[CommAction]) -> None:
        """Apply a queued batch in issue order, one region access per action; the
        window, its invalidated set and its array's bytes are resolved once per run
        of one."""
        windows, name = self.windows._windows, None
        for op in batch:
            if op.window != name:  # issued against a registered window
                name, win = op.window, windows[op.window]
                invalidated, itemsize = win._invalidated, win.itemsize
                flat, row = memoryview(win.array).cast("B"), win.size * itemsize  # rank-major
            if op.kind is _PUT:  # apply_action's put branch, straight to the array
                trg = op.trg
                if trg in invalidated:
                    win._check_alive(trg)  # Window._region's one check
                start = trg * row + op.offset * itemsize
                flat[start : start + op.nbytes] = op._data
            else:
                apply_action(op, win)
