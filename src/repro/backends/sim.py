"""The eager simulator backend — applies write effects at issue time.

This is the historical execution strategy of the runtime, factored out behind
the :class:`~repro.backends.base.Backend` protocol: every put-like action is
executed against the window buffers the moment it is issued, so writes are
visible to direct buffer reads immediately.  Pure *gets* read at completion
time instead — the same moment every other backend reads — so a ``get_nb``
buffer observes the target exactly as it stands when the epoch closes, on
every backend alike.  Completion (handle state, interceptor ``after_comm``)
is likewise deferred to the runtime's completion points, which is what makes
the completion stream identical to batching backends.

Eager execution means discarded (issued-but-uncompleted) operations have
already touched memory.  A coordinated rollback does not care — the restore
overwrites everything — but recovery protocols that keep survivor state
(localized replay, degraded continuation) do: when
:meth:`~repro.backends.base.Backend.set_capture_undo` is enabled, the backend
snapshots the overwritten range of every put-like action at issue time and
:meth:`~repro.backends.base.Backend.discard_pending` rolls those writes back
in reverse issue order, so a discard is effect-free exactly as it is on a
deferring backend.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import Backend, apply_action
from repro.rma.actions import CommAction, OpKind
from repro.rma.window import Window

__all__ = ["SimBackend"]

_GET, _PUT = OpKind.GET, OpKind.PUT


class SimBackend(Backend):
    """Eager execution: writes happen at issue, one op at a time."""

    name = "sim"

    def __init__(self) -> None:
        super().__init__()
        #: The range each pending put-like op overwrote, by ``seq`` — only
        #: for ops issued while capture was on.
        self._undo: dict[int, np.ndarray] = {}
        self._capture_undo = False

    # ------------------------------------------------------------------
    def set_capture_undo(self, enabled: bool) -> None:
        self._capture_undo = enabled

    def issue(self, op: CommAction, win: Window) -> None:
        kind = op.kind
        if kind is not _GET:
            region = win._region(op.trg, op.offset, op.count)
            if self._capture_undo:
                self._undo[op.seq] = region.copy()
            if kind is _PUT:  # apply_action's put branch, without the dispatch
                op.operand = op.data
                region[...] = op.data
            else:
                apply_action(op, win)
        self._pending[op.src].append(op)

    def _apply(self, src: int, batch: list[CommAction]) -> None:
        """Perform the deferred reads of pure gets; the rest happened at issue."""
        undo, window = self._undo, self.windows.get
        for op in batch:
            if op.kind is _GET:
                apply_action(op, window(op.window))
            elif undo:
                undo.pop(op.seq, None)

    def _unwind(self, dropped: list[CommAction]) -> None:
        """Roll back the eagerly-applied effects of ``dropped`` ops.

        Undo newest-first so overlapping ranges land back on their pre-issue
        contents.  Invalidated (failed) targets are skipped: their memory is
        lost and will be restored from a checkpoint (or stays zeroed under a
        best-effort delivery mode).
        """
        if not self._undo:
            return
        for op in sorted(dropped, key=lambda op: op.seq, reverse=True):
            saved = self._undo.pop(op.seq, None)
            if saved is not None:
                win = self.windows.get(op.window)
                if not win.is_invalidated(op.trg):
                    win.write(op.trg, op.offset, saved)
