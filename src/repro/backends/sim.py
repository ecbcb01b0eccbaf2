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
:meth:`discard_pending` rolls those writes back in reverse issue order, so a
discard is effect-free exactly as it is on a deferring backend.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import Backend, apply_action
from repro.rma.actions import OpKind
from repro.rma.handles import OpHandle
from repro.rma.window import Window

__all__ = ["SimBackend"]


class SimBackend(Backend):
    """Eager execution: writes happen at issue, one op at a time."""

    name = "sim"

    def __init__(self) -> None:
        super().__init__()
        #: Issued-but-not-completed (handle, window, undo) triples, one list
        #: per origin (allocated by :meth:`bind`); write effects are already
        #: applied, pure gets read at completion.  ``undo`` is the overwritten
        #: range (or ``None`` when capture is off).
        self._pending: list[list[tuple[OpHandle, Window, np.ndarray | None]]] = []
        self._capture_undo = False

    # ------------------------------------------------------------------
    def bind(self, nprocs: int) -> None:
        super().bind(nprocs)
        self._pending = [[] for _ in range(nprocs)]

    def set_capture_undo(self, enabled: bool) -> None:
        self._capture_undo = enabled

    def issue(self, handle: OpHandle, win: Window) -> None:
        action = handle.action
        undo: np.ndarray | None = None
        if action.kind is not OpKind.GET:
            if self._capture_undo:
                undo = win._region(action.trg, action.offset, action.count).copy()
            apply_action(action, win)
        self._pending[action.src].append((handle, win, undo))

    def complete(self, src: int, trg: int) -> list[OpHandle]:
        queue = self._pending[src]
        if not queue:
            return []
        done = [entry for entry in queue if entry[0].action.trg == trg]
        if len(done) == len(queue):
            self._pending[src] = []
        elif done:
            self._pending[src] = [e for e in queue if e[0].action.trg != trg]
        return self._finish(done)

    def complete_rank(self, src: int) -> list[OpHandle]:
        done, self._pending[src] = self._pending[src], []
        return self._finish(done)

    def pending_ops(self, src: int | None = None) -> int:
        if src is not None:
            return len(self._pending[src])
        return sum(len(queue) for queue in self._pending)

    def discard_pending(self) -> list[OpHandle]:
        entries = [entry for queue in self._pending for entry in queue]
        self._pending = [[] for _ in self._pending]
        return self._unwind(entries)

    def discard_rank(self, src: int) -> list[OpHandle]:
        dropped, self._pending[src] = self._pending[src], []
        return self._unwind(dropped)

    def discard_targeting(self, src: int, trgs: frozenset[int]) -> list[OpHandle]:
        queue = self._pending[src]
        if not queue:
            return []
        dropped = [e for e in queue if e[0].action.trg in trgs]
        if dropped:
            self._pending[src] = [e for e in queue if e[0].action.trg not in trgs]
        return self._unwind(dropped)

    @staticmethod
    def _unwind(
        entries: list[tuple[OpHandle, Window, np.ndarray | None]]
    ) -> list[OpHandle]:
        """Roll back eagerly-applied effects of dropped entries, in issue order.

        Undo newest-first so overlapping ranges land back on their pre-issue
        contents.  Invalidated (failed) targets are skipped: their memory is
        lost and will be restored from a checkpoint (or stays zeroed under a
        best-effort delivery mode).
        """
        for handle, win, undo in sorted(
            entries, key=lambda e: e[0].action.seq, reverse=True
        ):
            if undo is not None and not win.is_invalidated(handle.action.trg):
                win.write(handle.action.trg, handle.action.offset, undo)
        return [handle for handle, _, _ in entries]

    # ------------------------------------------------------------------
    @staticmethod
    def _finish(batch: list[tuple[OpHandle, Window, np.ndarray | None]]) -> list[OpHandle]:
        """Perform the deferred reads of pure gets; return handles in issue order."""
        handles = []
        for handle, win, _ in batch:
            if handle.action.kind is OpKind.GET:
                apply_action(handle.action, win)
            handles.append(handle)
        return handles
