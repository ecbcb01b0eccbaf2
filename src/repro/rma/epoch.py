"""Epoch tracking (§2.2).

The period between two consecutive memory-consistency actions (flush, unlock,
gsync) issued by process ``p`` towards the same target ``q`` is an *epoch*.
Every such action closes the current epoch and opens a new one, i.e.
increments ``E(p -> q)``.  A gsync is collective and increments the epochs of
every pair at every process.

Epochs induce the consistency order ``co``: actions issued by ``p`` towards
``q`` in different epochs are ordered; actions within one epoch are not.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["EpochTracker", "EpochState"]


@dataclass(slots=True)
class EpochState:
    """Epoch bookkeeping of a single origin process."""

    #: ``E(p -> q)`` for every target ``q`` this process has communicated with.
    epoch_of_target: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    #: Operations issued per target in the open epoch (a completed blocking
    #: put still counts until the epoch closes): what a flush is priced by.
    pending_ops: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    #: Total number of epochs this process has closed (any target).
    epochs_closed: int = 0

    def copy(self) -> EpochState:
        """An independent copy.  The maps are flat ``int -> int``, so copying
        them one level deep is a deep copy — and ``dict.copy`` keeps the
        ``defaultdict`` factory, so a restored state still auto-creates targets."""
        return EpochState(
            epoch_of_target=self.epoch_of_target.copy(),
            pending_ops=self.pending_ops.copy(),
            epochs_closed=self.epochs_closed,
        )


class EpochTracker:
    """Tracks ``E(p -> q)`` and the open epochs' operation counts for all processes."""

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        self._states = [EpochState() for _ in range(nprocs)]

    def state(self, rank: int) -> EpochState:
        """Epoch state of ``rank``."""
        return self._states[rank]

    def epoch(self, src: int, trg: int) -> int:
        """Current epoch number ``E(src -> trg)``."""
        return self._states[src].epoch_of_target[trg]

    def pending(self, src: int, trg: int | None = None) -> int:
        """Operations ``src`` issued towards ``trg`` (or all targets) in the open
        epoch(s) — completed or not; :meth:`~repro.simulator.costs.CostModel.flush`
        prices the flush that closes them by this count."""
        state = self._states[src]
        if trg is not None:
            return state.pending_ops[trg]
        return sum(state.pending_ops.values())

    def close_epoch(self, src: int, trg: int) -> int:
        """Close the epoch ``src -> trg`` (flush or unlock) and return the new epoch."""
        state = self._states[src]
        state.epoch_of_target[trg] += 1
        state.pending_ops[trg] = 0
        state.epochs_closed += 1
        return state.epoch_of_target[trg]

    def close_all_epochs(self, src: int) -> None:
        """Close every open epoch of ``src`` (flush_all)."""
        state = self._states[src]
        epochs, pending = state.epoch_of_target, state.pending_ops
        for trg in epochs:  # values only: the key set does not change
            epochs[trg] += 1
        for trg in pending:
            pending[trg] = 0
        state.epochs_closed += 1

    def close_global_epoch(self) -> None:
        """Close all epochs at all processes (gsync): :meth:`close_all_epochs` per rank."""
        for state in self._states:
            epochs, pending = state.epoch_of_target, state.pending_ops
            for trg in epochs:
                epochs[trg] += 1
            for trg in pending:
                pending[trg] = 0
            state.epochs_closed += 1

    def clear_pending(self, src: int | None = None) -> None:
        """Zero the open epochs' operation counts of ``src`` (or every rank).

        Used when issued-but-uncompleted operations are *discarded* by a
        recovery rollback: the operations no longer exist, but the epochs they
        were issued in stay open (no consistency action was performed).
        """
        ranks = range(self.nprocs) if src is None else (src,)
        for rank in ranks:
            self._states[rank].pending_ops.clear()

    def reset_rank(self, rank: int) -> None:
        """Forget all epoch state of ``rank`` (its replacement starts fresh)."""
        self._states[rank] = EpochState()

    def snapshot(self) -> list[EpochState]:
        """Deep-copy the epoch state of every rank (checkpoint payload)."""
        return [state.copy() for state in self._states]

    def restore(self, states: list[EpochState]) -> None:
        """Roll every rank's epoch state back to a :meth:`snapshot`."""
        self._states = [state.copy() for state in states]
