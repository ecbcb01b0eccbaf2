"""Per-process recovery state (§2.2, §2.4, §4.1): Eq. (1)'s counters, one record per rank.

The runtime keeps, for every process ``p``, one :class:`ProcessCounters`:

* ``EC`` per target — the epoch ``E(p -> q)`` (§2.2): the period between two
  consecutive memory-consistency actions (flush, unlock, gsync) issued by
  ``p`` towards ``q``.  Every such action closes the epoch and opens the next;
  a gsync is collective and closes every pair's epoch at every process.
  Epochs induce the consistency order ``co``: actions of ``p`` towards ``q``
  in different epochs are ordered, actions within one epoch are not;
* ``GC_p`` — the *Get Counter*, incremented each time ``p`` issues a flush to
  any other process; stamped on gets to order gets towards different targets;
* ``SC_p`` — the *Synchronization Counter* stored **at p**, fetched and
  incremented by any process that locks ``p``; the fetched value is stamped on
  the locker's subsequent accesses to record the ``so`` order;
* ``GNC_p`` — the *GsyNc Counter*, incremented at every process by each gsync;
* ``LC_p`` — the *Lock Counter* of the "Locks" coordinated-checkpointing
  scheme (§3.1.2): the locks ``p`` holds; a checkpoint may start only when it
  is zero.

The counters themselves are plain local integers; only ``SC`` requires an
extra remote access, whose *cost* is charged by the fault-tolerance protocol
(the counter value is always maintained so that tests can inspect orderings
even without any protocol attached).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["ProcessCounters", "CounterBoard"]


@dataclass(slots=True)
class ProcessCounters:
    """All recovery state of a single process."""

    #: ``E(p -> q)`` for every target ``q`` this process has communicated with.
    epoch_of_target: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    #: Operations issued per target in the open epoch (a completed blocking
    #: put still counts until the epoch closes): what a flush is priced by.
    pending_ops: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    #: Get Counter: number of flushes issued by this process so far.
    gc: int = 0
    #: Gsync Counter: number of gsyncs observed by this process.
    gnc: int = 0
    #: Synchronization Counter stored at this process, incremented by lockers.
    sc_local: int = 0
    #: SC value this process currently holds for each target it has locked.
    sc_held: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    #: Locks currently held by this process, ``(target, structure) -> SC``.
    held_locks: dict[tuple[int, str | None], int] = field(default_factory=dict)

    @property
    def lc(self) -> int:
        """Lock Counter of the Locks CC scheme: the locks currently held."""
        return len(self.held_locks)

    def close_epoch(self, trg: int) -> None:
        """Close the epoch towards ``trg`` (flush or unlock)."""
        self.epoch_of_target[trg] += 1
        self.pending_ops[trg] = 0

    def close_all_epochs(self) -> None:
        """Close every open epoch (flush_all, gsync)."""
        epochs, pending = self.epoch_of_target, self.pending_ops
        for trg in epochs:  # values only: the key set does not change
            epochs[trg] += 1
        for trg in pending:
            pending[trg] = 0

    def copy(self) -> ProcessCounters:
        """An independent copy.  The maps are flat (ints, and tuples of ints and
        strings), so copying them one level deep is a deep copy — and
        ``dict.copy`` keeps the ``defaultdict`` factories, so a restored record
        still auto-creates targets."""
        return ProcessCounters(  # positional, in field order: no keyword matching
            self.epoch_of_target.copy(), self.pending_ops.copy(), self.gc, self.gnc,
            self.sc_local, self.sc_held.copy(), self.held_locks.copy(),
        )


class CounterBoard:
    """The :class:`ProcessCounters` of every process of the job."""

    def __init__(self, nprocs: int) -> None:
        #: One record per rank, indexed by rank.  The list is never rebound
        #: (a reset or restore replaces its entries), so a reader may keep it.
        self.records = [ProcessCounters() for _ in range(nprocs)]

    def of(self, rank: int) -> ProcessCounters:
        """Counters of ``rank``."""
        return self.records[rank]

    def on_gsync(self, ranks: frozenset[int] | None = None) -> None:
        """Record a gsync: every process (of ``ranks``) bumps its ``GNC`` and closes
        every epoch (:meth:`ProcessCounters.close_all_epochs`, inline: no call per rank)."""
        for own in self.records if ranks is None else map(self.records.__getitem__, ranks):
            own.gnc += 1
            epochs, pending = own.epoch_of_target, own.pending_ops
            for trg in epochs:
                epochs[trg] += 1
            for trg in pending:
                pending[trg] = 0

    def release_locks(self) -> None:
        """Drop every lock any rank holds (crash-recovery release).

        A step aborted by a failure can leave locks acquired mid-kernel
        unreleased; recovery protocols that do not restore counter state
        (localized replay, degraded continuation) release them explicitly so
        the re-executed or continuing program can acquire them again.  The
        historical ``sc_held`` stamps are kept — they record the ``so`` order
        of accesses already performed.
        """
        for own in self.records:
            own.held_locks.clear()

    def reset_rank(self, rank: int) -> None:
        """Forget the state of ``rank`` (replacement process).

        Note that ``SC_local`` survives conceptually at the *target* side of a
        lock; since the failed process's own memory is lost, its local SC is
        reset too — recovering processes re-learn counter values from the logs
        (§6.2 demand-checkpoint confirmations carry them).
        """
        self.records[rank] = ProcessCounters()

    def snapshot(self) -> list[ProcessCounters]:
        """Deep-copy every rank's record (checkpoint payload)."""
        return [own.copy() for own in self.records]

    def restore(self, states: list[ProcessCounters]) -> None:
        """Roll every rank's record back to a :meth:`snapshot`.

        A coordinated rollback restores *survivors* too: their post-checkpoint
        epochs and pending operations go, and locks they acquired after the
        checkpoint are released with the rest of their state, so the
        re-executed program can acquire them again.
        """
        self.records[:] = [own.copy() for own in states]
