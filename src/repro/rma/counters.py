"""Per-process recovery counters (§2.4, §4.1).

The runtime keeps, for every process ``p``:

* ``EC`` per target — tracked by :class:`~repro.rma.epoch.EpochTracker`;
* ``GC_p`` — the *Get Counter*, incremented each time ``p`` issues a flush to
  any other process; stamped on gets to order gets towards different targets;
* ``SC_p`` — the *Synchronization Counter* stored **at p**, fetched and
  incremented by any process that locks ``p``; the fetched value is stamped on
  the locker's subsequent accesses to record the ``so`` order;
* ``GNC_p`` — the *GsyNc Counter*, incremented at every process by each gsync;
* ``LC_p`` — the *Lock Counter* of the "Locks" coordinated-checkpointing
  scheme (§3.1.2): +1 on lock, -1 on unlock; a checkpoint may start only when
  it is zero.

The counters themselves are plain local integers; only ``SC`` requires an
extra remote access, whose *cost* is charged by the fault-tolerance protocol
(the counter value is always maintained so that tests can inspect orderings
even without any protocol attached).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.errors import LockError

__all__ = ["ProcessCounters", "CounterBoard"]


@dataclass
class ProcessCounters:
    """All recovery counters of a single process."""

    #: Get Counter: number of flushes issued by this process so far.
    gc: int = 0
    #: Gsync Counter: number of gsyncs observed by this process.
    gnc: int = 0
    #: Lock Counter of the Locks CC scheme: currently held locks.
    lc: int = 0
    #: Synchronization Counter stored at this process, incremented by lockers.
    sc_local: int = 0
    #: SC value this process currently holds for each target it has locked.
    sc_held: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    #: Targets currently locked by this process (for LockError checking).
    held_locks: dict[tuple[int, str | None], int] = field(default_factory=dict)

    def copy(self) -> ProcessCounters:
        """An independent copy (the maps hold immutable keys and ints, and
        ``dict.copy`` keeps ``sc_held``'s ``defaultdict`` factory)."""
        return ProcessCounters(
            gc=self.gc,
            gnc=self.gnc,
            lc=self.lc,
            sc_local=self.sc_local,
            sc_held=self.sc_held.copy(),
            held_locks=self.held_locks.copy(),
        )


class CounterBoard:
    """Counters of every process of the job."""

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        self._counters = [ProcessCounters() for _ in range(nprocs)]

    def of(self, rank: int) -> ProcessCounters:
        """Counters of ``rank``."""
        return self._counters[rank]

    # ------------------------------------------------------------------
    # GC — flush counter at the origin
    # ------------------------------------------------------------------
    def on_flush(self, src: int) -> int:
        """Record a flush issued by ``src``; return the new ``GC_src``."""
        self._counters[src].gc += 1
        return self._counters[src].gc

    def gc(self, rank: int) -> int:
        """Current ``GC`` of ``rank``."""
        return self._counters[rank].gc

    # ------------------------------------------------------------------
    # GNC — gsync counter
    # ------------------------------------------------------------------
    def on_gsync(self, ranks: list[int] | None = None) -> None:
        """Record a gsync observed by ``ranks`` (all processes by default)."""
        targets = range(self.nprocs) if ranks is None else ranks
        for rank in targets:
            self._counters[rank].gnc += 1

    def gnc(self, rank: int) -> int:
        """Current ``GNC`` of ``rank``."""
        return self._counters[rank].gnc

    # ------------------------------------------------------------------
    # SC — synchronization counter at the target, fetched on lock
    # ------------------------------------------------------------------
    def on_lock(self, src: int, trg: int, structure: str | None = None) -> int:
        """Record ``src`` locking ``trg``.

        Performs the fetch-and-increment of ``SC_trg`` described in §4.1 C and
        returns the value now held by ``src`` for its accesses to ``trg``.
        Also maintains ``LC_src`` for the Locks CC scheme.
        """
        src_counters = self._counters[src]
        trg_counters = self._counters[trg]
        key = (trg, structure)
        if key in src_counters.held_locks:
            raise LockError(
                f"rank {src} already holds lock {structure!r} on rank {trg}"
            )
        trg_counters.sc_local += 1
        src_counters.sc_held[trg] = trg_counters.sc_local
        src_counters.held_locks[key] = trg_counters.sc_local
        src_counters.lc += 1
        return trg_counters.sc_local

    def on_unlock(self, src: int, trg: int, structure: str | None = None) -> None:
        """Record ``src`` unlocking ``trg``; decrements ``LC_src``."""
        src_counters = self._counters[src]
        key = (trg, structure)
        if key not in src_counters.held_locks:
            raise LockError(
                f"rank {src} does not hold lock {structure!r} on rank {trg}"
            )
        del src_counters.held_locks[key]
        src_counters.lc -= 1
        if src_counters.lc < 0:  # pragma: no cover - defensive
            raise LockError(f"lock counter of rank {src} became negative")

    def sc_held(self, src: int, trg: int) -> int:
        """SC value ``src`` currently holds for ``trg`` (0 if never locked)."""
        return self._counters[src].sc_held.get(trg, 0)

    def sc_local(self, rank: int) -> int:
        """The synchronization counter stored at ``rank``."""
        return self._counters[rank].sc_local

    # ------------------------------------------------------------------
    # LC — lock counter of the Locks coordinated-checkpointing scheme
    # ------------------------------------------------------------------
    def lc(self, rank: int) -> int:
        """Currently held locks of ``rank``."""
        return self._counters[rank].lc

    def holds_any_lock(self, rank: int) -> bool:
        """Whether ``rank`` currently holds any lock (checkpoint must wait)."""
        return self._counters[rank].lc > 0

    def release_all_locks(self, rank: int) -> None:
        """Drop every lock ``rank`` currently holds (crash-recovery release).

        A step aborted by a failure can leave locks acquired mid-kernel
        unreleased; recovery protocols that do not restore counter state
        (localized replay, degraded continuation) release them explicitly so
        the re-executed or continuing program can acquire them again.  The
        historical ``sc_held`` stamps are kept — they record the ``so`` order
        of accesses already performed.
        """
        counters = self._counters[rank]
        counters.held_locks.clear()
        counters.lc = 0

    # ------------------------------------------------------------------
    def reset_rank(self, rank: int) -> None:
        """Forget the counters of ``rank`` (replacement process).

        Note that ``SC_local`` survives conceptually at the *target* side of a
        lock; since the failed process's own memory is lost, its local SC is
        reset too — recovering processes re-learn counter values from the logs
        (§6.2 demand-checkpoint confirmations carry them).
        """
        self._counters[rank] = ProcessCounters()

    def snapshot(self) -> list[ProcessCounters]:
        """Deep-copy the counters of every rank (checkpoint payload)."""
        return [counters.copy() for counters in self._counters]

    def restore(self, states: list[ProcessCounters]) -> None:
        """Roll every rank's counters back to a :meth:`snapshot`.

        A coordinated rollback restores *survivors* too: locks they held
        after the checkpoint are released with the rest of their state, so
        the re-executed program can acquire them again.
        """
        self._counters = [counters.copy() for counters in states]
