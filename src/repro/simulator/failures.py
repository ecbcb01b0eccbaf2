"""Fail-stop failure injection.

The paper assumes *fail-stop* faults: a process disappears nondeterministically
but behaves correctly until it does (§2.4).  In the simulator a failure is an
event ``(time, level, element_index)`` — when the virtual time of the job
passes ``time``, every process placed under that failure-domain element is
marked dead.  A process-level failure is expressed as a level-0 event carrying
the rank directly.

Failure schedules can be written by hand (deterministic injection for tests
and examples) or drawn from per-level exponential rates (for resilience
studies), mirroring the exponential distributions the paper fits to the
TSUBAME2.0 failure history (§7.1).
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field

import numpy as np

from repro.errors import FailureScheduleError
from repro.simulator.placement import Placement
from repro.simulator.rng import make_rng

__all__ = ["FailureEvent", "FailureSchedule", "FailureInjector", "exponential_schedule"]

#: Pseudo-level used for failures that target a single process (rank) directly.
PROCESS_LEVEL = 0


@dataclass(frozen=True, order=True)
class FailureEvent:
    """One fail-stop event.

    Attributes
    ----------
    time:
        Virtual time (seconds) at which the element fails.
    level:
        FDH level of the failing element; ``0`` means a single process.
    index:
        Element index at that level, or the rank if ``level == 0``.
    """

    time: float
    level: int
    index: int

    def describe(self) -> str:
        """Human-readable one-liner."""
        target = f"rank {self.index}" if self.level == PROCESS_LEVEL else (
            f"level-{self.level} element {self.index}"
        )
        return f"t={self.time:.6f}s: failure of {target}"


@dataclass
class FailureSchedule:
    """An ordered collection of :class:`FailureEvent`."""

    events: list[FailureEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        for ev in self.events:
            self._validate(ev)
        self.events.sort()

    @staticmethod
    def _validate(event: FailureEvent) -> None:
        if event.time < 0:
            raise FailureScheduleError(f"failure time must be non-negative: {event}")
        if event.level < 0 or event.index < 0:
            raise FailureScheduleError(f"failure level/index must be non-negative: {event}")

    # Convenience constructors -------------------------------------------------
    @classmethod
    def none(cls) -> "FailureSchedule":
        """A schedule with no failures (fault-free runs)."""
        return cls([])

    @classmethod
    def single_rank(cls, rank: int, time: float) -> "FailureSchedule":
        """Fail a single process at ``time``."""
        return cls([FailureEvent(time=time, level=PROCESS_LEVEL, index=rank)])

    @classmethod
    def ranks(cls, failures: dict[int, float]) -> "FailureSchedule":
        """Fail each rank of ``failures`` at its associated time."""
        return cls(
            [FailureEvent(time=t, level=PROCESS_LEVEL, index=r) for r, t in failures.items()]
        )

    @classmethod
    def element(cls, level: int, index: int, time: float) -> "FailureSchedule":
        """Fail a whole failure-domain element (node, PSU, rack, ...)."""
        if level <= 0:
            raise FailureScheduleError("element failures require level >= 1")
        return cls([FailureEvent(time=time, level=level, index=index)])

    # Mutation ----------------------------------------------------------------
    def add(self, event: FailureEvent) -> None:
        """Insert one more event, keeping the schedule sorted."""
        self._validate(event)
        insort(self.events, event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


def exponential_schedule(
    *,
    horizon: float,
    rates_per_level: dict[int, float],
    max_index_per_level: dict[int, int],
    seed: int | np.random.Generator | np.random.SeedSequence = 0,
) -> FailureSchedule:
    """Draw a failure schedule from per-level Poisson processes.

    Parameters
    ----------
    horizon:
        Length of the simulated period in seconds.
    rates_per_level:
        ``{level: failures_per_second}``; levels not listed never fail.
    max_index_per_level:
        ``{level: H_j}`` — how many elements exist at each level; failing
        elements are drawn uniformly among them.
    seed:
        Seed, seed sequence or generator for reproducibility.  Identical
        seeds yield identical schedules, event for event — the property the
        Monte-Carlo campaign's trial seeding and the determinism tests rely
        on.
    """
    if horizon <= 0:
        raise FailureScheduleError("horizon must be positive")
    rng = make_rng(seed)
    events: list[FailureEvent] = []
    for level, rate in sorted(rates_per_level.items()):
        if rate < 0:
            raise FailureScheduleError(f"rate for level {level} must be non-negative")
        if rate == 0:
            continue
        if level not in max_index_per_level:
            raise FailureScheduleError(f"missing element count for level {level}")
        n_elems = max_index_per_level[level]
        t = 0.0
        while True:
            t += rng.exponential(1.0 / rate)
            if t > horizon:
                break
            idx = int(rng.integers(0, n_elems))
            events.append(FailureEvent(time=t, level=level, index=idx))
    return FailureSchedule(events)


class FailureInjector:
    """Applies a :class:`FailureSchedule` to a placed job.

    The cluster driver polls :meth:`newly_failed_ranks` at synchronization
    points (barriers, gsyncs); this models the fact that in RMA a failure is
    only *observed* when some process tries to synchronize with or access the
    failed process.

    Every mutation of the failed set goes through the injector (:meth:`fail`,
    :meth:`revive`, fired events) and bumps :attr:`generation`, so consumers
    cache what they derive from it and revalidate with one comparison.
    """

    def __init__(self, schedule: FailureSchedule, placement: Placement) -> None:
        self.schedule = schedule
        self.placement = placement
        self._pending: list[FailureEvent] = sorted(schedule.events)
        #: Incremented whenever the failed set changes.
        self.generation = 0
        #: Time of the next scheduled event (``inf`` when none remain).
        self.next_due = self._pending[0].time if self._pending else math.inf
        #: Ranks that have failed so far (and not been replaced).
        self.failed_ranks: frozenset[int] = frozenset()

    def _set_failed(self, ranks: frozenset[int]) -> None:
        self.failed_ranks = ranks
        self.generation += 1

    def ranks_of_event(self, event: FailureEvent) -> list[int]:
        """Which ranks die when ``event`` fires."""
        if event.level == PROCESS_LEVEL:
            if event.index >= self.placement.nprocs:
                raise FailureScheduleError(
                    f"failure targets rank {event.index} but the job has only "
                    f"{self.placement.nprocs} processes"
                )
            return [event.index]
        return self.placement.ranks_on(event.level, event.index)

    def newly_failed_ranks(self, now: float) -> list[int]:
        """Fire all events with ``time <= now``; return ranks that just died.

        Ranks that already failed earlier are not reported again.
        """
        newly: list[int] = []
        try:
            while self.next_due <= now:
                event = self._pending.pop(0)
                self.next_due = self._pending[0].time if self._pending else math.inf
                for rank in self.ranks_of_event(event):
                    if rank not in self.failed_ranks and rank not in newly:
                        newly.append(rank)
        finally:  # a malformed event raises mid-scan; earlier deaths still count
            if newly:
                self._set_failed(self.failed_ranks.union(newly))
        return newly

    def fail(self, rank: int) -> None:
        """Mark ``rank`` dead right now (explicit, unscheduled failure)."""
        if rank not in self.failed_ranks:
            self._set_failed(self.failed_ranks | {rank})

    def is_failed(self, rank: int) -> bool:
        """Whether ``rank`` is currently marked dead."""
        return rank in self.failed_ranks

    def revive(self, rank: int) -> None:
        """Mark ``rank`` alive again (a replacement process has been spawned)."""
        if rank in self.failed_ranks:
            self._set_failed(self.failed_ranks - {rank})
