"""Virtual time for the simulated cluster.

Every simulated process owns a :class:`VirtualClock`.  The clock advances when
the process performs work (local computation, issuing RMA operations, copying
checkpoints, waiting for the parallel file system).  Collective operations
synchronize clocks: a barrier sets every participant to the maximum of the
participants' times plus the barrier cost.

The simulation is *deterministic*: given the same program, cost model and
failure schedule, all clock values are bit-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro.errors import SimulationError

__all__ = ["VirtualClock", "ClockCollection"]

_NOW = attrgetter("now")


@dataclass
class VirtualClock:
    """A single process's virtual clock, in (simulated) seconds.

    Attributes
    ----------
    now:
        Current virtual time of the owning process.
    busy:
        Accumulated time spent on "useful" application work, used to compute
        overheads (total - busy = protocol + wait time).
    """

    now: float = 0.0
    busy: float = 0.0
    #: Time spent inside fault-tolerance protocol actions (logging, checkpointing).
    protocol: float = 0.0
    #: Time spent blocked in synchronization (barriers, gsyncs, lock waits).
    waiting: float = 0.0
    #: Number of advance() calls, handy for debugging determinism issues.
    ticks: int = field(default=0, repr=False)

    def advance(self, dt: float, *, kind: str = "compute") -> float:
        """Advance the clock by ``dt`` seconds and return the new time.

        Parameters
        ----------
        dt:
            Non-negative duration.
        kind:
            One of ``"compute"``, ``"protocol"``, ``"wait"`` or ``"comm"``.
            ``compute`` counts towards :attr:`busy`; ``protocol`` towards
            :attr:`protocol`; ``wait`` towards :attr:`waiting`.  ``comm`` is
            application communication: it advances time but is not counted as
            protocol overhead.
        """
        if dt < 0:
            raise SimulationError(f"cannot advance clock by negative dt={dt!r}")
        self.now += dt
        self.ticks += 1
        if kind == "compute":
            self.busy += dt
        elif kind == "protocol":
            self.protocol += dt
        elif kind == "wait":
            self.waiting += dt
        elif kind == "comm":
            pass
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown clock advance kind {kind!r}")
        return self.now

    def synchronize_to(self, t: float) -> float:
        """Move the clock forward to time ``t`` (no-op if already past it).

        The skipped interval is accounted as waiting time.
        """
        if t > self.now:
            self.waiting += t - self.now
            self.now = t
        return self.now


class ClockCollection:
    """The set of clocks of all processes in a simulated job.

    Provides the collective-time operations used by barriers and gsyncs and
    aggregate statistics used by the benchmark harness.
    """

    def __init__(self, nprocs: int) -> None:
        if nprocs <= 0:
            raise SimulationError("a job needs at least one process")
        self._clocks = [VirtualClock() for _ in range(nprocs)]

    def clock(self, rank: int) -> VirtualClock:
        """Return the clock of ``rank``."""
        return self._clocks[rank]

    def max_time(self) -> float:
        """Maximum current time over all processes."""
        return max(map(_NOW, self._clocks))

    def synchronize(self, ranks: list[int] | None = None, extra: float = 0.0) -> float:
        """Synchronize ``ranks`` to their latest clock ``+ extra`` and return it.

        Models a barrier among the given ranks whose cost is ``extra`` seconds;
        each clock moves as :meth:`VirtualClock.synchronize_to` moves it.
        """
        clocks = self._clocks if ranks is None else [self._clocks[r] for r in ranks]
        target = max(map(_NOW, clocks)) + extra
        for c in clocks:
            if target > c.now:
                c.waiting += target - c.now
                c.now = target
        return target

    def elapsed(self) -> float:
        """Job makespan: maximum time over all processes."""
        return self.max_time()
