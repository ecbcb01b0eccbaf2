"""Exception hierarchy for the ftRMA reproduction.

All library-specific exceptions derive from :class:`ReproError` so downstream
users can catch a single base class.  The hierarchy mirrors the major
subsystems: simulator, RMA runtime, fault-tolerance protocol and the
reliability model.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


# ---------------------------------------------------------------------------
# Simulator errors
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Generic error in the virtual-time cluster simulator."""


class TopologyError(SimulationError):
    """Invalid failure-domain hierarchy or hardware description."""


class PlacementError(SimulationError):
    """A process-to-hardware mapping violates its constraints."""


class FailureScheduleError(SimulationError):
    """Malformed or inconsistent failure schedule."""


class ProcessFailedError(SimulationError):
    """An operation targeted a process that has failed (fail-stop).

    The RMA runtime raises this when user code attempts to communicate with a
    crashed rank before recovery has completed.  The fault-tolerance protocol
    catches it to trigger recovery.
    """

    def __init__(self, rank: int, message: str | None = None) -> None:
        self.rank = rank
        super().__init__(message or f"process {rank} has failed (fail-stop)")


class RankSuspendedError(ProcessFailedError):
    """A *suspended* rank tried to act as the source of an operation.

    Only raised under a failure-tolerant recovery rule (``"best_effort"``):
    the failed rank itself cannot issue or compute until it is repaired at
    the next step boundary, but its peers keep running.  The cooperative
    scheduler catches this per rank and skips the suspended rank's turn;
    any uncaught path degrades to the fail-stop semantics of the parent
    class, never to silent progress.
    """

    def __init__(self, rank: int) -> None:
        super().__init__(rank, f"process {rank} is suspended pending repair")


# ---------------------------------------------------------------------------
# RMA runtime errors
# ---------------------------------------------------------------------------


class RmaError(ReproError):
    """Generic error in the RMA runtime."""


class WindowError(RmaError):
    """Invalid window access (out of bounds, wrong dtype, wrong rank)."""


class EpochError(RmaError):
    """Violation of epoch rules (e.g. checkpoint not at an epoch boundary)."""


class LockError(RmaError):
    """Lock/unlock misuse: double unlock, unlock without lock, deadlock."""


class SynchronizationError(RmaError):
    """Illegal mix of synchronization primitives (e.g. gsync inside a lock)."""


class OpHandleError(RmaError):
    """Misuse of a nonblocking operation handle.

    Raised when the buffer of an un-completed handle is read (the operation
    has not been flushed/unlocked/gsync'ed yet) or when a handle was discarded
    by a recovery rollback and its result no longer describes committed state.
    """


class BackendError(RmaError):
    """An RMA backend was misconfigured or misused (e.g. unknown backend name)."""


# ---------------------------------------------------------------------------
# Fault-tolerance protocol errors
# ---------------------------------------------------------------------------


class CheckpointError(ReproError):
    """A checkpoint could not be taken or restored."""


class RecoveryError(ReproError):
    """Causal recovery failed and no coordinated checkpoint is available, or a
    recovery rule was misused (a reused or misconfigured best-effort rule)."""


class CatastrophicFailure(ReproError):
    """More than ``m`` processes of one group failed; the run must restart."""


# ---------------------------------------------------------------------------
# Session API errors
# ---------------------------------------------------------------------------


class ApiError(ReproError):
    """Generic misuse of the high-level session API (:mod:`repro.api`)."""


class PolicyError(ApiError):
    """Invalid :class:`~repro.api.policy.FaultTolerancePolicy` or topology spec."""


class SchedulerError(ApiError):
    """A kernel violated the cooperative scheduling contract.

    Raised when a plain-function kernel issues a collective without yielding
    it, when ranks yield mismatched collectives in the same phase, or when a
    kernel yields something that is not a collective token.
    """


class WatchdogError(ApiError):
    """A hang watchdog expired.

    Raised when :meth:`repro.api.session.Job.run` exceeds its configured
    per-step watchdog, or when the real-process backend's batch dispatch
    receives no worker acknowledgement within its ack timeout.  The message
    carries a per-rank state dump so a deadlocked rendezvous fails CI with a
    diagnosis instead of hanging it.
    """


# ---------------------------------------------------------------------------
# Resilience-study errors
# ---------------------------------------------------------------------------


class StudyError(ReproError):
    """Misuse of the resilience-study subsystem (:mod:`repro.study`).

    Raised for unknown workload names, invalid workload parameters, and
    inconsistent analytic-model inputs (non-positive costs or rates).
    """


class CampaignError(StudyError):
    """A Monte-Carlo campaign specification is inconsistent or empty."""


# ---------------------------------------------------------------------------
# Chaos/soak errors
# ---------------------------------------------------------------------------


class ChaosError(ReproError):
    """Misuse of the chaos/soak subsystem (:mod:`repro.chaos`).

    Raised for unknown scenario/recovery names, invalid soak
    specifications, and malformed chaos event logs."""


# ---------------------------------------------------------------------------
# Serving errors
# ---------------------------------------------------------------------------


class ServeError(ReproError):
    """Misuse of the KV-serving workload (:mod:`repro.serve`).

    Raised for invalid service parameters, malformed request logs and
    traffic-generator parameters outside their domain."""


# ---------------------------------------------------------------------------
# Tracing errors
# ---------------------------------------------------------------------------


class TraceError(ReproError):
    """Misuse of the tracing subsystem (:mod:`repro.trace`).

    Raised for malformed trace events, schema violations in trace files,
    double-activated trace hubs and tracers bound to more than one job."""
