"""Sessions: launch an SPMD job, run kernels, survive failures transparently.

:func:`launch` is the single entry point of the high-level API::

    import repro

    with repro.launch(nprocs=8, ft=repro.FaultTolerancePolicy(interval=10)) as job:
        job.allocate("u", 64)
        for ctx in job.contexts:
            ctx.local("u")[:] = ctx.rank
        report = job.run(kernel, steps=100)

The session — not the application — owns the fault-tolerance wiring: it
installs the :class:`~repro.ft.stack.FtStack` the
:class:`~repro.api.policy.FaultTolerancePolicy` declares and runs one step
loop over it — ``begin_step`` (observe, repair, checkpoint) before the
kernels, ``end_step`` after them, ``repair`` last — and when a
:class:`~repro.errors.ProcessFailedError` surfaces anywhere in a step it runs
the :class:`~repro.ft.recovery.RecoveryManager` and resumes where it says.
Kernels therefore contain **zero** recovery logic; because the cooperative
schedule is deterministic, a recovered run finishes bit-identical to a
failure-free one.
"""

from __future__ import annotations

import signal
import threading
from dataclasses import dataclass

import numpy as np

from repro.api.context import RankContext
from repro.api.policy import FaultTolerancePolicy, Topology
from repro.api.scheduler import CooperativeScheduler, Kernel
from repro.backends import BACKENDS, Backend
from repro.errors import (
    ApiError,
    PolicyError,
    ProcessFailedError,
    RecoveryError,
    WatchdogError,
)
from repro.ft.inject import KillPlan, install_injector
from repro.ft.stack import FtStack
from repro.registry import resolve_component
from repro.rma.interceptor import RmaInterceptor
from repro.rma.runtime import RmaRuntime
from repro.rma.window import Window
from repro.simulator.metrics import MetricsSnapshot
from repro.trace.tracer import Tracer, current_trace_hub, install_trace

__all__ = ["Job", "JobReport", "SessionObserver", "launch"]


class SessionObserver(RmaInterceptor):
    """No-op base class for session lifecycle observers.

    Register instances with :meth:`Job.add_observer`.  Every hook carries the
    job's *virtual* timestamp (``cluster.elapsed()``), so observer-built event
    logs are byte-identical across backends and re-runs.  Hooks run inline in
    the step loop and must not raise.
    """


@dataclass(frozen=True)
class JobReport:
    """Snapshot of a session's counters, as returned by :meth:`Job.run`.

    All counters are cumulative over the session's lifetime: a second
    :meth:`Job.run` call on the same job reports the totals of both phases
    (diff two :meth:`Job.report` snapshots for per-phase numbers).
    """

    #: Kernel steps actually executed, counting re-executions after rollback.
    steps_executed: int
    #: Coordinated checkpoints taken so far (periodic, initial and demand).
    checkpoints: int
    #: Demand checkpoints among them.
    demand_checkpoints: int
    #: Completed recoveries (each may cover several simultaneous failures).
    recoveries: int
    #: Localized (log-based) recoveries among them.
    localized_recoveries: int
    #: Localized recoveries that had to fall back to a global rollback.
    recovery_fallbacks: int
    #: Ranks permanently excised by a degraded continuation.
    excised_ranks: int
    #: Job makespan in virtual seconds.
    elapsed: float
    #: Full metrics snapshot for detailed reporting.
    metrics: MetricsSnapshot

    def describe(self) -> str:
        """Human-readable one-liner."""
        degraded = f", {self.excised_ranks} ranks excised" if self.excised_ranks else ""
        return (
            f"{self.steps_executed} steps executed, "
            f"{self.checkpoints} checkpoints ({self.demand_checkpoints} on demand), "
            f"{self.recoveries} recoveries{degraded}, "
            f"makespan {self.elapsed * 1e3:.3f} ms (virtual)"
        )


class Job:
    """A launched SPMD session: cluster + runtime + scheduler + FT policy.

    Prefer :func:`launch` over constructing this directly (its parameters are
    documented there; ``trace`` becomes one interceptor).  Use as a context
    manager so the runtime is finalized (interceptor statistics flushed) on
    exit.
    """

    def __init__(
        self,
        nprocs: int = 8,
        *,
        topology: Topology | None = None,
        ft: FaultTolerancePolicy | None = None,
        failures: KillPlan | None = None,
        sync_each_step: bool = True,
        backend: str | Backend | None = None,
        watchdog: float | None = None,
        trace: "Tracer | None" = None,
    ) -> None:
        if watchdog is not None and watchdog <= 0:
            raise ApiError("watchdog must be a positive number of seconds (or None)")
        self.watchdog = watchdog
        self.topology = topology or Topology()
        self.policy = ft
        self.failures = failures
        self.cluster = self.topology.build(nprocs)
        # Resolve the backend at the session boundary so a typo fails here,
        # as a PolicyError naming the registered choices, before any cluster
        # state exists.
        resolved_backend = resolve_component(
            "backend", backend, BACKENDS, Backend, PolicyError, default="sim"
        )
        self.runtime = RmaRuntime(self.cluster, backend=resolved_backend)
        self.contexts: list[RankContext] = [
            RankContext(self.runtime, rank) for rank in range(nprocs)
        ]
        self.scheduler = CooperativeScheduler(self.runtime, self.contexts)
        self.sync_each_step = sync_each_step
        self.ft: FtStack | None = ft.install(self.runtime) if ft is not None else None
        # interval="auto" resolves through the analytic Young/Daly model once
        # the first step's cost has been measured (see _resolve_auto_interval);
        # a numeric/None interval is in effect immediately.
        self._auto_interval = ft is not None and ft.interval == "auto"
        self._auto_pending = False
        self._interval: int | None = (
            ft.interval if ft is not None and not self._auto_interval else None  # type: ignore[assignment]
        )
        self._have_checkpoint = False
        self._steps_executed = 0
        self._closed = False
        # Tracing last, so the trace interceptor sits behind the FT stack's
        # (replay suppression and action logging stay ahead of
        # instrumentation).  An explicit tracer wins; otherwise an active
        # trace hub (``tracing()`` block, e.g. an engine CLI's ``--trace``)
        # supplies one.  With neither, tracing costs one hub check here.
        self.trace: "Tracer | None" = None
        if trace is None:
            hub = current_trace_hub()
            if hub is not None:
                trace = hub.tracer()
        if trace is not None:
            install_trace(self, trace)
        if failures:  # armed before the set-up, as ``launch`` documents
            install_injector(self, failures)

    def add_observer(self, observer: SessionObserver) -> None:
        """Attach a :class:`SessionObserver` to the step loop's lifecycle
        (it joins ``runtime.interceptors``)."""
        self.runtime.add_interceptor(observer)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def nranks(self) -> int:
        """Number of ranks in the job."""
        return self.cluster.nprocs

    def __enter__(self) -> "Job":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Finish the session and tear the fault-tolerance stack down.

        Flushes interceptor statistics, then fully uninstalls the FT stack
        (interceptors removed, store closed — releasing disk-spill scratch
        directories — recovery manager detached).  Idempotent: entering the
        job as a context manager and also calling ``close()`` explicitly is
        fine.
        """
        if self._closed:
            return
        self._closed = True
        self.runtime.finalize()
        if self.ft is not None:
            self.ft.uninstall(self.runtime)

    @property
    def closed(self) -> bool:
        """Whether the session has been closed."""
        return self._closed

    # ------------------------------------------------------------------
    # Windows and data
    # ------------------------------------------------------------------
    def allocate(self, name: str, size: int, dtype=np.float64) -> Window:
        """Collectively allocate a window of ``size`` elements on every rank."""
        return self.runtime.win_allocate(name, size, np.dtype(dtype))

    def local(self, rank: int, window: str) -> np.ndarray:
        """View of ``rank``'s buffer of ``window`` (initialization/IO), writable
        until the next step boundary or checkpoint."""
        return self.runtime.local(rank, window)

    def gather(self, window: str, part: slice | None = None) -> np.ndarray:
        """Every rank's (sliced) row of ``window``, flat: one copy read without handing
        out views (no raw-access stamp moves: the next checkpoint trusts the put log)."""
        runtime, win = self.runtime, self.runtime.window(window)
        for rank in range(self.nranks):
            runtime._require_alive(rank, excised_ok=True)  # what ``local`` checks
        if win._invalidated:
            win._check_alive(min(win._invalidated))
        return win.array[:, part if part is not None else slice(None)].flatten()

    # ------------------------------------------------------------------
    # The step loop — transparent fault tolerance lives here
    # ------------------------------------------------------------------
    def run(self, kernel: Kernel, steps: int) -> JobReport:
        """Drive ``kernel`` for ``steps`` SPMD steps, recovering failures.

        Between steps the session takes coordinated checkpoints per the
        declared policy (every ``interval`` steps; on demand when the put/get
        log passes the threshold; always one before the first step so
        rollback is possible).  A failure observed anywhere — inside a
        kernel, a collective, or a checkpoint — rolls the job back to the
        last committed checkpoint and resumes; kernels are simply re-entered
        at the restored step number, so all cross-step state must live in
        windows (which is what makes the replay bit-identical).

        Steps are numbered from 0 on every call, and every call opens with a
        checkpoint.  Two failure modes are not transparently recoverable and
        surface to the caller: a failure striking before the call's opening
        checkpoint has committed, when no stored version is of this call's
        execution (:class:`~repro.errors.RecoveryError`; a degraded continuation
        restores none), and the loss of a rank
        together with its buddy
        (:class:`~repro.errors.CatastrophicFailure`).  Without a
        fault-tolerance policy, failures propagate to the caller unchanged.

        With a ``watchdog`` configured on the session (wall-clock seconds; off
        by default), every step must complete within the limit or the run
        fails with a :class:`~repro.errors.WatchdogError` carrying
        :meth:`describe_ranks` — so a wedged real-process rendezvous produces
        a diagnosis instead of a hung test suite.
        """
        if steps < 0:
            raise ApiError("steps must be non-negative")
        # Open the run with a fresh checkpoint: the rollback target of its
        # first steps.
        self._have_checkpoint = False
        # An "auto" interval is re-resolved per run(): the per-step cost is a
        # property of this run's kernel, which the previous run cannot know.
        # Until resolution the run goes on its initial checkpoint.
        self._auto_pending = self._auto_interval
        if self._auto_interval:
            self._interval = None
        step = 0
        ft, runtime, cluster = self.ft, self.runtime, self.cluster
        hooks = runtime.interceptors  # a session hook nobody overrides is None
        arm_watchdog = self._arm_watchdog()
        try:
            while step < steps:
                arm_watchdog()
                try:
                    if ft is not None:
                        due = not self._have_checkpoint or (
                            self._interval is not None and step % self._interval == 0
                        )
                        taken = ft.begin_step(step, due=due)
                        if taken is not None:
                            self._have_checkpoint = True
                            t0, demand = taken
                            if hooks.on_checkpoint is not None:
                                hooks.on_checkpoint(step, t0, cluster.elapsed(), demand)
                    # Measure the first completed ordinary step (checkpoint cost
                    # excluded, replayed steps skipped — their suppressed actions
                    # are cheaper than real ones) to feed the analytic model.
                    measuring = self._auto_pending and not runtime.replaying
                    step_began = cluster.elapsed() if measuring else 0.0
                    try:
                        self.scheduler.run_step(kernel, step)
                    finally:
                        # A local view lives until its step ends, FT or not.
                        runtime.windows.seal()
                    if self.sync_each_step:
                        # A crash inside the closing sync finds the kernels'
                        # work marked done: only the failed ranks redo it.
                        if ft is not None:
                            ft.end_step(kernels_only=True)
                        runtime.gsync()
                    # Under a tolerant recovery rule, ranks that failed during
                    # the step were merely suspended; repair them now so the
                    # next step starts at full membership (and the job never
                    # ends with invalidated window buffers).
                    if ft is not None:
                        ft.end_step()
                        ft.repair()
                    step += 1
                    self._steps_executed += 1
                    if hooks.on_step_completed is not None:
                        hooks.on_step_completed(step - 1, cluster.elapsed())
                    if measuring and not runtime.replaying:
                        self._resolve_auto_interval(
                            cluster.elapsed() - step_began, max_steps=steps
                        )
                except ProcessFailedError as failure:
                    if hooks.on_failure_detected is not None:
                        hooks.on_failure_detected(failure.rank, step, cluster.elapsed())
                    if ft is None:
                        raise
                    if hooks.on_recovery_started is not None:
                        hooks.on_recovery_started(step, cluster.elapsed())
                    # A further failure can strike *during* recovery (its closing
                    # barrier observes it): retry until one attempt completes —
                    # the checkpoint store survives across attempts.
                    outcome = None
                    while outcome is None:
                        try:
                            outcome = ft.recovery.recover()
                        except ProcessFailedError:
                            pass
                    # Rollback and replay resume at the restored checkpoint's step
                    # (a replay suppresses survivors' completed work); a degraded
                    # continuation re-executes the aborted step, shrunk.
                    if outcome.kind != "degraded":
                        if not self._have_checkpoint:  # the version is an earlier run's
                            raise RecoveryError(
                                f"{failure} before this run's opening checkpoint "
                                f"committed; the newest version is an earlier run's"
                            ) from failure
                        step = int(outcome.tag)
                    if hooks.on_protocol_applied is not None:
                        hooks.on_protocol_applied(outcome, step, cluster.elapsed())
                    if hooks.on_recovery_completed is not None:
                        hooks.on_recovery_completed(step, cluster.elapsed())
        finally:
            self._disarm_watchdog()
        return self.report()

    def describe_ranks(self) -> str:
        """Per-rank diagnostic dump: liveness, clock, pending ops, vehicle.

        The "vehicle" column is the backend's execution-vehicle state — the
        worker pid/liveness on the real-process backend, a constant for the
        in-process ones.
        """
        lines = []
        for rank in range(self.nranks):
            alive = "alive" if self.cluster.is_alive(rank) else "failed"
            state = "excised" if rank in self.runtime.excised else alive
            lines.append(
                f"  rank {rank}: {state}, t={self.cluster.now(rank):.6f}s, "
                f"pending_nb={self.runtime.pending_nb_ops(rank)}, "
                f"vehicle: {self.runtime.backend.describe_rank(rank)}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def _arm_watchdog(self):
        """Per-step wall-clock watchdog via ``SIGALRM`` (POSIX main thread).

        Returns a callable re-arming the timer, a no-op when the watchdog is
        off or unarmable (no ``SIGALRM``, or :meth:`run` called off the main
        thread — then only the backend's own ack timeout protects the run).
        """
        if (
            self.watchdog is None
            or not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()
        ):
            self._watchdog_prev = None
            return lambda: None

        def _on_alarm(signum, frame):
            raise WatchdogError(
                f"job step exceeded the {self.watchdog:.1f}s watchdog; "
                f"per-rank states:\n{self.describe_ranks()}"
            )

        self._watchdog_prev = signal.signal(signal.SIGALRM, _on_alarm)
        return lambda: signal.setitimer(signal.ITIMER_REAL, self.watchdog)

    def _disarm_watchdog(self) -> None:
        prev = getattr(self, "_watchdog_prev", None)
        if prev is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, prev)
            self._watchdog_prev = None

    def report(self) -> JobReport:
        """Current counters of the session as an immutable report."""
        metrics = self.cluster.metrics
        return JobReport(
            steps_executed=self._steps_executed,
            checkpoints=int(metrics.get("ft.checkpoints")),
            demand_checkpoints=int(metrics.get("ft.demand_checkpoints")),
            recoveries=int(metrics.get("ft.recoveries")),
            localized_recoveries=int(metrics.get("ft.localized_recoveries")),
            recovery_fallbacks=int(metrics.get("ft.recovery_fallbacks")),
            excised_ranks=len(self.runtime.excised),
            elapsed=self.cluster.elapsed(),
            metrics=metrics.snapshot(),
        )

    @property
    def resolved_interval(self) -> int | None:
        """The periodic checkpoint interval currently in effect.

        For a numeric policy this is the declared value; for
        ``interval="auto"`` it is the analytic-model resolution (``None``
        until the first step of a run has been measured, and ``None``
        permanently on a failure-free machine — no periodic checkpoints).
        """
        return self._interval

    # ------------------------------------------------------------------
    def _resolve_auto_interval(self, step_seconds: float, *, max_steps: int) -> None:
        """Resolve ``interval="auto"`` through the analytic Young/Daly model.

        Inputs, per the paper's §5–§7 methodology: the per-checkpoint cost
        ``C`` derived from the topology's cost model, the declared store and
        the job's measured window footprint; the MTBF from the policy's
        per-level failure rates (or, absent those, an aggregate rate
        estimated from the injected failure schedule); and the measured cost
        of the step just executed.
        """
        from repro.study.model import IntervalModel

        assert self.ft is not None and self.policy is not None
        self._auto_pending = False
        rates = self.policy.failure_rates
        if rates is None:
            rates = self._estimated_failure_rates()
        bytes_per_rank = sum(w.nbytes_per_rank for w in self.runtime.windows.all())
        if step_seconds <= 0.0:
            # A step that charged nothing (empty kernel): fall back to the
            # smallest meaningful unit of work, one synchronization.
            step_seconds = self.cluster.costs.barrier(self.nranks)
        model = IntervalModel(
            cost_model=self.cluster.costs,
            nprocs=self.nranks,
            bytes_per_rank=bytes_per_rank,
            store=self.ft.store.name,
            rates_per_level=dict(rates),
        )
        self._interval = model.optimal_interval_steps(step_seconds, max_steps=max_steps)
        interval = float(self._interval) if self._interval is not None else 0.0
        self.cluster.metrics.set_max("study.auto_interval_steps", interval)

    def _estimated_failure_rates(self) -> dict[int, float]:
        """Aggregate failure rate estimated from the plan's time-triggered kills.

        Their count over the latest one's time — crude, but the right
        fallback when no fitted per-level rates were declared.  A plan
        without timed kills estimates rate zero (infinite MTBF).
        """
        times = [event.time for event in self.failures or () if event.time is not None]
        if not times or max(times) <= 0.0:
            return {}
        return {0: len(times) / max(times)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ft = "ft" if self.ft is not None else "no-ft"
        return f"Job(nranks={self.nranks}, {ft}, steps_executed={self._steps_executed})"


def launch(
    nprocs: int = 8,
    *,
    topology: Topology | None = None,
    ft: FaultTolerancePolicy | None = None,
    failures: KillPlan | None = None,
    sync_each_step: bool = True,
    backend: str | Backend | None = None,
    watchdog: float | None = None,
    trace: Tracer | None = None,
) -> Job:
    """Launch an SPMD session of ``nprocs`` ranks on a simulated cluster.

    Parameters
    ----------
    nprocs:
        Number of ranks.
    topology:
        Machine shape (:class:`~repro.api.policy.Topology`); two processes
        per node by default so buddy checkpointing has domains to spread over.
    ft:
        Declarative fault-tolerance policy.  ``None`` runs unprotected:
        failures propagate out of :meth:`Job.run`.
    failures:
        A :class:`~repro.ft.inject.KillPlan` (tests, chaos soaks, resilience
        studies), armed before the set-up: a timed kill can strike its collectives.
    sync_each_step:
        Close every job step with an implicit ``gsync`` — the BSP-style
        superstep boundary where failures are usually observed.  Disable for
        kernels that synchronize explicitly.
    backend:
        RMA execution backend: ``"sim"`` (default; a completed batch is
        applied one operation at a time, the reference), ``"vector"`` (the
        batch is applied as coalesced numpy writes), or a fresh
        :class:`~repro.backends.base.Backend` instance (one per job — a
        backend owns its job's window storage).  Every backend queues an
        operation at issue and applies it when its epoch completes, each
        ``(window, target)`` slab's operations in issue order, so traces,
        clocks and results are bit-identical across backends.
    watchdog:
        Wall-clock seconds each job step may take before the run fails with
        a :class:`~repro.errors.WatchdogError` and a per-rank state dump.
        ``None`` (the default) disables the step watchdog — the virtual-time
        backends cannot deadlock, and the real-process backend keeps its own
        per-dispatch ack timeout regardless.
    trace:
        A :class:`~repro.trace.Tracer` to install as one RMA interceptor (which
        also receives the kills, checkpoint placements, delivery decisions and
        the step loop's events).  ``None`` still joins an active ``tracing()``
        hub — e.g. an engine CLI's ``--trace`` — and is free otherwise.

    The job runs kernels with :meth:`Job.run`; every call numbers its steps
    from 0 and opens with a checkpoint.  To record the §2.3 orders of a run,
    register an :class:`~repro.rma.ordering.OrderRecorder` on ``job.runtime``
    with ``add_interceptor``.
    """
    return Job(
        nprocs, topology=topology, ft=ft, failures=failures, sync_each_step=sync_each_step,
        backend=backend, watchdog=watchdog, trace=trace,
    )
