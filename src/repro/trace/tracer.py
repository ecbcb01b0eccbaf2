"""The trace: one tracer per job, one hub per run.

A :class:`Tracer` is the single instrumentation source for a job.  It
plugs into one seam, an :class:`~repro.rma.interceptor.RmaInterceptor` on
the job's chain, for the op issue/completion stream, window creation,
runtime-observed failures, respawns and finalization; for the events the
fault-tolerance seams send down the same chain: kills (``on_kill``),
per-level checkpoint bytes (``on_checkpoint_stored``) and drop/stale/repair
decisions (``on_qos_decision``); and for the session's step/checkpoint/recovery
spans — and emits schema-validated events stamped with ``cluster.elapsed()``.
The detail level chooses the interceptor class: a ``"full"`` one reads the op
stream from the chain's op journal, a ``"lifecycle"`` one costs an op nothing.
Because every seam fires at runtime level (before backend-specific cost
accounting diverges in wall time), the resulting event stream is
byte-identical across the sim, vector and proc backends for the same
seed; host-specific facts live under the segregated ``rt`` sub-object.

A tracer only records.  Everything downstream is a view of a finished
job's ``tracer.events`` — the chaos log (``repro.chaos.monitor.chaos_events``),
a serving cell's SLO windows (``WindowTracker.from_trace``), the rollups of
``repro.trace.summary.summarize`` — so the trace is the one account of a run.

A :class:`TraceHub` collects the tracers of a whole multi-job run
(probe sessions, every comparison cell) into one merged trace file.
Engines label their sessions with :func:`trace_label` using the cell
key, and the hub orders the merged stream by ``(label, index)`` — never
by wall-clock arrival — so the file does not depend on the order sessions
finished in, also when a caller runs them on threads of its own.  (A
process pool's children cannot see the parent's hub, so
:func:`repro.experiment.run_grid` refuses its ``"process"`` executor while
a hub is active.)
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.errors import TraceError
from repro.rma.interceptor import RmaInterceptor
from repro.rma.ordering import OP_COMPLETED, OP_ISSUED, SYNC_COMPLETED
from repro.trace.events import write_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.session import Job
    from repro.ft.inject import FiredKill

__all__ = [
    "Tracer",
    "TraceHub",
    "cell_tracer",
    "current_trace_hub",
    "install_trace",
    "trace_label",
    "tracing",
]

#: Detail levels: ``"full"`` records the per-op interceptor stream,
#: ``"lifecycle"`` keeps only session/fault/store/qos events (what the
#: chaos and SLO views read, at near-zero volume).
_DETAIL_LEVELS = ("full", "lifecycle")


class Tracer:
    """Deterministic event recorder for one job."""

    def __init__(
        self,
        *,
        detail: str = "full",
        job: str = "main",
        order: tuple[str, int] | None = None,
    ) -> None:
        if detail not in _DETAIL_LEVELS:
            raise TraceError(
                f"unknown trace detail {detail!r}; expected one of {_DETAIL_LEVELS}"
            )
        self.detail = detail
        self.job = job
        self.order = order if order is not None else (job, 0)
        adapter = _FullTraceInterceptor if detail == "full" else _TraceInterceptor
        self.interceptor = adapter(self)
        #: The stream so far: the events :meth:`emit` made, and a full tracer's
        #: op events up to the last read of :attr:`events`.
        self._emitted: list[dict] = []
        self._journal = None  # the job's op journal, once a full tracer is on its chain
        self._read = 0  # the prefix of ``_emitted`` in its final order
        self._cluster = None
        self._wall_started: float | None = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def bind(self, job: Job) -> None:
        """Point virtual-time stamps at ``job``'s cluster clock."""
        if self._cluster is not None and self._cluster is not job.cluster:
            raise TraceError(
                f"tracer {self.job!r} is already bound to another job; "
                "use one tracer per job"
            )
        self._cluster = job.cluster
        self._wall_started = time.perf_counter()

    def _now(self) -> float:
        if self._cluster is None:
            raise TraceError(
                f"tracer {self.job!r} is not bound to a job; "
                "install it with install_trace() or Job(trace=...)"
            )
        return self._cluster.elapsed()

    def emit(self, type_: str, t: float, *, rt: dict | None = None, **fields) -> dict:
        """Append one event to the stream and return it."""
        start, stop = (0, 0) if self._journal is None else self._journal.span(self.interceptor)
        seq = len(self._emitted) + (stop - start) // 3  # after the op events not yet read
        event = {"type": type_, "t": float(t), "seq": seq, "job": self.job}
        event.update(fields)
        if rt:
            event["rt"] = rt
        self._emitted.append(event)
        return event

    @property
    def events(self) -> list[dict]:
        """The stream.  A full tracer's op events wait in the job's op journal
        until it is read; then they are encoded into it by ``seq``, once each."""
        if self._journal is not None:
            self._absorb()
        return self._emitted

    def _absorb(self) -> None:
        events, k, job = self._emitted, 0, self.job
        tail = events[self._read :]  # emitted since the last read, ``seq`` in order
        del events[self._read :]
        for code, t, action in self._journal.read(self.interceptor, consume=True):
            while k < len(tail) and tail[k]["seq"] == len(events):
                events.append(tail[k])
                k += 1
            event = {"type": _OP_EVENTS[code], "t": float(t), "seq": len(events), "job": job}
            event.update(kind=action.kind.value, src=action.src, trg=action.trg)
            if code != SYNC_COMPLETED:  # a communication action's fields, built once
                offset, count = int(action.offset), int(action.count)
                event.update(window=action.window, offset=offset, count=count)
            events.append(event)
        events.extend(tail[k:])
        self._read = len(events)

    def _emit_job_finished(self) -> None:
        rt = None
        if self._wall_started is not None:
            rt = {"wall_s": time.perf_counter() - self._wall_started}
        self.emit("job_finished", self._now(), rt=rt)


class _TraceInterceptor(RmaInterceptor):
    """The adapter of a ``"lifecycle"`` tracer: failures, respawns, kills,
    checkpoint placements, delivery decisions, finalization, and the session's
    step/checkpoint/recovery spans."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def on_kill(self, record: FiredKill) -> None:
        t = self._tracer
        event = record.event
        fields = {"rank": event.rank, "kind": event.kind.value, "after_ops": event.after_ops}
        if event.time is not None:
            fields["time"] = event.time
        if event.element is not None:
            fields["element"] = list(event.element)
        if record.skipped:
            t.emit("kill_skipped", t._now(), **fields)
        else:
            t.emit(
                "kill_fired",
                t._now(),
                victims=list(record.victims),
                rt={"real": bool(record.real)},
                **fields,
            )

    def on_checkpoint_stored(
        self, store: str, level: str, rank: int, nbytes: int, incremental: bool
    ) -> None:
        t = self._tracer
        t.emit(
            "checkpoint_stored",
            t._now(),
            store=store,
            level=level,
            rank=rank,
            nbytes=int(nbytes),
            incremental=bool(incremental),
        )

    def on_qos_decision(self, decision: str, rank: int, n: int) -> None:
        t = self._tracer
        t.emit("qos_decision", t._now(), decision=decision, rank=rank, n=int(n))

    def on_rank_failed(self, rank: int) -> None:
        t = self._tracer
        t.emit("rank_failed", t._now(), rank=rank)

    def on_respawn(self, rank: int) -> None:
        t = self._tracer
        t.emit("rank_respawned", t._now(), rank=rank)

    def on_finalize(self) -> None:
        self._tracer._emit_job_finished()

    def on_step_completed(self, step: int, t: float) -> None:
        self._tracer.emit("step_completed", t, step=step)

    def on_checkpoint(self, step: int, t_start: float, t_end: float, demand: bool) -> None:
        self._tracer.emit(
            "checkpoint_committed",
            t_end,
            step=step,
            t_start=t_start,
            t_end=t_end,
            demand=bool(demand),
        )

    def on_failure_detected(self, rank: int, step: int, t: float) -> None:
        self._tracer.emit("failure_detected", t, rank=rank, step=step)

    def on_recovery_started(self, step: int, t: float) -> None:
        self._tracer.emit("recovery_started", t, step=step)

    def on_protocol_applied(self, outcome, resume_step: int, t: float) -> None:
        self._tracer.emit(
            "protocol_applied",
            t,
            protocol=outcome.protocol,
            kind=outcome.kind,
            failed=list(outcome.failed),
            restored_bytes=int(outcome.restored_bytes),
            fallback=bool(outcome.fallback),
            resume_step=resume_step,
        )

    def on_recovery_completed(self, resume_step: int, t: float) -> None:
        self._tracer.emit("recovery_completed", t, resume_step=resume_step)


class _FullTraceInterceptor(_TraceInterceptor):
    """A ``"full"`` tracer's adapter: the lifecycle events, plus windows and
    the per-op issue/completion stream, which it reads from the job's op
    journal, stamped with the makespan, instead of encoding it per event."""

    reads = (OP_ISSUED, OP_COMPLETED, SYNC_COMPLETED)

    @property
    def clocks(self) -> list:
        cluster = self._tracer._cluster
        return [cluster.clock(rank) for rank in range(cluster.nprocs)]

    def attach(self, runtime) -> None:
        self._tracer._journal = runtime.interceptors.journal

    def on_window_create(self, window) -> None:
        t = self._tracer
        t.emit(
            "window_created",
            t._now(),
            window=window.name,
            size=int(window.size),
            dtype=str(window.dtype),
            nbytes_per_rank=int(window.nbytes_per_rank),
        )


_OP_EVENTS = ("op_issued", "op_completed", "sync_completed")  # by journal code


def install_trace(job: Job, tracer: Tracer) -> Tracer:
    """Wire ``tracer`` into ``job`` as one interceptor; returns the tracer.

    Called by ``Job.__init__`` when a tracer is supplied (or a trace hub
    is active); the interceptor lands *after* the fault-tolerance
    stack's, so replay suppression and action logging stay ahead of
    instrumentation, and ahead of a fault injector's (``install_injector``),
    so a kill is traced after the completion that triggered it.
    """
    tracer.bind(job)
    job.trace = tracer
    tracer.emit(
        "job_started",
        job.cluster.elapsed(),
        nprocs=job.nranks,
        rt={"backend": job.runtime.backend.name},
    )
    job.runtime.add_interceptor(tracer.interceptor)
    return tracer


# ---------------------------------------------------------------------------
# The run-wide hub
# ---------------------------------------------------------------------------

_HUB_LOCK = threading.Lock()
_ACTIVE_HUB: TraceHub | None = None
_TLS = threading.local()


class TraceHub:
    """Collects the tracers of a whole run into one deterministic file.

    Jobs created while a hub is active pull a full-detail tracer from it; each
    tracer is tagged ``(label, index)`` where the label comes from the
    enclosing :func:`trace_label` block (engines use the comparison cell
    key) and the index counts jobs within that label.  The merged stream
    sorts by that tag, not by completion order, so sessions run on a
    caller's own threads produce the same bytes as serial execution.
    """

    def __init__(self, *, path: str | None = None) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._tracers: list[Tracer] = []
        self._counts: dict[str, int] = {}

    def tracer(self) -> Tracer:
        """A fresh tracer tagged with the current thread's label."""
        label = getattr(_TLS, "label", None) or "main"
        with self._lock:
            index = self._counts.get(label, 0)
            self._counts[label] = index + 1
            tracer = Tracer(job=f"{label}#{index}", order=(label, index))
            self._tracers.append(tracer)
        return tracer

    def events(self) -> list[dict]:
        """The merged stream, ordered by ``(label, index)`` then ``seq``."""
        with self._lock:
            ordered = sorted(self._tracers, key=lambda tracer: tracer.order)
        return [event for tracer in ordered for event in tracer.events]

    def finish(self) -> int:
        """Write the merged trace to ``path`` (if set); return the count."""
        events = self.events()
        if self.path is not None:
            write_trace(events, self.path)
        return len(events)


def current_trace_hub() -> TraceHub | None:
    """The hub activated by the innermost :func:`tracing` block, if any."""
    return _ACTIVE_HUB


@contextmanager
def tracing(path: str | None = None) -> Iterator[TraceHub]:
    """Activate a run-wide trace hub; write the merged trace on exit.

    The merged file is published even when the block raises — a partial
    trace of an aborted run is exactly what post-mortems need — and the
    staging temp file never outlives the block either way.
    """
    global _ACTIVE_HUB
    hub = TraceHub(path=path)
    with _HUB_LOCK:
        if _ACTIVE_HUB is not None:
            raise TraceError("a trace hub is already active; tracing() does not nest")
        _ACTIVE_HUB = hub
    try:
        yield hub
    except BaseException:
        with _HUB_LOCK:
            _ACTIVE_HUB = None
        try:
            hub.finish()
        except Exception:  # noqa: BLE001 - don't mask the original failure
            pass
        raise
    else:
        with _HUB_LOCK:
            _ACTIVE_HUB = None
        hub.finish()


def cell_tracer(label: str) -> Tracer:
    """The tracer of one engine cell whose events the engine reads: the active
    hub's, under ``label``, when a :func:`tracing` block is open (an engine
    CLI's ``--trace``), else a private ``"lifecycle"`` one."""
    hub = _ACTIVE_HUB
    if hub is None:
        return Tracer(detail="lifecycle")
    with trace_label(label):
        return hub.tracer()


@contextmanager
def trace_label(label: str) -> Iterator[None]:
    """Label tracers pulled from the hub on this thread (nest-safe)."""
    previous = getattr(_TLS, "label", None)
    _TLS.label = str(label)
    try:
        yield
    finally:
        _TLS.label = previous
