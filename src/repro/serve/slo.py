"""SLO accounting: window segmentation, the per-window latency report, the request log.

:meth:`WindowTracker.from_trace` is the serving layer's view of a finished
job's trace: the **checkpoint windows** and the **recovery windows** (failure
detected → the crash-aborted step completes again, the same
:func:`~repro.chaos.monitor.reduce_outage` state machine chaos MTTR uses) of
one run.  :meth:`WindowTracker.segment_codes` segments every request by the window
containing its *completion* instant — the moment the client got its answer —
and :func:`build_slo_report` reduces each segment's columns to the numbers
an SLO is written in: p50/p95/p99 latency (shared nearest-rank
estimator, :func:`repro.stats.latency_percentiles`), throughput, and
error/stale-read rate.  :meth:`ServedRequests.reduce` is what a chaos cell
on a serving workload adds: its requests as columns and their SLO document;
:func:`write_requests` / :func:`load_requests` carry the canonical JSONL
request log whose schema (:func:`validate_request_row`) CI validates.  All
timestamps are virtual, so the report and the log are byte-identical across
re-runs and backends.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.chaos.monitor import reduce_outage
from repro.errors import ServeError
from repro.serve.service import _OK, _STATUS_NAMES, STATUSES, KvService
from repro.serve.shard import ShardMap
from repro.serve.traffic import READ, WRITE, Request
from repro.stats import latency_percentiles
from repro.trace.events import load_jsonl, write_jsonl

if TYPE_CHECKING:  # pragma: no cover - the chaos engine imports this module
    from repro.chaos.soak import SoakResult

__all__ = [
    "WindowTracker", "SEGMENTS", "build_slo_report", "ServedRequests",
    "write_requests", "load_requests", "validate_request_row",
]

#: Window segments a request can complete in (the report's row keys); a
#: segment code is an index into this tuple.
SEGMENT_STEADY = "steady"
SEGMENT_CHECKPOINT = "checkpoint"
SEGMENT_RECOVERY = "recovery"
SEGMENTS = (SEGMENT_STEADY, SEGMENT_CHECKPOINT, SEGMENT_RECOVERY)
_CHECKPOINT, _RECOVERY = 1, 2


@dataclass
class WindowTracker:
    """The checkpoint and recovery windows of one serving run."""

    #: Committed checkpoint spans: ``(t_start, t_end, step, demand)``.
    checkpoint_windows: list[tuple[float, float, int, bool]] = field(default_factory=list)
    #: Closed outage spans: ``(detected_t, restored_t)``.
    recovery_windows: list[tuple[float, float]] = field(default_factory=list)

    @classmethod
    def from_trace(cls, events: Iterable[dict], end_t: float) -> WindowTracker:
        """The windows of one finished job's trace ``events``.

        Timestamps come from the events themselves (the tracer stamps
        ``cluster.elapsed()``); event types outside the vocabulary are
        ignored.  An outage still open at the run's final virtual time
        ``end_t`` (the run aborted, or a degraded continuation never
        re-completed the crash step) counts until the end — consistent with
        how chaos availability prices open outages; a kill that nothing has
        detected or tolerated yet opens no window.
        """
        tracker = cls()
        outage: dict | None = None
        for event in events:
            kind = event["type"]
            if kind == "checkpoint_committed":
                tracker.checkpoint_windows.append(
                    (event["t_start"], event["t_end"], event["step"], event["demand"])
                )
            if kind in ("kill_fired", "failure_detected", "step_completed", "qos_decision"):
                outage, closed = reduce_outage(outage, event)
                if closed is not None:
                    tracker.recovery_windows.append((closed["detected_t"], event["t"]))
        if outage is not None and (outage["crash_step"] != math.inf or "tolerated" in outage):
            tracker.recovery_windows.append((outage["detected_t"], end_t))
        return tracker

    def segment_codes(self, instants: np.ndarray) -> np.ndarray:
        """The segment code (an index into :data:`SEGMENTS`) of each instant.

        One masked assignment per window, edges inclusive: checkpoint windows
        first, then recovery windows, so recovery wins an overlap.
        """
        codes = np.zeros(len(instants), dtype=np.uint8)
        for t0, t1, _step, _demand in self.checkpoint_windows:
            codes[(t0 <= instants) & (instants <= t1)] = _CHECKPOINT
        for t0, t1 in self.recovery_windows:
            codes[(t0 <= instants) & (instants <= t1)] = _RECOVERY
        return codes

    def segment_seconds(self, total_s: float) -> dict[str, float]:
        """Virtual seconds spent in each segment; recovery wins an overlap (the
        recovery windows are disjoint: one outage is open at a time)."""
        spans = self.recovery_windows
        recovery = sum(r1 - r0 for r0, r1 in spans)
        checkpoint = sum(
            t1 - t0 - sum(max(min(t1, r1) - max(t0, r0), 0.0) for r0, r1 in spans)
            for t0, t1, _s, _d in self.checkpoint_windows
        )
        steady = max(total_s - recovery - checkpoint, 0.0)
        return dict(zip(SEGMENTS, (steady, checkpoint, recovery)))


# ----------------------------------------------------------------------
# The report reducer
# ----------------------------------------------------------------------
def _reduce(latency: np.ndarray, status: np.ndarray, window_s: float | None) -> dict:
    """One segment's SLO numbers from its requests' latency and status codes."""
    requests, served = len(status), int(np.count_nonzero(status == _OK))
    completed = status != 0
    pcts = latency_percentiles(latency[completed].tolist())
    return {
        "requests": requests,
        "served": served,
        "errors": requests - served,
        "error_rate": (requests - served) / requests if requests else None,
        "latency_ms": {key: value * 1e3 for key, value in pcts.items()} if pcts else None,
        "throughput_rps": (
            int(np.count_nonzero(completed)) / window_s if window_s and window_s > 0 else None
        ),
        "window_s": window_s,
    }


def build_slo_report(
    latency: np.ndarray, status: np.ndarray, segment: np.ndarray,
    tracker: WindowTracker, total_s: float,
) -> dict:
    """Reduce per-request columns to the segmented SLO document.

    The columns are in rid order: ``latency`` in virtual seconds (read only
    where a request completed), ``status`` codes into the service's
    ``_STATUS_NAMES`` (0: never served) and ``segment`` codes from
    :meth:`WindowTracker.segment_codes`.  The report holds one entry per
    segment plus an ``overall`` rollup; empty segments report ``None``
    percentiles, never NaN.
    """
    seconds = tracker.segment_seconds(total_s)
    report = {}
    for code, name in enumerate(SEGMENTS):
        mine = segment == code
        report[name] = _reduce(latency[mine], status[mine], seconds[name])
    report["overall"] = _reduce(latency, status, total_s if total_s > 0 else None)
    return report


# ----------------------------------------------------------------------
# A serving run's requests
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class ServedRequests:
    """One serving run's requests as columns in rid order, and their SLO document.

    No Python object is kept per request: the service's trace (rid, frontend,
    step, op, key) and shard map are referenced, not copied; :attr:`rows`
    builds the request log's dicts on each read.
    """

    #: The segmented SLO document (:func:`build_slo_report`).
    slo: dict
    #: The traffic shape the requests were drawn under (the service's knobs).
    traffic: dict
    #: The checkpoint/recovery windows the run's trace shows.
    windows: WindowTracker
    requests: Sequence[Request]
    shards: ShardMap
    #: The virtual arrival and completion instants and the latency between
    #: them, clamped at zero (the last two mean nothing where unserved);
    #: status codes into ``_STATUS_NAMES`` (0: unserved) and segment codes
    #: into :data:`SEGMENTS`.
    arrival: np.ndarray
    completion: np.ndarray
    latency: np.ndarray
    status: np.ndarray
    segment: np.ndarray

    @classmethod
    def reduce(
        cls, service: KvService, events: Iterable[dict], *, probe_elapsed: float,
        elapsed: float,
    ) -> ServedRequests:
        """The requests of ``service``'s finished run, whose trace is ``events``.

        Request ``r`` arrives at ``r.frac × probe_elapsed`` on the failure-free
        probe's timeline, which never reacts to checkpoints or outages: that
        is what makes queueing delay visible.  Latency is clamped at zero (a
        request admitted early in its step may complete before its nominal
        arrival); an unserved request is segmented by its arrival.
        """
        windows = WindowTracker.from_trace(events, elapsed)
        completion, status = service.records
        arrival = service.requests.frac * probe_elapsed
        latency = np.maximum(completion - arrival, 0.0)
        segment = windows.segment_codes(np.where(status != 0, completion, arrival))
        traffic = {
            name: getattr(service.generator, name)
            for name in ("steps", "rate_per_step", "key_space", "zipf_s", "read_fraction")
        } | {"slots": service.slots, "flops_per_request": service.flops_per_request}
        return cls(
            build_slo_report(latency, status, segment, windows, total_s=elapsed), traffic,
            windows, service.requests, service.shards, arrival, completion, latency, status,
            segment,
        )

    @property
    def rows(self) -> list[dict]:
        """The request log, one JSONL-ready dict per request, built on each read."""
        columns = zip(
            self.requests, self.arrival.tolist(), self.completion.tolist(),
            self.latency.tolist(), self.status.tolist(), self.segment.tolist(),
        )
        return [
            {
                "rid": r.rid, "frontend": r.frontend, "owner": self.shards.owner(r.key),
                "step": r.step, "op": r.op, "key": r.key, "arrival_t": arrival,
                "completion_t": completion if code else None,
                "latency_s": latency if code else None,
                "status": _STATUS_NAMES[code], "segment": SEGMENTS[segment],
            }
            for r, arrival, completion, latency, code, segment in columns
        ]

    def as_dict(self) -> dict:
        """The keys a serving cell's report adds: no per-request field."""
        census = np.bincount(self.status, minlength=len(_STATUS_NAMES)).tolist()
        return {
            "slo": self.slo,
            "traffic": self.traffic,
            "request_count": len(self.status),
            "status_counts": dict(sorted(
                (name, count) for name, count in zip(_STATUS_NAMES, census) if count
            )),
            "checkpoint_windows": [list(w) for w in self.windows.checkpoint_windows],
            "recovery_windows": [list(w) for w in self.windows.recovery_windows],
        }


# ----------------------------------------------------------------------
# The request log (canonical JSONL)
# ----------------------------------------------------------------------
#: Required keys of one JSONL request-log row (the log's schema).
REQUEST_FIELDS = (
    "rid", "frontend", "owner", "step", "op", "key",
    "arrival_t", "completion_t", "latency_s", "status", "segment",
)


def validate_request_row(row: dict) -> None:
    """Schema check for one request-log row; raises :class:`ServeError`."""
    if not isinstance(row, dict):
        raise ServeError("request row must be a JSON object")
    missing = [key for key in REQUEST_FIELDS if key not in row]
    if missing:
        raise ServeError(f"request row missing fields: {', '.join(missing)}")
    if row["op"] not in (READ, WRITE):
        raise ServeError(f"request row has unknown op {row['op']!r}")
    if row["status"] not in STATUSES:
        raise ServeError(f"request row has unknown status {row['status']!r}")
    if row["segment"] not in SEGMENTS:
        raise ServeError(f"request row has unknown segment {row['segment']!r}")
    for key in ("rid", "frontend", "owner", "step", "key"):
        if not isinstance(row[key], int) or isinstance(row[key], bool):
            raise ServeError(f"request row field {key!r} must be an integer")
    if not _is_number(row["arrival_t"]):
        raise ServeError("request row field 'arrival_t' must be numeric")
    for key in ("completion_t", "latency_s"):
        if row[key] is not None and not _is_number(row[key]):
            raise ServeError(f"request row field {key!r} must be numeric or null")


def _is_number(value: object) -> bool:
    """``int`` or ``float`` but not ``bool`` (JSON ``true`` is no time)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_log_row(row: dict) -> None:
    if isinstance(row, dict) and "cell" not in row:
        raise ServeError("request row missing 'cell'")
    validate_request_row(row)


def write_requests(results: Iterable[SoakResult], path) -> int:
    """Write every serving cell's request rows as canonical JSONL; returns the count.

    Each line carries its ``cell`` key so one file holds the whole grid; a
    cell that served no requests adds no line.
    """
    return write_jsonl(
        (
            dict(row, cell=result.spec.cell_key)
            for result in results if result.served is not None
            for row in result.served.rows
        ),
        path, _validate_log_row,
    )


def load_requests(path) -> list[dict]:
    """Read and schema-validate a JSONL request log."""
    return load_jsonl(path, _validate_log_row, ServeError)
