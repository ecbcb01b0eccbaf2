"""SLO accounting: window segmentation and the per-window latency report.

:meth:`WindowTracker.from_trace` is the serving layer's view of a finished
job's trace: the **checkpoint windows** and the **recovery windows** (failure
detected → the crash-aborted step completes again, the same
:func:`~repro.chaos.monitor.reduce_outage` state machine chaos MTTR uses) of
one run, plus the injector's kill records.
:meth:`WindowTracker.segment_codes` segments every request by the window
containing its *completion* instant — the moment the client got its answer —
and :func:`build_slo_report` reduces each segment's columns to the numbers
an SLO is written in: p50/p95/p99 latency (shared nearest-rank
estimator, :func:`repro.stats.latency_percentiles`), throughput, and
error/stale-read rate.  All timestamps are virtual, so the report is
byte-identical across re-runs and backends.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.chaos.monitor import reduce_outage
from repro.serve.service import _OK
from repro.stats import latency_percentiles

__all__ = ["WindowTracker", "SEGMENTS", "build_slo_report"]

#: Window segments a request can complete in (the report's row keys); a
#: segment code is an index into this tuple.
SEGMENT_STEADY = "steady"
SEGMENT_CHECKPOINT = "checkpoint"
SEGMENT_RECOVERY = "recovery"
SEGMENTS = (SEGMENT_STEADY, SEGMENT_CHECKPOINT, SEGMENT_RECOVERY)
_CHECKPOINT, _RECOVERY = 1, 2


@dataclass
class WindowTracker:
    """The checkpoint/recovery windows and kill records of one serving run."""

    #: Committed checkpoint spans: ``(t_start, t_end, step, demand)``.
    checkpoint_windows: list[tuple[float, float, int, bool]] = field(default_factory=list)
    #: Closed outage spans: ``(detected_t, restored_t)``.
    recovery_windows: list[tuple[float, float]] = field(default_factory=list)
    #: Injector records: one dict per planned kill (fired or skipped).
    kills: list[dict] = field(default_factory=list)

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
            if kind in ("kill_fired", "kill_skipped"):
                fired = kind == "kill_fired"
                tracker.kills.append(
                    {
                        "t": event["t"],
                        "rank": event["rank"],
                        "kind": event["kind"],
                        "after_ops": event["after_ops"],
                        "victims": list(event["victims"]) if fired else [],
                        "skipped": not fired,
                        "real": fired and bool(event.get("rt", {}).get("real", False)),
                    }
                )
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
