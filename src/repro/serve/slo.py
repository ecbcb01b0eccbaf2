"""SLO accounting: window segmentation and the per-window latency report.

:meth:`WindowTracker.from_trace` is the serving layer's view of a finished
job's trace: the **checkpoint windows** and the **recovery windows** (failure
detected → the crash-aborted step completes again, the same
:func:`~repro.chaos.monitor.reduce_outage` state machine chaos MTTR uses) of
one run, plus the injector's kill records.  :func:`build_slo_report` then
segments every request by the window containing its *completion* instant —
the moment the client got its answer — and reduces each segment to the
numbers an SLO is written in: p50/p95/p99 latency (shared nearest-rank
estimator, :func:`repro.stats.latency_percentiles`), throughput, and
error/stale-read rate.  All timestamps are virtual, so the report is
byte-identical across re-runs and backends.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.chaos.monitor import reduce_outage
from repro.serve.service import STATUS_OK
from repro.stats import latency_percentiles

__all__ = ["WindowTracker", "SEGMENTS", "build_slo_report"]

#: Window segments a request can complete in (the report's row keys).
SEGMENT_STEADY = "steady"
SEGMENT_CHECKPOINT = "checkpoint"
SEGMENT_RECOVERY = "recovery"
SEGMENTS = (SEGMENT_STEADY, SEGMENT_CHECKPOINT, SEGMENT_RECOVERY)


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
        how chaos availability prices open outages.
        """
        tracker = cls()
        outage: dict | None = None
        for event in events:
            kind = event["type"]
            if kind == "checkpoint_committed":
                tracker.checkpoint_windows.append(
                    (event["t_start"], event["t_end"], event["step"], event["demand"])
                )
            elif kind in ("failure_detected", "step_completed"):
                outage, closed = reduce_outage(outage, event)
                if closed is not None:
                    tracker.recovery_windows.append((closed["detected_t"], event["t"]))
            elif kind in ("kill_fired", "kill_skipped"):
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
        if outage is not None:
            tracker.recovery_windows.append((outage["detected_t"], end_t))
        return tracker

    def segment_of(self, t: float) -> str:
        """The segment the instant ``t`` belongs to (recovery wins)."""
        for t0, t1 in self.recovery_windows:
            if t0 <= t <= t1:
                return SEGMENT_RECOVERY
        for t0, t1, _step, _demand in self.checkpoint_windows:
            if t0 <= t <= t1:
                return SEGMENT_CHECKPOINT
        return SEGMENT_STEADY

    def segment_seconds(self, total_s: float) -> dict[str, float]:
        """Virtual seconds spent in each segment (recovery overlap wins)."""
        recovery = sum(t1 - t0 for t0, t1 in self.recovery_windows)
        checkpoint = sum(t1 - t0 for t0, t1, _s, _d in self.checkpoint_windows)
        steady = max(total_s - recovery - checkpoint, 0.0)
        return {
            SEGMENT_STEADY: steady,
            SEGMENT_CHECKPOINT: checkpoint,
            SEGMENT_RECOVERY: recovery,
        }


# ----------------------------------------------------------------------
# The report reducer
# ----------------------------------------------------------------------
def _reduce(rows: list[dict], window_s: float | None) -> dict:
    """One segment's SLO numbers from its request rows."""
    completed = [r for r in rows if r["completion_t"] is not None]
    served = sum(1 for r in rows if r["status"] == STATUS_OK)
    errors = len(rows) - served
    latencies = [r["latency_s"] for r in completed]
    pcts = latency_percentiles(latencies)
    return {
        "requests": len(rows),
        "served": served,
        "errors": errors,
        "error_rate": (errors / len(rows)) if rows else None,
        "latency_ms": (
            {key: value * 1e3 for key, value in pcts.items()} if pcts else None
        ),
        "throughput_rps": (
            len(completed) / window_s if window_s and window_s > 0 else None
        ),
        "window_s": window_s,
    }


def build_slo_report(rows: list[dict], tracker: WindowTracker, total_s: float) -> dict:
    """Reduce per-request rows to the segmented SLO document.

    ``rows`` carry ``completion_t`` (``None`` for unserved requests),
    ``latency_s``, ``status`` and ``segment`` — the engine assembles them
    from the service's records and stamps the segment via
    :meth:`WindowTracker.segment_of`.  The report holds one entry per
    segment plus an ``overall`` rollup; empty segments report ``None``
    percentiles, never NaN.
    """
    seconds = tracker.segment_seconds(total_s)
    by_segment: dict[str, list[dict]] = {segment: [] for segment in SEGMENTS}
    for row in rows:
        by_segment[row["segment"]].append(row)
    report = {
        segment: _reduce(by_segment[segment], seconds[segment])
        for segment in SEGMENTS
    }
    report["overall"] = _reduce(rows, total_s if total_s > 0 else None)
    return report
