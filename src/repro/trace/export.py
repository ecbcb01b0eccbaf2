"""Chrome-trace / Perfetto export for visual timelines.

Converts a trace into the Trace Event Format consumed by
``chrome://tracing`` and https://ui.perfetto.dev: each job becomes a
process row (named via metadata events), each rank a thread row.  RMA
ops and recovery/checkpoint windows become complete (``"X"``) duration
events by pairing their issue/completion trace events; kills, steps and
respawns become instants.  Virtual seconds map to microseconds.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter

__all__ = ["to_chrome_trace"]

_US = 1_000_000.0
_op_key = itemgetter("job", "kind", "src", "trg", "window", "offset", "count")
_INSTANTS = {
    "kill_fired", "kill_skipped", "failure_detected", "rank_failed", "rank_respawned",
    "step_completed",
}
#: The fields every event carries: an instant's ``args`` are the rest.
_COMMON = ("type", "t", "seq", "job", "rt")


def _row(ph: str, name: str, cat: str, pid: int, tid: int, t: float, **rest) -> dict:
    """One timeline event at ``t`` virtual seconds."""
    return {"ph": ph, "name": name, "cat": cat, "pid": pid, "tid": tid, "ts": t * _US, **rest}


def _span(name: str, cat: str, pid: int, tid: int, began: float, ended: float, args) -> dict:
    """A complete (``"X"``) event from ``began`` to ``ended``."""
    return _row("X", name, cat, pid, tid, began, dur=(ended - began) * _US, args=args)


def to_chrome_trace(events: list[dict]) -> dict:
    """Build a Trace Event Format document from a trace event stream."""
    pids: dict[str, int] = {}
    rows: list[dict] = []
    issued: dict[tuple, deque] = {}
    recovery_open: dict[str, float] = {}
    for event in events:
        type_, job, t = event["type"], event["job"], event["t"]
        if job not in pids:
            pids[job] = len(pids) + 1
            meta = {"ph": "M", "name": "process_name", "pid": pids[job], "tid": 0}
            rows.append({**meta, "args": {"name": job}})
        pid = pids[job]
        if type_ == "op_issued":
            issued.setdefault(_op_key(event), deque()).append(t)
        elif type_ == "op_completed":
            queue = issued.get(_op_key(event))
            began = queue.popleft() if queue else t
            args = {"trg": event["trg"], "window": event["window"]}
            rows.append(_span(event["kind"], "rma", pid, event["src"], began, t, args))
        elif type_ == "sync_completed":
            rows.append(_row("i", f"sync:{event['kind']}", "rma", pid, event["src"], t, s="t"))
        elif type_ == "checkpoint_committed":
            args, began = {"step": event["step"], "demand": event["demand"]}, event["t_start"]
            rows.append(_span("checkpoint", "ft", pid, 0, began, event["t_end"], args))
        elif type_ == "recovery_started":
            recovery_open[job] = t
        elif type_ == "recovery_completed":
            args = {"resume_step": event["resume_step"]}
            rows.append(_span("recovery", "ft", pid, 0, recovery_open.pop(job, t), t, args))
        elif type_ == "request_completed":
            arrival, name = event.get("arrival_t", t), f"req:{event['op']}"
            args = {"status": event["status"], "key": event.get("key")}
            tid, ended = event.get("frontend", 0), max(arrival, t)
            rows.append(_span(name, "serve", pid, tid, arrival, ended, args))
        elif type_ in _INSTANTS:
            cat = "fault" if type_ != "step_completed" else "app"
            args = {key: value for key, value in event.items() if key not in _COMMON}
            rows.append(_row("i", type_, cat, pid, event.get("rank", 0), t, s="p", args=args))
    return {"traceEvents": rows, "displayTimeUnit": "ms"}

