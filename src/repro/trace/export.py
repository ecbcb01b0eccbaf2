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

__all__ = ["to_chrome_trace"]

_US = 1_000_000.0


def _op_key(event: dict) -> tuple:
    return (
        event["job"],
        event["kind"],
        event["src"],
        event["trg"],
        event["window"],
        event["offset"],
        event["count"],
    )


def to_chrome_trace(events: list[dict]) -> dict:
    """Build a Trace Event Format document from a trace event stream."""
    pids: dict[str, int] = {}
    rows: list[dict] = []

    def pid_of(job: str) -> int:
        if job not in pids:
            pids[job] = len(pids) + 1
            rows.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pids[job],
                    "tid": 0,
                    "args": {"name": job},
                }
            )
        return pids[job]

    issued: dict[tuple, deque] = {}
    recovery_open: dict[str, float] = {}
    for event in events:
        type_ = event["type"]
        pid = pid_of(event["job"])
        ts = event["t"] * _US
        if type_ == "op_issued":
            issued.setdefault(_op_key(event), deque()).append(event["t"])
        elif type_ == "op_completed":
            queue = issued.get(_op_key(event))
            began = queue.popleft() if queue else event["t"]
            rows.append(
                {
                    "ph": "X",
                    "name": event["kind"],
                    "cat": "rma",
                    "pid": pid,
                    "tid": event["src"],
                    "ts": began * _US,
                    "dur": (event["t"] - began) * _US,
                    "args": {"trg": event["trg"], "window": event["window"]},
                }
            )
        elif type_ == "sync_completed":
            rows.append(
                {
                    "ph": "i",
                    "name": f"sync:{event['kind']}",
                    "cat": "rma",
                    "pid": pid,
                    "tid": event["src"],
                    "ts": ts,
                    "s": "t",
                }
            )
        elif type_ == "checkpoint_committed":
            rows.append(
                {
                    "ph": "X",
                    "name": "checkpoint",
                    "cat": "ft",
                    "pid": pid,
                    "tid": 0,
                    "ts": event["t_start"] * _US,
                    "dur": (event["t_end"] - event["t_start"]) * _US,
                    "args": {"step": event["step"], "demand": event["demand"]},
                }
            )
        elif type_ == "recovery_started":
            recovery_open[event["job"]] = event["t"]
        elif type_ == "recovery_completed":
            began = recovery_open.pop(event["job"], event["t"])
            rows.append(
                {
                    "ph": "X",
                    "name": "recovery",
                    "cat": "ft",
                    "pid": pid,
                    "tid": 0,
                    "ts": began * _US,
                    "dur": (event["t"] - began) * _US,
                    "args": {"resume_step": event["resume_step"]},
                }
            )
        elif type_ == "request_completed":
            arrival = event.get("arrival_t", event["t"])
            rows.append(
                {
                    "ph": "X",
                    "name": f"req:{event['op']}",
                    "cat": "serve",
                    "pid": pid,
                    "tid": event.get("frontend", 0),
                    "ts": arrival * _US,
                    "dur": max(0.0, event["t"] - arrival) * _US,
                    "args": {"status": event["status"], "key": event.get("key")},
                }
            )
        elif type_ in ("kill_fired", "kill_skipped", "failure_detected",
                       "rank_failed", "rank_respawned", "step_completed"):
            tid = event.get("rank", 0)
            rows.append(
                {
                    "ph": "i",
                    "name": type_,
                    "cat": "fault" if type_ != "step_completed" else "app",
                    "pid": pid,
                    "tid": tid,
                    "ts": ts,
                    "s": "p",
                    "args": {
                        key: value
                        for key, value in event.items()
                        if key not in ("type", "t", "seq", "job", "rt")
                    },
                }
            )
    return {"traceEvents": rows, "displayTimeUnit": "ms"}
