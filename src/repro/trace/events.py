"""Trace event schema, canonical serialization and JSONL persistence.

Every trace event is a flat JSON object stamped in **virtual time**:

``{"type": ..., "t": ..., "seq": ..., "job": ..., <type-specific fields>}``

plus an optional ``"rt"`` sub-object that segregates everything tied to
the host rather than the schedule — wall-clock seconds, whether a kill
used a real SIGKILL, which backend executed the run.  Identity between
two traces is defined on :func:`canonical_event` (the event *minus*
``rt``), so traces from the sim, vector and proc backends of the same
seeded run compare byte-identical while still recording how long the
host actually took.  This is the same real/virtual segregation the chaos
event log uses (:mod:`repro.chaos.metrics`).

Files are canonical JSONL: one event per line, sorted keys, compact
separators, trailing newline.  Writers stage into a ``repro-trace-*``
temp file in the destination directory and publish with an atomic
rename, so an aborted run leaves either nothing or a complete prefix —
never a torn file (the same cleanup discipline as ``DiskStore``).

This is the repository's one JSONL codec: the chaos event log and the
serving request log go through :func:`write_jsonl` / :func:`load_jsonl` with
their own row validator and error class.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Callable
from typing import Iterable

from repro.errors import TraceError

#: Prefix for staging files; the ``proc_hygiene`` fixture asserts none leak.
TRACE_TMP_PREFIX = "repro-trace-"

#: The closed event vocabulary.  ``validate_event`` rejects anything else.
TRACE_EVENT_TYPES = frozenset(
    {
        # Session lifecycle (the interceptor chain's session hooks).
        "job_started",
        "job_finished",
        "step_completed",
        "checkpoint_committed",
        "failure_detected",
        "recovery_started",
        "protocol_applied",
        "recovery_completed",
        # Runtime-level interceptor stream.
        "window_created",
        "op_issued",
        "op_completed",
        "sync_completed",
        "rank_failed",
        "rank_respawned",
        # Fault injector, through the interceptor chain's ``on_kill``.
        "kill_fired",
        "kill_skipped",
        # Store placements (``on_checkpoint_stored``: per-level bytes).
        "checkpoint_stored",
        # Best-effort decisions (``on_qos_decision``: drop/stale/repair).
        "qos_decision",
        # Serve request lifecycle.
        "request_completed",
    }
)

#: Fields every event carries, in this order, before type-specific fields.
_REQUIRED_FIELDS = ("type", "t", "seq", "job")


def validate_event(event: dict) -> None:
    """Raise :class:`TraceError` unless ``event`` matches the trace schema."""
    if not isinstance(event, dict):
        raise TraceError(f"trace event must be a dict, got {type(event).__name__}")
    for field in _REQUIRED_FIELDS:
        if field not in event:
            raise TraceError(f"trace event missing required field {field!r}: {event}")
    type_ = event["type"]
    if type_ not in TRACE_EVENT_TYPES:
        raise TraceError(f"unknown trace event type {type_!r}")
    if not isinstance(event["t"], (int, float)) or isinstance(event["t"], bool):
        raise TraceError(f"trace event 't' must be a number, got {event['t']!r}")
    if not isinstance(event["seq"], int) or isinstance(event["seq"], bool):
        raise TraceError(f"trace event 'seq' must be an int, got {event['seq']!r}")
    if not isinstance(event["job"], str):
        raise TraceError(f"trace event 'job' must be a string, got {event['job']!r}")
    rt = event.get("rt")
    if rt is not None and not isinstance(rt, dict):
        raise TraceError(f"trace event 'rt' must be a dict, got {rt!r}")


def canonical_event(event: dict) -> dict:
    """The deterministic identity of ``event``: everything but ``rt``."""
    return {key: value for key, value in event.items() if key != "rt"}


def event_line(event: dict, *, canonical: bool = False) -> str:
    """Serialize one event as a canonical JSON line (no trailing newline)."""
    payload = canonical_event(event) if canonical else event
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def event_lines(events: Iterable[dict]) -> list[str]:
    """Canonical JSON lines for ``events`` (validated, stable ordering, no ``rt``)."""
    lines = []
    for event in events:
        validate_event(event)
        lines.append(event_line(event, canonical=True))
    return lines


class TraceWriter:
    """Streaming JSONL trace writer with atomic publication.

    Events are appended to a ``repro-trace-*`` staging file next to the
    destination; :meth:`close` publishes it with ``os.replace``.  Closing
    with ``discard=True`` — or closing after ``__exit__`` saw an
    exception before anything was written — removes the staging file
    instead, so aborted runs never leak temp files.
    """

    def __init__(
        self, path: str, validate: Callable[[dict], None] = validate_event
    ) -> None:
        self.path = str(path)
        self._validate = validate
        directory = os.path.dirname(self.path) or "."
        fd, self._tmp_path = tempfile.mkstemp(
            prefix=TRACE_TMP_PREFIX, suffix=".part", dir=directory
        )
        self._fh = os.fdopen(fd, "w")
        self.count = 0

    def write(self, event: dict) -> None:
        if self._fh is None:
            raise TraceError(f"trace writer for {self.path!r} is closed")
        self._validate(event)
        self._fh.write(event_line(event))
        self._fh.write("\n")
        self.count += 1

    def close(self, *, discard: bool = False) -> None:
        """Publish (or discard) the staged trace.  Idempotent."""
        if self._fh is None:
            return
        self._fh.flush()
        self._fh.close()
        self._fh = None
        if discard:
            os.unlink(self._tmp_path)
        else:
            os.replace(self._tmp_path, self.path)

    def __enter__(self) -> TraceWriter:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # A trace that aborted mid-run is still evidence: publish whatever
        # complete prefix was staged unless nothing at all was written.
        self.close(discard=exc_type is not None and self.count == 0)


def write_jsonl(
    rows: Iterable[dict], path: str, validate: Callable[[dict], None]
) -> int:
    """Write ``rows`` to ``path`` as canonical JSONL; return the count.

    Every row passes ``validate`` (which raises on a schema violation)
    before it is staged; the file is published atomically.
    """
    with TraceWriter(path, validate) as writer:
        for row in rows:
            writer.write(row)
        return writer.count


def load_jsonl(
    path: str, validate: Callable[[dict], None], error: type[Exception]
) -> list[dict]:
    """Load a JSONL file, validating every row; the inverse of
    :func:`write_jsonl`.  A malformed line raises ``error`` naming
    ``path:lineno`` (``validate`` must raise ``error`` too)."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            try:
                validate(row)
            except error as exc:
                raise error(f"{path}:{lineno}: {exc}") from exc
            rows.append(row)
    return rows


def write_trace(events: Iterable[dict], path: str) -> int:
    """Write ``events`` to ``path`` as canonical JSONL; return the count."""
    return write_jsonl(events, path, validate_event)


def load_trace(path: str) -> list[dict]:
    """Load and validate a JSONL trace written by :func:`write_trace`."""
    return load_jsonl(path, validate_event, TraceError)
