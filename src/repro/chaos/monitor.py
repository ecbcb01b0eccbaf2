"""The chaos log as a view of a finished job's trace.

:func:`chaos_events` reads a job's trace (``tracer.events``, or the job's
slice of a ``--trace`` file) once, after the run, and returns the chaos
transition log — both halves of every outage:

* ``failure_initiated`` — the injector lands a kill (SIGKILL on ``proc``,
  simulated fail-stop elsewhere), *before* the control plane notices;
* ``failure_detected`` — the fail-stop surfaces in the step loop as a
  :class:`~repro.errors.ProcessFailedError`; a tolerant rule (best-effort
  delivery) sees the kill as it lands, so there the detection is the kill;
* ``recovery_started`` / ``protocol_applied`` / ``recovery_completed`` — the
  recovery rule runs;
* ``service_restored`` — the step the failure aborted completes again, i.e.
  the job is back to where it was when the outage began.  This marker — not
  the protocol's return — is what MTTR measures: a global rollback must
  *re-execute* everything back to the crash step at full cost, a localized
  replay fast-forwards suppressed actions at bookkeeping cost, a degraded
  continuation just re-runs the aborted step with the survivors.  A
  tolerant rule aborts no step: its service is restored when the repair that
  mends the last rank down completes.  That accounting is exactly what makes
  the protocols' recovery-time trade-off visible.

Every timestamp is the trace event's **virtual** ``t`` — no wall clock — so
the event log of a seeded soak is byte-identical across re-runs and across
the ``sim`` and ``proc`` backends.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

__all__ = ["chaos_events", "reduce_outage"]


def reduce_outage(outage: dict | None, event: dict) -> tuple[dict | None, dict | None]:
    """One step of the outage state machine chaos MTTR and serve's recovery
    windows share; returns ``(outage still open, outage this event closed)``.

    ``kill_fired`` opens an outage (its ``rank`` and the ranks it took
    ``down``; ``detected_t`` the kill's) or adds its victims to the open one.
    ``failure_detected`` confirms it — ``detected_t`` becomes the detection's,
    ``crash_step`` the aborted step — or extends a confirmed one: a further
    failure during recovery moves ``crash_step`` to the latest aborted step;
    ``step_completed`` at or past ``crash_step`` closes it: the service is
    restored once the step the failure aborted completes again.  A tolerant
    rule (best-effort delivery) aborts no step and detects nothing: it sees
    the kill when it lands, marks the outage ``tolerated`` with its first
    ``qos_decision``, and the ``repairs`` decision that mends the last rank
    down restores.  Other events pass through.
    """
    kind, t = event["type"], event["t"]
    if kind == "kill_fired":
        if outage is None:
            opened = {"detected_t": t, "crash_step": math.inf, "rank": event["rank"]}
            return {**opened, "down": set(event["victims"])}, None
        outage["down"].update(event["victims"])
    elif kind == "failure_detected":
        if outage is None or outage["crash_step"] == math.inf:
            opened = outage or {"down": set()}
            return {**opened, "detected_t": t, "crash_step": event["step"]}, None
        outage["crash_step"] = max(outage["crash_step"], event["step"])
    elif (
        kind == "step_completed"
        and outage is not None
        and event["step"] >= outage["crash_step"]
    ):
        return None, outage
    elif kind == "qos_decision" and outage is not None:
        outage["tolerated"] = True
        if event["decision"] == "repairs":
            outage["down"].discard(event["rank"])
            if not outage["down"] and outage["crash_step"] == math.inf:
                return None, outage
    return outage, None


#: Trace event type -> (chaos event type, the fields it carries over).
_CARRIED = {
    "kill_fired": ("failure_initiated", ("rank", "victims", "kind", "after_ops")),
    "kill_skipped": ("failure_skipped", ("rank", "after_ops")),
    "failure_detected": ("failure_detected", ("rank", "step")),
    "recovery_started": ("recovery_started", ("step",)),
    "protocol_applied": ("protocol_applied", (
        "protocol", "kind", "failed", "restored_bytes", "fallback", "resume_step",
    )),
    "recovery_completed": ("recovery_completed", ("resume_step",)),
}


def chaos_events(trace: Iterable[dict], *, steps_per_round: int = 0) -> list[dict]:
    """The chaos transition log of one job's trace events, in trace order.

    Events are plain dicts — ``{"type": ..., "t": ..., **fields}`` — the
    stream :func:`repro.chaos.metrics.write_events` serializes as JSONL.
    ``steps_per_round > 0`` adds a ``round_completed`` marker the first time
    each round's last step completes.  Trace events outside the vocabulary
    are ignored.
    """
    log: list[dict] = []
    outage: dict | None = None
    max_step = -1
    for event in trace:
        kind, t = event["type"], event["t"]
        if kind in _CARRIED:
            name, keys = _CARRIED[kind]
            log.append({"type": name, "t": t, **{key: event[key] for key in keys}})
        if kind == "kill_fired":
            log[-1]["real"] = bool(event.get("rt", {}).get("real", False))
        was = outage
        outage, closed = reduce_outage(outage, event)
        if was is None and outage is not None:  # where, and in which step, it opened
            opened = len(log), max_step + 1
        step = event.get("step", max_step + 1)  # a repair: the step it opens
        if closed is not None:
            if closed["crash_step"] == math.inf:  # a tolerant rule saw the kill as it landed
                log.insert(opened[0], {"type": "failure_detected", "t": closed["detected_t"],
                                       "rank": closed["rank"], "step": opened[1]})
            log.append({"type": "service_restored", "t": t, "step": step,
                        "mttr_s": t - closed["detected_t"]})
        if kind == "step_completed":
            if steps_per_round > 0 and step > max_step and (step + 1) % steps_per_round == 0:
                log.append({"type": "round_completed", "t": t,
                            "round": (step + 1) // steps_per_round - 1})
            max_step = max(max_step, step)
    return log
