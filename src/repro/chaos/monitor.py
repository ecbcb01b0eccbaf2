"""The chaos log as a view of a finished job's trace.

:func:`chaos_events` reads a job's trace (``tracer.events``, or the job's
slice of a ``--trace`` file) once, after the run, and returns the chaos
transition log — both halves of every outage:

* ``failure_initiated`` — the injector lands a kill (SIGKILL on ``proc``,
  simulated fail-stop elsewhere), *before* the control plane notices;
* ``failure_detected`` — the fail-stop surfaces in the step loop as a
  :class:`~repro.errors.ProcessFailedError`;
* ``recovery_started`` / ``protocol_applied`` / ``recovery_completed`` — the
  countermeasure runs;
* ``service_restored`` — the step the failure aborted completes again, i.e.
  the job is back to where it was when the outage began.  This marker — not
  the protocol's return — is what MTTR measures: a global rollback must
  *re-execute* everything back to the crash step at full cost, a localized
  replay fast-forwards suppressed actions at bookkeeping cost, a degraded
  continuation just re-runs the aborted step with the survivors.  That
  accounting is exactly what makes the protocols' recovery-time trade-off
  visible.

Every timestamp is the trace event's **virtual** ``t`` — no wall clock — so
the event log of a seeded soak is byte-identical across re-runs and across
the ``sim`` and ``proc`` backends.  The two log flavors are :data:`MONITORS`:
``"transitions"`` lists every transition, ``"episodes"`` additionally
coalesces each outage into one ``episode`` summary event.
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = ["MONITORS", "chaos_events", "reduce_outage"]

#: The chaos log flavors :attr:`~repro.chaos.soak.SoakSpec.monitor` names.
MONITORS = ("episodes", "transitions")


def reduce_outage(outage: dict | None, event: dict) -> tuple[dict | None, dict | None]:
    """One step of the outage state machine chaos MTTR and serve's recovery
    windows share; returns ``(outage still open, outage this event closed)``.

    ``failure_detected`` opens an outage (``detected_t``, ``crash_step``) or
    extends the open one — a further failure during recovery moves
    ``crash_step`` to the latest aborted step; ``step_completed`` at or past
    ``crash_step`` closes it: the service is restored once the step the
    failure aborted completes again.  Other events pass through.
    """
    if event["type"] == "failure_detected":
        if outage is None:
            return {"detected_t": event["t"], "crash_step": event["step"]}, None
        if outage["detected_t"] is None:
            outage["detected_t"] = event["t"]
        crash = outage["crash_step"]
        outage["crash_step"] = (
            event["step"] if crash is None else max(crash, event["step"])
        )
    elif (
        event["type"] == "step_completed"
        and outage is not None
        and outage["crash_step"] is not None
        and event["step"] >= outage["crash_step"]
    ):
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


def chaos_events(
    trace: Iterable[dict], *, steps_per_round: int = 0, episodes: bool = False
) -> list[dict]:
    """The chaos transition log of one job's trace events, in trace order.

    Events are plain dicts — ``{"type": ..., "t": ..., **fields}`` — the
    stream :func:`repro.chaos.metrics.write_events` serializes as JSONL.
    ``steps_per_round > 0`` adds a ``round_completed`` marker the first time
    each round's last step completes; ``episodes`` adds one ``episode``
    summary per closed outage.  Trace events outside the vocabulary are
    ignored.
    """
    log: list[dict] = []
    episode: dict | None = None
    max_step = -1
    for event in trace:
        kind, t = event["type"], event["t"]
        if kind in _CARRIED:
            name, keys = _CARRIED[kind]
            log.append({"type": name, "t": t, **{key: event[key] for key in keys}})
        if kind == "kill_fired":
            log[-1]["real"] = bool(event.get("rt", {}).get("real", False))
            if episode is None:
                episode = {"initiated_t": t, "detected_t": None, "crash_step": None,
                           "victims": list(event["victims"]), "kills": 1}
            else:
                episode["kills"] += 1
                for victim in event["victims"]:
                    if victim not in episode["victims"]:
                        episode["victims"].append(victim)
        elif kind == "failure_detected":
            opened = episode is None
            episode, _ = reduce_outage(episode, event)
            if opened:
                # A failure the injector did not initiate (e.g. a virtual-time
                # schedule): the detection opens the episode.
                episode.update(initiated_t=t, victims=[event["rank"]], kills=0)
        elif kind == "step_completed":
            step = event["step"]
            episode, closed = reduce_outage(episode, event)
            if closed is not None:
                detected = closed["detected_t"]
                log.append({"type": "service_restored", "t": t, "step": step,
                            "mttr_s": (t - detected) if detected is not None else None})
                if episodes:
                    log.append({"type": "episode", "t": t,
                                "initiated_t": closed["initiated_t"],
                                "detected_t": detected, "restored_t": t,
                                "victims": closed["victims"], "kills": closed["kills"]})
            if steps_per_round > 0 and step > max_step and (step + 1) % steps_per_round == 0:
                log.append({"type": "round_completed", "t": t,
                            "round": (step + 1) // steps_per_round - 1})
            max_step = max(max_step, step)
    return log
