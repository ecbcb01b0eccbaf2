"""Chaos monitors — virtual-time failure/recovery transition detectors.

A monitor is a reducer over the trace event bus — the soak driver wires it
with ``tracer.subscribe(monitor.consume)`` — and sees both halves of every
outage:

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
the event stream of a seeded soak is byte-identical across re-runs and
across the ``sim`` and ``proc`` backends.  Monitors are registry-resolved
under the kind ``"monitor"``: ``"transitions"`` streams every transition,
``"episodes"`` additionally coalesces each outage into one summary event.
"""

from __future__ import annotations

from repro.errors import ChaosError
from repro.registry import register_kind, resolve_component

__all__ = [
    "ChaosMonitor",
    "TransitionMonitor",
    "EpisodeMonitor",
    "MONITORS",
    "make_monitor",
    "reduce_outage",
]


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


class ChaosMonitor:
    """Base monitor: the transition state machine and the event buffer.

    Subclasses choose what extra structure to emit; the base class owns the
    episode bookkeeping (outage open/close, crash-step tracking, round
    markers).  Events are plain dicts — ``{"type": ..., "t": ...,
    **fields}`` — appended in occurrence order, the exact stream
    :func:`repro.chaos.metrics.write_events` serializes as JSONL.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.events: list[dict] = []
        #: Steps per workload round; set by the soak driver so the monitor
        #: can emit ``round_completed`` markers (0 disables them).
        self.steps_per_round = 0
        self._episode: dict | None = None
        self._max_step_completed = -1

    def emit(self, type_: str, t: float, **fields) -> None:
        """Append one event (used internally and by the soak driver)."""
        self.events.append({"type": type_, "t": t, **fields})

    def consume(self, event: dict) -> None:
        """Trace-bus subscriber: reduce one trace event into chaos events.

        Timestamps come from the events themselves (the tracer stamps
        ``cluster.elapsed()``).  Event types outside the monitor's
        vocabulary are ignored.
        """
        kind = event["type"]
        t = event["t"]
        if kind == "kill_fired":
            victims = list(event["victims"])
            self.emit(
                "failure_initiated", t,
                rank=event["rank"],
                victims=victims,
                kind=event["kind"],
                after_ops=event["after_ops"],
                real=bool(event.get("rt", {}).get("real", False)),
            )
            if self._episode is None:
                self._episode = {
                    "initiated_t": t,
                    "detected_t": None,
                    "crash_step": None,
                    "victims": list(victims),
                    "kills": 1,
                }
            else:
                self._episode["kills"] += 1
                for victim in victims:
                    if victim not in self._episode["victims"]:
                        self._episode["victims"].append(victim)
        elif kind == "kill_skipped":
            self.emit(
                "failure_skipped", t, rank=event["rank"], after_ops=event["after_ops"]
            )
        elif kind == "failure_detected":
            self.emit("failure_detected", t, rank=event["rank"], step=event["step"])
            opened = self._episode is None
            self._episode, _ = reduce_outage(self._episode, event)
            if opened:
                # A failure the injector did not initiate (e.g. a virtual-time
                # schedule): the detection opens the episode.
                self._episode.update(initiated_t=t, victims=[event["rank"]], kills=0)
        elif kind == "recovery_started":
            self.emit("recovery_started", t, step=event["step"])
        elif kind == "protocol_applied":
            self.emit(
                "protocol_applied", t,
                protocol=event["protocol"],
                kind=event["kind"],
                failed=list(event["failed"]),
                restored_bytes=event["restored_bytes"],
                fallback=event["fallback"],
                resume_step=event["resume_step"],
            )
        elif kind == "recovery_completed":
            self.emit("recovery_completed", t, resume_step=event["resume_step"])
        elif kind == "step_completed":
            step = event["step"]
            self._episode, closed = reduce_outage(self._episode, event)
            if closed is not None:
                detected = closed["detected_t"]
                self.emit(
                    "service_restored", t,
                    step=step,
                    mttr_s=(t - detected) if detected is not None else None,
                )
                self.episode_closed(closed, restored_t=t)
            if (
                self.steps_per_round > 0
                and step > self._max_step_completed
                and (step + 1) % self.steps_per_round == 0
            ):
                self.emit(
                    "round_completed", t, round=(step + 1) // self.steps_per_round - 1
                )
            self._max_step_completed = max(self._max_step_completed, step)

    def episode_closed(self, episode: dict, *, restored_t: float) -> None:
        """Subclass hook: one outage episode fully resolved."""


class TransitionMonitor(ChaosMonitor):
    """The plain monitor: every transition, nothing coalesced."""

    name = "transitions"


class EpisodeMonitor(TransitionMonitor):
    """Transition stream plus one coalesced ``episode`` summary per outage."""

    name = "episodes"

    def episode_closed(self, episode: dict, *, restored_t: float) -> None:
        self.emit(
            "episode", restored_t,
            initiated_t=episode["initiated_t"],
            detected_t=episode["detected_t"],
            restored_t=restored_t,
            victims=episode["victims"],
            kills=episode["kills"],
        )


#: Registry of constructable monitors, by name.
MONITORS: dict[str, type[ChaosMonitor]] = {
    TransitionMonitor.name: TransitionMonitor,
    EpisodeMonitor.name: EpisodeMonitor,
}
register_kind("monitor", MONITORS)


def make_monitor(spec: "str | ChaosMonitor | None", **params: object) -> ChaosMonitor:
    """Resolve a monitor specification into a fresh (or given) instance."""
    return resolve_component(
        "monitor", spec, MONITORS, ChaosMonitor, ChaosError,
        default=TransitionMonitor.name, **params,
    )
