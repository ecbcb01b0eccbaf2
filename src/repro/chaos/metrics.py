"""Reliability arithmetic over chaos event logs: MTTF, MTBF, MTTR, availability.

The metrics computer consumes the chaos log
:func:`~repro.chaos.monitor.chaos_events` reads off a job's trace (with the
soak's ``soak_*`` bookends) — either in memory or
round-tripped through the streaming JSONL log (:func:`write_events` /
:func:`load_events`, one canonically-serialized JSON object per line) — and
reduces it to the industry-standard summary:

* **MTTF** (mean time to failure): mean *uptime* preceding each outage;
* **MTBF** (mean time between failures): mean gap between successive outage
  onsets (``MTBF = MTTF + MTTR`` in steady state);
* **MTTR** (mean time to repair): mean ``failure_detected`` →
  ``service_restored`` span — repair ends when the crash-aborted step
  completes again, not when the recovery protocol returns, so re-execution
  (rollback) vs suppressed replay (localized) vs excision (degraded) are
  priced honestly;
* **availability**: ``1 − downtime / total`` where downtime sums every
  ``failure_initiated`` → ``service_restored`` span (an outage still open at
  the end of the soak counts until the end).

All quantities are virtual-time; a seeded soak yields bit-identical metrics
on every backend and machine.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass

from repro.errors import ChaosError
from repro.stats import latency_percentiles
from repro.trace.events import load_jsonl, write_jsonl

__all__ = [
    "ChaosMetrics",
    "compute_metrics",
    "write_events",
    "load_events",
]

#: Event types a well-formed chaos log may contain (the JSONL schema's
#: ``type`` enumeration; CI validates logs against this).
EVENT_TYPES = frozenset({
    "soak_started",
    "failure_initiated",
    "failure_skipped",
    "failure_detected",
    "recovery_started",
    "protocol_applied",
    "recovery_completed",
    "service_restored",
    "round_completed",
    "soak_aborted",
    "soak_completed",
})


@dataclass(frozen=True)
class ChaosMetrics:
    """The per-configuration reliability summary of one soak."""

    #: Virtual seconds the soak covered (t of the last event).
    total_s: float
    #: Planned kills that struck at least one live rank.
    kills_fired: int
    #: Planned kills skipped because every victim was already dead/excised.
    kills_skipped: int
    #: Coalesced outage episodes (several near-simultaneous kills may share one).
    episodes: int
    #: Episodes resolved before the soak ended.
    episodes_resolved: int
    #: Completed recovery-protocol runs.
    recoveries: int
    #: Localized recoveries that fell back to a global rollback.
    fallbacks: int
    #: Workload rounds fully completed.
    rounds_completed: int
    #: Mean uptime before each outage, virtual seconds (None without outages).
    mttf_s: float | None
    #: Mean gap between outage onsets (None with fewer than two outages).
    mtbf_s: float | None
    #: Mean detection → service-restored span (None without resolved outages).
    mttr_s: float | None
    #: Serving fraction of virtual time: 1 − downtime / total.
    availability: float | None
    #: Fraction of virtual time spent between detection and restoration.
    recovering_fraction: float | None
    #: Repair-span distribution (nearest-rank, shared estimator with the
    #: serving cell's SLO reports); ``None`` without resolved outages.
    mttr_p50_s: float | None = None
    mttr_p95_s: float | None = None
    mttr_p99_s: float | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def compute_metrics(events: list[dict]) -> ChaosMetrics:
    """Reduce an event stream to its :class:`ChaosMetrics`."""
    total = max((e["t"] for e in events), default=0.0)
    counts = Counter(e["type"] for e in events)
    fallbacks = sum(
        1 for e in events if e["type"] == "protocol_applied" and e.get("fallback")
    )

    # Episode reconstruction from the transition stream: an outage opens at
    # the first failure_initiated/failure_detected while no outage is open,
    # and closes at service_restored.
    episodes: list[tuple[float, float | None, float | None]] = []
    open_init: float | None = None
    open_detect: float | None = None
    for event in events:
        kind = event["type"]
        if kind in ("failure_initiated", "failure_detected") and open_init is None:
            open_init = event["t"]
            open_detect = event["t"] if kind == "failure_detected" else None
        elif kind == "failure_detected" and open_detect is None:
            open_detect = event["t"]
        elif kind == "service_restored" and open_init is not None:
            episodes.append((open_init, open_detect, event["t"]))
            open_init = open_detect = None
    if open_init is not None:  # outage still open when the soak ended
        episodes.append((open_init, open_detect, None))

    resolved = [(i, d, r) for (i, d, r) in episodes if r is not None]
    repair_spans = [r - d for (_, d, r) in resolved if d is not None]
    mttr = sum(repair_spans) / len(repair_spans) if repair_spans else None
    repair_pcts = latency_percentiles(repair_spans)

    onsets = [i for (i, _, _) in episodes]
    gaps = [b - a for a, b in zip(onsets, onsets[1:])]
    mtbf = sum(gaps) / len(gaps) if gaps else None

    uptimes = []
    prev_restored = 0.0
    for init, _, restored in episodes:
        uptimes.append(init - prev_restored)
        prev_restored = restored if restored is not None else total
    mttf = sum(uptimes) / len(uptimes) if uptimes else None

    downtime = sum((r if r is not None else total) - i for (i, _, r) in episodes)
    availability = 1.0 - downtime / total if total > 0 else None
    recovering = (
        sum((r if r is not None else total) - d for (_, d, r) in episodes
            if d is not None) / total
        if total > 0
        else None
    )

    return ChaosMetrics(
        total_s=total,
        kills_fired=counts["failure_initiated"],
        kills_skipped=counts["failure_skipped"],
        episodes=len(episodes),
        episodes_resolved=len(resolved),
        recoveries=counts["recovery_completed"],
        fallbacks=fallbacks,
        rounds_completed=counts["round_completed"],
        mttf_s=mttf,
        mtbf_s=mtbf,
        mttr_s=mttr,
        availability=availability,
        recovering_fraction=recovering,
        mttr_p50_s=repair_pcts["p50"] if repair_pcts else None,
        mttr_p95_s=repair_pcts["p95"] if repair_pcts else None,
        mttr_p99_s=repair_pcts["p99"] if repair_pcts else None,
    )


# ----------------------------------------------------------------------
# Streaming JSONL log (the codec is :mod:`repro.trace.events`)
# ----------------------------------------------------------------------
def _validate_event(event: dict) -> None:
    """The log's schema: a JSON object with a known ``type`` and a numeric ``t``."""
    if not isinstance(event, dict):
        raise ChaosError("event must be a JSON object")
    if event.get("type") not in EVENT_TYPES:
        raise ChaosError(f"unknown event type {event.get('type')!r}")
    if not isinstance(event.get("t"), (int, float)):
        raise ChaosError("event is missing a numeric 't'")


def write_events(events: list[dict], path: str) -> None:
    """Stream ``events`` to ``path`` as one canonical JSON object per line."""
    write_jsonl(events, path, _validate_event)


def load_events(path: str) -> list[dict]:
    """Load a JSONL event log back; the inverse of :func:`write_events`.

    Validates the schema: every line must be a JSON object with a known
    ``type`` and a numeric ``t``.
    """
    return load_jsonl(path, _validate_event, ChaosError)
