"""The unified telemetry facade behind ``Job.telemetry()``.

Today's counters live in several places: the cluster-level
``MetricsRegistry`` (``rma.*``, ``ft.*``, ``qos.*``, ``inject.*``), chaos
episodes and serve SLO windows.
:class:`Telemetry` folds them into one flat, glob-queryable namespace —
the registry counters verbatim, plus ``trace.*`` rollups derived from
the job's tracer (time in recovery, checkpoint bytes by store level,
kill counts) when one is installed.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.session import Job

__all__ = ["Telemetry"]


class Telemetry:
    """One queryable registry over every counter a job produced."""

    def __init__(
        self,
        totals: dict[str, float] | None = None,
        per_rank: dict[str, dict[int, float]] | None = None,
    ) -> None:
        self._totals = dict(totals or {})
        self._per_rank = {name: dict(ranks) for name, ranks in (per_rank or {}).items()}

    @classmethod
    def from_job(cls, job: Job) -> Telemetry:
        """Snapshot ``job``'s metrics registry and trace into one facade."""
        snapshot = job.cluster.metrics.snapshot()
        telemetry = cls(snapshot.totals, snapshot.per_rank)
        if job.trace is not None:
            telemetry.update(_trace_rollups(job.trace.events))
        return telemetry

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        """Every counter name, sorted."""
        return sorted(self._totals)

    def get(self, name: str, default: float = 0.0) -> float:
        """The total for ``name`` (``default`` when never counted)."""
        return self._totals.get(name, default)

    def per_rank(self, name: str) -> dict[int, float]:
        """Per-rank breakdown of ``name`` (empty for job-level counters)."""
        return dict(self._per_rank.get(name, {}))

    def query(self, pattern: str) -> dict[str, float]:
        """All counters whose name matches a glob, e.g. ``"ft.*"``."""
        return {
            name: value
            for name, value in sorted(self._totals.items())
            if fnmatchcase(name, pattern)
        }

    def update(self, totals: dict[str, float]) -> None:
        """Merge additional namespaced counters into the facade."""
        self._totals.update(totals)

    def as_dict(self) -> dict:
        """JSON-ready view: totals plus per-rank breakdowns."""
        return {
            "totals": dict(sorted(self._totals.items())),
            "per_rank": {
                name: {str(rank): value for rank, value in sorted(ranks.items())}
                for name, ranks in sorted(self._per_rank.items())
            },
        }

    def __contains__(self, name: str) -> bool:
        return name in self._totals

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Telemetry({len(self._totals)} counters)"


def _trace_rollups(events: list[dict]) -> dict[str, float]:
    """Flatten a trace summary into ``trace.*`` namespaced counters."""
    from repro.trace.summary import summarize  # tooling: loaded by the first traced rollup

    summary = summarize(events)
    rollups = {
        "trace.events": float(summary["events"]),
        "trace.steps": float(summary["steps"]),
        "trace.kills_fired": float(summary["kills"]["fired"]),
        "trace.kills_skipped": float(summary["kills"]["skipped"]),
        "trace.checkpoints": float(summary["checkpoints"]["count"]),
        "trace.checkpoint_seconds": summary["checkpoints"]["seconds"],
        "trace.recovery_episodes": float(summary["recovery"]["episodes"]),
        "trace.recovery_seconds": summary["recovery"]["seconds"],
        "trace.ops": float(summary["ops"]["total"]),
    }
    for level, nbytes in summary["checkpoints"]["bytes_by_level"].items():
        rollups[f"trace.checkpoint_bytes.{level}"] = float(nbytes)
    for decision, count in summary["qos"].items():
        rollups[f"trace.qos.{decision}"] = float(count)
    if summary["requests"]["count"]:
        rollups["trace.requests"] = float(summary["requests"]["count"])
        for status, count in summary["requests"]["by_status"].items():
            rollups[f"trace.requests.{status}"] = float(count)
    return rollups
