"""Lightweight counters and gauges for simulation runs.

Protocols, baselines and applications record what they do (operations issued,
bytes logged, checkpoints taken, recoveries performed) in a shared
:class:`MetricsRegistry`.  The benchmark harness turns these into the rows of
the reproduced tables and figures.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["MetricsRegistry", "MetricsSnapshot"]


@dataclass
class MetricsSnapshot:
    """An immutable snapshot of the registry, convenient for reporting."""

    totals: dict[str, float] = field(default_factory=dict)
    per_rank: dict[str, dict[int, float]] = field(default_factory=dict)

    def total(self, name: str) -> float:
        """Aggregate value of counter ``name`` (0 if never counted)."""
        return self.totals.get(name, 0.0)


class MetricsRegistry:
    """Mutable collection of named counters, optionally broken down per rank."""

    def __init__(self) -> None:
        self._totals: dict[str, float] = defaultdict(float)
        self._per_rank: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))

    def incr(self, name: str, value: float = 1.0, rank: int | None = None) -> None:
        """Increment counter ``name`` by ``value`` (optionally for ``rank``)."""
        self._totals[name] += value
        if rank is not None:
            self._per_rank[name][rank] += value

    def incr_ranks(self, name: str, pairs) -> None:
        """:meth:`incr` counter ``name`` by ``value`` for ``rank``, for each
        ``(rank, value)`` of ``pairs`` in order: the same additions, one call."""
        total, per_rank = self._totals[name], self._per_rank[name]
        for rank, value in pairs:
            total += value
            per_rank[rank] += value
        self._totals[name] = total

    def set_max(self, name: str, value: float) -> None:
        """Keep the maximum value seen for gauge ``name``."""
        if value > self._totals.get(name, float("-inf")):
            self._totals[name] = value

    def get(self, name: str, default: float = 0.0) -> float:
        """Aggregate value of ``name``."""
        return self._totals.get(name, default)

    def snapshot(self) -> MetricsSnapshot:
        """Deep-copy the current values into an immutable snapshot."""
        return MetricsSnapshot(
            totals=dict(self._totals),
            per_rank={name: dict(vals) for name, vals in self._per_rank.items()},
        )
