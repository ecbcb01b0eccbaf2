"""Shared order-statistics helpers for latency and repair-time reporting.

Percentile edge cases are easy to get wrong in three different places, so
they are fixed once, here: an **empty** sample set has no percentiles and
yields ``None`` (never ``NaN``, which would poison JSON reports and baseline
comparisons), and a **single-sample** set yields that sample for every
percentile.  The estimator is *nearest-rank* (no interpolation): it returns
an actually-observed value, is exact for single samples, and — unlike
interpolating estimators — introduces no floating-point arithmetic whose
rounding could differ across numpy versions, which matters because chaos
reports (a serving cell's SLO included) are gated byte-identical across
re-runs and backends.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

__all__ = ["percentile", "latency_percentiles"]

#: The quantiles every latency/repair summary reports, as (key, percent).
STANDARD_PERCENTILES: tuple[tuple[str, float], ...] = (
    ("p50", 50.0),
    ("p95", 95.0),
    ("p99", 99.0),
)


def percentile(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of pre-sorted samples.

    The nearest-rank definition: the smallest value such that at least
    ``q`` percent of the samples are <= it — ``sorted_samples[ceil(q/100*n)-1]``.
    Raises :class:`ValueError` on an empty sample list or a ``q`` outside
    ``(0, 100]``; callers wanting ``None``-for-empty semantics use
    :func:`latency_percentiles`.
    """
    if not sorted_samples:
        raise ValueError("percentile of an empty sample set is undefined")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    rank = math.ceil(q / 100.0 * len(sorted_samples))
    return sorted_samples[max(rank, 1) - 1]


def latency_percentiles(samples: Iterable[float]) -> dict[str, float] | None:
    """p50/p95/p99 of ``samples`` with defined edge behavior.

    * empty samples → ``None`` (a window with no completed requests has no
      latency distribution — reports render it as "—", gates skip it);
    * one sample → that value for every percentile;
    * never ``NaN``: a NaN sample is rejected loudly rather than silently
      ordered (NaN comparisons would make the sort order undefined).
    """
    xs = sorted(float(x) for x in samples)
    if not xs:
        return None
    if any(math.isnan(x) for x in xs):
        raise ValueError("latency samples must not contain NaN")
    return {key: percentile(xs, q) for key, q in STANDARD_PERCENTILES}
