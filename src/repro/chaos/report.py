"""Chaos reports: JSON document, markdown tables, invariants, baseline gate.

The report is the artifact the soak engine exists for — the paper's
resilience claims restated as a reliability table::

    | workload | scenario | backend | store | recovery | kills | MTTF | MTBF | MTTR | availability | quality | makespan |

plus a predicted-vs-observed section judging the §5–§7 analytic model the
way the paper judges its own (:meth:`~repro.study.model.IntervalModel.predicted_mttr_seconds`).

:func:`check_chaos_invariants` encodes the trade-off the comparison mode must
make visible: on identical failure schedules, ``localized`` (log replay)
repairs strictly faster than ``global`` (re-execution), ``degraded``
(continuation without the failed ranks) is strictly more available than both
— it trades correctness (ranks are gone) for uptime — and ``best_effort``
finishes strictly sooner than ``global`` while the exact rules keep quality
``1.0``: the quality/speed trade-off of best-effort delivery.  Serving cells
(``kv_service``) add a per-window SLO table and the same trade-off in request
latency.  :func:`check_against_baseline` is the CI regression gate.
"""

from __future__ import annotations

from functools import partial

from repro import experiment
from repro.chaos.soak import SoakResult
from repro.serve.slo import SEGMENT_RECOVERY, SEGMENT_STEADY, SEGMENTS

__all__ = [
    "report_json",
    "render_markdown",
    "check_chaos_invariants",
    "check_against_baseline",
]

#: The recovery rules whose result is bit-identical to the failure-free run.
_EXACT = ("global", "localized")
#: How far a degraded serving cell's recovery-window p99 may exceed its
#: steady-state p99 and still count as flat.
_FLATNESS = 8.0


def report_json(results: list[SoakResult]) -> str:
    """Canonical serialization — byte-identical across re-runs and backends."""
    return experiment.report_json({
        "meta": {"engine": "repro.chaos", "cells": len(results)},
        "cells": {result.spec.cell_key: result.as_dict() for result in results},
    })


def _fmt_s(value: float | None) -> str:
    """Format virtual seconds with enough range for compressed soaks."""
    if value is None:
        return "—"
    if value >= 3600.0:
        return f"{value / 3600.0:.2f} h"
    if value >= 60.0:
        return f"{value / 60.0:.2f} min"
    return f"{value:.3f} s"


def _fmt(value: float | None, template: str) -> str:
    return "—" if value is None else template.format(value)


def render_markdown(results: list[SoakResult]) -> str:
    """The soak grid as markdown: reliability table + predicted-vs-observed,
    and an SLO row per (serving cell, segment) plus overall."""
    reliability, predicted, slo = [], [], []
    for result in results:
        spec, m = result.spec, result.metrics
        kills = f"{m.kills_fired}"
        if m.kills_skipped:
            kills += f" (+{m.kills_skipped} skipped)"
        if result.aborted:
            kills += f" [{result.aborted}]"
        reliability.append((
            spec.workload, spec.scenario, spec.backend, spec.store,
            spec.recovery, kills, m.episodes,
            _fmt_s(m.mttf_s), _fmt_s(m.mtbf_s), _fmt_s(m.mttr_s),
            _fmt(m.availability, "{:.3%}"),
            _fmt(result.quality, "{:.4f}"),
            _fmt_s(result.elapsed_s),
        ))
        predicted.append((
            spec.cell_key, _fmt_s(m.mttr_s), _fmt_s(result.predicted_mttr_s),
            _fmt(m.availability, "{:.3%}"), _fmt(result.predicted_availability, "{:.3%}"),
        ))
        cell = spec.cell_key + (f" [{result.aborted}]" if result.aborted else "")
        for segment in (*SEGMENTS, "overall") if result.served is not None else ():
            entry = result.served.slo[segment]
            lat = entry["latency_ms"] or {}
            slo.append((
                cell, segment, entry["requests"], entry["errors"],
                _fmt(entry["error_rate"], "{:.2%}"),
                *(_fmt(lat.get(p), "{:.3f}") for p in ("p50", "p95", "p99")),
                _fmt(entry["throughput_rps"], "{:.1f}"),
            ))
    tables = [
        experiment.markdown_table(
            ("workload", "scenario", "backend", "store", "recovery", "kills",
             "episodes", "MTTF", "MTBF", "MTTR", "availability", "quality",
             "makespan"),
            reliability,
        ),
        experiment.markdown_table(
            ("cell", "MTTR observed", "MTTR predicted", "availability observed",
             "availability predicted"),
            predicted,
        ),
    ]
    if slo:
        tables.append(experiment.markdown_table(
            ("cell", "segment", "requests", "errors", "error rate",
             "p50 (ms)", "p95 (ms)", "p99 (ms)", "rps"),
            slo,
        ))
    return "\n".join(tables)


# ----------------------------------------------------------------------
# Gates
# ----------------------------------------------------------------------
def _p99(result: SoakResult, segment: str) -> float | None:
    latency = result.served.slo[segment]["latency_ms"]
    return latency["p99"] if latency else None


def check_chaos_invariants(results: list[SoakResult]) -> list[str]:
    """The comparison-mode invariants; returns human-readable violations.

    Within every group of cells sharing ``(workload, scenario, backend,
    store)`` — which by construction faced the *identical* kill plan:

    * ``localized`` must achieve **strictly lower mean MTTR** than ``global``
      (suppressed-action fast-forward vs full re-execution of lost work);
    * ``degraded`` must achieve **strictly higher availability** than both
      (no restore, no rework — the degraded continuation trades the excised
      ranks' results for uptime);
    * ``best_effort`` must achieve a **strictly lower makespan** than
      ``global`` (survivors never stall or re-execute).

    Across the grid:

    * the exact rules (``global``, ``localized``) score **quality 1.0** —
      their recovery is bit-identical to the failure-free reference;
    * a ``multilevel`` cell that captured moves **strictly fewer** bytes to
      its upper levels than the full mirrors it maintains;
    * cells that differ only in backend **agree** on the digest, on the
      tolerated operations (the plan strikes the same program point) and on
      a serving cell's SLO document.

    A serving cell is judged on its requests too (its group faced identical
    traffic as well): it must **not abort** (its plan is one recoverable
    kill), ``localized`` recovery-window p99 **strictly below** ``global``'s
    (replay stalls one shard, rollback re-serves every key; no such requests
    to compare is a violation), **zero errors** under both, and ``degraded``
    **errs** while its recovery-window p99 stays **flat** — within
    ``_FLATNESS`` × its steady-state p99.

    Groups missing a recovery rule, without resolved outages, or aborted
    are skipped — the grid decides what is comparable, the invariants judge
    whatever is.
    """
    violations: list[str] = []
    groups: dict[tuple, dict[str, SoakResult]] = {}
    by_backend: dict[tuple, list[SoakResult]] = {}
    for result in results:
        spec = result.spec
        key = (spec.workload, spec.scenario, spec.backend, spec.store)
        groups.setdefault(key, {})[spec.recovery] = result
        config = (spec.workload, spec.scenario, spec.store, spec.recovery)
        by_backend.setdefault(config, []).append(result)
        if result.aborted and result.served is not None:
            violations.append(f"{spec.cell_key}: serving cell aborted with {result.aborted}")
        if result.aborted:
            continue
        if spec.recovery in _EXACT and result.quality != 1.0:
            violations.append(
                f"{spec.cell_key}: {spec.recovery} recovery scored quality "
                f"{result.quality!r}, expected exactly 1.0"
            )
        overall = result.served.slo["overall"] if result.served is not None else None
        if overall and spec.recovery in _EXACT and overall["errors"]:
            violations.append(
                f"{spec.cell_key}: {overall['errors']} request errors under "
                f"{spec.recovery} recovery, which must serve everything correctly"
            )
        if overall and spec.recovery == "degraded":
            if not overall["error_rate"]:
                violations.append(
                    f"{spec.cell_key}: error rate is {overall['error_rate']!r} but "
                    f"the excised shard's requests must surface as errors"
                )
            p99_r, p99_s = _p99(result, SEGMENT_RECOVERY), _p99(result, SEGMENT_STEADY)
            if p99_r is not None and p99_s is not None and p99_r > _FLATNESS * p99_s:
                violations.append(
                    f"{spec.cell_key}: recovery-window p99 {p99_r:.3f}ms exceeds "
                    f"{_FLATNESS:.1f}x steady-state p99 {p99_s:.3f}ms — latency is "
                    f"not flat"
                )
        moved, full = result.multilevel_moved_bytes, result.multilevel_full_bytes
        if spec.store == "multilevel" and full and moved >= full:
            violations.append(
                f"{spec.cell_key}: incremental captures moved {moved} bytes, not "
                f"strictly fewer than the {full} full mirrors hold"
            )

    for key, cells in sorted(groups.items()):
        label = "/".join(key)
        global_ = cells.get("global")
        localized = cells.get("localized")
        degraded = cells.get("degraded")
        if global_ and localized and not global_.aborted and not localized.aborted:
            g, l_ = global_.metrics.mttr_s, localized.metrics.mttr_s
            if g is None or l_ is None:
                violations.append(
                    f"{label}: no resolved outage to compare MTTR on "
                    f"(global={g}, localized={l_})"
                )
            elif l_ >= g:
                violations.append(
                    f"{label}: localized MTTR {l_:.3f}s is not strictly lower than "
                    f"global's {g:.3f}s"
                )
            if global_.served is not None and localized.served is not None:
                g, l_ = _p99(global_, SEGMENT_RECOVERY), _p99(localized, SEGMENT_RECOVERY)
                if g is None or l_ is None:
                    violations.append(
                        f"{label}: no recovery-window requests to compare "
                        f"(global p99={g}, localized p99={l_})"
                    )
                elif l_ >= g:
                    violations.append(
                        f"{label}: localized recovery-window p99 {l_:.3f}ms is not "
                        f"strictly below global's {g:.3f}ms"
                    )
        if degraded and not degraded.aborted:
            for other in (global_, localized):
                if other is None or other.aborted:
                    continue
                a_d, a_o = degraded.metrics.availability, other.metrics.availability
                if a_d is None or a_o is None:
                    violations.append(
                        f"{label}: availability undefined "
                        f"(degraded={a_d}, {other.spec.recovery}={a_o})"
                    )
                elif a_d <= a_o:
                    violations.append(
                        f"{label}: degraded availability {a_d:.6f} is not strictly "
                        f"higher than {other.spec.recovery}'s {a_o:.6f}"
                    )
        best_effort = cells.get("best_effort")
        if global_ and best_effort and not global_.aborted and not best_effort.aborted:
            if best_effort.elapsed_s >= global_.elapsed_s:
                violations.append(
                    f"{label}: best_effort makespan {best_effort.elapsed_s:.3f}s is "
                    f"not strictly below global's {global_.elapsed_s:.3f}s"
                )

    for config, cells in sorted(by_backend.items()):
        first = cells[0]
        for other in cells[1:]:
            for field in ("digest", "tolerated_ops"):
                if getattr(other, field) != getattr(first, field):
                    violations.append(
                        f"{'/'.join(config)}: {field} differs between "
                        f"{first.spec.backend} ({getattr(first, field)!r}) and "
                        f"{other.spec.backend} ({getattr(other, field)!r})"
                    )
            if first.served is not None and other.served.slo != first.served.slo:
                violations.append(
                    f"{'/'.join(config)}: SLO report differs between "
                    f"{first.spec.backend} and {other.spec.backend}"
                )
    return violations


#: A serving cell's request tail, per segment (absent from other cells).
_SLO_P99 = tuple(
    (f"slo.{segment}.latency_ms.p99", f"{segment} p99", "{:.3f}ms")
    for segment in (*SEGMENTS, "overall")
)

#: ``check_against_baseline(report, baseline, max_ratio=2.0)`` → failures:
#: the schedule-shaped quantities (kills, episodes, recoveries, checkpoints,
#: excised ranks, plan, probe ops, a serving cell's request census) and the
#: trade-off columns (quality, tolerated ops, repairs, bytes) must match
#: **exactly**; observed MTTR, observed *unavailability* and a serving cell's
#: per-segment p99 may not exceed ``max_ratio`` × the baseline's — a protocol
#: regression fails CI, legitimate cost-model retuning only shifts within the
#: band.
check_against_baseline = partial(
    experiment.baseline_gate,
    exact=(
        "metrics.kills_fired", "metrics.kills_skipped", "metrics.episodes",
        "metrics.episodes_resolved", "metrics.recoveries", "checkpoints",
        "excised_ranks", ("plan", "kill plan changed from the baseline's"), "ops_per_round",
        "aborted", "quality", "tolerated_ops", "repairs", "checkpoint_bytes",
        "multilevel_moved_bytes", "multilevel_full_bytes",
        "request_count", "status_counts",
    ),
    ratio=(
        ("metrics.mttr_s", "MTTR", "{:.3f}s"),
        ("metrics.availability", "unavailability", "{:.6f}", lambda a: 1.0 - a),
        *_SLO_P99,
    ),
    optional=("request_count", "status_counts", *(path for path, *_ in _SLO_P99)),
)
