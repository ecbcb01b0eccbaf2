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
``1.0``: the quality/speed trade-off of best-effort delivery.
:func:`check_against_baseline` is the CI regression gate.
"""

from __future__ import annotations

from functools import partial

from repro import experiment
from repro.chaos.soak import SoakResult

__all__ = [
    "report_json",
    "render_markdown",
    "check_chaos_invariants",
    "check_against_baseline",
]

#: The recovery rules whose result is bit-identical to the failure-free run.
_EXACT = ("global", "localized")


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


def _fmt_pct(value: float | None) -> str:
    return "—" if value is None else f"{value * 100.0:.3f}%"


def render_markdown(results: list[SoakResult]) -> str:
    """The soak grid as markdown: reliability table + predicted-vs-observed."""
    reliability, predicted = [], []
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
            _fmt_pct(m.availability),
            "—" if result.quality is None else f"{result.quality:.4f}",
            _fmt_s(result.elapsed_s),
        ))
        predicted.append((
            spec.cell_key, _fmt_s(m.mttr_s), _fmt_s(result.predicted_mttr_s),
            _fmt_pct(m.availability), _fmt_pct(result.predicted_availability),
        ))
    return (
        experiment.markdown_table(
            ("workload", "scenario", "backend", "store", "recovery", "kills",
             "episodes", "MTTF", "MTBF", "MTTR", "availability", "quality",
             "makespan"),
            reliability,
        )
        + "\n"
        + experiment.markdown_table(
            ("cell", "MTTR observed", "MTTR predicted", "availability observed",
             "availability predicted"),
            predicted,
        )
    )


# ----------------------------------------------------------------------
# Gates
# ----------------------------------------------------------------------
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
    * cells that differ only in backend **agree** on the digest and on the
      tolerated operations (the plan strikes the same program point).

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
        if result.aborted:
            continue
        if spec.recovery in _EXACT and result.quality != 1.0:
            violations.append(
                f"{spec.cell_key}: {spec.recovery} recovery scored quality "
                f"{result.quality!r}, expected exactly 1.0"
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
        if degraded and not degraded.aborted:
            for other in (global_, localized):
                if other is None or other.aborted:
                    continue
                a_d = degraded.metrics.availability
                a_o = other.metrics.availability
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
    return violations


#: ``check_against_baseline(report, baseline, max_ratio=2.0)`` → failures:
#: the schedule-shaped quantities (kills, episodes, recoveries, plan) and the
#: trade-off columns (quality, tolerated ops, repairs, bytes) must match
#: **exactly**; observed MTTR and observed *unavailability* may not
#: exceed ``max_ratio`` × the baseline's — a protocol regression fails CI,
#: legitimate cost-model retuning only shifts within the band.
check_against_baseline = partial(
    experiment.baseline_gate,
    exact=(
        "metrics.kills_fired", "metrics.kills_skipped", "metrics.episodes",
        "metrics.episodes_resolved", "metrics.recoveries",
        ("plan", "kill plan changed from the baseline's"),
        "aborted", "quality", "tolerated_ops", "repairs", "checkpoint_bytes",
        "multilevel_moved_bytes", "multilevel_full_bytes",
    ),
    ratio=(
        ("metrics.mttr_s", "MTTR", "{:.3f}s"),
        ("metrics.availability", "unavailability", "{:.6f}", lambda a: 1.0 - a),
    ),
)
