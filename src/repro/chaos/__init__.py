"""``repro.chaos`` — long-horizon soak engine with accelerated virtual time.

The study engine (:mod:`repro.study`) measures checkpoint *overhead* per
finite run; this package measures *availability* under open-ended load — the
paper's resilience claims restated in the language of site reliability:
MTTF/MTBF/MTTR and the fraction of virtual time the job is serving, degraded
or recovering.  The layers:

* :mod:`repro.chaos.scenarios` — seeded failure-scenario generators that
  generalize :class:`~repro.ft.inject.KillPlan` (independent Poisson kills,
  correlated node failures, cascading multi-rank failures, a flaky-then-dead
  rank, one node kill), registry-resolved like backends/stores/recovery;
* :mod:`repro.chaos.monitor` — the chaos log as a view of a finished job's
  trace: :func:`chaos_events` timestamps every ``failure_initiated`` /
  ``failure_detected`` / ``recovery_started`` / ``recovery_completed`` /
  ``service_restored`` transition in virtual time;
* :mod:`repro.chaos.soak` — the soak driver: one long session under a
  compressed :class:`~repro.simulator.costs.CostModel` (time fields scaled by
  e.g. 10,000x), a scenario-generated kill plan, and one of the
  :class:`~repro.ft.recovery.RecoveryProtocol` rules per cell; a cell of the
  serving workload (``kv_service``) also reports its request latency per
  window (:mod:`repro.serve.slo`);
* :mod:`repro.chaos.metrics` — the reliability arithmetic: MTTF, MTBF, MTTR,
  availability and state fractions computed from the event log (the log
  round-trips through JSONL losslessly);
* :mod:`repro.chaos.report` — JSON/markdown reports, the cross-config
  comparison invariants and the baseline regression gate behind the
  ``python -m repro.chaos`` CLI (:mod:`repro.chaos.__main__`).

Everything is virtual-time deterministic: a seeded soak produces a
byte-identical event log across re-runs *and* across the ``sim`` and ``proc``
backends, because timestamps come from the cluster's virtual clocks and kill
offsets count the backend-portable completion stream.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.chaos.metrics import ChaosMetrics, compute_metrics, load_events, write_events
    from repro.chaos.monitor import chaos_events
    from repro.chaos.report import (
        check_against_baseline,
        check_chaos_invariants,
        render_markdown,
        report_json,
    )
    from repro.chaos.scenarios import (
        CascadingFailures,
        CorrelatedFailures,
        FlakyRank,
        PoissonKills,
        Scenario,
        SingleKill,
        make_scenario,
    )
    from repro.chaos.soak import (
        SoakResult,
        SoakSpec,
        run_comparison,
        run_soak,
        scaled_cost_model,
    )

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ChaosMetrics": "repro.chaos.metrics",
    "compute_metrics": "repro.chaos.metrics",
    "load_events": "repro.chaos.metrics",
    "write_events": "repro.chaos.metrics",
    "chaos_events": "repro.chaos.monitor",
    "check_against_baseline": "repro.chaos.report",
    "check_chaos_invariants": "repro.chaos.report",
    "render_markdown": "repro.chaos.report",
    "report_json": "repro.chaos.report",
    "CascadingFailures": "repro.chaos.scenarios",
    "CorrelatedFailures": "repro.chaos.scenarios",
    "FlakyRank": "repro.chaos.scenarios",
    "PoissonKills": "repro.chaos.scenarios",
    "Scenario": "repro.chaos.scenarios",
    "SingleKill": "repro.chaos.scenarios",
    "make_scenario": "repro.chaos.scenarios",
    "SoakResult": "repro.chaos.soak",
    "SoakSpec": "repro.chaos.soak",
    "run_comparison": "repro.chaos.soak",
    "run_soak": "repro.chaos.soak",
    "scaled_cost_model": "repro.chaos.soak",
})
