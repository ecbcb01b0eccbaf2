"""The resilience-study engine — the paper's evaluation methodology (§5–§7).

This package turns the mechanism stack below it (backends × stores ×
protocols under the :mod:`repro.api` session) into an *experiment engine*:

* :mod:`~repro.study.workloads` — the registry-resolved workload catalog
  (``"stencil"``, ``"allreduce"``, ``"kv"``) with parameterizable sizes and
  bit-exact result digests;
* :mod:`~repro.study.model` — the analytic Young/Daly interval and overhead
  model driven by per-level exponential failure rates and the simulator's
  cost model; what ``FaultTolerancePolicy(interval="auto")`` resolves
  through;
* :mod:`~repro.study.campaign` — the seeded Monte-Carlo campaign runner
  sweeping ``{workload × backend × store × recovery × failure rate ×
  interval}`` over independently-seeded stochastic fault loads, concurrent
  via :mod:`concurrent.futures` yet byte-identical in its JSON report.

Run one from the command line::

    python -m repro.study --trials 4 --output report.json --markdown report.md
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.study.campaign import (
        CampaignSpec,
        check_against_baseline,
        check_invariants,
        quick_spec,
        render_markdown,
        report_json,
        run_campaign,
    )
    from repro.study.model import (
        IntervalModel,
        checkpoint_seconds,
        optimal_interval_seconds,
        predicted_overhead,
        restart_seconds,
        system_failure_rate,
    )
    from repro.study.workloads import (
        WORKLOADS,
        HeatStencil,
        KvUpdate,
        RingAllreduce,
        Workload,
        WorkloadRun,
        make_workload,
    )

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CampaignSpec": "repro.study.campaign",
    "check_against_baseline": "repro.study.campaign",
    "check_invariants": "repro.study.campaign",
    "quick_spec": "repro.study.campaign",
    "render_markdown": "repro.study.campaign",
    "report_json": "repro.study.campaign",
    "run_campaign": "repro.study.campaign",
    "IntervalModel": "repro.study.model",
    "checkpoint_seconds": "repro.study.model",
    "optimal_interval_seconds": "repro.study.model",
    "predicted_overhead": "repro.study.model",
    "restart_seconds": "repro.study.model",
    "system_failure_rate": "repro.study.model",
    "WORKLOADS": "repro.study.workloads",
    "HeatStencil": "repro.study.workloads",
    "KvUpdate": "repro.study.workloads",
    "RingAllreduce": "repro.study.workloads",
    "Workload": "repro.study.workloads",
    "WorkloadRun": "repro.study.workloads",
    "make_workload": "repro.study.workloads",
})
