"""repro.qos — the quality/robustness/speed trade-off of best-effort delivery.

Best-effort delivery is a recovery rule (:class:`repro.ft.recovery.BestEffort`,
``recovery="best_effort"``): a failed rank is suspended instead of fatal —
operations toward it deterministically drop or serve stale checkpoint data,
counted per rank in the job's ``qos.*`` metrics — while survivors keep
running at full speed, and the session repairs the rank at the next step
boundary.  This package is the comparison harness behind ``python -m
repro.qos`` (:mod:`repro.qos.engine` / :mod:`repro.qos.report`): it sweeps
recovery × store-hierarchy cells against identical kill plans and quantifies
each cell as (result quality, tolerated operations, makespan).

Select the rule declaratively::

    repro.launch(nprocs=8, ft=repro.FaultTolerancePolicy(recovery="best_effort"))
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.qos.engine import QosSpec, check_invariants, quick_spec, report_json, run_qos
    from repro.qos.report import check_against_baseline, render_markdown

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "QosSpec": "repro.qos.engine",
    "check_invariants": "repro.qos.engine",
    "quick_spec": "repro.qos.engine",
    "report_json": "repro.qos.engine",
    "run_qos": "repro.qos.engine",
    "check_against_baseline": "repro.qos.report",
    "render_markdown": "repro.qos.report",
})
