"""repro.qos — delivery modes and the quality/robustness/speed trade-off.

The subsystem has two halves:

* :mod:`repro.qos.delivery` — the :class:`DeliveryMode` strategy (registry
  kind ``"delivery"``): ``"reliable"`` keeps today's fail-stop semantics,
  ``"best_effort"`` suspends failed ranks instead — operations toward them
  deterministically drop or serve stale checkpoint data, counted per rank in
  the job's ``qos.*`` metrics, while survivors keep running at full speed.
* :mod:`repro.qos.engine` / :mod:`repro.qos.report` — the comparison harness
  behind ``python -m repro.qos``: it sweeps delivery × store-hierarchy cells
  against identical kill plans and quantifies each cell as (result quality,
  tolerated operations, makespan).

Select a mode declaratively::

    repro.launch(nprocs=8, ft=repro.FaultTolerancePolicy(delivery="best_effort"))
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.qos.delivery import (
        DELIVERY_MODES,
        BestEffort,
        DeliveryMode,
        Reliable,
        make_delivery,
    )
    from repro.qos.engine import QosSpec, check_invariants, quick_spec, report_json, run_qos
    from repro.qos.report import check_against_baseline, render_markdown

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "DELIVERY_MODES": "repro.qos.delivery",
    "BestEffort": "repro.qos.delivery",
    "DeliveryMode": "repro.qos.delivery",
    "Reliable": "repro.qos.delivery",
    "make_delivery": "repro.qos.delivery",
    "QosSpec": "repro.qos.engine",
    "check_invariants": "repro.qos.engine",
    "quick_spec": "repro.qos.engine",
    "report_json": "repro.qos.engine",
    "run_qos": "repro.qos.engine",
    "check_against_baseline": "repro.qos.report",
    "render_markdown": "repro.qos.report",
})
