"""Reproduction of the ftRMA paper: fault-tolerant RMA programming.

The package is layered bottom-up:

* :mod:`repro.simulator` — the virtual-time cluster (clocks, cost model,
  failure-domain hierarchy, placement, fail-stop injection);
* :mod:`repro.rma` — the paper's formal RMA model (actions, epochs, counters,
  orders, nonblocking operation handles) and the
  :class:`~repro.rma.runtime.RmaRuntime` coordination layer;
* :mod:`repro.backends` — pluggable execution backends owning window storage
  (per-op reference ``"sim"``, coalescing ``"vector"``, real-process
  shared-memory ``"proc"``) — all apply an operation when its epoch completes;
* :mod:`repro.ft` — the fault-tolerance protocols built on the runtime
  (topology-aware in-memory checkpointing and recovery);
* :mod:`repro.api` — the rank-centric session API: :func:`launch` a job,
  write kernels against per-rank :class:`~repro.api.context.RankContext`
  objects, and let the session checkpoint and recover transparently;
* :mod:`repro.study` — the resilience-study engine on top of everything:
  a registry-resolved workload catalog, the analytic Young/Daly interval
  model behind ``FaultTolerancePolicy(interval="auto")``, and the seeded
  Monte-Carlo campaign runner (``python -m repro.study``);
* :mod:`repro.chaos` — the long-horizon soak engine: accelerated virtual
  time (``scaled_cost_model``), seeded failure scenarios, the transition
  log read off the trace, MTTF/MTBF/MTTR/availability metrics and the cross-config
  comparison CLI (``python -m repro.chaos``).

Applications should program against :mod:`repro.api`, whose session names
are re-exported here; the lower layers remain public, imported from their
subpackages, for protocol work and instrumentation.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.api import (
    FaultTolerancePolicy,
    Job,
    JobReport,
    SessionObserver,
    Topology,
    launch,
)
from repro.errors import ReproError
from repro.ft import KillPlan, install_injector

if TYPE_CHECKING:
    from repro.backends.proc import proc_available
    from repro.study.campaign import CampaignSpec, run_campaign
    from repro.study.workloads import make_workload

# The names README, the examples and the benchmark use; everything else is
# imported from its subpackage.  Engine and real-process names (and the
# subpackages) load on first touch.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "proc_available": "repro.backends.proc",
    "CampaignSpec": "repro.study.campaign",
    "run_campaign": "repro.study.campaign",
    "make_workload": "repro.study.workloads",
}, subpackages=("chaos", "serve", "trace"))
__all__ += [
    "launch",
    "Job",
    "JobReport",
    "FaultTolerancePolicy",
    "Topology",
    "SessionObserver",
    "KillPlan",
    "install_injector",
    "ReproError",
    "__version__",
]

__version__ = "0.8.0"
