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

Applications should program against :mod:`repro.api` (re-exported here);
the lower layers remain public for protocol work and instrumentation.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.api import (
    Collective,
    FaultTolerancePolicy,
    Job,
    JobReport,
    RankContext,
    SessionObserver,
    Topology,
    WindowHandle,
    launch,
)
from repro.backends import Backend, SimBackend, VectorBackend, make_backend
from repro.errors import ReproError
from repro.ft import (
    CheckpointStore,
    ContinueDegraded,
    DiskStore,
    FaultInjector,
    GlobalRollback,
    KillKind,
    KillPlan,
    LocalizedReplay,
    MemoryStore,
    ParityStore,
    RecoveryProtocol,
    install_injector,
)
from repro.registry import available
from repro.rma.actions import OpHandle

if TYPE_CHECKING:
    from repro.backends.proc import ProcBackend, proc_available
    from repro.chaos.metrics import ChaosMetrics, compute_metrics
    from repro.chaos.soak import (
        SoakResult,
        SoakSpec,
        run_comparison,
        run_soak,
        scaled_cost_model,
    )
    from repro.study.campaign import CampaignSpec, run_campaign
    from repro.study.model import IntervalModel
    from repro.study.workloads import Workload, WorkloadRun, make_workload

# Engine and real-process names (and the subpackages) load on first touch.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ProcBackend": "repro.backends.proc",
    "proc_available": "repro.backends.proc",
    "ChaosMetrics": "repro.chaos.metrics",
    "compute_metrics": "repro.chaos.metrics",
    "SoakResult": "repro.chaos.soak",
    "SoakSpec": "repro.chaos.soak",
    "run_comparison": "repro.chaos.soak",
    "run_soak": "repro.chaos.soak",
    "scaled_cost_model": "repro.chaos.soak",
    "CampaignSpec": "repro.study.campaign",
    "run_campaign": "repro.study.campaign",
    "IntervalModel": "repro.study.model",
    "Workload": "repro.study.workloads",
    "WorkloadRun": "repro.study.workloads",
    "make_workload": "repro.study.workloads",
}, subpackages=("serve", "trace"))
__all__ += [
    "available",
    "SessionObserver",
    "Collective",
    "FaultTolerancePolicy",
    "Job",
    "JobReport",
    "RankContext",
    "Topology",
    "WindowHandle",
    "launch",
    "OpHandle",
    "Backend",
    "SimBackend",
    "VectorBackend",
    "make_backend",
    "KillKind",
    "KillPlan",
    "FaultInjector",
    "install_injector",
    "CheckpointStore",
    "MemoryStore",
    "DiskStore",
    "ParityStore",
    "RecoveryProtocol",
    "GlobalRollback",
    "LocalizedReplay",
    "ContinueDegraded",
    "ReproError",
    "__version__",
]

__version__ = "0.8.0"
