"""Fault-tolerance protocols on top of the RMA runtime (§3–§7).

* :mod:`~repro.ft.groups` — topology-aware (t-aware) buddy and group
  construction over the failure-domain hierarchy (§5, Eq. 6);
* :mod:`~repro.ft.stores` — pluggable checkpoint placement strategies:
  in-memory buddy copies (§3.1, §5), disk spill (the SCR-PFS baseline of
  §7), XOR parity stripes across t-aware groups (§3.3) and a multi-level
  hierarchy of them (§5–§7); one rule — whose memory still holds a
  placement — decides which copy of a rank each serves;
* :mod:`~repro.ft.checkpoint` — the coordinated checkpointer (epoch-boundary
  guard, §3.1.2) with demand checkpoints driven by the interceptor's put/get
  log (§6.2); the log also retains the completed actions for replay;
* :mod:`~repro.ft.recovery` — recovery as one procedure
  (:meth:`RecoveryManager.recover`) over a restoring set, asking one of three
  pluggable rules which ranks restore, from which version, and what the
  survivors do: coordinated global rollback (§4.2–§4.3), localized log-based
  replay restoring only the failed ranks (§7, falling back to the rollback
  per §3.2.3), and degraded continuation; a fourth rule, best-effort
  delivery, tolerates failures instead (suspend, drop or serve stale, repair
  at the step boundary) and never calls the procedure;
* :mod:`~repro.ft.stack` — one-call construction of the whole protocol
  (log + store + checkpointer + recovery) from plain parameters, used by the
  declarative policy of :mod:`repro.api`;
* :mod:`~repro.ft.inject` — kill injection timed by completion-stream
  position (backend-portable): real ``SIGKILL`` on the real-process backend,
  simulated fail-stop elsewhere, with the POD_KILL/NODE_KILL taxonomy.
"""

from repro.ft.checkpoint import (
    ActionLog,
    CheckpointVersion,
    CoordinatedCheckpointer,
)
from repro.ft.groups import buddy_assignment, group_spread, t_aware_groups
from repro.ft.inject import (
    FaultInjector,
    FiredKill,
    KillEvent,
    KillKind,
    KillPlan,
    install_injector,
)
from repro.ft.recovery import (
    PROTOCOLS,
    BestEffort,
    ContinueDegraded,
    GlobalRollback,
    LocalizedReplay,
    RecoveryManager,
    RecoveryOutcome,
    RecoveryPlan,
    RecoveryProtocol,
    make_protocol,
)
from repro.ft.stack import FtStack, build_ft_stack
from repro.ft.stores import (
    STORES,
    CheckpointStore,
    DiskStore,
    MemoryStore,
    MultiLevelStore,
    ParityStore,
    RestorePayload,
    make_store,
)

__all__ = [
    "ActionLog",
    "CheckpointVersion",
    "CoordinatedCheckpointer",
    "CheckpointStore",
    "MemoryStore",
    "DiskStore",
    "MultiLevelStore",
    "ParityStore",
    "RestorePayload",
    "STORES",
    "make_store",
    "RecoveryProtocol",
    "RecoveryOutcome",
    "RecoveryPlan",
    "GlobalRollback",
    "LocalizedReplay",
    "ContinueDegraded",
    "BestEffort",
    "PROTOCOLS",
    "make_protocol",
    "buddy_assignment",
    "group_spread",
    "t_aware_groups",
    "RecoveryManager",
    "FtStack",
    "build_ft_stack",
    "KillKind",
    "KillEvent",
    "KillPlan",
    "FiredKill",
    "FaultInjector",
    "install_injector",
]
