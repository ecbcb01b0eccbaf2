"""The soak driver: open-ended workload rounds under accelerated virtual time.

A *soak* runs one workload for many consecutive rounds inside a single
session — one :meth:`~repro.study.workloads.Workload.run`, after a
failure-free probe run that calibrates the plan — with a scenario-generated
kill plan striking throughout; its chaos log — every transition,
timestamped — is read off the finished job's trace
(:func:`~repro.chaos.monitor.chaos_events`).  A failure-free, unprotected
reference run of the same steps scores the soak's result *quality*
(:meth:`~repro.study.workloads.Workload.result_quality`), so a cell reports
what each rule gives back for its speed: the exact rules score ``1.0``,
``best_effort`` trades quality for makespan.  Two levers make hour-scale campaigns
finish in wall-clock seconds:

* **time compression** — :func:`scaled_cost_model` multiplies every latency
  of the :class:`~repro.simulator.costs.CostModel` by the compression factor
  (and divides the bandwidths), so one simulated kernel step *charges* e.g.
  10,000x more virtual time than the baseline machine would — MTTF and MTTR
  come out in operationally meaningful units while the wall clock only pays
  for the simulation itself;
* **virtual clocks** — all timestamps advance from CostModel charges, never
  from the wall, so the event log is deterministic.

The soak adds no recovery machinery of its own: a cell names one of the
:class:`~repro.ft.recovery.RecoveryProtocol` rules (``"global"``,
``"localized"``, ``"degraded"``, ``"best_effort"``).  :func:`run_comparison`
pits recovery rules (and backends and stores) against **identical** failure
schedules — :func:`build_plan` passes the shared seed rule none of those axes
— which is what makes the availability / MTTR trade-off between the
protocols quantitatively comparable cell by cell.  The cells run one after
another, in grid order.

A cell whose workload serves requests (``kv_service``) is a *serving* cell:
its traffic is seeded by the soak's seed, and the run's request columns, the
status census and the segmented SLO document
(:class:`~repro.serve.slo.ServedRequests`) join the cell — what a failure
costs each recovery rule in request latency, beside its MTTR.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields, replace

from repro.api.policy import FaultTolerancePolicy
from repro.chaos.metrics import ChaosMetrics, compute_metrics
from repro.chaos.monitor import chaos_events
from repro.chaos.scenarios import make_scenario
from repro.errors import ChaosError
from repro.experiment import check_names, plan_entropy
from repro.ft.inject import KillPlan
from repro.serve.service import KvService
from repro.serve.slo import ServedRequests
from repro.simulator.costs import CostModel, cray_xe6_like
from repro.study.model import IntervalModel
from repro.study.workloads import WORKLOADS, make_workload
from repro.trace.tracer import cell_tracer, current_trace_hub, trace_label

__all__ = [
    "SoakSpec",
    "SoakResult",
    "scaled_cost_model",
    "run_soak",
    "run_comparison",
]


# ----------------------------------------------------------------------
# Time compression
# ----------------------------------------------------------------------
#: CostModel fields denominated in seconds (scaled *up* by compression).
_TIME_FIELDS = (
    "issue_overhead", "network_latency", "atomic_latency", "memory_latency",
    "barrier_base", "barrier_per_level", "flush_latency", "lock_latency",
    "lock_contention", "pfs_latency", "flop_time", "hash_time",
    "log_bookkeeping",
)
#: CostModel fields denominated in bytes/second (scaled *down*).
_BANDWIDTH_FIELDS = ("network_bandwidth", "memory_bandwidth", "pfs_bandwidth")
#: The ``qos.*`` decisions that tolerate an operation instead of failing it.
_TOLERATED = ("dropped_puts", "dropped_gets", "stale_reads", "dropped_syncs")


def scaled_cost_model(
    base: CostModel | None = None, *, compression: float
) -> CostModel:
    """``base`` with every charge stretched by ``compression``.

    Multiplying the latencies and dividing the bandwidths by the same factor
    preserves every *relative* cost — the machine is the same machine, its
    virtual clock just ticks ``compression`` times faster per unit of work —
    so compressed soaks exercise exactly the protocol behavior of the
    uncompressed model while reporting hour-scale MTTF/MTTR numbers.
    """
    if compression <= 0:
        raise ChaosError("time compression must be positive")
    base = base if base is not None else cray_xe6_like()
    overrides: dict = {f: getattr(base, f) * compression for f in _TIME_FIELDS}
    overrides |= {f: getattr(base, f) / compression for f in _BANDWIDTH_FIELDS}
    overrides["name"] = f"{base.name}-x{compression:g}"
    return base.with_overrides(**overrides)


# ----------------------------------------------------------------------
# The soak specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SoakSpec:
    """Declarative description of one soak cell.

    The kill plan is a pure function of ``(seed, workload, scenario,
    rate_per_round)`` — deliberately **not** of the recovery rule, store or
    backend — so comparison cells face identical failure schedules.
    """

    workload: str = "stencil"
    backend: str = "sim"
    store: str = "memory"
    #: Recovery-protocol registry name: "global", "localized", "degraded"
    #: or "best_effort".
    recovery: str = "global"
    scenario: str = "poisson"
    #: Consecutive workload rounds the soak drives (one long session; one
    #: for a serving workload).
    rounds: int = 6
    #: Coordinated-checkpoint interval in steps (numeric only: an open-ended
    #: soak must keep checkpointing, so ``None``/``"auto"`` are not options).
    interval: int = 8
    #: Virtual-time compression factor applied to the cost model.
    compression: float = 10_000.0
    #: Expected kills per workload round (scenario intensity).
    rate_per_round: float = 0.75
    seed: int = 2026
    nprocs: int = 8
    procs_per_node: int = 2
    watchdog: float | None = None
    #: Per-workload constructor overrides, e.g. ``{"stencil": {"n_local":
    #: 16}}`` or a serving workload's traffic; a workload without an entry is
    #: built with its defaults.
    workload_params: Mapping[str, Mapping[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_names(
            (
                (kind, (getattr(self, kind),))
                for kind in ("workload", "backend", "store", "recovery", "scenario")
            ),
            ChaosError, "soak spec",
        )
        if self.rounds < 1:
            raise ChaosError("a soak needs at least one round")
        if issubclass(WORKLOADS[self.workload], KvService) and self.rounds != 1:
            raise ChaosError(  # its kills would be planned past the requests it serves
                f"{self.workload} admits requests in its first round only: pass rounds=1"
            )
        if not isinstance(self.interval, int) or self.interval < 1:
            raise ChaosError("soak checkpoint interval must be a positive step count")
        if self.compression <= 0:
            raise ChaosError("time compression must be positive")
        if self.rate_per_round < 0:
            raise ChaosError("rate_per_round must be non-negative")
        if self.nprocs < 2 or self.procs_per_node < 1:
            raise ChaosError("soaks need nprocs >= 2 and procs_per_node >= 1")

    @property
    def cell_key(self) -> str:
        return (
            f"{self.workload}/{self.scenario}/{self.backend}"
            f"/{self.store}/{self.recovery}"
        )


@dataclass(frozen=True)
class SoakResult:
    """Everything one soak produced, ready for reporting and gating."""

    spec: SoakSpec
    #: The full transition stream (JSONL-serializable dicts, virtual time).
    events: list[dict]
    #: The reliability summary computed from :attr:`events`.
    metrics: ChaosMetrics
    #: The generated kill plan as ``[after_ops, rank, kind]`` triples.
    plan: list[list]
    #: Calibrated completion-stream length of one failure-free round.
    ops_per_round: int
    #: Virtual seconds of one failure-free round (compressed units).
    round_seconds: float
    #: Session counters at the end of the soak.
    checkpoints: int
    recoveries: int
    fallbacks: int
    excised_ranks: int
    steps_executed: int
    elapsed_s: float
    #: Bit-exact digest of the final workload state (None if aborted).
    digest: str | None
    #: Exception class name if the soak ended early, else None.
    aborted: str | None
    #: Analytic §5–§7-model predictions for this cell.
    predicted_mttr_s: float
    predicted_availability: float
    #: Result quality against the failure-free reference (None if aborted).
    quality: float | None
    #: Operations a tolerant rule dropped or served stale, and ranks repaired.
    tolerated_ops: int
    repairs: int
    #: Bytes checkpointed, and a multilevel store's upper-level bytes moved
    #: against the full mirrors they maintain (0 on other stores).
    checkpoint_bytes: int
    multilevel_moved_bytes: int
    multilevel_full_bytes: int
    #: A serving cell's requests and SLO document (None for other workloads).
    served: ServedRequests | None = None

    def as_dict(self) -> dict:
        """JSON-ready form (byte-identical across re-runs: no wall clock); a
        serving cell adds :meth:`ServedRequests.as_dict`'s keys."""
        document = {
            f.name: getattr(self, f.name) for f in fields(self)
            if f.name not in ("spec", "metrics", "served")
        }
        document["spec"] = {
            f.name: getattr(self.spec, f.name) for f in fields(self.spec)
            if f.name not in ("watchdog", "workload_params")
        }
        document["metrics"] = self.metrics.as_dict()
        return document | (self.served.as_dict() if self.served is not None else {})


# ----------------------------------------------------------------------
# Plan generation
# ----------------------------------------------------------------------
def build_plan(spec: SoakSpec, *, ops_per_round: int, steps_per_round: int) -> KillPlan:
    """The spec's kill plan (pure function of spec + calibrated shape).

    Schedule entropy is seed + workload + scenario — nothing else: backend,
    store and recovery are not passed, so comparison cells
    (and sim-vs-proc differential runs) draw the *same* plan.
    """
    scenario = make_scenario(spec.scenario, rate_per_round=spec.rate_per_round)
    return scenario.plan(
        plan_entropy(spec.seed, spec.workload, spec.scenario),
        nprocs=spec.nprocs,
        ops_per_round=ops_per_round,
        steps_per_round=steps_per_round,
        rounds=spec.rounds,
        procs_per_node=spec.procs_per_node,
    )


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
def run_soak(spec: SoakSpec) -> SoakResult:
    """Run one soak cell to completion and compute its reliability metrics.

    The whole soak is **one** :meth:`~repro.study.workloads.Workload.run` of
    ``rounds × steps`` job steps (every catalog kernel is a pure function of
    its step number, so rounds are just step ranges); a rollback therefore
    never crosses a phase boundary.  A failure mode recovery cannot absorb —
    a rank lost together with its buddy, or no usable checkpoint — ends the
    soak early with a ``soak_aborted`` event rather than raising: surviving
    *is* the measurement.  A failure-free, unprotected run of the same
    ``rounds × steps`` is the reference the soak's result quality is scored
    against.
    """
    params = dict(spec.workload_params.get(spec.workload, {}))
    serving = issubclass(WORKLOADS[spec.workload], KvService)
    if serving:  # its traffic is the soak's to seed
        params = {"seed": spec.seed, **params}
    workload = make_workload(spec.workload, nprocs=spec.nprocs, **params)
    cost = scaled_cost_model(compression=spec.compression)
    with trace_label(f"{spec.cell_key}/probe"):
        probe = workload.run(procs_per_node=spec.procs_per_node, cost_model=cost)
    ops_per_round, round_seconds = probe.ops, probe.report.elapsed
    plan = build_plan(
        spec, ops_per_round=ops_per_round, steps_per_round=workload.steps
    )
    # The chaos log is read off the soak's trace once the job has finished.
    tracer = cell_tracer(spec.cell_key)
    run = workload.run(
        ft=FaultTolerancePolicy(
            interval=spec.interval, store=spec.store, recovery=spec.recovery,
        ),
        backend=spec.backend,
        procs_per_node=spec.procs_per_node,
        cost_model=cost,
        kill_plan=plan,
        watchdog=spec.watchdog,
        steps=spec.rounds * workload.steps,
        trace=tracer,
    )
    report = run.report
    kills = Counter(e["type"] for e in tracer.events)
    served = None
    if serving:  # reduced before the reference run resets the records
        served = ServedRequests.reduce(
            workload, tracer.events, probe_elapsed=round_seconds, elapsed=report.elapsed
        )
        # Request lifecycles join a --trace file, the one place the cell's events
        # outlive it; their instants are virtual, so the events are deterministic.
        if current_trace_hub() is not None:
            for row in served.rows:  # an unserved request at its arrival
                t = row["arrival_t"] if row["completion_t"] is None else row["completion_t"]
                tracer.emit("request_completed", t, **row)
    with trace_label(f"{spec.cell_key}/reference"):
        reference = workload.run(
            procs_per_node=spec.procs_per_node, cost_model=cost,
            steps=spec.rounds * workload.steps,
        )
    totals = report.metrics.totals

    events = [
        {"type": "soak_started", "t": 0.0,
         "workload": spec.workload, "backend": spec.backend, "store": spec.store,
         "recovery": spec.recovery, "scenario": spec.scenario,
         "rounds": spec.rounds, "steps_per_round": workload.steps,
         "planned_kills": len(plan), "compression": spec.compression,
         "seed": spec.seed, "nprocs": spec.nprocs},
        *chaos_events(tracer.events, steps_per_round=workload.steps),
    ]
    if run.aborted is not None:  # stamped where the run stopped, as its report was
        events.append({"type": "soak_aborted", "t": report.elapsed, "error": run.aborted})
    events.append({"type": "soak_completed", "t": report.elapsed,
                   "steps_executed": report.steps_executed,
                   "kills_fired": kills["kill_fired"],
                   "kills_skipped": kills["kill_skipped"]})
    metrics = compute_metrics(events)

    # The analytic prediction for this cell: the §5–§7 interval model fed the
    # *planned* failure rate, so predicted and observed MTTR/availability can
    # be judged against each other in the report.
    total_seconds = spec.rounds * round_seconds
    rate = len(plan) / total_seconds if total_seconds > 0 and len(plan) else 0.0
    model = IntervalModel(
        cost_model=cost,
        nprocs=spec.nprocs,
        bytes_per_rank=run.bytes_per_rank,
        store=spec.store,
        rates_per_level={0: rate} if rate else {},
    )
    shape = {"step_seconds": round_seconds / workload.steps, "interval_steps": spec.interval}

    return SoakResult(
        spec=spec,
        events=events,
        metrics=metrics,
        plan=[[e.after_ops, e.rank, e.kind.value] for e in plan],
        ops_per_round=ops_per_round,
        round_seconds=round_seconds,
        checkpoints=int(report.checkpoints),
        recoveries=int(report.recoveries),
        fallbacks=int(report.recovery_fallbacks),
        excised_ranks=int(report.excised_ranks),
        steps_executed=int(report.steps_executed),
        elapsed_s=report.elapsed,
        digest=run.digest,
        aborted=run.aborted,
        predicted_mttr_s=model.predicted_mttr_seconds(spec.recovery, **shape),
        predicted_availability=model.predicted_availability(spec.recovery, **shape),
        quality=None if run.aborted else workload.result_quality(run.result, reference.result),
        tolerated_ops=sum(int(totals.get(f"qos.{name}", 0)) for name in _TOLERATED),
        repairs=int(totals.get("qos.repairs", 0)),
        checkpoint_bytes=int(totals.get("ft.checkpoint_bytes", 0)),
        multilevel_moved_bytes=int(totals.get("ft.multilevel_moved_bytes", 0)),
        multilevel_full_bytes=int(totals.get("ft.multilevel_full_bytes", 0)),
        served=served,
    )


def run_comparison(
    base: SoakSpec,
    *,
    recoveries: Sequence[str] = ("global", "localized", "degraded"),
    backends: Sequence[str] | None = None,
    stores: Sequence[str] | None = None,
) -> list[SoakResult]:
    """Run the cross-config comparison grid against identical kill plans.

    Every cell is a copy of ``base`` on ``backends × stores × recoveries``
    (``backends`` and ``stores`` default to ``base``'s own), run in that
    order; its seed, workload and scenario — what the plan is a function of
    — are ``base``'s, so the plan is identical across the grid.
    """
    backends = tuple(backends) if backends is not None else (base.backend,)
    stores = tuple(stores) if stores is not None else (base.store,)
    recoveries = tuple(recoveries)
    if not recoveries or not backends or not stores:
        raise ChaosError("comparison axes must be non-empty")
    return [
        run_soak(replace(base, backend=b, store=s, recovery=r))
        for b in backends for s in stores for r in recoveries
    ]
