"""The serving engine: spec, calibration probe, driver and comparison grid.

One :class:`ServeSpec` describes one cell: the service's traffic parameters
(shared by every cell of a comparison), the resilience configuration
(``store`` × ``recovery``), the execution ``backend`` and the kill plan
shape.  :func:`run_service` executes a cell as two
:meth:`~repro.study.workloads.Workload.run` calls and a reduction:

1. **probe** — a failure-free run without a policy measures the
   completion-stream length (:attr:`~repro.study.workloads.WorkloadRun.ops`)
   and the makespan that anchors the open-loop **arrival clock**: request
   ``r`` arrives at ``r.frac × probe_makespan``, an instant that never reacts
   to checkpoints or outages — that independence is what makes queueing
   delay visible;
2. **serve** — the real run under the declared
   :class:`~repro.api.policy.FaultTolerancePolicy` with the kill plan (real
   SIGKILLs on ``proc``); an unrecoverable fault load ends it ``aborted``;
   the checkpoint/recovery windows are read off its trace
   (:meth:`~repro.serve.slo.WindowTracker.from_trace`);
3. **reduce** — per-request columns in rid order (arrival, completion,
   latency in virtual time, status code, window segment code) and the
   segmented SLO report over them; a request dict exists only when
   :attr:`ServeResult.rows` is read (the JSONL request log, a ``--trace``
   file's ``request_completed`` events).

The kill plan is a pure function of ``(seed, traffic shape)`` — deliberately
*not* of backend/store/recovery — so :func:`run_slo_comparison` pits the
recovery protocols against the **identical** failure schedule and client
population, which is what makes "localized stalls one shard, rollback spikes
every key, degraded trades errors for flatness" a like-for-like claim.
The cells run one after another, in grid order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from repro.api.policy import FaultTolerancePolicy
from repro.chaos.soak import scaled_cost_model
from repro.errors import ServeError
from repro.experiment import _comparison_grid, check_names, plan_entropy
from repro.ft.inject import KillEvent, KillKind, KillPlan
from repro.serve.service import _STATUS_NAMES, KvService
from repro.serve.shard import ShardMap
from repro.serve.slo import SEGMENTS, WindowTracker, build_slo_report
from repro.serve.traffic import Request, RequestGenerator
from repro.study.workloads import make_workload
from repro.trace.tracer import cell_tracer, current_trace_hub, trace_label

__all__ = ["ServeSpec", "ServeResult", "run_service", "run_slo_comparison"]


@dataclass(frozen=True)
class ServeSpec:
    """Declarative description of one serving cell.

    Traffic and plan parameters are shared across a comparison; only the
    ``backend`` / ``store`` / ``recovery`` axes vary between its cells.
    """

    backend: str = "sim"
    store: str = "memory"
    #: Recovery-protocol registry name: "global", "localized", "degraded"
    #: or "best_effort".
    recovery: str = "global"
    nprocs: int = 8
    procs_per_node: int = 2
    #: Slots per shard (one shard per rank).
    slots: int = 64
    #: Client key space (hashed over the shards).
    key_space: int = 512
    steps: int = 40
    rate_per_step: float = 6.0
    zipf_s: float = 1.1
    read_fraction: float = 0.5
    #: Coordinated-checkpoint interval in steps (numeric: a service must
    #: keep checkpointing, so ``None``/``"auto"`` are not options here).
    interval: int = 10
    #: Virtual-time compression (same lever as the soak engine) so SLO
    #: latencies come out in operator-meaningful milliseconds.
    compression: float = 1000.0
    seed: int = 2026
    #: Kill offset as a fraction of the probe's completion stream.
    kill_frac: float = 0.45
    kill_kind: str = "node_kill"
    kills: int = 1
    #: Degraded-flatness invariant: recovery-window p99 may exceed the
    #: steady-state p99 by at most this factor for the degraded cell.
    flatness: float = 8.0
    watchdog: float | None = None
    service_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_names(
            (
                (kind, (getattr(self, kind),))
                for kind in ("backend", "store", "recovery")
            ),
            ServeError, "serve spec",
        )
        if self.kill_kind not in (k.value for k in KillKind):
            choices = ", ".join(repr(k.value) for k in KillKind)
            raise ServeError(
                f"unknown kill kind {self.kill_kind!r}; choose one of: {choices}"
            )
        for bad, message in (
            (not isinstance(self.interval, int) or self.interval < 1,
             "serve checkpoint interval must be a positive step count"),
            (self.compression <= 0, "time compression must be positive"),
            (not 0.0 < self.kill_frac < 1.0, "kill_frac must be strictly between 0 and 1"),
            (self.kills < 0, "kills must be non-negative"),
            (self.flatness <= 0, "flatness must be positive"),
            (self.nprocs < 2 or self.procs_per_node < 1,
             "serving needs nprocs >= 2 and procs_per_node >= 1"),
            (self.steps < 1 or self.key_space < 1 or self.slots < 1,
             "serving needs steps, key_space and slots all >= 1"),
        ):
            if bad:
                raise ServeError(message)
        # The traffic knobs are the generator's own to check (it draws nothing).
        RequestGenerator(
            seed=self.seed, steps=self.steps, nprocs=self.nprocs,
            key_space=self.key_space, rate_per_step=self.rate_per_step,
            zipf_s=self.zipf_s, read_fraction=self.read_fraction,
        )

    @property
    def cell_key(self) -> str:
        return f"{self.backend}/{self.store}/{self.recovery}"

    def service(self) -> KvService:
        """A fresh service instance for this spec (registry-resolved)."""
        service = make_workload(
            KvService.name,
            nprocs=self.nprocs,
            slots=self.slots,
            key_space=self.key_space,
            steps=self.steps,
            rate_per_step=self.rate_per_step,
            zipf_s=self.zipf_s,
            read_fraction=self.read_fraction,
            seed=self.seed,
            **dict(self.service_params),
        )
        assert isinstance(service, KvService)
        return service


@dataclass(frozen=True, eq=False)
class ServeResult:
    """Everything one serving cell produced, ready for reporting and gating.

    The requests are columns in rid order, read off the service's trace and
    records: no Python object is kept per request.  :attr:`rows` builds the
    request log's dicts on each read.
    """

    spec: ServeSpec
    #: The segmented SLO document (:func:`~repro.serve.slo.build_slo_report`).
    slo: dict
    #: The generated kill plan as ``[after_ops, rank, kind]`` triples.
    plan: list[list]
    #: Injector records, one per planned kill (fired or skipped).
    kills: list[dict]
    #: Window spans the tracker observed.
    checkpoint_windows: list[list]
    recovery_windows: list[list]
    #: Calibration: completion-stream length / makespan of the probe.
    probe_ops: int
    probe_elapsed_s: float
    #: Session counters at the end of the run.
    checkpoints: int
    recoveries: int
    excised_ranks: int
    steps_executed: int
    elapsed_s: float
    #: Bit-exact digest of the final table (None if aborted).
    digest: str | None
    #: Exception class name if the run ended early, else None.
    aborted: str | None
    #: Per request, in rid order: the service's trace (rid, frontend, step,
    #: op, key) and shard map (owner), referenced, not copied; the virtual
    #: arrival and completion instants and the latency between them, clamped
    #: at zero (the last two mean nothing where unserved); status codes into
    #: ``_STATUS_NAMES`` (0: unserved) and segment codes into ``SEGMENTS``.
    requests: Sequence[Request]
    shards: ShardMap
    arrival: np.ndarray
    completion: np.ndarray
    latency: np.ndarray
    status: np.ndarray
    segment: np.ndarray

    @property
    def rows(self) -> list[dict]:
        """The request log, one JSONL-ready dict per request, built on each read."""
        columns = zip(
            self.requests, self.arrival.tolist(), self.completion.tolist(),
            self.latency.tolist(), self.status.tolist(), self.segment.tolist(),
        )
        return [
            {
                "rid": r.rid, "frontend": r.frontend, "owner": self.shards.owner(r.key),
                "step": r.step, "op": r.op, "key": r.key, "arrival_t": arrival,
                "completion_t": completion if code else None,
                "latency_s": latency if code else None,
                "status": _STATUS_NAMES[code], "segment": SEGMENTS[segment],
            }
            for r, arrival, completion, latency, code, segment in columns
        ]

    def as_dict(self) -> dict:
        """JSON-ready form (byte-identical across re-runs: no wall clock);
        the per-request fields travel as :attr:`rows`."""
        document = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name not in _PER_REQUEST
        }
        document["spec"] = {
            f.name: getattr(self.spec, f.name) for f in fields(self.spec)
            if f.name not in ("watchdog", "service_params")
        }
        return document


_PER_REQUEST = ("requests", "shards", "arrival", "completion", "latency", "status", "segment")


# ----------------------------------------------------------------------
# Plan generation
# ----------------------------------------------------------------------
def build_plan(spec: ServeSpec, *, ops_total: int) -> KillPlan:
    """The spec's kill plan (pure function of spec + calibrated stream length).

    Plan entropy is seed + a stable domain tag: backend, store and recovery
    are not passed, so every cell of a comparison faces the identical
    failure schedule.
    """
    if spec.kills == 0:
        return KillPlan([])
    rng = np.random.default_rng(plan_entropy(spec.seed, "serve.plan"))
    if spec.kills == 1:
        fracs = [spec.kill_frac]
    else:
        fracs = sorted(rng.uniform(0.2, 0.8, size=spec.kills).tolist())
    victims = rng.integers(0, spec.nprocs, size=spec.kills)
    kind = KillKind(spec.kill_kind)
    return KillPlan(
        [
            KillEvent(
                after_ops=max(1, int(frac * ops_total)), rank=int(victim), kind=kind
            )
            for frac, victim in zip(fracs, victims)
        ]
    )


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
def run_service(spec: ServeSpec) -> ServeResult:
    """Run one serving cell to completion and reduce it to its SLO report."""
    service = spec.service()
    cost = scaled_cost_model(compression=spec.compression)
    with trace_label(f"{spec.cell_key}/probe"):
        probe = service.run(procs_per_node=spec.procs_per_node, cost_model=cost)
    probe_ops, probe_elapsed = probe.ops, probe.report.elapsed
    plan = build_plan(spec, ops_total=probe_ops)

    # The windows are a view of the run's trace.
    tracer = cell_tracer(spec.cell_key)
    run = service.run(
        ft=FaultTolerancePolicy(
            interval=spec.interval, store=spec.store, recovery=spec.recovery,
        ),
        backend=spec.backend,
        procs_per_node=spec.procs_per_node,
        cost_model=cost,
        kill_plan=plan,
        watchdog=spec.watchdog,
        trace=tracer,
    )
    report = run.report
    tracker = WindowTracker.from_trace(tracer.events, report.elapsed)
    # The arrival clock is the probe's failure-free timeline.  Latency is
    # clamped at zero: a request *admitted* early in a step can complete
    # before its nominal within-step arrival instant, and the client cannot
    # experience negative waiting.  A request with no record (its frontend
    # was excised first) is segmented by its arrival instant.
    completion, status = service.records
    arrival = service.requests.frac * probe_elapsed
    latency = np.maximum(completion - arrival, 0.0)
    instant = np.where(status != 0, completion, arrival)
    segment = tracker.segment_codes(instant)
    result = ServeResult(
        spec=spec,
        slo=build_slo_report(latency, status, segment, tracker, total_s=report.elapsed),
        plan=[[e.after_ops, e.rank, e.kind.value] for e in plan],
        kills=tracker.kills,
        checkpoint_windows=[list(w) for w in tracker.checkpoint_windows],
        recovery_windows=[list(w) for w in tracker.recovery_windows],
        probe_ops=probe_ops,
        probe_elapsed_s=probe_elapsed,
        checkpoints=int(report.checkpoints),
        recoveries=int(report.recoveries),
        excised_ranks=int(report.excised_ranks),
        steps_executed=int(report.steps_executed),
        elapsed_s=report.elapsed,
        digest=run.digest,
        aborted=run.aborted,
        requests=service.requests, shards=service.shards, arrival=arrival,
        completion=completion, latency=latency, status=status, segment=segment,
    )
    # Request lifecycles join a --trace file, the one place the cell's events
    # outlive it; their instants are virtual, so the events are deterministic.
    if current_trace_hub() is not None:
        for row, t in zip(result.rows, instant.tolist()):
            tracer.emit("request_completed", t, **row)
    return result


# ----------------------------------------------------------------------
# The comparison grid
# ----------------------------------------------------------------------
def run_slo_comparison(
    base: ServeSpec,
    *,
    recoveries: Sequence[str] = ("global", "localized", "degraded"),
    backends: Sequence[str] | None = None,
    stores: Sequence[str] | None = None,
) -> list[ServeResult]:
    """The resilience grid: identical seed, traffic and kill plan per cell."""
    return _comparison_grid(
        run_service, base, "recovery", recoveries,
        backends=backends, stores=stores, error=ServeError,
    )
