"""The QoS comparison engine — quality/robustness/speed as one experiment.

The paper's protocols answer "how do we *not lose* work under failures"; the
QoS layer asks the complementary question: **what does each answer cost, and
what do you get back for relaxing it?**  This engine quantifies that as a
three-axis trade-off, measured — not argued — on identical fault loads:

* **quality** — :meth:`~repro.study.workloads.Workload.result_quality`
  against the failure-free reference result (``1.0`` = bit-exact);
* **robustness** — recoveries survived, operations tolerated (dropped /
  served stale), ranks repaired;
* **speed** — virtual makespan, checkpoint bytes moved.

Every cell of the ``delivery × store`` sweep runs the *same* seeded
:class:`~repro.ft.inject.KillPlan` (offsets in the completion stream, so the
same plan strikes the same program point on every backend), which is what
makes cells comparable: ``reliable`` pays rollback + re-execution for a
bit-exact result, ``best_effort`` keeps survivors running and pays in result
quality, ``multilevel`` keeps upper-level copies for rare catastrophic
failures while moving only dirty bytes.

The report is canonical JSON — byte-identical across re-runs, executors and
backends — gated by :func:`check_invariants`.  Plan entropy is ``(seed,
trial)`` only: no sweep axis is passed to the shared seed rule.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from itertools import product

import numpy as np

from repro.api.policy import FaultTolerancePolicy
from repro.errors import QosError
from repro.experiment import check_names, plan_entropy, report_json, run_grid
from repro.ft.inject import KillPlan
from repro.qos.delivery import _COUNTER_FIELDS, BestEffort
from repro.registry import is_registered
from repro.simulator.costs import cray_xe6_like
from repro.study.workloads import Workload, make_workload
from repro.trace.tracer import trace_label

__all__ = [
    "QosSpec",
    "quick_spec",
    "run_qos",
    "report_json",
    "check_invariants",
]

#: ``qos.*`` counters carried into every trial record (every event
#: :meth:`~repro.qos.delivery.DeliveryMode.count` accepts).
_QOS_COUNTERS = tuple(f"qos.{name}" for name in _COUNTER_FIELDS)


@dataclass(frozen=True)
class QosSpec:
    """Declarative description of one QoS comparison sweep.

    Attributes
    ----------
    workload:
        Registry name of the kernel under test.  The default ``"kv"``
        (sparse random-access updates) is the shape where incremental
        checkpoints and stale reads are both meaningful.
    deliveries / stores / backends:
        The sweep axes (registry names).  Every ``(backend, store)`` pair
        runs every delivery mode against the same kill plans.
    kills:
        Fail-stop events injected per trial (completion-stream offsets drawn
        from the trial seed).
    trials:
        Independently-seeded kill plans per cell.
    seed:
        Master seed; trial plans and best-effort drop decisions derive from it.
    interval:
        Coordinated-checkpoint interval in steps (fixed, so every cell
        checkpoints identically).
    stale_fraction:
        Probability a tolerated get serves stale checkpoint data instead of
        dropping (see :class:`~repro.qos.delivery.BestEffort`).
    workload_params:
        Constructor overrides for the workload, e.g. ``{"steps": 12}``.
    """

    workload: str = "kv"
    deliveries: tuple[str, ...] = ("reliable", "best_effort")
    stores: tuple[str, ...] = ("memory", "multilevel")
    backends: tuple[str, ...] = ("sim",)
    kills: int = 1
    trials: int = 2
    seed: int = 0
    nprocs: int = 8
    procs_per_node: int = 2
    interval: int = 4
    keep_versions: int = 2
    stale_fraction: float = 0.5
    workload_params: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for axis in ("deliveries", "stores", "backends"):
            if not getattr(self, axis):
                raise QosError(f"qos sweep axis {axis!r} is empty")
        check_names(
            (
                ("workload", (self.workload,)),
                ("delivery", self.deliveries),
                ("store", self.stores),
                ("backend", self.backends),
            ),
            QosError, "qos spec",
        )
        if self.kills < 1:
            raise QosError("a qos comparison needs at least one injected kill")
        if self.trials < 1:
            raise QosError("a qos comparison needs at least one trial")
        if self.interval < 1:
            raise QosError("the checkpoint interval must be at least 1 step")
        if self.keep_versions < 1:
            raise QosError("keep_versions must be at least 1")
        if not 0.0 <= self.stale_fraction <= 1.0:
            raise QosError("stale_fraction must be in [0, 1]")
        if self.nprocs < 2 or self.procs_per_node < 1:
            raise QosError("qos sweeps need nprocs >= 2 and procs_per_node >= 1")


def quick_spec() -> QosSpec:
    """The tiny CI sweep: sparse kv updates, 2 stores × 2 deliveries.

    Small enough to run in seconds, yet every gate is live: the kill lands
    mid-run, ``multilevel`` takes several incremental captures, and
    best-effort both drops and serves stale data.
    """
    return QosSpec(
        backends=("sim", "proc") if is_registered("backend", "proc") else ("sim",),
        trials=1,
        interval=3,
        workload_params={"slots": 16, "updates_per_step": 4, "steps": 12},
    )


@dataclass(frozen=True)
class _Cell:
    """One point of the sweep."""

    backend: str
    store: str
    delivery: str

    @property
    def key(self) -> str:
        return f"{self.backend}/{self.store}/{self.delivery}"


def _cells(spec: QosSpec) -> list[_Cell]:
    return [
        _Cell(b, s, d)
        for b, s, d in product(spec.backends, spec.stores, spec.deliveries)
    ]


def _build_workload(spec: QosSpec) -> Workload:
    return make_workload(
        spec.workload, nprocs=spec.nprocs, **dict(spec.workload_params)
    )


def _plan_seed(spec: QosSpec, trial: int) -> int:
    """Per-trial kill-plan seed — a function of (master seed, trial) only, so
    every cell of the sweep faces the identical plan."""
    return int(plan_entropy(spec.seed, trial).generate_state(1)[0])


def _trial_plan(spec: QosSpec, trial: int, stream_ops: int) -> KillPlan:
    """The trial's kill plan, struck strictly mid-run.

    Offsets are drawn from the middle half of the failure-free completion
    stream: late enough that the phase-opening checkpoint committed, early
    enough that tolerated/recovered work remains in every delivery mode.
    """
    min_ops = max(2, stream_ops // 4)
    max_ops = max(min_ops + 2, stream_ops // 2)
    return KillPlan.seeded(
        _plan_seed(spec, trial),
        nprocs=spec.nprocs,
        max_ops=max_ops,
        kills=spec.kills,
        min_ops=min_ops,
    )


def _run_reference(args: tuple[QosSpec, str]) -> dict:
    """The failure-free, unprotected reference run of one backend."""
    spec, backend = args
    workload = _build_workload(spec)
    with trace_label(f"reference/{backend}"):
        run = workload.run(
            backend=backend, procs_per_node=spec.procs_per_node, cost_model=cray_xe6_like()
        )
    return {
        "digest": run.digest,
        "elapsed_s": run.report.elapsed,
        "result": run.result,
        "stream_ops": run.ops,
    }


def _run_cell_trial(args: tuple[QosSpec, _Cell, int, int, np.ndarray]) -> dict:
    """One (cell, trial) run against the trial's shared kill plan."""
    spec, cell, trial, stream_ops, reference_result = args
    workload = _build_workload(spec)
    plan = _trial_plan(spec, trial, stream_ops)
    if cell.delivery == "best_effort":
        # A fresh instance per run (modes bind to exactly one job), seeded by
        # the master seed so drop decisions replay identically everywhere.
        delivery = BestEffort(seed=spec.seed, stale_fraction=spec.stale_fraction)
    else:
        delivery = cell.delivery
    policy = FaultTolerancePolicy(
        interval=spec.interval,
        store=cell.store,
        keep_versions=spec.keep_versions,
        delivery=delivery,
    )
    # Label the session by cell and trial: a run-wide trace hub merges its
    # sessions in label order.
    with trace_label(f"{cell.backend}/{cell.store}/{cell.delivery}/t{trial}"):
        run = workload.run(
            ft=policy,
            backend=cell.backend,
            procs_per_node=spec.procs_per_node,
            cost_model=cray_xe6_like(),  # the machine the study campaign prices
            kill_plan=plan,
        )
    if run.aborted is not None:
        raise QosError(
            f"qos cell {cell.key} trial {trial}: the run aborted with {run.aborted}; "
            "its kill plan is beyond what the configuration recovers from"
        )
    totals = run.report.metrics.totals
    record = {
        "trial": trial,
        "digest": run.digest,
        "quality": workload.result_quality(run.result, reference_result),
        "elapsed_s": run.report.elapsed,
        "recoveries": run.report.recoveries,
        "checkpoints": run.report.checkpoints,
        "checkpoint_bytes": int(totals.get("ft.checkpoint_bytes", 0)),
        "restored_bytes": int(totals.get("ft.restored_bytes", 0)),
        "multilevel_moved_bytes": int(totals.get("ft.multilevel_moved_bytes", 0)),
        "multilevel_full_bytes": int(totals.get("ft.multilevel_full_bytes", 0)),
    }
    for name in _QOS_COUNTERS:
        record[name.replace("qos.", "", 1)] = int(totals.get(name, 0))
    record["tolerated_ops"] = (
        record["dropped_puts"]
        + record["dropped_gets"]
        + record["stale_reads"]
        + record["dropped_syncs"]
    )
    return record


def _summarize_cell(cell: _Cell, trials: list[dict]) -> dict:
    n = len(trials)
    summary: dict = {
        "backend": cell.backend,
        "store": cell.store,
        "delivery": cell.delivery,
        "mean_elapsed_s": sum(t["elapsed_s"] for t in trials) / n,
        "mean_quality": sum(t["quality"] for t in trials) / n,
        "min_quality": min(t["quality"] for t in trials),
        "recoveries": sum(t["recoveries"] for t in trials),
        "repairs": sum(t["repairs"] for t in trials),
        "tolerated_ops": sum(t["tolerated_ops"] for t in trials),
        "checkpoint_bytes": sum(t["checkpoint_bytes"] for t in trials),
        "multilevel_moved_bytes": sum(t["multilevel_moved_bytes"] for t in trials),
        "multilevel_full_bytes": sum(t["multilevel_full_bytes"] for t in trials),
        "trials": trials,
    }
    return summary


def run_qos(
    spec: QosSpec,
    *,
    executor: str = "serial",
    max_workers: int | None = None,
) -> dict:
    """Run the full delivery × store sweep and return the report document.

    Every trial is an isolated deterministic session, so the ``"serial"``
    (default) and ``"process"`` executors produce byte-identical reports.
    """
    cells = _cells(spec)
    dispatch = partial(
        run_grid, executor=executor, max_workers=max_workers, error=QosError
    )
    references = dict(zip(
        spec.backends,
        dispatch(_run_reference, [(spec, b) for b in spec.backends]),
    ))
    # The completion stream is contractually identical across backends;
    # using one backend's count for every plan keeps the plans shared.
    stream_ops = references[spec.backends[0]]["stream_ops"]
    tasks = [
        (spec, cell, trial, stream_ops, references[cell.backend]["result"])
        for cell in cells
        for trial in range(spec.trials)
    ]
    records = dispatch(_run_cell_trial, tasks)

    report: dict = {
        "meta": {
            "engine": "repro.qos",
            "workload": spec.workload,
            "seed": spec.seed,
            "trials": spec.trials,
            "kills": spec.kills,
            "nprocs": spec.nprocs,
            "procs_per_node": spec.procs_per_node,
            "interval": spec.interval,
            "stale_fraction": spec.stale_fraction,
            "deliveries": list(spec.deliveries),
            "stores": list(spec.stores),
            "backends": list(spec.backends),
            "workload_params": dict(spec.workload_params),
        },
        "reference": {
            backend: {
                "digest": ref["digest"],
                "elapsed_s": ref["elapsed_s"],
                "stream_ops": ref["stream_ops"],
            }
            for backend, ref in references.items()
        },
        "cells": {},
    }
    for idx, cell in enumerate(cells):
        trials = records[idx * spec.trials : (idx + 1) * spec.trials]
        report["cells"][cell.key] = _summarize_cell(cell, trials)
    return report


# ----------------------------------------------------------------------
# Gates
# ----------------------------------------------------------------------
def check_invariants(report: dict) -> list[str]:
    """The trade-off's defining inequalities; returns violations.

    * **Reliable is exact** — every ``reliable`` trial scores quality exactly
      ``1.0`` (rollback recovery is bit-identical to the failure-free run).
    * **Best effort is faster** — for every (backend, store, trial) pair run
      under the identical kill plan, the ``best_effort`` makespan is strictly
      below ``reliable``'s (survivors never stall or re-execute).
    * **Incremental moves fewer bytes** — every ``multilevel`` cell that
      captured ships strictly fewer bytes to its upper levels than the full
      mirrors it maintains.
    * **Backends agree** — the same (store, delivery, trial) produces the
      same digest and the same tolerated-operation counts on every backend.
    """
    failures: list[str] = []
    cells = report["cells"]

    for key in sorted(cells):
        cell = cells[key]
        if cell["delivery"] == "reliable":
            for t in cell["trials"]:
                if t["quality"] != 1.0:
                    failures.append(
                        f"{key} trial {t['trial']}: reliable delivery scored "
                        f"quality {t['quality']!r}, expected exactly 1.0"
                    )
        if cell["store"] == "multilevel":
            moved = cell["multilevel_moved_bytes"]
            full = cell["multilevel_full_bytes"]
            if full == 0:
                failures.append(f"{key}: multilevel store never captured")
            elif moved >= full:
                failures.append(
                    f"{key}: incremental captures moved {moved} bytes, not "
                    f"strictly fewer than the {full} full mirrors hold"
                )

    by_pair: dict[tuple, dict[str, dict]] = {}
    for cell in cells.values():
        pair = (cell["backend"], cell["store"])
        by_pair.setdefault(pair, {})[cell["delivery"]] = cell
    for pair, group in sorted(by_pair.items()):
        reliable, tolerant = group.get("reliable"), group.get("best_effort")
        if not reliable or not tolerant:
            continue
        for rt, bt in zip(reliable["trials"], tolerant["trials"]):
            if bt["elapsed_s"] >= rt["elapsed_s"]:
                failures.append(
                    f"{'/'.join(pair)} trial {rt['trial']}: best_effort "
                    f"makespan {bt['elapsed_s']:.6g}s is not strictly below "
                    f"reliable's {rt['elapsed_s']:.6g}s under the same kill plan"
                )

    by_config: dict[tuple, dict[str, dict]] = {}
    for cell in cells.values():
        config = (cell["store"], cell["delivery"])
        by_config.setdefault(config, {})[cell["backend"]] = cell
    for config, group in sorted(by_config.items()):
        backends = sorted(group)
        if len(backends) < 2:
            continue
        first = group[backends[0]]
        for other_name in backends[1:]:
            other = group[other_name]
            for ft, ot in zip(first["trials"], other["trials"]):
                if ft["digest"] != ot["digest"]:
                    failures.append(
                        f"{'/'.join(config)} trial {ft['trial']}: digest "
                        f"differs between {backends[0]} and {other_name}"
                    )
                if ft["tolerated_ops"] != ot["tolerated_ops"]:
                    failures.append(
                        f"{'/'.join(config)} trial {ft['trial']}: tolerated "
                        f"ops differ between {backends[0]} "
                        f"({ft['tolerated_ops']}) and {other_name} "
                        f"({ot['tolerated_ops']})"
                    )
    return failures
