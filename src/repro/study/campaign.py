"""Seeded Monte-Carlo resilience campaigns — the paper's §7 evaluation engine.

A campaign sweeps the full configuration space the repository exposes —
``{workload × backend × store × recovery × failure rate × interval}`` — and
runs each cell under ``trials`` independently-seeded stochastic
:func:`~repro.simulator.failures.exponential_schedule` fault loads, exactly
the methodology behind the paper's Figures 10/11: per-level exponential
failure processes scaled to the configuration's own failure-free makespan,
survival and bit-identity checked per trial, measured overhead reported next
to the analytic model's prediction (:mod:`repro.study.model`).

Seed rule, grid dispatch, serialisation and the baseline gate are the shared
:mod:`repro.experiment` core; what is the campaign's own is below: every
trial's schedule seed is ``(campaign seed, cell coordinates, trial index)`` —
the *recovery* coordinate excluded, so ``global`` and ``localized`` cells face
identical fault loads and their restored-bytes can be compared trial by trial
— and each trial runs its own single-threaded, virtual-time session, so the
report is **byte-identical** across executors (no wall-clock inside).
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from itertools import product

from repro.api.policy import FaultTolerancePolicy
from repro.errors import CampaignError
from repro.experiment import (
    baseline_gate,
    check_names,
    markdown_table,
    plan_entropy,
    report_json,
    run_grid,
)
from repro.simulator.costs import cray_xe6_like
from repro.simulator.failures import exponential_schedule
from repro.study.model import IntervalModel
from repro.study.workloads import Workload, make_workload
from repro.trace.tracer import trace_label

__all__ = [
    "CampaignSpec",
    "run_campaign",
    "report_json",
    "render_markdown",
    "check_invariants",
    "check_against_baseline",
    "quick_spec",
]


#: The sweep axes of a campaign, in grid order.
_AXES = ("workloads", "backends", "stores", "recoveries", "mean_failures", "intervals")


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of one Monte-Carlo resilience campaign.

    Attributes
    ----------
    workloads / backends / stores / recoveries:
        Registry names swept on each axis (see
        :func:`repro.registry.available`).
    mean_failures:
        Expected number of fail-stop events per failure-free makespan —
        each value ``m`` becomes a node-level exponential process of rate
        ``m / horizon`` (§7.1).  ``0`` probes the failure-free column.
    intervals:
        Checkpoint intervals swept: positive step counts and/or ``"auto"``
        (the analytic Young/Daly resolution).
    trials:
        Independently-seeded stochastic schedules per cell.
    seed:
        Campaign master seed; every trial seed derives from it.
    nprocs / procs_per_node:
        Job shape shared by every cell.
    workload_params:
        Optional per-workload constructor overrides, e.g.
        ``{"stencil": {"n_local": 16, "iters": 24}}``.
    """

    workloads: tuple[str, ...] = ("stencil", "allreduce")
    backends: tuple[str, ...] = ("sim",)
    stores: tuple[str, ...] = ("memory",)
    recoveries: tuple[str, ...] = ("global", "localized")
    mean_failures: tuple[float, ...] = (2.0,)
    intervals: tuple[int | str, ...] = ("auto",)
    trials: int = 4
    seed: int = 0
    nprocs: int = 8
    procs_per_node: int = 2
    workload_params: Mapping[str, Mapping[str, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for axis in _AXES:
            if not getattr(self, axis):
                raise CampaignError(f"campaign sweep axis {axis!r} is empty")
        check_names(
            (
                ("workload", self.workloads),
                ("backend", self.backends),
                ("store", self.stores),
                ("recovery", self.recoveries),
            ),
            CampaignError, "campaign spec",
        )
        for interval in self.intervals:
            if isinstance(interval, str):
                if interval != "auto":
                    raise CampaignError(
                        f"interval sweep entries must be positive ints or "
                        f"'auto', got {interval!r}"
                    )
            elif interval < 1:
                raise CampaignError("fixed intervals must be at least 1 step")
        if self.trials < 1:
            raise CampaignError("a campaign needs at least one trial per cell")
        if any(m < 0 for m in self.mean_failures):
            raise CampaignError("mean_failures entries must be non-negative")
        if self.nprocs < 2 or self.procs_per_node < 1:
            raise CampaignError("campaigns need nprocs >= 2 and procs_per_node >= 1")

    @property
    def nnodes(self) -> int:
        """Compute nodes of every cell's simulated machine."""
        return -(-self.nprocs // self.procs_per_node)


@dataclass(frozen=True)
class _Cell:
    """One point of the sweep, with its axis coordinates (for seeding)."""

    workload: str
    backend: str
    store: str
    recovery: str
    mean_failures: float
    interval: int | str
    coords: tuple[int, int, int, int, int]  # (wi, bi, si, mfi, ii) — no recovery!

    @property
    def key(self) -> str:
        interval = self.interval if isinstance(self.interval, str) else str(self.interval)
        return (
            f"{self.workload}/{self.backend}/{self.store}/{self.recovery}"
            f"/mf={self.mean_failures:g}/int={interval}"
        )


def _cells(spec: CampaignSpec) -> list[_Cell]:
    return [
        _Cell(w, b, s, r, mf, iv, (wi, bi, si, mfi, ii))
        for (wi, w), (bi, b), (si, s), r, (mfi, mf), (ii, iv) in product(
            enumerate(spec.workloads), enumerate(spec.backends), enumerate(spec.stores),
            spec.recoveries, enumerate(spec.mean_failures), enumerate(spec.intervals),
        )
    ]


def _trial_seed(spec: CampaignSpec, cell: _Cell, trial: int) -> int:
    """Deterministic per-trial schedule seed: campaign seed, the cell's axis
    coordinates and the trial index.  The recovery axis is *not* passed:
    paired ``global``/``localized`` cells draw identical schedules."""
    return int(plan_entropy(spec.seed, *cell.coords, trial).generate_state(1)[0])


def _build_workload(spec: CampaignSpec, name: str) -> Workload:
    params = dict(spec.workload_params.get(name, {}))
    return make_workload(name, nprocs=spec.nprocs, **params)


def _policy(cell: _Cell, rates: dict[int, float]) -> FaultTolerancePolicy:
    return FaultTolerancePolicy(
        interval=cell.interval,
        store=cell.store,
        recovery=cell.recovery,
        failure_rates=rates or None,
    )


# ----------------------------------------------------------------------
# Cell baseline and trial execution (module-level: picklable for processes)
# ----------------------------------------------------------------------
def _base_key(cell: _Cell) -> tuple:
    """The unprotected reference run depends only on these coordinates."""
    return (cell.workload, cell.backend)


def _ft_free_key(cell: _Cell) -> tuple:
    """The protected failure-free run additionally depends on the FT policy —
    but *not* on the recovery axis: protocols only act when a failure fires,
    so paired ``global``/``localized`` cells share one horizon (which is also
    what makes their identically-seeded fault loads identical in time)."""
    return (cell.workload, cell.backend, cell.store, cell.mean_failures, cell.interval)


def _run_base(args: tuple[CampaignSpec, _Cell]) -> dict:
    """The unprotected failure-free reference run of one ``_base_key`` group:
    the bit-exact reference digest and the overhead denominator."""
    spec, cell = args
    workload = _build_workload(spec, cell.workload)
    with trace_label(f"base/{cell.workload}/{cell.backend}"):
        base = workload.run(
            backend=cell.backend,
            procs_per_node=spec.procs_per_node,
            cost_model=cray_xe6_like(),
        )
    return {
        "reference_digest": base.digest,
        "base_elapsed_s": base.report.elapsed,
        "steps": workload.steps,
        "bytes_per_rank": base.bytes_per_rank,
    }


def _run_ft_free(args: tuple[CampaignSpec, _Cell, dict]) -> dict:
    """The protected failure-free run of one ``_ft_free_key`` group: the
    fault-load horizon (failures should land while *this* configuration is
    still computing) and the checkpointing-only overhead."""
    spec, cell, base = args
    workload = _build_workload(spec, cell.workload)
    rates0 = {1: cell.mean_failures / base["base_elapsed_s"]} if cell.mean_failures > 0 else {}
    with trace_label(f"ft-free/{'/'.join(map(str, _ft_free_key(cell)))}"):
        ft_free = workload.run(
            ft=_policy(cell, rates0),
            backend=cell.backend,
            procs_per_node=spec.procs_per_node,
            cost_model=cray_xe6_like(),
        )
    horizon = ft_free.report.elapsed
    rates = {1: cell.mean_failures / horizon} if cell.mean_failures > 0 else {}
    return {
        **base,
        "ft_free_elapsed_s": horizon,
        "ft_free_overhead": horizon / base["base_elapsed_s"] - 1.0,
        "ft_free_resolved_interval": ft_free.resolved_interval,
        "rates_per_level": rates,
    }


def _run_trial(args: tuple[CampaignSpec, _Cell, dict, int]) -> dict:
    """One stochastic trial of one cell, under its own seeded fault load."""
    spec, cell, baseline, trial = args
    workload = _build_workload(spec, cell.workload)
    rates = {int(k): v for k, v in baseline["rates_per_level"].items()}
    schedule = exponential_schedule(
        horizon=baseline["ft_free_elapsed_s"],
        rates_per_level=rates,
        max_index_per_level={1: spec.nnodes} if rates else {},
        seed=_trial_seed(spec, cell, trial),
    )
    record: dict = {
        "trial": trial,
        "events": [[ev.time, ev.level, ev.index] for ev in schedule],
    }
    # Label the session by cell and trial: a run-wide trace hub merges its
    # sessions in label order.
    with trace_label(f"{cell.key}/t{trial}"):
        run = workload.run(
            ft=_policy(cell, rates),
            failures=schedule,
            backend=cell.backend,
            procs_per_node=spec.procs_per_node,
            cost_model=cray_xe6_like(),
        )
    if run.aborted is not None:
        # The configuration could not carry this fault load (rank + buddy
        # lost, no usable version) — a legitimate campaign outcome.
        record.update(survived=False, failure=run.aborted)
        return record
    report = run.report
    record.update(
        survived=True,
        bit_identical=run.digest == baseline["reference_digest"],
        digest=run.digest,
        elapsed_s=report.elapsed,
        overhead=report.elapsed / baseline["base_elapsed_s"] - 1.0,
        steps_executed=report.steps_executed,
        checkpoints=report.checkpoints,
        demand_checkpoints=report.demand_checkpoints,
        recoveries=report.recoveries,
        localized_recoveries=report.localized_recoveries,
        recovery_fallbacks=report.recovery_fallbacks,
        excised_ranks=report.excised_ranks,
        checkpoint_bytes=int(report.metrics.total("ft.checkpoint_bytes")),
        restored_bytes=int(report.metrics.total("ft.restored_bytes")),
        resolved_interval=run.resolved_interval,
    )
    return record


def _run_trial_batch(args: tuple[CampaignSpec, _Cell, dict, int, int]) -> list[dict]:
    """Run a contiguous range of one cell's trials; return their records.

    Batching is what makes the process executor worth having: the
    ``(spec, cell, baseline)`` payload crosses the process boundary once per
    chunk instead of once per trial, and only the compact per-trial record
    dicts travel back.  Trials inside a chunk run in submission order, so the
    flattened result is byte-identical to the serial sweep.
    """
    spec, cell, baseline, start, stop = args
    return [_run_trial((spec, cell, baseline, trial)) for trial in range(start, stop)]


def _trial_batches(
    spec: CampaignSpec, cells: list[_Cell], baselines: list[dict], workers: int
) -> list[tuple[CampaignSpec, _Cell, dict, int, int]]:
    """Chunk every cell's trials into contiguous per-worker batches.

    One batch per cell is enough when there are at least as many cells as
    workers; with a wide pool and few cells each cell is split further so no
    worker sits idle.  Chunk boundaries never affect results — only how the
    identical trial sequence is sliced across dispatches.
    """
    cells_n = max(1, len(cells))
    chunks_per_cell = max(1, min(spec.trials, -(-workers // cells_n)))
    chunk = -(-spec.trials // chunks_per_cell)
    return [
        (spec, cell, baseline, start, min(start + chunk, spec.trials))
        for cell, baseline in zip(cells, baselines)
        for start in range(0, spec.trials, chunk)
    ]


def _summarize_cell(
    spec: CampaignSpec, cell: _Cell, baseline: dict, trials: list[dict]
) -> dict:
    """Aggregate one cell's trials and attach the analytic prediction."""
    surviving = [t for t in trials if t["survived"]]
    resolved = next(
        (t["resolved_interval"] for t in surviving
         if t.get("resolved_interval") is not None),
        baseline["ft_free_resolved_interval"],
    )
    # The same machine the sessions ran on, or predicted-vs-measured would
    # silently describe two different ones.
    model = IntervalModel(
        cost_model=cray_xe6_like(),
        nprocs=spec.nprocs,
        bytes_per_rank=baseline["bytes_per_rank"],
        store=cell.store,
        rates_per_level={int(k): v for k, v in baseline["rates_per_level"].items()},
    )
    step_seconds = baseline["base_elapsed_s"] / baseline["steps"]
    interval_used = resolved if cell.interval == "auto" else cell.interval

    def mean(key: str) -> float | None:
        return sum(t[key] for t in surviving) / len(surviving) if surviving else None

    return {
        "workload": cell.workload,
        "backend": cell.backend,
        "store": cell.store,
        "recovery": cell.recovery,
        "mean_failures": cell.mean_failures,
        "interval": cell.interval,
        "resolved_interval": resolved,
        "predicted_overhead": model.predicted_overhead(interval_used, step_seconds),
        "survival_rate": len(surviving) / len(trials),
        "bit_identical_rate": (
            sum(1 for t in surviving if t["bit_identical"]) / len(surviving)
            if surviving
            else 0.0
        ),
        "mean_measured_overhead": mean("overhead"),
        "mean_checkpoint_bytes": mean("checkpoint_bytes"),
        "mean_restored_bytes": mean("restored_bytes"),
        "recoveries": sum(t.get("recoveries", 0) for t in surviving),
        **{k: baseline[k] for k in (
            "reference_digest", "base_elapsed_s", "ft_free_elapsed_s",
            "ft_free_overhead", "rates_per_level",
        )},
        "trials": trials,
    }


def run_campaign(
    spec: CampaignSpec,
    *,
    executor: str = "serial",
    max_workers: int | None = None,
) -> dict:
    """Run the full campaign and return the structured report document.

    ``executor`` selects how cells' baselines and trials are dispatched:
    ``"serial"`` (default) or ``"process"`` — each trial is an isolated
    deterministic session, so both produce **byte-identical** reports (the
    e2e ``study_campaign`` workload times the serial one).
    Trials are submitted as contiguous per-cell chunks rather than one task
    per trial, so the process pool pickles each cell's payload once per chunk
    and receives only compact record dicts back.
    """
    cells = _cells(spec)
    dispatch = partial(
        run_grid, executor=executor, max_workers=max_workers, error=CampaignError
    )
    # Shared reference runs are computed once per *group*, not per cell: the
    # unprotected base depends only on (workload, backend), the protected
    # failure-free run additionally on store/rate/interval but not on the
    # recovery axis.
    base_groups: dict[tuple, _Cell] = {}
    for cell in cells:
        base_groups.setdefault(_base_key(cell), cell)
    bases = dict(zip(
        base_groups,
        dispatch(_run_base, [(spec, cell) for cell in base_groups.values()]),
    ))
    ff_groups: dict[tuple, _Cell] = {}
    for cell in cells:
        ff_groups.setdefault(_ft_free_key(cell), cell)
    baselines_by_key = dict(zip(
        ff_groups,
        dispatch(
            _run_ft_free,
            [
                (spec, cell, bases[_base_key(cell)])
                for cell in ff_groups.values()
            ],
        ),
    ))
    baselines = [baselines_by_key[_ft_free_key(cell)] for cell in cells]
    workers = 1 if executor == "serial" else max_workers or os.cpu_count() or 1
    trial_records = [
        record
        for batch in dispatch(
            _run_trial_batch, _trial_batches(spec, cells, baselines, workers)
        )
        for record in batch
    ]
    report: dict = {
        "meta": {
            "engine": "repro.study",
            "seed": spec.seed,
            "trials": spec.trials,
            "nprocs": spec.nprocs,
            "procs_per_node": spec.procs_per_node,
            **{axis: list(getattr(spec, axis)) for axis in _AXES},
            "workload_params": {k: dict(v) for k, v in spec.workload_params.items()},
        },
        "cells": {},
    }
    for idx, (cell, baseline) in enumerate(zip(cells, baselines)):
        trials = trial_records[idx * spec.trials : (idx + 1) * spec.trials]
        report["cells"][cell.key] = _summarize_cell(spec, cell, baseline, trials)
    return report


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def render_markdown(report: dict) -> str:
    """The campaign as a markdown summary table (a Figure 10/11-shaped artifact)."""
    def fmt(value: float | None, template: str) -> str:
        return "—" if value is None else template.format(value)

    rows = []
    for key in sorted(report["cells"]):
        cell = report["cells"][key]
        interval = cell["interval"]
        if interval == "auto":
            interval = f"auto→{cell['resolved_interval']}"
        rows.append((
            cell["workload"], cell["backend"], cell["store"], cell["recovery"],
            f"{cell['mean_failures']:g}", interval,
            f"{cell['survival_rate']:.0%}", f"{cell['bit_identical_rate']:.0%}",
            fmt(cell["mean_checkpoint_bytes"], "{:,.0f}"),
            fmt(cell["mean_restored_bytes"], "{:,.0f}"),
            fmt(cell["mean_measured_overhead"], "{:.2%}"),
            fmt(cell["predicted_overhead"], "{:.2%}"),
        ))
    return markdown_table(
        ("workload", "backend", "store", "recovery", "mean fails", "interval",
         "survival", "bit-identical", "ckpt bytes", "restored bytes",
         "overhead (measured)", "overhead (predicted)"),
        rows,
    )


# ----------------------------------------------------------------------
# Gates
# ----------------------------------------------------------------------
def check_invariants(report: dict) -> list[str]:
    """Protocol invariants every report must satisfy; returns violations.

    * **Localized restores strictly fewer bytes** — for every trial in which
      both the ``global`` and the ``localized`` cell of the same
      configuration (identical fault load by construction) survived *and*
      recovered, the localized trial must have restored strictly fewer bytes.
    * **Auto is competitive** — for every configuration swept with ``"auto"``
      plus at least one fixed interval, the auto cell's mean measured
      overhead must be within 2x of the best fixed interval's.
    """
    failures: list[str] = []
    cells = report["cells"]
    by_cfg: dict[tuple, dict[str, dict]] = {}
    by_auto: dict[tuple, dict] = {}
    for cell in cells.values():
        machine = (cell["workload"], cell["backend"], cell["store"])
        by_cfg.setdefault(
            (*machine, cell["mean_failures"], str(cell["interval"])), {}
        )[cell["recovery"]] = cell
        by_auto.setdefault(
            (*machine, cell["recovery"], cell["mean_failures"]), {}
        )[str(cell["interval"])] = cell
    for cfg, pair in sorted(by_cfg.items()):
        glob, loc = pair.get("global"), pair.get("localized")
        if not glob or not loc:
            continue
        for gt, lt in zip(glob["trials"], loc["trials"]):
            recovered = all(t["survived"] and t["recoveries"] > 0 for t in (gt, lt))
            if recovered and lt["restored_bytes"] >= gt["restored_bytes"]:
                failures.append(
                    f"{'/'.join(map(str, cfg))} trial {gt['trial']}: localized "
                    f"restored {lt['restored_bytes']} bytes, not strictly fewer "
                    f"than the global rollback's {gt['restored_bytes']}"
                )
    for cfg, group in sorted(by_auto.items()):
        auto = group.get("auto")
        fixed = [c for name, c in group.items() if name != "auto"]
        if auto is None or not fixed:
            continue
        auto_ov = auto["mean_measured_overhead"]
        fixed_ovs = [
            c["mean_measured_overhead"] for c in fixed
            if c["mean_measured_overhead"] is not None
        ]
        if auto_ov is None:
            failures.append(
                f"{'/'.join(map(str, cfg))}: no surviving trial in the "
                f"interval='auto' cell"
            )
            continue
        if not fixed_ovs:
            continue
        best = min(fixed_ovs)
        if best > 0 and auto_ov > 2.0 * best:
            failures.append(
                f"{'/'.join(map(str, cfg))}: auto interval overhead "
                f"{auto_ov:.4f} exceeds 2x the best fixed interval's {best:.4f}"
            )
    return failures


#: ``check_against_baseline(report, baseline, max_ratio=2.0)`` → failures:
#: deterministic integer outcomes (survival, recoveries, byte counts) must
#: match exactly; measured overheads may not regress past ``max_ratio``.
check_against_baseline = partial(
    baseline_gate,
    exact=("survival_rate", "bit_identical_rate", "recoveries",
           "mean_checkpoint_bytes", "mean_restored_bytes"),
    ratio=(("mean_measured_overhead", "measured overhead", "{:.4f}"),),
)


def quick_spec() -> CampaignSpec:
    """The tiny CI campaign: the default 2 workloads × 2 protocols × 4 trials.

    Small sizes keep the smoke run in seconds while still exercising
    ``interval="auto"`` against two fixed intervals (the 2x-competitiveness
    gate needs both) and the localized-vs-global restored-bytes invariant.
    """
    return CampaignSpec(
        intervals=("auto", 4, 12),
        workload_params={"stencil": {"n_local": 16, "iters": 36}},
    )
