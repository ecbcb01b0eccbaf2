"""Fault-tolerant 1-D heat stencil, driven through the workload catalog.

The stencil itself — an SPMD Jacobi iteration whose kernel contains **no**
fault-tolerance code at all — lives in the registry-resolved workload catalog
as :class:`repro.study.workloads.HeatStencil` (``"stencil"``), where the
resilience-study engine (``python -m repro.study``) can sweep it.  This
example drives that catalog entry through the declarative session API and
demonstrates the paper's transparency claim end to end:

* a run recovering injected fail-stop failures finishes with a final
  temperature field **bit-identical** to a failure-free run (global rollback,
  demand checkpoints, every backend, every checkpoint store);
* localized (log-based) recovery matches the global rollback bit for bit
  while restoring only the failed ranks;
* ``interval="auto"`` resolves the checkpoint interval through the analytic
  Young/Daly model instead of a hand-picked constant;
* a degraded continuation survives without bit-identity (availability over
  precision).

Run with::

    PYTHONPATH=src python examples/heat_stencil_ft.py
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro
from repro.ft import exponential_schedule
from repro.study.workloads import HeatStencil


@dataclass
class StencilResult:
    """Outcome of one stencil run."""

    field: np.ndarray
    iterations_executed: int
    recoveries: int
    checkpoints: int
    elapsed: float
    resolved_interval: int | None = None

    def describe(self) -> str:
        return (
            f"{self.iterations_executed} iterations executed, "
            f"{self.checkpoints} checkpoints, {self.recoveries} recoveries, "
            f"makespan {self.elapsed * 1e3:.3f} ms (virtual)"
        )


def run_stencil(
    *,
    nprocs: int = 8,
    n_local: int = 32,
    iters: int = 60,
    ckpt_interval: int | str | None = 10,
    procs_per_node: int = 2,
    failures: repro.KillPlan | None = None,
    demand_threshold_bytes: int | None = None,
    buddy_level: int = 1,
    backend: str = "sim",
    store: str = "memory",
    recovery: str = "global",
    failure_rates: dict[int, float] | None = None,
) -> StencilResult:
    """Run the catalog stencil to completion; the session recovers failures."""
    workload = HeatStencil(nprocs=nprocs, n_local=n_local, iters=iters)
    policy = repro.FaultTolerancePolicy(
        interval=ckpt_interval,
        demand_threshold_bytes=demand_threshold_bytes,
        buddy_level=buddy_level,
        store=store,
        recovery=recovery,
        failure_rates=failure_rates,
    )
    run = workload.run(
        ft=policy,
        failures=failures,
        backend=backend,
        procs_per_node=procs_per_node,
    )
    return StencilResult(
        field=run.result,
        iterations_executed=run.report.steps_executed,
        recoveries=run.report.recoveries,
        checkpoints=run.report.checkpoints,
        elapsed=run.report.elapsed,
        resolved_interval=run.resolved_interval,
    )


def main() -> None:
    nprocs, n_local, iters = 8, 32, 60

    baseline = run_stencil(nprocs=nprocs, n_local=n_local, iters=iters)
    print(f"failure-free run : {baseline.describe()}")

    # Exponential fail-stop plan over the failure-free makespan: node-level
    # kills (level 1) timed by a Poisson process, as in the paper's §7.1.
    schedule = exponential_schedule(
        horizon=baseline.elapsed,
        rates_per_level={1: 2.0 / baseline.elapsed},
        max_index_per_level={1: -(-nprocs // 2)},
        seed=7,
    )
    print(f"injected failures: {[ev.describe() for ev in schedule]}")
    recovered = run_stencil(
        nprocs=nprocs, n_local=n_local, iters=iters, failures=schedule
    )
    print(f"recovered run    : {recovered.describe()}")

    identical = np.array_equal(baseline.field, recovered.field)
    print(f"final fields bit-identical: {identical}")
    if not identical:
        raise SystemExit(1)

    demand = run_stencil(
        nprocs=nprocs,
        n_local=n_local,
        iters=iters,
        ckpt_interval=iters,  # only the initial coordinated checkpoint
        demand_threshold_bytes=256,
        failures=schedule,
    )
    print(f"demand-ckpt run  : {demand.describe()}")
    assert np.array_equal(baseline.field, demand.field)

    # interval="auto": the session resolves the periodic interval through the
    # analytic Young/Daly model from the declared failure rates, the store's
    # checkpoint cost and the measured step cost — and still recovers
    # bit-identically.
    auto = run_stencil(
        nprocs=nprocs, n_local=n_local, iters=iters,
        ckpt_interval="auto",
        failure_rates={1: 2.0 / baseline.elapsed},
        failures=schedule,
    )
    print(f"auto-interval run: {auto.describe()} (resolved interval: {auto.resolved_interval})")
    assert auto.resolved_interval is not None
    assert np.array_equal(baseline.field, auto.field)

    # The vector backend applies the nonblocking halo puts as coalesced writes
    # at the gsync — with and without failures the final field must match the
    # per-op sim backend bit for bit.
    for sched, label in ((None, "failure-free"), (schedule, "with failures")):
        vector = run_stencil(
            nprocs=nprocs, n_local=n_local, iters=iters,
            failures=sched, backend="vector",
        )
        reference = baseline if sched is None else recovered
        identical = np.array_equal(reference.field, vector.field)
        print(f"vector backend {label}: bit-identical to sim = {identical}")
        if not identical:
            raise SystemExit(1)

    # Localized (log-based) recovery restores only the failed ranks and
    # replays the put/get log; survivors keep their state.  The final field
    # must still match the global rollback bit for bit — on every backend and
    # on every checkpoint store.  Each store has its own cost profile (disk
    # checkpoints are PFS-slow), so the fail-stop time is scaled to a
    # store-specific failure-free makespan to land mid-run everywhere.
    for store in ("memory", "disk", "parity"):
        store_free = run_stencil(
            nprocs=nprocs, n_local=n_local, iters=iters, store=store,
        )
        store_schedule = repro.KillPlan.single(3, time=store_free.elapsed * 0.6)
        for backend in ("sim", "vector"):
            rolled = run_stencil(
                nprocs=nprocs, n_local=n_local, iters=iters,
                failures=store_schedule, backend=backend, store=store,
                recovery="global",
            )
            localized = run_stencil(
                nprocs=nprocs, n_local=n_local, iters=iters,
                failures=store_schedule, backend=backend, store=store,
                recovery="localized",
            )
            identical = np.array_equal(rolled.field, localized.field) and (
                np.array_equal(baseline.field, localized.field)
            )
            print(
                f"localized recovery ({backend}/{store}): bit-identical to "
                f"global rollback = {identical}"
            )
            if not identical:
                raise SystemExit(1)

    # Real processes, real kills: on platforms with fork + POSIX shared
    # memory, the same catalog entry runs with every rank a real OS process
    # over shared-memory windows, and the fault is a real SIGKILL delivered
    # mid-run.  Timed by completion-stream position, the same kill strikes
    # the exception-injected sim run at the same program point — and every
    # (store x recovery) cell must finish bit-identical to it.
    if repro.proc_available():
        plan = repro.KillPlan.single(rank=3, after_ops=120)
        for store in ("memory", "disk", "parity"):
            for recovery in ("global", "localized"):
                simulated = run_stencil(
                    nprocs=nprocs, n_local=n_local, iters=iters,
                    backend="sim", store=store, recovery=recovery,
                    failures=plan,
                )
                killed = run_stencil(
                    nprocs=nprocs, n_local=n_local, iters=iters,
                    backend="proc", store=store, recovery=recovery,
                    failures=plan,
                )
                identical = killed.recoveries >= 1 and (
                    np.array_equal(simulated.field, killed.field)
                    and np.array_equal(baseline.field, killed.field)
                )
                print(
                    f"real SIGKILL (proc/{store}/{recovery}): bit-identical "
                    f"to simulated kill = {identical}"
                )
                if not identical:
                    raise SystemExit(1)
    else:  # pragma: no cover - platform dependent
        print("real-process backend unavailable here; skipping SIGKILL runs")

    # Best-effort degraded continuation: the failed ranks are excised and the
    # survivors keep computing on the shrunk membership — no bit-identity
    # (the excised ranks' cells decay towards the zeroed ghost values), but
    # the job finishes and the surviving field stays finite.
    degraded = run_stencil(
        nprocs=nprocs, n_local=n_local, iters=iters,
        failures=schedule, recovery="degraded",
    )
    print(f"degraded run     : {degraded.describe()}")
    assert degraded.iterations_executed >= iters
    assert np.isfinite(degraded.field).all()


if __name__ == "__main__":
    main()
