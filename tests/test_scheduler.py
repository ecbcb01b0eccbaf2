"""Determinism of the cooperative scheduler (:mod:`repro.api.scheduler`).

The schedule must be a pure function of (kernel, policy, seed, failure
schedule): two identical launches produce identical
:class:`~repro.rma.ordering.OrderRecorder` traces and identical per-rank
virtual clocks — with and without injected failures.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.api import RankContext
from repro.ft import KillEvent, KillPlan
from repro.rma import OrderRecorder

NPROCS = 6
N_LOCAL = 8
STEPS = 18
SEED = 5


def _kernel(ctx: RankContext, step: int):
    """A mixed workload: halo puts, a collective, atomics, seeded randomness."""
    u = ctx.win("u")
    mine = u.local
    right = (ctx.rank + 1) % ctx.nranks
    u[right, 0] = mine[1]
    yield ctx.gsync()
    mine[1:] = mine[1:] * 0.5 + mine[0]
    rng = np.random.default_rng((SEED, step, ctx.rank))
    slot = int(rng.integers(0, N_LOCAL))
    ctx.lock(right)
    ctx.fetch_and_op(right, "u", slot, float(rng.integers(1, 5)))
    ctx.unlock(right)
    ctx.compute(3.0 * N_LOCAL)


def _run(failures: KillPlan | None):
    """One recorded run; returns (trace signature, per-rank clocks, field)."""
    with repro.launch(
        NPROCS,
        ft=repro.FaultTolerancePolicy(interval=4, demand_threshold_bytes=4096),
        failures=failures,
    ) as job:
        recorder = OrderRecorder()
        job.runtime.add_interceptor(recorder)
        job.allocate("u", N_LOCAL)
        for ctx in job.contexts:
            ctx.local("u")[:] = np.arange(N_LOCAL) + ctx.rank
        job.run(_kernel, steps=STEPS)
        # Determinants minus the process-global `seq` counter (it keeps
        # growing across runs in the same process).
        trace = [action.determinant()[:-1] for action in recorder.events]
        clocks = [job.cluster.now(rank) for rank in range(NPROCS)]
        field = job.gather("u")
    return trace, clocks, field


def _failure_plan() -> KillPlan:
    return KillPlan([KillEvent(time=2.0e-4, rank=2), KillEvent(time=3.5e-4, rank=4)])


@pytest.mark.parametrize(
    "schedule_factory",
    [lambda: None, _failure_plan],
    ids=["failure-free", "with-failures"],
)
def test_identical_runs_produce_identical_traces_and_clocks(schedule_factory):
    trace_a, clocks_a, field_a = _run(schedule_factory())
    trace_b, clocks_b, field_b = _run(schedule_factory())
    assert len(trace_a) > 0
    assert trace_a == trace_b
    assert clocks_a == clocks_b
    assert np.array_equal(field_a, field_b)


def test_failure_run_replays_to_the_same_field():
    """Failures change the trace (rollback + replay) but never the answer."""
    trace_free, _, field_free = _run(None)
    trace_fail, _, field_fail = _run(_failure_plan())
    assert np.array_equal(field_free, field_fail)
    assert len(trace_fail) > len(trace_free)  # replayed actions were recorded


def test_rank_order_is_ascending_within_each_phase():
    order: list[int] = []

    def kernel(ctx, step):
        order.append(ctx.rank)
        yield ctx.gsync()
        order.append(ctx.rank + 100)

    with repro.launch(4) as job:
        job.allocate("u", 2)
        job.run(kernel, steps=1)
    assert order == [0, 1, 2, 3, 100, 101, 102, 103]
