"""Tests for the rank-centric session API (:mod:`repro.api`).

The acceptance bar: every example workload (stencil, ring allreduce,
key-value) runs through ``repro.launch`` with injected failures and finishes
bit-identical to its failure-free run, with no recovery logic in application
code.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import repro
from heat_stencil_ft import run_stencil
from kv_update_ft import expected_table, run_kv
from repro.errors import (
    PolicyError,
    ProcessFailedError,
    RecoveryError,
    SchedulerError,
    WindowError,
)
from repro.ft import FtStack, KillEvent, KillPlan, build_ft_stack
from repro.rma import RmaRuntime
from repro.simulator import Cluster
from ring_allreduce_ft import CHUNK, _initial_vector, run_allreduce

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


# ---------------------------------------------------------------------------
# Workloads: bit-identical with and without injected failures
# ---------------------------------------------------------------------------


def test_stencil_recovers_bit_identical():
    baseline = run_stencil(nprocs=8, n_local=16, iters=30)
    schedule = KillPlan([
        KillEvent(time=0.3 * baseline.elapsed, rank=2),
        KillEvent(time=0.7 * baseline.elapsed, rank=5),
    ])
    recovered = run_stencil(nprocs=8, n_local=16, iters=30, failures=schedule)
    assert recovered.recoveries >= 1
    assert recovered.iterations_executed > 30  # some steps were replayed
    assert np.array_equal(baseline.field, recovered.field)


def test_stencil_demand_checkpoints_recover_bit_identical():
    baseline = run_stencil(nprocs=8, n_local=16, iters=30)
    schedule = KillPlan.single(3, time=0.5 * baseline.elapsed)
    demand = run_stencil(
        nprocs=8,
        n_local=16,
        iters=30,
        ckpt_interval=30,  # only the initial periodic checkpoint
        demand_threshold_bytes=128,
        failures=schedule,
    )
    assert demand.recoveries >= 1
    assert np.array_equal(baseline.field, demand.field)


def test_ring_allreduce_recovers_bit_identical():
    nprocs = 8
    baseline = run_allreduce(nprocs=nprocs)
    expected = np.sum([_initial_vector(r, nprocs) for r in range(nprocs)], axis=0)
    assert baseline.vectors.shape == (nprocs, nprocs * CHUNK)
    assert np.allclose(baseline.vectors, expected[None, :])
    schedule = KillPlan([
        KillEvent(time=0.35 * baseline.elapsed, rank=3),
        KillEvent(time=0.7 * baseline.elapsed, rank=6),
    ])
    recovered = run_allreduce(nprocs=nprocs, failures=schedule)
    assert recovered.recoveries >= 1
    assert np.array_equal(baseline.vectors, recovered.vectors)


def test_kv_updates_recover_bit_identical():
    nprocs, steps, seed = 8, 16, 11
    baseline = run_kv(nprocs=nprocs, steps=steps, seed=seed)
    assert np.array_equal(baseline.table, expected_table(seed, nprocs, steps))
    schedule = KillPlan([
        KillEvent(time=0.3 * baseline.elapsed, rank=1),
        KillEvent(time=0.75 * baseline.elapsed, rank=4),
    ])
    recovered = run_kv(
        nprocs=nprocs, steps=steps, seed=seed, failures=schedule
    )
    assert recovered.recoveries >= 1
    assert recovered.demand_checkpoints >= 1
    assert np.array_equal(baseline.table, recovered.table)


def test_examples_contain_no_recovery_logic():
    """Transparency: application code has zero FT wiring or recovery calls."""
    forbidden = (
        "ProcessFailedError",
        "RecoveryManager",
        "CoordinatedCheckpointer",
        "ActionLog",
        "RmaRuntime",
        ".recover(",
        ".checkpoint(",
        "add_interceptor",
    )
    for example in sorted(EXAMPLES_DIR.glob("*.py")):
        source = example.read_text()
        for token in forbidden:
            assert token not in source, f"{example.name} contains {token!r}"


# ---------------------------------------------------------------------------
# Session semantics
# ---------------------------------------------------------------------------


def _fill(job: repro.Job, window: str, value_of) -> None:
    for ctx in job.contexts:
        ctx.local(window)[:] = value_of(ctx.rank)


def test_launch_without_ft_propagates_failures():
    def kernel(ctx, step):
        ctx.put((ctx.rank + 1) % ctx.nranks, "w", 0, np.ones(2))
        ctx.compute(1e4)

    with repro.launch(4, failures=KillPlan.single(2, time=1e-5)) as job:
        job.allocate("w", 8)
        with pytest.raises(ProcessFailedError):
            job.run(kernel, steps=50)


def test_step_boundary_failure_is_recovered_not_checkpoint_error():
    """A failure visible only at the step boundary still drives recovery."""
    tripped: list[bool] = []

    def kernel(ctx, step):
        ctx.local("w")[:] += 1.0
        if step == 1 and ctx.rank == ctx.nranks - 1 and not tripped:
            # The last rank of the step kills rank 0 as its final act: no
            # further action or sync runs this step (sync_each_step=False),
            # so only the next step-boundary hook can observe the failure.
            tripped.append(True)
            ctx._runtime.cluster.fail_rank(0)

    with repro.launch(
        4, ft=repro.FaultTolerancePolicy(interval=1), sync_each_step=False
    ) as job:
        job.allocate("w", 2)
        job.run(kernel, steps=3)
        assert job.report().recoveries == 1
        assert np.array_equal(job.gather("w"), np.full(8, 3.0))


def test_rank_and_buddy_loss_is_catastrophic():
    from repro.errors import CatastrophicFailure

    def kernel(ctx, step):
        ctx.compute(1e3)

    with repro.launch(4, ft=repro.FaultTolerancePolicy(interval=1)) as job:
        job.allocate("w", 4)
        job.run(kernel, steps=1)
        assert job.ft is not None
        buddy = job.ft.checkpointer.buddies[0]
        job.cluster.fail_rank(0)
        job.cluster.fail_rank(buddy)
        with pytest.raises(CatastrophicFailure):
            job.run(kernel, steps=1)


def test_multi_phase_run_never_rolls_back_into_previous_phase():
    """Each run() opens with a checkpoint, so recovery replays its own kernel."""

    def add_one(ctx, step):
        ctx.local("w")[:] += 1.0

    def run_phases(fail_in_second: bool) -> np.ndarray:
        tripped: list[bool] = []

        def triple(ctx, step):
            ctx.local("w")[:] *= 3.0
            if fail_in_second and step == 1 and ctx.rank == ctx.nranks - 1 and not tripped:
                tripped.append(True)
                ctx._runtime.cluster.fail_rank(1)

        policy = repro.FaultTolerancePolicy(interval=None)  # no periodic ckpts
        with repro.launch(4, ft=policy) as job:
            job.allocate("w", 2)
            job.run(add_one, steps=3)
            # Recovery in the second phase must roll back to the checkpoint
            # this run() opened — never into the add_one phase.
            job.run(triple, steps=3)
            assert job.report().recoveries == (1 if fail_in_second else 0)
            return job.gather("w")

    baseline = run_phases(fail_in_second=False)
    assert np.array_equal(baseline, np.full(8, 81.0))  # (0+1+1+1) * 3^3
    recovered = run_phases(fail_in_second=True)
    assert np.array_equal(baseline, recovered)


@pytest.mark.parametrize("recovery", ["global", "localized", "degraded"])
def test_a_failure_between_two_runs_never_restores_the_earlier_run(recovery):
    """A failure that surfaces before a run's opening checkpoint commits would roll
    back to the previous run's version: a restoring rule raises instead (the run
    used to gather 0.0 here, silently); a degraded continuation restores nothing."""

    def add_one(ctx, step):
        ctx.win("w").local[0] += 1.0

    def triple(ctx, step):
        ctx.win("w").local[0] *= 3.0

    policy = repro.FaultTolerancePolicy(interval=None, recovery=recovery)
    with repro.launch(4, ft=policy) as job:
        job.allocate("w", 1)
        job.run(add_one, steps=2)
        job.cluster.fail_rank(2)
        if recovery == "degraded":
            assert job.run(triple, steps=2).excised_ranks == 1
            assert list(job.gather("w")) == [18.0, 18.0, 0.0, 18.0]
            return
        with pytest.raises(RecoveryError, match="opening checkpoint") as raised:
            job.run(triple, steps=2)
        assert isinstance(raised.value.__cause__, ProcessFailedError)
        assert raised.value.__cause__.rank == 2


def test_session_takes_initial_checkpoint_with_interval_none():
    def kernel(ctx, step):
        ctx.compute(1e3)

    policy = repro.FaultTolerancePolicy(interval=None)
    with repro.launch(4, ft=policy) as job:
        job.allocate("w", 8)
        report = job.run(kernel, steps=5)
    assert report.checkpoints == 1  # exactly the initial one


def test_periodic_checkpoints_follow_the_interval():
    def kernel(ctx, step):
        ctx.compute(1e3)

    with repro.launch(4, ft=repro.FaultTolerancePolicy(interval=3)) as job:
        job.allocate("w", 8)
        report = job.run(kernel, steps=9)  # steps 0, 3, 6 checkpoint
    assert report.checkpoints == 3
    assert report.recoveries == 0


def test_job_report_counts_are_ints():
    def kernel(ctx, step):
        ctx.compute(1e3)

    with repro.launch(4, ft=repro.FaultTolerancePolicy(interval=2)) as job:
        job.allocate("w", 8)
        report = job.run(kernel, steps=4)
    assert isinstance(report.steps_executed, int)
    assert isinstance(report.checkpoints, int)
    assert isinstance(report.demand_checkpoints, int)
    assert isinstance(report.recoveries, int)
    assert "checkpoints" in report.describe()


def test_gather_concatenates_rank_major():
    with repro.launch(4) as job:
        job.allocate("w", 4)
        _fill(job, "w", lambda r: float(r))
        gathered = job.gather("w")
        assert np.array_equal(gathered, np.repeat(np.arange(4.0), 4))
        part = job.gather("w", part=slice(1, 3))
        assert np.array_equal(part, np.repeat(np.arange(4.0), 2))


def test_run_rejects_negative_steps():
    with repro.launch(2) as job:
        with pytest.raises(repro.ReproError):
            job.run(lambda ctx, step: None, steps=-1)


# ---------------------------------------------------------------------------
# RankContext and WindowHandle
# ---------------------------------------------------------------------------


def test_window_handle_get_put_slices_and_scalars():
    with repro.launch(2) as job:
        job.allocate("w", 8)
        ctx0, ctx1 = job.contexts
        w0 = ctx0.win("w")
        w0[1, 2:5] = np.array([1.0, 2.0, 3.0])  # put a slice into rank 1
        w0[1, 7] = 9.0  # put a scalar
        assert np.array_equal(job.local(1, "w"), [0, 0, 1, 2, 3, 0, 0, 9])
        assert np.array_equal(w0[1, 2:5], [1.0, 2.0, 3.0])  # get a slice
        assert w0[1, 7] == 9.0  # get a scalar
        assert w0[1, -1] == 9.0  # negative index resolves
        w1 = ctx1.win("w")
        w1.local[0] = 5.0  # local store, no runtime call
        assert job.local(1, "w")[0] == 5.0
        assert w1.size == 8


def test_window_handle_broadcasts_scalar_fill():
    with repro.launch(2) as job:
        job.allocate("w", 6)
        job.contexts[0].win("w")[1, 0:6] = 1.5
        assert np.array_equal(job.local(1, "w"), np.full(6, 1.5))


def test_window_handle_rejects_strided_and_empty_slices():
    with repro.launch(2) as job:
        job.allocate("w", 8)
        w = job.contexts[0].win("w")
        with pytest.raises(WindowError):
            w[1, 0:8:2]
        with pytest.raises(WindowError):
            w[1, 5:5]


def test_context_atomics_and_locks():
    with repro.launch(4) as job:
        job.allocate("w", 4)
        ctx = job.contexts[2]
        ctx.lock(0)
        previous = ctx.fetch_and_op(0, "w", 1, 5.0)
        ctx.unlock(0)
        assert previous == 0.0
        assert job.local(0, "w")[1] == 5.0
        old = ctx.compare_and_swap(0, "w", 1, 5.0, 7.0)
        assert old == 5.0 and job.local(0, "w")[1] == 7.0
        got = ctx.get_accumulate(0, "w", 1, np.array([1.0]))
        assert got[0] == 7.0 and job.local(0, "w")[1] == 8.0
        ctx.flush(0)
        ctx.flush_all()
        assert ctx.now() > 0.0


def test_plain_kernel_calling_collective_raises():
    def bad_kernel(ctx, step):
        ctx.gsync()  # not yielded — cannot suspend a plain function

    with repro.launch(2) as job:
        job.allocate("w", 4)
        with pytest.raises(SchedulerError, match="generator"):
            job.run(bad_kernel, steps=1)


def test_generator_kernel_yielding_foreign_value_raises():
    def bad_kernel(ctx, step):
        yield 42

    with repro.launch(2) as job:
        job.allocate("w", 4)
        with pytest.raises(SchedulerError, match="collective tokens"):
            job.run(bad_kernel, steps=1)


def test_mismatched_collectives_raise():
    def kernel(ctx, step):
        if ctx.rank == 0:
            yield ctx.barrier()
        else:
            yield ctx.gsync()

    with repro.launch(2) as job:
        job.allocate("w", 4)
        with pytest.raises(SchedulerError, match="mismatched"):
            job.run(kernel, steps=1)


def test_generator_kernel_multiple_collectives_per_step():
    order: list[tuple[int, str]] = []

    def kernel(ctx, step):
        order.append((ctx.rank, "a"))
        yield ctx.gsync()
        order.append((ctx.rank, "b"))
        yield ctx.barrier()
        order.append((ctx.rank, "c"))

    with repro.launch(3) as job:
        job.allocate("w", 4)
        job.run(kernel, steps=1)
    # Round-robin over ranks, phase by phase: all a's, then b's, then c's.
    assert order == [(r, p) for p in ("a", "b", "c") for r in range(3)]


# ---------------------------------------------------------------------------
# Policies and construction hooks
# ---------------------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(PolicyError):
        repro.FaultTolerancePolicy(interval=0)
    with pytest.raises(PolicyError):
        repro.FaultTolerancePolicy(demand_threshold_bytes=0)
    with pytest.raises(PolicyError):
        repro.FaultTolerancePolicy(buddy_level=0)
    with pytest.raises(PolicyError):
        repro.FaultTolerancePolicy(keep_versions=0)
    with pytest.raises(PolicyError):
        repro.Topology(procs_per_node=0)
    with pytest.raises(PolicyError):
        repro.Topology().build(0)


def test_build_ft_stack_wires_interceptors():
    runtime = RmaRuntime(Cluster.simple(4, procs_per_node=2))
    stack = build_ft_stack(runtime, demand_threshold_bytes=64)
    assert isinstance(stack, FtStack)
    assert stack.log is not None
    assert stack.checkpointer.demand_threshold_bytes == 64
    assert stack.store is stack.checkpointer.store
    assert len(runtime.interceptors) == 2
    stack.uninstall(runtime)
    assert len(runtime.interceptors) == 0


def test_low_level_api_still_importable_and_usable():
    """The old hand-wired path keeps working underneath the facade."""
    from repro.ft import CoordinatedCheckpointer, RecoveryManager

    cluster = Cluster.simple(4, procs_per_node=2)
    runtime = RmaRuntime(cluster)
    ckpt = CoordinatedCheckpointer(level=1)
    runtime.add_interceptor(ckpt)
    recovery = RecoveryManager(runtime, ckpt)
    runtime.win_allocate("u", 8)
    runtime.local(0, "u")[:] = 3.0
    ckpt.checkpoint(tag=0)
    cluster.fail_rank(1)
    with pytest.raises(ProcessFailedError):
        runtime.gsync()
    outcome = recovery.recover()
    assert outcome.kind == "rollback" and outcome.tag == 0
    assert np.array_equal(runtime.local(0, "u"), np.full(8, 3.0))
