"""Kill-timing stress tests: SIGKILL at every awkward moment, zero residue.

A fault injector that only ever strikes at friendly points proves little.
This sweep kills real worker processes at seeded completion-stream offsets —
inside put bursts, while locks are held, exactly at checkpoint-commit
boundaries, mid-batch, and during an ongoing recovery — and demands two
things every time: the run still finishes bit-identical to the failure-free
reference, and nothing leaks (no orphan processes, no stale /dev/shm
segments; the ``proc_hygiene`` fixture asserts both after every test).
"""

import numpy as np
import pytest

import repro
from repro.backends.proc import ProcBackend, proc_available
from repro.errors import FailureScheduleError, WatchdogError
from repro.ft.inject import FaultInjector, KillKind, KillPlan
from repro.study import make_workload

pytestmark = [
    pytest.mark.skipif(
        not proc_available(), reason="proc backend needs fork + POSIX shared memory"
    ),
    pytest.mark.usefixtures("proc_hygiene"),
]

STENCIL = dict(nprocs=4, n_local=8, iters=12)
KV = dict(nprocs=4, slots=8, updates_per_step=4, steps=8)

_reference = {}


def reference_digest(name, params):
    if name not in _reference:
        _reference[name] = make_workload(name, **params).run().digest
    return _reference[name]


def _killed(name, params, plan, *, interval=3, store="memory", recovery="global"):
    ft = repro.FaultTolerancePolicy(interval=interval, store=store, recovery=recovery)
    return make_workload(name, **params).run(ft=ft, backend="proc", failures=plan)


# ---------------------------------------------------------------------------
# Seeded offset sweep (put bursts, arbitrary stream positions)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(5))
def test_seeded_kill_sweep_recovers_bit_identical(seed):
    # The stencil run completes ~72 comm ops; each seed draws a different
    # (offset, victim) pair, most of them inside the halo-exchange put bursts.
    plan = KillPlan.seeded(seed, nprocs=4, max_ops=70, kills=1, min_ops=2)
    run = _killed("stencil", STENCIL, plan)
    assert run.report.recoveries >= 1
    assert run.digest == reference_digest("stencil", STENCIL)


def test_seeded_plans_are_reproducible():
    a = KillPlan.seeded(7, nprocs=4, max_ops=50, kills=3)
    b = KillPlan.seeded(7, nprocs=4, max_ops=50, kills=3)
    assert a.events == b.events
    assert len(a) == 3 and all(e.kind is KillKind.POD_KILL for e in a)
    with pytest.raises(FailureScheduleError):
        KillPlan.seeded(7, nprocs=0, max_ops=50)
    with pytest.raises(FailureScheduleError):
        KillPlan.seeded(7, nprocs=4, max_ops=1)
    with pytest.raises(FailureScheduleError):
        KillPlan.single(rank=1, after_ops=0)  # before the opening checkpoint


# ---------------------------------------------------------------------------
# Kills at checkpoint-commit boundaries
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("boundary_ops", [18, 36, 54])
def test_kill_at_checkpoint_commit_boundary(boundary_ops):
    # 6 comm ops per stencil step and interval=3 put a checkpoint commit at
    # every 18-op boundary; the kill fires on the boundary's last completion,
    # so detection races the commit exactly as a real machine would.
    plan = KillPlan.single(rank=1, after_ops=boundary_ops)
    run = _killed("stencil", STENCIL, plan)
    assert run.report.recoveries >= 1
    assert run.digest == reference_digest("stencil", STENCIL)


# ---------------------------------------------------------------------------
# Kills while locks are held (the kv workload is lock-protected throughout)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("after_ops", [3, 17, 64, 101])
def test_kill_under_lock_traffic_recovers(after_ops):
    plan = KillPlan.single(rank=2, after_ops=after_ops)
    run = _killed("kv", KV, plan, interval=2)
    assert run.report.recoveries >= 1
    assert run.digest == reference_digest("kv", KV)


# ---------------------------------------------------------------------------
# A second kill during the recovery itself
# ---------------------------------------------------------------------------
def test_kill_during_recovery_is_survived():
    workload = make_workload("stencil", **STENCIL)
    ft = repro.FaultTolerancePolicy(interval=3)
    with repro.launch(
        4,
        topology=repro.Topology(procs_per_node=2),
        ft=ft,
        sync_each_step=False,
        backend="proc",
    ) as job:
        workload.setup(job)
        # First kill mid-run; the second strikes rank 2's *replacement*
        # worker the moment recovery respawns it.
        injector = FaultInjector(KillPlan.single(rank=2, after_ops=20), kill_on_respawn=1)
        job.runtime.add_interceptor(injector)
        report = job.run(workload.kernel(), steps=workload.steps)
        result = workload.collect(job)
    assert len(injector.fired) == 2
    assert all(fired.real for fired in injector.fired)
    assert report.recoveries >= 1
    assert workload.digest(result) == reference_digest("stencil", STENCIL)


# ---------------------------------------------------------------------------
# Mid-batch deaths through a whole session (the arm_kill dispatch path)
# ---------------------------------------------------------------------------
def test_mid_batch_death_during_flush_recovers_bit_identical():
    # arm_kill makes the worker die *between two ops of one batch* — the
    # death is discovered by the dispatch itself (pipe EOF), not by the
    # injector's sentinel wait, covering the other detection route.
    workload = make_workload("stencil", **STENCIL)
    ft = repro.FaultTolerancePolicy(interval=3)
    with repro.launch(
        4,
        topology=repro.Topology(procs_per_node=2),
        ft=ft,
        sync_each_step=False,
        backend="proc",
    ) as job:
        workload.setup(job)
        backend = job.runtime.backend
        assert isinstance(backend, ProcBackend)
        backend.arm_kill(2, after_ops=9)
        report = job.run(workload.kernel(), steps=workload.steps)
        result = workload.collect(job)
    assert report.recoveries >= 1
    assert workload.digest(result) == reference_digest("stencil", STENCIL)


# ---------------------------------------------------------------------------
# Watchdog + teardown hygiene
# ---------------------------------------------------------------------------
def test_watchdog_abort_leaves_no_residue():
    # Wedge a worker, let the session watchdog abort the run, and rely on the
    # hygiene fixture to prove that even an aborted session tears down every
    # process and segment.
    with repro.launch(2, backend="proc", watchdog=0.3) as job:
        job.allocate("w", 8)
        backend = job.runtime.backend
        backend._workers[1].conn.send(("sleep", 1.0))  # test hook: wedge it

        def kernel(ctx, step):
            ctx.win("w").put_nb((ctx.rank + 1) % ctx.nranks, 0, [1.0])

        with pytest.raises(WatchdogError) as excinfo:
            job.run(kernel, steps=2)
        assert "vehicle: pid=" in str(excinfo.value)  # worker diagnostics


def test_aborted_session_cleans_up_after_unrecoverable_failure():
    # No FT policy: the kill surfaces to the caller; the context manager must
    # still reap workers and unlink segments.
    workload = make_workload("stencil", **STENCIL)
    with pytest.raises(repro.ReproError):
        workload.run(backend="proc", failures=KillPlan.single(rank=1, after_ops=10))
