"""The differential harness: real kills vs simulated failures, cell by cell.

The headline invariant of the real-process backend: for every
(workload x store x recovery) cell, a run whose victim rank is killed with a
real ``SIGKILL`` on ``backend="proc"`` finishes with the **same sha256 result
digest** as the exception-injected run on ``backend="sim"`` — and both match
the failure-free reference.  The kill is timed by completion-stream position
(:class:`~repro.ft.inject.KillPlan`), so it strikes at the same program point
on every backend; everything downstream (detection, rollback/replay,
re-execution) must then agree bit for bit.

Also here: the NODE_KILL taxonomy, the cross-backend regression test pinning
failure *surfacing* (exception types, messages, poisoned-handle behaviour) to
be identical on ``sim``, ``vector`` and ``proc``, and the ``Job.run``
watchdog.  Proc cells auto-skip on platforms without fork + POSIX shm.
"""

import time

import numpy as np
import pytest

import repro
from repro.backends.proc import proc_available
from repro.errors import OpHandleError, ProcessFailedError, WatchdogError
from repro.ft.inject import KillEvent, KillKind, KillPlan, install_injector
from repro.study import make_workload
from repro.trace import first_divergence, render_divergence, tracing

pytestmark = pytest.mark.usefixtures("proc_hygiene")

#: Per-workload differential cells: constructor params, the kill, and the
#: checkpoint interval.  Offsets are chosen mid-run (well past the initial
#: checkpoint, well before the last op) so every cell really recovers.
CELLS = {
    "stencil": (
        dict(nprocs=4, n_local=8, iters=12),
        dict(rank=2, after_ops=20),
        3,
    ),
    "allreduce": (
        dict(nprocs=4, chunk=4),
        dict(rank=2, after_ops=10),
        2,
    ),
    "kv": (
        dict(nprocs=4, slots=8, updates_per_step=4, steps=8),
        dict(rank=2, after_ops=40),
        3,
    ),
}

STORES = ["memory", "disk", "parity"]
RECOVERIES = ["global", "localized"]
PROC_SKIP = pytest.mark.skipif(
    not proc_available(), reason="proc backend needs fork + POSIX shared memory"
)
BACKENDS = ["sim", "vector", pytest.param("proc", marks=PROC_SKIP)]


def _killed_run(name, backend, store, recovery):
    params, kill, interval = CELLS[name]
    workload = make_workload(name, **params)
    ft = repro.FaultTolerancePolicy(interval=interval, store=store, recovery=recovery)
    return workload.run(ft=ft, backend=backend, failures=KillPlan.single(**kill))


# Failure-free sim references and killed-sim oracle cells, computed once per
# session (plain dicts, not fixtures: parametrized tests share them freely).
_reference = {}
_oracle = {}


def reference_digest(name):
    if name not in _reference:
        params, _, _ = CELLS[name]
        _reference[name] = make_workload(name, **params).run().digest
    return _reference[name]


def oracle_run(name, store, recovery):
    key = (name, store, recovery)
    if key not in _oracle:
        _oracle[key] = _killed_run(name, "sim", store, recovery)
    return _oracle[key]


# ---------------------------------------------------------------------------
# The grid
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("recovery", RECOVERIES)
@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("name", sorted(CELLS))
def test_killed_run_matches_exception_injected_oracle(name, store, recovery, backend):
    run = _killed_run(name, backend, store, recovery)
    oracle = oracle_run(name, store, recovery)
    # The kill really struck and was really recovered...
    assert run.report.recoveries >= 1
    assert run.report.metrics.total("inject.kills") == 1
    # ...the result is bit-identical to the failure-free reference...
    assert run.digest == reference_digest(name), (
        f"{name}/{store}/{recovery} on {backend}: recovered digest diverged "
        "from the failure-free reference — re-run both sides under "
        "repro.trace.tracing() and localize the first divergent event with "
        "`python -m repro.trace diff`"
    )
    # ...and the recovery trajectory is comparable to the sim oracle.
    assert run.report.recoveries == oracle.report.recoveries
    assert run.report.steps_executed == oracle.report.steps_executed
    assert run.report.checkpoints == oracle.report.checkpoints
    assert run.report.localized_recoveries == oracle.report.localized_recoveries


@pytest.mark.parametrize(
    "backend", ["vector", pytest.param("proc", marks=PROC_SKIP)]
)
def test_killed_run_trace_matches_sim_event_for_event(backend):
    """Stronger than digest parity: the *whole* canonical event stream agrees.

    A digest comparison proves the final answer matched; tracing the same
    killed cell on two backends and diffing proves every intermediate op,
    checkpoint, kill and recovery decision happened at the same virtual time
    in the same order.  When this breaks, the assertion message pinpoints the
    first divergent event instead of just saying "digests differ".
    """

    def traced_events(on_backend):
        params, kill, interval = CELLS["stencil"]
        workload = make_workload("stencil", **params)
        ft = repro.FaultTolerancePolicy(
            interval=interval, store="memory", recovery="localized"
        )
        with tracing() as hub:
            workload.run(
                ft=ft, backend=on_backend, failures=KillPlan.single(**kill)
            )
        return hub.events()

    reference = traced_events("sim")
    candidate = traced_events(backend)
    divergence = first_divergence(reference, candidate)
    assert divergence is None, (
        f"sim vs {backend} traces diverge:\n{render_divergence(divergence)}"
    )


@pytest.mark.parametrize("backend", ["sim", pytest.param("proc", marks=PROC_SKIP)])
def test_node_kill_takes_out_the_whole_node(backend):
    # procs_per_node=2 places ranks {2, 3} on node 1: a NODE_KILL of rank 2
    # must fell both, and the node-spread buddy copies (buddy_level=1) must
    # still recover the run to the failure-free result.
    params, _, interval = CELLS["stencil"]
    workload = make_workload("stencil", **params)
    plan = KillPlan([KillEvent(after_ops=20, rank=2, kind=KillKind.NODE_KILL)])
    ft = repro.FaultTolerancePolicy(interval=interval, store="memory", buddy_level=1)
    run = workload.run(ft=ft, backend=backend, failures=plan, procs_per_node=2)
    assert run.report.metrics.total("inject.kills") == 2
    assert run.report.metrics.per_rank["inject.kills"] == {2: 1, 3: 1}
    assert run.report.recoveries >= 1
    assert run.digest == reference_digest("stencil")


# ---------------------------------------------------------------------------
# Failure surfacing is one code path (exception identity across backends)
# ---------------------------------------------------------------------------
def _failure_surface(backend):
    """Kill rank 1 mid-run without FT and capture how the failure surfaces."""
    handles = []

    def kernel(ctx, step):
        handles.append(
            ctx.win("w").put_nb((ctx.rank + 1) % ctx.nranks, 0, [1.0 + step])
        )

    with repro.launch(4, backend=backend) as job:
        job.allocate("w", 8)
        install_injector(job, KillPlan.single(rank=1, after_ops=3))
        with pytest.raises(ProcessFailedError) as excinfo:
            job.run(kernel, steps=4)
        # Poison the survivors' issued-but-uncompleted operations, exactly as
        # a recovery rollback would.
        job.runtime.discard_pending()
        poisoned = []
        for handle in handles:
            if handle.discarded:
                with pytest.raises(OpHandleError) as op_exc:
                    handle.result()
                poisoned.append((handle.action.describe(), str(op_exc.value)))
    return type(excinfo.value).__name__, str(excinfo.value), poisoned


def test_failure_surfacing_is_identical_across_backends():
    reference = _failure_surface("sim")
    assert reference[0] == "ProcessFailedError"
    assert "fail-stop" in reference[1]
    assert _failure_surface("vector") == reference
    if proc_available():
        assert _failure_surface("proc") == reference


# ---------------------------------------------------------------------------
# The Job.run watchdog
# ---------------------------------------------------------------------------
def test_watchdog_converts_a_wedged_step_into_a_diagnosis():
    def stuck_kernel(ctx, step):
        if ctx.rank == 0 and step == 1:
            time.sleep(5.0)  # interrupted by the watchdog long before 5s

    with repro.launch(2, watchdog=0.2) as job:
        job.allocate("w", 4)
        with pytest.raises(WatchdogError) as excinfo:
            job.run(stuck_kernel, steps=3)
    message = str(excinfo.value)
    assert "watchdog" in message
    assert "rank 0" in message and "rank 1" in message  # per-rank dump


def test_watchdog_off_by_default_and_validated():
    with repro.launch(2) as job:
        assert job.watchdog is None
    with pytest.raises(repro.ReproError):
        repro.launch(2, watchdog=0.0)
    with pytest.raises(repro.ReproError):
        repro.launch(2, watchdog=-1.0)


def test_watchdog_disarms_after_run():
    # A run that finishes under the limit must leave no timer armed: sleeping
    # past the watchdog afterwards must not raise.
    with repro.launch(2, watchdog=0.5) as job:
        job.allocate("w", 4)
        job.run(lambda ctx, step: None, steps=2)
    time.sleep(0.6)
