"""Backends and the nonblocking operation API.

Covers the epoch semantics of :class:`~repro.rma.actions.OpHandle` (buffers
materialize only at flush/unlock/gsync), the counter transitions of the
completion points, the coalescing correctness of the vector backend, and the
bit-identity of recorded traces between ``SimBackend`` and ``VectorBackend``
with and without injected failures.
"""

import numpy as np
import pytest

import repro
from repro.backends import SimBackend, VectorBackend, make_backend
from repro.errors import BackendError, EpochError, OpHandleError, WindowError
from repro.ft import KillEvent, KillPlan
from repro.rma import OrderRecorder, RmaRuntime
from repro.simulator import Cluster

BACKENDS = ["sim", "vector"]


def _runtime(backend: str, nprocs: int = 4, **kwargs) -> RmaRuntime:
    rt = RmaRuntime(Cluster.simple(nprocs, procs_per_node=2), backend=backend, **kwargs)
    rt.win_allocate("w", 16)
    return rt


# ---------------------------------------------------------------------------
# Backend registry
# ---------------------------------------------------------------------------
def test_make_backend_resolves_names_and_instances():
    assert isinstance(make_backend(None), SimBackend)
    assert isinstance(make_backend("sim"), SimBackend)
    assert isinstance(make_backend("vector"), VectorBackend)
    custom = VectorBackend()
    assert make_backend(custom) is custom
    with pytest.raises(BackendError):
        make_backend("warp-drive")
    with pytest.raises(BackendError):
        make_backend(42)


def test_runtime_and_launch_accept_backend_knob():
    rt = RmaRuntime(Cluster.simple(2), backend="vector")
    assert rt.backend.name == "vector"
    with repro.launch(2, backend="vector") as job:
        assert job.runtime.backend.name == "vector"


def test_backend_instance_cannot_be_rebound_across_jobs():
    backend = VectorBackend()
    with repro.launch(2, backend=backend) as job:
        job.allocate("w", 4)
    # The instance owns the first job's windows/queues: a second job must
    # refuse it instead of inheriting stale state.
    with pytest.raises(BackendError):
        repro.launch(4, backend=backend)


# ---------------------------------------------------------------------------
# Handle epoch semantics
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_unflushed_get_nb_buffer_raises_on_read(backend):
    rt = _runtime(backend)
    rt.put(0, 1, "w", 3, [7.0, 8.0])
    handle = rt.get_nb(0, 1, "w", 3, 2)
    assert not handle.completed
    with pytest.raises(OpHandleError):
        handle.result()
    rt.flush(0, 1)
    assert handle.completed
    assert np.array_equal(handle.result(), [7.0, 8.0])


@pytest.mark.parametrize("backend", BACKENDS)
def test_put_nb_completes_at_flush_and_result_is_none(backend):
    rt = _runtime(backend)
    handle = rt.put_nb(0, 2, "w", 0, [1.0, 2.0, 3.0])
    assert not handle.completed
    rt.flush(0, 2)
    assert handle.completed
    assert handle.result() is None  # puts carry no fetched buffer
    assert np.array_equal(rt.local(2, "w")[:3], [1.0, 2.0, 3.0])


def test_vector_backend_defers_effects_until_completion():
    rt = _runtime("vector")
    rt.put_nb(0, 1, "w", 0, [5.0])
    assert rt.local(1, "w")[0] == 0.0  # not applied yet
    assert rt.pending_nb_ops() == 1
    rt.flush(0, 1)
    assert rt.local(1, "w")[0] == 5.0
    assert rt.pending_nb_ops() == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_get_nb_reads_at_completion_on_every_backend(backend):
    # The target legally stores into its *own* buffer while the origin's epoch
    # is open; the get's read happens at the completion point on every
    # backend, so it must observe the store.
    rt = _runtime(backend)
    handle = rt.get_nb(0, 1, "w", 0, 1)
    rt.local(1, "w")[0] = 42.0
    rt.flush(0, 1)
    assert handle.result()[0] == 42.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_unlock_and_gsync_complete_nonblocking_ops(backend):
    rt = _runtime(backend)
    rt.lock(0, 1)
    locked = rt.put_nb(0, 1, "w", 0, [1.0])
    rt.unlock(0, 1)
    assert locked.completed
    synced = rt.accumulate_nb(2, 3, "w", 5, [4.0])
    rt.gsync()
    assert synced.completed
    assert rt.local(1, "w")[0] == 1.0
    assert rt.local(3, "w")[5] == 4.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_flush_closes_epoch_and_bumps_gc_for_nb_ops(backend):
    rt = _runtime(backend)
    first = rt.put_nb(0, 1, "w", 0, [1.0])
    assert first.action.EC == 0 and first.action.GC == 0
    assert rt.counters.of(0).pending_ops[1] == 1
    rt.flush(0, 1)
    assert rt.counters.of(0).epoch_of_target[1] == 1
    assert rt.counters.of(0).gc == 1
    assert rt.counters.of(0).pending_ops[1] == 0
    later = rt.put_nb(0, 1, "w", 0, [2.0])
    assert later.action.EC == 1 and later.action.GC == 1
    rt.flush(0, 1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_blocking_op_completes_queued_nb_ops_to_same_target(backend):
    rt = _runtime(backend)
    queued = rt.accumulate_nb(0, 1, "w", 0, [2.0])
    # The blocking get towards the same target is issue+completion: it must
    # land *after* the queued accumulate in issue order.
    got = rt.get(0, 1, "w", 0, 1)
    assert queued.completed
    assert got[0] == 2.0


def test_flush_only_completes_the_named_target_pair():
    rt = _runtime("vector")
    to_one = rt.put_nb(0, 1, "w", 0, [1.0])
    to_two = rt.put_nb(0, 2, "w", 0, [2.0])
    rt.flush(0, 1)
    assert to_one.completed and not to_two.completed
    assert rt.local(2, "w")[0] == 0.0
    rt.flush_all(0)
    assert to_two.completed
    assert rt.local(2, "w")[0] == 2.0


# ---------------------------------------------------------------------------
# Vector coalescing correctness
# ---------------------------------------------------------------------------
def test_vector_coalesces_contiguous_puts_correctly():
    rt = _runtime("vector")
    for m in range(4):  # one contiguous stream, chunked
        rt.put_nb(0, 1, "w", 3 * m, np.full(3, float(m)))
    rt.flush(0, 1)
    expected = np.repeat(np.arange(4.0), 3)
    assert np.array_equal(rt.local(1, "w")[:12], expected)


@pytest.mark.parametrize("backend", BACKENDS)
def test_overlapping_puts_apply_in_issue_order(backend):
    rt = _runtime(backend)
    rt.put_nb(0, 1, "w", 0, [1.0, 1.0, 1.0])
    rt.put_nb(0, 1, "w", 1, [2.0, 2.0])  # overlaps: later op wins
    rt.flush(0, 1)
    assert np.array_equal(rt.local(1, "w")[:3], [1.0, 2.0, 2.0])


def test_vector_batch_mixing_puts_and_atomics_preserves_order():
    rt = _runtime("vector")
    rt.put_nb(0, 1, "w", 0, [10.0])
    rt.accumulate_nb(0, 1, "w", 0, [5.0])
    rt.put_nb(0, 1, "w", 1, [1.0])
    rt.put_nb(0, 1, "w", 2, [2.0])  # contiguous with the previous put
    rt.flush(0, 1)
    assert np.array_equal(rt.local(1, "w")[:3], [15.0, 1.0, 2.0])


# ---------------------------------------------------------------------------
# Determinism: identical traces, clocks and metrics across backends
# ---------------------------------------------------------------------------
def _stencil_like_kernel(ctx, step):
    u = ctx.win("w")
    if ctx.rank > 0:
        u.put_nb(ctx.rank - 1, 7, u.local[1:2])
    if ctx.rank < ctx.nranks - 1:
        u.put_nb(ctx.rank + 1, 0, u.local[6:7])
    yield ctx.gsync()
    u.local[1:7] += 0.5 * ctx.rank
    ctx.compute(8.0)


def _run_traced(backend, failures=None):
    ft = repro.FaultTolerancePolicy(interval=3)
    with repro.launch(
        4, ft=ft, failures=failures, sync_each_step=False, backend=backend,
    ) as job:
        recorder = OrderRecorder()
        job.runtime.add_interceptor(recorder)
        job.allocate("w", 8)
        for ctx in job.contexts:
            ctx.local("w")[:] = np.arange(8.0) + ctx.rank
        job.run(_stencil_like_kernel, steps=8)
        field = np.stack([job.local(r, "w").copy() for r in range(4)])
        # Strip the globally monotonic seq (last element): it differs between
        # process-wide runs, not between backends within a run.
        trace = [action.determinant()[:-1] for action in recorder.events]
        clocks = [job.runtime.cluster.now(r) for r in range(4)]
    return field, trace, clocks


@pytest.mark.parametrize(
    "failures",
    [None, {2: 0.00012}, {1: 0.00008, 3: 0.00025}],
    ids=["failure-free", "one-failure", "two-failures"],
)
def test_traces_fields_and_clocks_bit_identical_across_backends(failures):
    events = [KillEvent(time=t, rank=r) for r, t in (failures or {}).items()]
    sim = _run_traced("sim", KillPlan(events) if failures else None)
    vector = _run_traced("vector", KillPlan(events) if failures else None)
    assert np.array_equal(sim[0], vector[0])  # window contents
    assert sim[1] == vector[1]  # recorded determinants
    assert sim[2] == vector[2]  # per-rank virtual clocks


@pytest.mark.parametrize("backend", BACKENDS)
def test_metrics_totals_are_backend_independent(backend):
    rt = _runtime(backend)
    for m in range(4):
        rt.put_nb(0, 1, "w", m, [1.0])
    rt.get_nb(0, 1, "w", 0, 2)
    rt.flush(0, 1)
    metrics = rt.cluster.metrics
    assert metrics.get("rma.put") == 4
    assert metrics.get("rma.get") == 1
    assert metrics.get("rma.bytes_moved") == 6 * 8


# ---------------------------------------------------------------------------
# Fault tolerance integration
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_checkpoint_refuses_unflushed_nb_ops(backend):
    from repro.ft.stack import build_ft_stack

    rt = _runtime(backend)
    stack = build_ft_stack(rt)
    rt.put_nb(0, 1, "w", 0, [1.0])
    with pytest.raises(EpochError):
        stack.checkpointer.checkpoint(tag=0)
    rt.flush(0, 1)
    stack.checkpointer.checkpoint(tag=0)  # epoch boundary: fine now


@pytest.mark.parametrize("backend", BACKENDS)
def test_recovery_discards_pending_handles(backend):
    from repro.ft.stack import build_ft_stack

    rt = _runtime(backend)
    stack = build_ft_stack(rt)
    stack.checkpointer.checkpoint(tag=0)
    pending = rt.put_nb(0, 1, "w", 0, [9.0])
    rt.cluster.fail_rank(3)
    rt.observe_failures()
    stack.recovery.recover()
    assert pending.discarded
    with pytest.raises(OpHandleError):
        pending.result()
    # The rolled-back put must not have survived into the restored state.
    assert rt.local(1, "w")[0] == 0.0
    assert rt.pending_nb_ops() == 0


def test_recovery_respawn_goes_through_the_backend_hook():
    from repro.ft.stack import build_ft_stack

    class SpyBackend(SimBackend):
        def __init__(self):
            super().__init__()
            self.invalidated, self.reallocated = [], []

        def invalidate_rank(self, rank):
            self.invalidated.append(rank)
            super().invalidate_rank(rank)

        def reallocate_rank(self, rank):
            self.reallocated.append(rank)
            super().reallocate_rank(rank)

    backend = SpyBackend()
    rt = RmaRuntime(Cluster.simple(4, procs_per_node=2), backend=backend)
    rt.win_allocate("w", 8)
    stack = build_ft_stack(rt)
    stack.checkpointer.checkpoint(tag=0)
    rt.cluster.fail_rank(2)
    rt.observe_failures()
    stack.recovery.recover()
    # A custom backend sees the full failure lifecycle, not just half of it.
    assert backend.invalidated == [2]
    assert backend.reallocated == [2]


@pytest.mark.parametrize("backend", BACKENDS)
def test_flush_all_towards_dead_target_raises_on_every_backend(backend):
    from repro.errors import ProcessFailedError

    rt = _runtime(backend)
    rt.put_nb(0, 1, "w", 0, [1.0])
    rt.cluster.fail_rank(1)
    rt.observe_failures()
    # The liveness check, not the (possibly already performed) apply, must be
    # the failure point — identical on eager and batching backends.
    with pytest.raises(ProcessFailedError):
        rt.flush_all(0)


# ---------------------------------------------------------------------------
# WindowHandle edge cases (rank and window named in every error)
# ---------------------------------------------------------------------------
def test_window_handle_names_rank_and_window_in_errors():
    with repro.launch(2) as job:
        job.allocate("edge", 8)
        w = job.contexts[0].win("edge")
        with pytest.raises(WindowError, match=r"edge.*rank 0|rank 0.*edge"):
            w.put_nb(1, -3, [1.0])  # negative offset
        with pytest.raises(WindowError, match=r"edge"):
            w.get_nb(1, 0, 0)  # zero-length access
        with pytest.raises(WindowError, match=r"target rank 5.*edge"):
            w.put_nb(5, 0, [1.0])  # out-of-range target
        with pytest.raises(WindowError, match=r"target rank -1.*edge"):
            w[-1, 0:2]
        with pytest.raises(WindowError, match=r"edge"):
            w[1, 3:3]  # zero-length slice
        with pytest.raises(WindowError, match=r"edge"):
            w[1, 99]  # out-of-bounds scalar index
        with pytest.raises(WindowError, match=r"edge"):
            w.accumulate_nb(1, 4, np.zeros(0))  # empty payload


@pytest.mark.parametrize("backend", BACKENDS)
def test_runtime_rejects_out_of_bounds_nb_ops_at_issue(backend):
    rt = _runtime(backend)
    with pytest.raises(WindowError, match=r"w"):
        rt.put_nb(0, 1, "w", 12, np.zeros(8))  # tail out of bounds
    with pytest.raises(WindowError, match=r"rank 9"):
        rt.get_nb(0, 9, "w", 0, 1)  # bad target rank
    # Nothing was queued: the malformed ops failed at their call site.
    assert rt.pending_nb_ops() == 0
