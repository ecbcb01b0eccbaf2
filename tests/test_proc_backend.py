"""Unit tests of the real-process backend (workers, shm windows, death paths).

Everything here drives :class:`~repro.backends.proc.ProcBackend` directly or
through a bare :class:`~repro.rma.runtime.RmaRuntime` — the end-to-end
differential grid lives in ``tests/test_differential.py``, the kill-timing
stress sweep in ``tests/test_kill_timing.py``.  The whole module skips on
platforms without the fork start method or POSIX shared memory.
"""

import os
import signal
from multiprocessing import connection

import numpy as np
import pytest

import repro
from repro.backends import ProcBackend, make_backend
from repro.backends.proc import SharedWindow, proc_available
from repro.errors import (
    BackendError,
    OpHandleError,
    ProcessFailedError,
    WatchdogError,
    WindowError,
)
from repro.registry import available
from repro.rma import RmaInterceptor, RmaRuntime
from repro.simulator import Cluster

pytestmark = [
    pytest.mark.skipif(
        not proc_available(), reason="proc backend needs fork + POSIX shared memory"
    ),
    pytest.mark.usefixtures("proc_hygiene"),
]


@pytest.fixture
def rt():
    runtime = RmaRuntime(Cluster.simple(4, procs_per_node=2), backend="proc")
    runtime.win_allocate("w", 16)
    yield runtime
    runtime.finalize()


def _backend(rt) -> ProcBackend:
    backend = rt.backend
    assert isinstance(backend, ProcBackend)
    return backend


# ---------------------------------------------------------------------------
# Registry and lifecycle
# ---------------------------------------------------------------------------
def test_proc_is_a_registered_backend():
    assert "proc" in available("backend")
    backend = make_backend("proc")
    assert isinstance(backend, ProcBackend)
    assert repro.proc_available()


def test_workers_are_real_distinct_processes(rt):
    backend = _backend(rt)
    pids = {backend.worker_pid(rank) for rank in range(4)}
    assert len(pids) == 4
    assert os.getpid() not in pids
    assert all(backend.ping(rank) for rank in range(4))


def test_rma_semantics_roundtrip_through_workers(rt):
    # put / get / accumulate all travel through the worker processes yet obey
    # the exact Backend contract the in-process backends implement.
    rt.put(0, 1, "w", 3, [7.0, 8.0])
    assert np.array_equal(rt.local(1, "w")[3:5], [7.0, 8.0])
    handle = rt.get_nb(2, 1, "w", 3, 2)
    rt.accumulate_nb(3, 1, "w", 3, [1.0, 1.0])
    rt.gsync()
    assert np.array_equal(handle.result(), [7.0, 8.0])  # read at completion
    assert np.array_equal(rt.local(1, "w")[3:5], [8.0, 9.0])


def test_close_is_idempotent_and_results_stay_readable(rt):
    rt.put(0, 1, "w", 0, [42.0])
    window = rt.windows.get("w")
    assert isinstance(window, SharedWindow)
    segment = window.segment_name
    assert segment in os.listdir("/dev/shm")
    rt.finalize()
    rt.finalize()  # idempotent
    _backend(rt).close()  # and directly, again
    assert segment not in os.listdir("/dev/shm")  # segment unlinked...
    assert rt.local(1, "w")[0] == 42.0  # ...but the results survive


# ---------------------------------------------------------------------------
# SharedWindow: in-place state transitions
# ---------------------------------------------------------------------------
def test_shared_window_transitions_never_detach_the_buffers(rt):
    window = rt.windows.get("w")
    view = window.buffers[1]  # the supervisor's live view of rank 1's slab
    rt.put(0, 1, "w", 0, [5.0, 6.0])
    assert view[0] == 5.0
    window.invalidate(1)
    assert view[0] == 0.0  # zeroed in place, same ndarray
    window.reallocate(1)
    window.restore(1, np.full(16, 3.0))
    assert view[0] == 3.0
    # The workers write through the same memory: a put lands in `view` too.
    rt.put(2, 1, "w", 0, [9.0])
    assert view[0] == 9.0


# ---------------------------------------------------------------------------
# Death detection and respawn
# ---------------------------------------------------------------------------
def test_poll_failures_reports_each_incarnation_once(rt):
    backend = _backend(rt)
    os.kill(backend.worker_pid(1), signal.SIGKILL)
    assert backend.wait_dead(1)
    assert backend.poll_failures() == [1]
    assert backend.poll_failures() == []  # same incarnation: reported once
    assert "dead" in backend.describe_rank(1)


def test_respawn_gives_a_fresh_worker_attached_to_existing_windows(rt):
    backend = _backend(rt)
    old_pid = backend.worker_pid(1)
    os.kill(old_pid, signal.SIGKILL)
    backend.wait_dead(1)
    backend.poll_failures()
    backend.respawn_rank(1)
    assert backend.worker_pid(1) != old_pid
    assert backend.ping(1)
    assert backend.poll_failures() == []  # the new incarnation is alive
    # The replacement worker must see windows created before its birth.
    rt.put(1, 0, "w", 2, [11.0])
    assert rt.local(0, "w")[2] == 11.0


def test_runtime_folds_worker_death_into_the_cluster(rt):
    backend = _backend(rt)
    os.kill(backend.worker_pid(3), signal.SIGKILL)
    backend.wait_dead(3)
    assert rt.cluster.is_alive(3)  # the control plane does not know yet
    rt.observe_failures()
    assert not rt.cluster.is_alive(3)  # ...now it does, via poll_failures
    with pytest.raises(ProcessFailedError, match="fail-stop"):
        rt.put(0, 3, "w", 0, [1.0])


# ---------------------------------------------------------------------------
# The silent kill: nobody noted the death, so only a poll can find it — and a
# nonblocking issue, which only queues, does not poll
# ---------------------------------------------------------------------------
def _kill_silently(rt, rank: int) -> None:
    """SIGKILL ``rank``'s worker from outside and wait on the raw sentinel —
    not ``wait_dead``, which would note the death for the next action."""
    backend = _backend(rt)
    sentinel = backend._workers[rank].process.sentinel
    os.kill(backend.worker_pid(rank), signal.SIGKILL)
    assert connection.wait([sentinel], timeout=10.0)
    assert not backend._discovered_dead and rt.cluster.is_alive(rank)


def test_silent_kill_is_observed_by_the_flush_not_by_the_queued_put(rt):
    _kill_silently(rt, 1)
    handle = rt.put_nb(0, 1, "w", 2, [7.0])  # queues on the supervisor: no system call
    assert not handle.completed and rt.pending_nb_ops(0) == 1
    with pytest.raises(ProcessFailedError, match="process 1 has failed") as failure:
        rt.flush(0, 1)
    assert failure.value.rank == 1
    # Raised before any effect: the slab never saw the 7.0, the queue is intact.
    assert not rt.windows.get("w").buffers[1].any()
    assert rt.pending_nb_ops(0) == 1 and not handle.completed
    assert rt.discard_pending() == 1
    with pytest.raises(OpHandleError, match="discarded by a recovery"):
        handle.result()


@pytest.mark.parametrize(
    "sync",
    [lambda rt: rt.flush_all(0), lambda rt: rt.unlock(0, 1), lambda rt: rt.gsync()],
    ids=["flush_all", "unlock", "gsync"],
)
def test_silent_kill_is_observed_by_every_completing_or_synchronising_action(rt, sync):
    rt.lock(0, 1)
    _kill_silently(rt, 1)
    rt.get_nb(0, 1, "w", 0, 2)
    with pytest.raises(ProcessFailedError) as failure:
        sync(rt)
    assert failure.value.rank == 1 and rt.pending_nb_ops(0) == 1


def test_silent_kill_is_observed_by_a_blocking_call_before_anything_is_queued(rt):
    class Spy(RmaInterceptor):
        seen: list = []

        def before_comm(self, action):
            self.seen.append(action)

    spy = Spy()
    rt.add_interceptor(spy)
    _kill_silently(rt, 1)
    with pytest.raises(ProcessFailedError, match="process 1 has failed"):
        rt.put(0, 1, "w", 2, [7.0])
    assert rt.pending_nb_ops() == 0 and spy.seen == []
    assert not rt.cluster.is_alive(1) and rt.windows.get("w").is_invalidated(1)


@pytest.mark.parametrize(
    "call",
    [
        lambda rt: rt.put(0, 1, "w", 16, [7.0]),
        lambda rt: rt.get(0, 1, "w", 15, 2),
        lambda rt: rt.fetch_and_op(0, 1, "w", -1, 1.0),
    ],
    ids=["put", "get", "fetch_and_op"],
)
def test_bad_address_toward_a_silently_dead_rank_is_still_a_window_error(rt, call):
    _kill_silently(rt, 1)
    with pytest.raises(WindowError):  # addressing first, then liveness
        call(rt)
    assert rt.pending_nb_ops() == 0
    # The call polled before it failed, so the death is known from here on:
    # the very next action of any kind raises it.
    with pytest.raises(ProcessFailedError, match="process 1 has failed"):
        rt.put_nb(0, 1, "w", 0, [1.0])


def test_noted_death_is_raised_by_the_very_next_nonblocking_issue(rt):
    backend = _backend(rt)
    os.kill(backend.worker_pid(1), signal.SIGKILL)
    assert backend.wait_dead(1)  # notes it (what an injector kill does)
    assert rt.cluster.is_alive(1)
    with pytest.raises(ProcessFailedError, match="process 1 has failed"):
        rt.put_nb(0, 1, "w", 0, [1.0])
    assert not rt.cluster.is_alive(1) and rt.pending_nb_ops() == 0
    rt.put_nb(0, 2, "w", 0, [1.0])  # other targets keep flowing
    assert backend.poll_failures() == []  # reported once


# ---------------------------------------------------------------------------
# Mid-batch kills: the partial-write rollback
# ---------------------------------------------------------------------------
def test_mid_batch_kill_is_effect_free_and_keeps_the_queue(rt):
    backend = _backend(rt)
    handles = [rt.put_nb(0, 1, "w", m, [float(m + 1)]) for m in range(4)]
    backend.arm_kill(0, after_ops=2)  # die before applying the third op
    with pytest.raises(ProcessFailedError, match="process 0 has failed"):
        rt.flush(0, 1)
    # The two applied puts were rolled back: the aborted completion must be
    # indistinguishable from a never-dispatched one.
    assert np.array_equal(rt.local(1, "w"), np.zeros(16))
    # The queue survived the abort, so recovery's discard can poison the
    # handles exactly as on the in-process backends.
    assert backend.pending_ops(0) == 4
    rt.observe_failures()
    rt.discard_pending()
    assert all(h.discarded for h in handles)
    with pytest.raises(OpHandleError, match="discarded by a recovery"):
        handles[0].result()


def test_armed_kill_counts_across_batches(rt):
    backend = _backend(rt)
    backend.arm_kill(0, after_ops=3)
    rt.put_nb(0, 1, "w", 0, [1.0])
    rt.put_nb(0, 1, "w", 1, [2.0])
    rt.flush(0, 1)  # 2 ops applied; 1 remains armed
    assert np.array_equal(rt.local(1, "w")[:2], [1.0, 2.0])
    rt.put_nb(0, 2, "w", 0, [3.0])
    rt.put_nb(0, 2, "w", 1, [4.0])
    with pytest.raises(ProcessFailedError):
        rt.flush(0, 2)  # dies before the 2nd op of this batch
    assert np.array_equal(rt.local(2, "w")[:2], [0.0, 0.0])  # rolled back
    rt.observe_failures()
    rt.discard_pending()


# ---------------------------------------------------------------------------
# The ack-timeout watchdog
# ---------------------------------------------------------------------------
def test_wedged_worker_raises_a_diagnostic_watchdog_error():
    rt = RmaRuntime(Cluster.simple(2), backend=ProcBackend(ack_timeout=0.3))
    rt.win_allocate("w", 8)
    backend = rt.backend
    try:
        # Wedge rank 0's worker (test hook), then dispatch a batch to it: the
        # ack cannot arrive within the timeout.
        backend._workers[0].conn.send(("sleep", 1.0))
        rt.put_nb(0, 1, "w", 0, [1.0])
        with pytest.raises(WatchdogError, match="no reply within") as excinfo:
            rt.flush(0, 1)
        assert "rank 0" in str(excinfo.value)  # the per-rank state dump
        assert "pid=" in str(excinfo.value)
    finally:
        rt.finalize()  # the worker wakes up, drains its backlog and exits


def test_worker_error_reports_do_not_kill_the_worker(rt):
    backend = _backend(rt)
    worker = backend._workers[0]
    worker.conn.send(("no-such-tag",))
    tag, payload = worker.conn.recv()
    assert tag == "err" and "no-such-tag" in payload
    assert backend.ping(0)  # still alive and serving


def test_arm_kill_rejects_negative_offsets(rt):
    with pytest.raises(BackendError):
        _backend(rt).arm_kill(0, after_ops=-1)
