"""A blocking call is one record, applied and retired where it is issued.

* **Every kind, every backend.**  ``put``, ``get``, ``accumulate`` (also as
  ``w.accumulate``), ``get_accumulate``, ``fetch_and_op``, ``compare_and_swap``
  and the ``w[trg, i]`` forms return, write, announce (``after_comm``) and
  charge the same on ``sim``, ``vector`` and ``proc`` — beside the two
  nonblocking calls a kernel reaches only through its context
  (``ctx.get_nb``, ``ctx.accumulate_nb``).  With nothing of its origin
  queued, a blocking call never enters the pending queue.
* **Behind queued operations** of its origin a blocking call completes with
  the pair, so it sees their effects and the stream keeps issue order.
* **An apply that raises** (a target that died, a worker that died) leaves the
  call queued, and recovery's discard poisons it like any failed completion.
* **The fused Locks-scheme update** ``locked_fetch_and_op`` is the ``lock`` →
  ``fetch_and_op`` → ``unlock`` triad, bit for bit: on ``sim``, ``vector`` and
  ``proc``, over the edge operands on ``float64``/``float32``/``int64`` windows, the window bytes, the returned scalars (type and bits), the
  stamps, every clock, the ``rma.*`` counters, Eq. (1)'s records and the action
  log; a traced run's canonical trace; and every error the triad raises, with
  the state it leaves.
"""

import contextlib
import os
import signal
import warnings
from multiprocessing import connection

import numpy as np
import pytest
from programs import make_runtime
from test_in_place import DTYPES, _counters, _edges, _record, _value

import repro
from repro.errors import BackendError, LockError, OpHandleError, ProcessFailedError
from repro.ft.stack import build_ft_stack
from repro.rma import AccumulateOp, RmaInterceptor, RmaRuntime
from repro.simulator import Cluster
from repro.trace import Tracer, install_trace
from repro.trace.events import canonical_event

needs_proc = pytest.mark.skipif(
    not repro.proc_available(), reason="proc backend needs fork + POSIX shared memory"
)
BACKENDS = ["sim", "vector", pytest.param("proc", marks=needs_proc)]
pytestmark = pytest.mark.usefixtures("proc_hygiene")


class _Stream(RmaInterceptor):
    """The issued actions, and the completion stream as ``after_comm`` described it."""

    name = "stream"

    def __init__(self) -> None:
        self.issued: list = []
        self.completed: list[str] = []

    def before_comm(self, action) -> None:
        self.issued.append(action)

    def after_comm(self, action) -> None:
        self.completed.append(action.describe())


# ---------------------------------------------------------------------------
# (a) Every blocking kind, identical across backends
# ---------------------------------------------------------------------------
def _kernel(returned: list):
    def kernel(ctx, step):
        w = ctx.win("w")
        right = (ctx.rank + 1) % ctx.nranks  # one writer per target: deterministic
        early = ctx.get_nb(right, "w", 0, 4)
        ctx.accumulate_nb(right, "w", 4, [1.0, 2.0])
        yield ctx.gsync()
        ctx.put(right, "w", 0, early.result() + step)
        w.accumulate(right, 4, [0.5, 0.25])
        ctx.accumulate(right, "w", 6, [3.0], AccumulateOp.MAX)
        returned.append((
            ctx.rank,
            ctx.get(right, "w", 0, 8).tolist(),
            ctx.get_accumulate(right, "w", 8, [2.0]).tolist(),
            ctx.fetch_and_op(right, "w", 9, 1.0),
            ctx.compare_and_swap(right, "w", 10, float(step), step + 1.0),
            w[right, 4],
        ))
        w[right, 11] = ctx.rank + 0.5
        ctx.lock(right)
        ctx.fetch_and_op(right, "w", 12, 2.0)
        ctx.unlock(right)
        yield ctx.gsync()

    return kernel


def _run(backend: str) -> dict:
    returned: list = []
    with repro.launch(4, backend=backend) as job:
        job.allocate("w", 16)
        rt, stream = job.runtime, _Stream()
        rt.add_interceptor(stream)
        completions = []
        complete_pair = rt._complete_pair
        rt._complete_pair = lambda *pair: completions.append(pair) or complete_pair(*pair)
        report = job.run(_kernel(returned), steps=4)
        assert completions == []  # nothing was queued when a blocking call came
        return {
            "returned": returned,
            "field": job.gather("w").tolist(),
            "stream": stream.completed,
            "clocks": [job.cluster.now(r) for r in range(4)],
            "elapsed": report.elapsed,
            "counters": {
                name: value
                for name, value in report.metrics.totals.items()
                if name.startswith("rma.")
            },
        }


def test_every_blocking_kind_completes_at_its_call_site():
    expected = _run("sim")
    returned = expected["returned"]
    assert len(returned) == 4 * 4
    for step in range(4):
        rows = returned[4 * step : 4 * step + 4]
        assert sorted(row[0] for row in rows) == [0, 1, 2, 3]
        for _, _, fetched, counter, swapped, _ in rows:
            assert counter == step and swapped == step  # fetch_and_op, then CAS, at work
            assert fetched == [2.0 * step]
    assert expected["counters"]["rma.get_accumulate"] == 16
    assert len(expected["stream"]) == 4 * 4 * 12


@pytest.mark.parametrize("backend", ["vector", pytest.param("proc", marks=needs_proc)])
def test_every_blocking_kind_is_identical_across_backends(backend):
    assert _run(backend) == _run("sim")


# ---------------------------------------------------------------------------
# (b) Behind queued operations: completed with the pair
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_blocking_call_behind_queued_ops_sees_their_effects(backend):
    rt = make_runtime(backend)
    stream = _Stream()
    rt.add_interceptor(stream)
    try:
        rt.put_nb(0, 1, "a", 0, [1.0, 2.0])
        rt.put_nb(0, 1, "a", 2, [3.0])
        rt.accumulate_nb(0, 1, "a", 1, [5.0])
        elsewhere = rt.put_nb(0, 2, "a", 0, [9.0])
        assert rt.get(0, 1, "a", 0, 3).tolist() == [1.0, 7.0, 3.0]
        assert [entry.split("(")[0] for entry in stream.completed] == [
            "put", "put", "accumulate", "get",
        ]
        assert rt.fetch_and_op(0, 1, "a", 2, 1.0) == 3.0  # nothing queued: inline
        assert not elsewhere.completed and rt.pending_nb_ops(0) == 1
        assert rt.local(2, "a")[0] == 0.0  # only the pair completed
        rt.flush(0, 2)
        assert rt.local(2, "a")[0] == 9.0
    finally:
        rt.finalize()


# ---------------------------------------------------------------------------
# (c) An apply that raises leaves the call queued for the discard
# ---------------------------------------------------------------------------
class _KillsTheTarget(RmaInterceptor):
    """Fails an action's target between its issue and its apply."""

    name = "kills-the-target"

    def __init__(self, rt) -> None:
        self.rt = rt

    def before_comm(self, action) -> None:
        self.rt.cluster.fail_rank(action.trg)
        self.rt.observe_failures()  # the target's buffers are gone


def _left_queued_then_poisoned(rt, action, clock_before: float) -> None:
    assert rt.pending_nb_ops(0) == 1 and not action.completed
    assert rt.cluster.now(0) == clock_before  # never charged
    assert rt.discard_pending() == 1
    assert action.discarded
    with pytest.raises(OpHandleError, match="discarded by a recovery"):
        action.result()


@pytest.mark.parametrize("backend", ["sim", "vector"])
@pytest.mark.parametrize("kind", ["put", "get", "fetch_and_op"])
def test_a_blocking_op_to_a_target_that_died_is_left_queued(backend, kind):
    rt = make_runtime(backend)
    stream = _Stream()
    rt.add_interceptor(stream)
    rt.add_interceptor(_KillsTheTarget(rt))
    try:
        before = rt.cluster.now(0)
        call = {
            "put": lambda: rt.put(0, 1, "a", 0, [1.0]),
            "get": lambda: rt.get(0, 1, "a", 0, 2),
            "fetch_and_op": lambda: rt.fetch_and_op(0, 1, "a", 0, 1.0),
        }[kind]
        with pytest.raises(ProcessFailedError, match="invalidated"):
            call()
        assert stream.completed == []
        _left_queued_then_poisoned(rt, stream.issued[0], before)
    finally:
        rt.finalize()


@needs_proc
def test_a_blocking_op_whose_worker_dies_is_left_queued():
    rt = make_runtime("proc")
    try:
        rt.put(0, 1, "a", 0, [1.0])
        before, image = rt.cluster.now(0), rt.local(1, "a").copy()
        rt.backend.arm_kill(0, after_ops=0)  # die before applying the next op
        stream = _Stream()
        rt.add_interceptor(stream)
        with pytest.raises(ProcessFailedError, match="process 0 has failed"):
            rt.put(0, 1, "a", 0, [2.0])
        assert np.array_equal(rt.local(1, "a"), image) and stream.completed == []
        rt.observe_failures()
        _left_queued_then_poisoned(rt, stream.issued[0], before)
    finally:
        rt.finalize()


# ---------------------------------------------------------------------------
# (d) The fused update is the triad
# ---------------------------------------------------------------------------
#: ``(src, trg)`` pairs of the differential program: two origins lock one
#: target (``SC`` passes between them), one origin locks two.
PAIRS = [(0, 1), (3, 1), (0, 2)]


def _triad(rt, src, trg, window, offset, value):
    rt.lock(src, trg)
    fetched = rt.fetch_and_op(src, trg, window, offset, value)
    rt.unlock(src, trg)
    return fetched


def _fused(rt, src, trg, window, offset, value):
    return rt.locked_fetch_and_op(src, trg, window, offset, value)


def _state(rt) -> dict:
    """Everything observable of a bare runtime but its issue ids."""
    metrics = rt.cluster.metrics.snapshot()
    return {
        "windows": [rt.local(r, "w").tobytes() for r in range(rt.nprocs)],
        "clocks": [
            (c.now, c.ticks, c.protocol) for c in map(rt.cluster.clock, range(rt.nprocs))
        ],
        "counters": {
            name: (value, metrics.per_rank.get(name))
            for name, value in metrics.totals.items()
            if name.startswith("rma.")
        },
        "records": [_counters(own) for own in rt.counters.records],
        "pending": rt.pending_nb_ops(),
    }


@contextlib.contextmanager
def _arithmetic(dtype):
    """The edge operands' arithmetic: NaN and infinities raise IEEE flags (not
    here), integers wrap silently, as the array path does (no warning)."""
    if np.dtype(dtype).kind == "f":
        with np.errstate(all="ignore"):
            yield
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield


def _observed(backend: str, dtype, call) -> dict:
    rt = RmaRuntime(Cluster.simple(4, procs_per_node=2), backend=backend)
    try:
        rt.win_allocate("w", 16, dtype=dtype)
        stack = build_ft_stack(rt, recovery="localized")  # the action log
        edges = _edges(dtype)
        for rank in (1, 2):
            rt.local(rank, "w")[:] = np.resize(np.array(edges, dtype=dtype), 16)
        returned = []
        with _arithmetic(dtype):
            for k, value in enumerate(edges):
                for src, trg in PAIRS:
                    offset = (2 * k + src) % 16
                    returned.append(call(rt, src, trg, "w", offset, value))
        return {
            **_state(rt),
            "returned": [_value(x) for x in returned],
            "log": [_record(a) for a in stack.log.actions],
        }
    finally:
        rt.finalize()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_the_fused_update_is_the_triad_bit_for_bit(backend, dtype):
    triad = _observed(backend, dtype, _triad)
    fused = _observed(backend, dtype, _fused)
    for key in triad:
        assert fused[key] == triad[key], key
    assert len(triad["log"]) == len(_edges(dtype)) * len(PAIRS)
    assert all(r[0] == np.dtype(dtype).type.__name__ for r in triad["returned"])
    assert triad["counters"]["rma.lock"][0] == len(triad["log"])


class _Watch(RmaInterceptor):
    """One stream as its hook sees it: ``before_comm``, ``after_comm`` or
    ``after_sync`` (a sync action's kind, pair and stamp: all but its issue id)."""

    def __init__(self) -> None:
        self.seen: list = []


class _Issued(_Watch):
    def before_comm(self, action) -> None:
        self.seen.append(action.describe())


class _Completed(_Watch):
    def after_comm(self, action) -> None:
        self.seen.append(action.describe())


class _Synced(_Watch):
    def after_sync(self, action) -> None:
        self.seen.append((action.kind, action.src, action.trg, action.counters))


@pytest.mark.parametrize(
    "watch, queued", [(_Issued, False), (_Synced, False), (_Completed, True)],
    ids=["before_comm", "after_sync", "behind queued ops"],
)
def test_the_fused_update_shows_every_stream_and_queue_as_the_triad(watch, queued):
    """A hook that reads the issue or the sync stream sees the triad's actions;
    behind queued operations of its origin the atomic completes with the pair."""

    def watched(call):
        rt = RmaRuntime(Cluster.simple(4, procs_per_node=2), backend="sim")
        try:
            rt.win_allocate("w", 8)
            watcher = watch()
            rt.add_interceptor(watcher)
            returned = []
            for k in range(6):
                src, trg = k % 2, 2 + k % 2
                if queued:
                    rt.put_nb(src, trg, "w", k, [float(k)])
                returned.append(call(rt, src, trg, "w", k, 0.5))
            return {**_state(rt), "returned": returned, "seen": watcher.seen}
        finally:
            rt.finalize()

    triad = watched(_triad)
    assert watched(_fused) == triad and len(triad["seen"]) == 6 * (1 + queued + (watch is _Synced))
    if queued:
        assert triad["returned"] == [float(k) for k in range(6)]


def _kv_kernel(fused: bool):
    def kernel(ctx, step):
        for k in range(3):
            trg, value = (ctx.rank + k) % ctx.nranks, 0.5 * step + 0.25 * ctx.rank
            if fused:
                ctx.locked_fetch_and_op(trg, "w", k, value)
            else:
                ctx.lock(trg)
                ctx.fetch_and_op(trg, "w", k, value)
                ctx.unlock(trg)
        yield ctx.gsync()

    return kernel


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_traced_fused_run_traces_as_the_triad(backend):
    def traced(fused):
        ft = repro.FaultTolerancePolicy(interval=2, recovery="localized")
        with repro.launch(4, ft=ft, backend=backend) as job:
            job.allocate("w", 4)
            tracer = install_trace(job, Tracer())
            job.run(_kv_kernel(fused), steps=4)
            return [canonical_event(e) for e in tracer.events], job.gather("w").tobytes()

    events, table = traced(False)
    assert traced(True) == (events, table)
    assert sum(e["type"] == "op_completed" for e in events) == 4 * 4 * 3


def _failing_calls() -> list:
    """``(name, src, trg, window, offset, value)``: what each step of the triad refuses."""
    return [
        ("held lock", 0, 1, "w", 0, 1.0),
        ("target no rank", 0, 7, "w", 0, 1.0),
        ("target not integral", 0, 1.5, "w", 0, 1.0),
        ("unknown window", 0, 2, "nope", 0, 1.0),
        ("offset past the end", 0, 2, "w", 8, 1.0),
        ("negative offset", 0, 2, "w", -1, 1.0),
        ("offset not integral", 0, 2, "w", 1.5, 1.0),
        ("array payload", 0, 2, "w", 0, [1.0, 2.0]),
        ("payload not a number", 0, 2, "w", 0, "one"),
    ]


@pytest.mark.parametrize("backend", ["sim", "vector"])
@pytest.mark.parametrize("case", _failing_calls(), ids=lambda case: case[0])
def test_a_refused_fused_update_raises_the_triad_s_error_and_leaves_its_state(
    backend, case
):
    def attempt(call):
        rt = RmaRuntime(Cluster.simple(4, procs_per_node=2), backend=backend)
        try:
            rt.win_allocate("w", 8)
            call(rt, 0, 2, "w", 3, 2.5)  # settled state to leave as it is
            rt.lock(0, 1)
            with pytest.raises(Exception) as raised:
                call(rt, *case[1:])
            return type(raised.value), str(raised.value), _state(rt)
        finally:
            rt.finalize()

    triad = attempt(_triad)
    assert attempt(_fused) == triad
    if case[0] == "held lock":
        assert triad[0] is LockError


@pytest.mark.parametrize("backend", ["sim", "vector"])
def test_a_fused_update_whose_apply_raises_is_left_queued_as_the_triad_leaves_it(backend):
    def refuse(action, win):
        raise BackendError("refused")

    def attempt(call):
        rt = RmaRuntime(Cluster.simple(4, procs_per_node=2), backend=backend)
        try:
            rt.win_allocate("w", 8)
            rt._apply_one = refuse
            with pytest.raises(BackendError, match="refused"):
                call(rt, 0, 1, "w", 0, 1.0)
            return _state(rt)
        finally:
            rt.finalize()

    triad = attempt(_triad)
    assert attempt(_fused) == triad and triad["pending"] == 1


@needs_proc
def test_a_fused_update_toward_a_silently_killed_worker_fails_as_the_triad():
    """On ``proc`` the lock's sentinel poll finds a worker killed behind the
    injector's back, before any counter, clock or lock moves."""

    def attempt(call):
        rt = make_runtime("proc")
        try:
            call(rt, 0, 1, "a", 0, 1.0)
            worker = rt.backend._workers[1]
            os.kill(rt.backend.worker_pid(1), signal.SIGKILL)
            assert connection.wait([worker.process.sentinel], timeout=10.0)
            with pytest.raises(ProcessFailedError) as raised:
                call(rt, 0, 1, "a", 1, 1.0)
            return str(raised.value), rt.counters.records[0].held_locks, rt.cluster.now(0)
        finally:
            rt.finalize()

    triad = attempt(_triad)
    assert attempt(_fused) == triad and triad[1] == {}
