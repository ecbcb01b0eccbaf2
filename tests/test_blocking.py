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
"""

import numpy as np
import pytest
from programs import make_runtime

import repro
from repro.errors import OpHandleError, ProcessFailedError
from repro.rma import AccumulateOp, RmaInterceptor

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
