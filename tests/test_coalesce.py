"""The per-slab put coalescer of the deferring backends, against ``sim``.

``vector`` and ``proc`` complete a batch through one coalescer
(:func:`repro.backends.base._coalesce_puts`): each ``(window, target)`` slab's
back-to-back plain puts become one write / one wire record.  ``sim`` applies
every action by itself at issue and is the oracle: seeded random programs —
interleaved contiguous streams, puts that overlap or jump, accumulates, gets
and get-like atomics landing on a slab whose run is open — must leave the
same window images, handle results, logged ``data``/``operand`` and completion
stream on all three.  The armed mid-batch kill keeps its per-operation prefix:
such a batch is not merged.
"""

import sys

import numpy as np
import pytest
from programs import HALF, WINDOWS, make_runtime as _runtime, random_program as _program

from repro.backends import vector
from repro.backends.proc import _HEADER, proc_available
from repro.errors import OpHandleError, ProcessFailedError
from repro.rma import AccumulateOp, OpKind, RmaInterceptor

needs_proc = pytest.mark.skipif(
    not proc_available(), reason="proc backend needs fork + POSIX shared memory"
)
DEFERRING = ["vector", pytest.param("proc", marks=needs_proc)]


# ---------------------------------------------------------------------------
# (a) Seeded random programs: vector and proc against sim
# ---------------------------------------------------------------------------
class _CompletionStream(RmaInterceptor):
    name = "completion-stream"

    def __init__(self) -> None:
        self.completed: list[str] = []

    def after_comm(self, action) -> None:
        self.completed.append(action.describe())


def _observe(backend: str, dtypes, program) -> dict:
    rt = _runtime(backend, dtypes)
    stream = _CompletionStream()
    rt.add_interceptor(stream)
    try:
        handles, returned = [], []
        for name, *args in program:
            out = getattr(rt, name)(*args)
            if name.endswith("_nb"):
                handles.append(out)
            elif name in ("fetch_and_op", "compare_and_swap", "get_accumulate"):
                returned.append(np.asarray(out))
        assert rt.pending_nb_ops() == 0
        return {
            "images": [rt.local(r, w).copy() for w in WINDOWS for r in range(4)],
            "results": [h.result() for h in handles],
            "data": [h.action.data for h in handles],
            "operands": [h.action.operand for h in handles],
            "returned": returned,
            "stream": stream.completed,
        }
    finally:
        rt.finalize()


def _assert_same(got: dict, expected: dict) -> None:
    assert got["stream"] == expected["stream"]
    for key in ("images", "results", "data", "operands", "returned"):
        assert len(got[key]) == len(expected[key]), key
        for index, (mine, theirs) in enumerate(zip(got[key], expected[key])):
            where = f"{key}[{index}]"
            if theirs is None:
                assert mine is None, where
                continue
            assert mine is not None and mine.dtype == theirs.dtype, where
            assert np.array_equal(mine, theirs), f"{where}: {mine} != {theirs}"


@pytest.mark.usefixtures("proc_hygiene")
@pytest.mark.parametrize("backend", DEFERRING)
@pytest.mark.parametrize(
    "dtypes",
    [(np.float64, np.int16), (np.float32, np.int64)],
    ids=["f8+i2", "f4+i8"],
)
def test_random_programs_complete_as_on_sim(backend, dtypes):
    for seed in range(6):
        program = _program(seed)
        _assert_same(_observe(backend, dtypes, program), _observe("sim", dtypes, program))


def test_the_random_programs_do_exercise_the_coalescer(monkeypatch):
    """Runs really form (and single puts remain) inside the generated batches."""
    coalesce, merged, single = vector._coalesce_puts, [], []

    def counting(batch, windows):
        entries = coalesce(batch, windows)
        for action, _, count, _ in entries:
            if action.kind is OpKind.PUT:
                (merged if count != action.count else single).append(action)
        return entries

    monkeypatch.setattr(vector, "_coalesce_puts", counting)
    _observe("vector", (np.float64, np.int16), _program(0))
    assert len(merged) >= 10 and len(single) >= 10


# ---------------------------------------------------------------------------
# (b) An armed mid-batch kill is op-granular: every k of an interleaved batch
# ---------------------------------------------------------------------------
def _issue_interleaved(rt) -> list:
    """32 puts from rank 0, alternating between two targets' contiguous streams."""
    handles = []
    for j in range(16):
        handles.append(rt.put_nb(0, 3, "a", HALF + 2 * j, [j + 1, -j - 1]))
        handles.append(rt.put_nb(0, 1, "a", 2 * j, [2 * j + 1, 2 * j + 2]))
    return handles


def _discard_message(rt, handle) -> str:
    rt.observe_failures()
    rt.discard_pending()
    with pytest.raises(OpHandleError) as poisoned:
        handle.result()
    return str(poisoned.value)


def _sent_headers(rt, monkeypatch) -> list[tuple]:
    """Record the ``(tag, records, die_after)`` header of every batch rank 0 ships."""
    conn = rt.backend._workers[0].conn
    send_bytes, headers = conn.send_bytes, []

    def recording(buf):
        headers.append(_HEADER.unpack_from(buf))
        send_bytes(buf)

    monkeypatch.setattr(conn, "send_bytes", recording)
    return headers


@needs_proc
@pytest.mark.usefixtures("proc_hygiene")
def test_armed_kill_at_every_position_of_an_interleaved_batch(monkeypatch):
    sim = _runtime("sim")
    sim_handles = _issue_interleaved(sim)
    sim.cluster.fail_rank(0)
    expected_message = _discard_message(sim, sim_handles[5])
    for k in range(32):
        rt = _runtime("proc")
        try:
            rt.put(2, 1, "a", 0, np.arange(1, 2 * HALF + 1))  # something to lose
            rt.put(2, 3, "a", 0, np.arange(1, 2 * HALF + 1))
            before = bytes(rt.window("a").shm.buf)
            headers = _sent_headers(rt, monkeypatch)
            handles = _issue_interleaved(rt)
            rt.backend.arm_kill(0, after_ops=k)
            with pytest.raises(ProcessFailedError, match="process 0 has failed"):
                rt.flush_all(0)
            assert [h[1:] for h in headers] == [(32, k)], "one record per operation"
            assert bytes(rt.window("a").shm.buf) == before, f"k={k}"
            assert rt.backend.pending_ops(0) == 32
            assert not any(h.completed for h in handles)
            assert _discard_message(rt, handles[5]) == expected_message
        finally:
            rt.finalize()


@needs_proc
@pytest.mark.usefixtures("proc_hygiene")
def test_a_kill_armed_beyond_the_batch_stays_armed_and_the_batch_is_merged(monkeypatch):
    rt = _runtime("proc")
    try:
        headers = _sent_headers(rt, monkeypatch)
        _issue_interleaved(rt)
        rt.backend.arm_kill(0, after_ops=40)  # counts operations, not records
        rt.flush_all(0)
        assert [h[1:] for h in headers] == [(2, -1)]
        assert rt.backend._armed_kills == {0: 8}
        assert rt.local(1, "a")[:32].tolist() == list(range(1, 33))
        assert rt.local(3, "a")[HALF : HALF + 4].tolist() == [1, -1, 2, -2]
    finally:
        rt.finalize()


# ---------------------------------------------------------------------------
# (c) A batch of one is its own entry: every kind, against sim
# ---------------------------------------------------------------------------
#: One operation per program, completed alone: a nonblocking call by its ``flush``,
#: a blocking atomic where it is issued.  The CAS programs swap and keep.
ONE_OP = {
    "put": ("put_nb", 0, 1, "a", 5, np.arange(4.0) - 1.5),
    "get": ("get_nb", 0, 1, "b", 3, 6),
    "accumulate": ("accumulate_nb", 0, 1, "a", 4, np.arange(5.0), AccumulateOp.PROD),
    "get_accumulate": ("get_accumulate", 0, 1, "b", 2, np.arange(3.0) * 7, AccumulateOp.MAX),
    "fetch_and_op": ("fetch_and_op", 0, 1, "b", 7, 2.5, AccumulateOp.SUM),
    "cas_swap": ("compare_and_swap", 0, 1, "a", 6, 6.0, 9.0),
    "cas_keep": ("compare_and_swap", 0, 1, "a", 6, 1.0, 9.0),
}


class _Completed(RmaInterceptor):
    name = "completed-actions"

    def __init__(self) -> None:
        self.actions = []

    def after_comm(self, action) -> None:
        self.actions.append(action)


def _one_op(backend: str, call: tuple, monkeypatch) -> dict:
    module = sys.modules[f"repro.backends.{backend}"]  # the coalescer its backend calls
    sizes, coalesce = [], getattr(module, "_coalesce_puts", None)
    if coalesce is not None:

        def counting(batch, windows):
            sizes.append(len(batch))
            return coalesce(batch, windows)

        monkeypatch.setattr(module, "_coalesce_puts", counting)
    rt = _runtime(backend, (np.float64, np.int16))
    completed = _Completed()
    rt.add_interceptor(completed)
    try:
        for name in WINDOWS:
            rt.local(1, name)[:] = np.arange(2 * HALF)
        returned = getattr(rt, call[0])(*call[1:])
        if call[0].endswith("_nb"):
            rt.flush(0, 1)
            returned = returned.result()
        (action,) = completed.actions
        # A blocking call is applied alone (``Backend.apply_one``): in process by
        # ``apply_action``, past the coalescer; on ``proc`` as a batch of one.
        in_place = not call[0].endswith("_nb") and backend != "proc"
        assert sizes == ([] if coalesce is None or in_place else [1])
        return {
            "images": [rt.local(r, w).copy() for w in WINDOWS for r in range(4)],
            "results": [np.asarray(returned)],
            "data": [np.asarray(action.data)],
            "operands": [None if action.operand is None else np.asarray(action.operand)],
            "returned": [],
            "stream": [action.describe()],
        }
    finally:
        rt.finalize()


@pytest.mark.usefixtures("proc_hygiene")
@pytest.mark.parametrize("backend", DEFERRING)
@pytest.mark.parametrize("kind", list(ONE_OP))
def test_a_batch_of_one_completes_as_on_sim(backend, kind, monkeypatch):
    call = ONE_OP[kind]
    _assert_same(_one_op(backend, call, monkeypatch), _one_op("sim", call, monkeypatch))
