"""Wire parity of the real-process backend's flat binary batch format.

``ProcBackend`` ships a completion batch to the origin's worker as fixed-size
records plus raw operand bytes and gets the fetched bytes back (layout in
``docs/ARCHITECTURE.md``).  These cases pin what the format must preserve —
every op kind, every accumulate operator, several dtypes and windows in one
batch, payloads larger than the pipe buffer, the mid-batch kill rollback,
window ids across respawns — against the ``sim`` backend as the oracle.
"""

import os
import signal

import numpy as np
import pytest

from repro.backends.proc import _APPLY, _HEADER, _RECORD, ProcBackend, proc_available
from repro.errors import BackendError, OpHandleError, ProcessFailedError
from repro.ft.stack import build_ft_stack
from repro.rma import AccumulateOp, RmaRuntime
from repro.simulator import Cluster

pytestmark = [
    pytest.mark.skipif(
        not proc_available(), reason="proc backend needs fork + POSIX shared memory"
    ),
    pytest.mark.usefixtures("proc_hygiene"),
]


def _runtime(backend: str, **windows) -> RmaRuntime:
    rt = RmaRuntime(Cluster.simple(4, procs_per_node=2), backend=backend)
    for name, (size, dtype) in windows.items():
        rt.win_allocate(name, size, dtype=dtype)
    return rt


# ---------------------------------------------------------------------------
# (a) One epoch, every op kind and operator, two windows of different dtype
# ---------------------------------------------------------------------------
def _mixed_epoch(backend: str, dtype) -> dict:
    """Run the same op sequence; return everything a backend could get wrong."""
    other = np.int32 if np.dtype(dtype) == np.float64 else np.float64
    rt = _runtime(backend, a=(24, dtype), b=(24, other))
    try:
        for name in "ab":  # a non-trivial target image to combine with
            rt.put(1, 2, name, 0, np.arange(1, 25))
        # Within an epoch a get must not overlap a put (the model leaves their
        # order open, and eager ``sim`` reads gets last): gets read [20:24].
        handles, fetched = [], []
        for name in "ab":
            handles.append(rt.put_nb(0, 2, name, 0, [9, 8, 7]))
            handles.append(rt.get_nb(0, 2, name, 20, 4))
            for i, op in enumerate(AccumulateOp):  # [2:14], overlapping the put
                handles.append(rt.accumulate_nb(0, 2, name, 2 + 2 * i, [3, 2], op))
        # Each blocking op completes the 0 -> 2 epoch: the first one ships the
        # 16 queued operations of both windows and itself as one batch.
        fetched.append(rt.get_accumulate(0, 2, "a", 4, [5, 6], AccumulateOp.SUM))
        fetched.append(rt.get_accumulate(0, 2, "b", 14, [2, 2], AccumulateOp.PROD))
        for name in "ab":
            handles.append(rt.get_nb(0, 2, name, 20, 3))  # rides in the next batch
            fetched.append(rt.fetch_and_op(0, 2, name, 16, 4, AccumulateOp.MAX))
            fetched.append(rt.fetch_and_op(0, 2, name, 16, 0, AccumulateOp.NO_OP))
            fetched.append(rt.compare_and_swap(0, 2, name, 18, 19, 42))  # hit
            fetched.append(rt.compare_and_swap(0, 2, name, 19, 19, 42))  # miss
            handles.append(rt.get_nb(0, 2, name, 0, 24))
        rt.flush(0, 2)
        return {
            "images": {n: [rt.local(r, n).copy() for r in range(4)] for n in "ab"},
            "results": [h.result() for h in handles],
            "data": [h.action.data for h in handles],
            "operands": [h.action.operand for h in handles],
            "fetched": fetched,
        }
    finally:
        rt.finalize()


def _assert_same_arrays(got, expected, what: str) -> None:
    assert len(got) == len(expected)
    for index, (mine, theirs) in enumerate(zip(got, expected)):
        where = f"{what}[{index}]"
        if theirs is None:
            assert mine is None, where
            continue
        assert np.asarray(mine).dtype == np.asarray(theirs).dtype, where
        assert np.array_equal(mine, theirs), f"{where}: {mine} != {theirs}"


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.int16])
def test_mixed_epoch_matches_sim(dtype):
    proc, sim = _mixed_epoch("proc", dtype), _mixed_epoch("sim", dtype)
    for name in "ab":
        _assert_same_arrays(proc["images"][name], sim["images"][name], f"window {name}")
    for key in ("results", "data", "operands", "fetched"):
        _assert_same_arrays(proc[key], sim[key], key)
    for result in proc["results"]:
        if result is not None:  # fetched values are the caller's to keep and edit
            assert result.flags.owndata and result.flags.writeable


# ---------------------------------------------------------------------------
# (b) Payloads larger than the pipe buffer
# ---------------------------------------------------------------------------
def test_one_mebibyte_put_and_get_round_trip():
    count = (1 << 20) // 8
    rt = _runtime("proc", big=(count, np.float64))
    try:
        payload = np.arange(count, dtype=np.float64)
        rt.put(0, 1, "big", 0, payload)  # one APPLY message of > 1 MiB
        assert np.array_equal(rt.local(1, "big"), payload)
        assert np.array_equal(rt.get(2, 1, "big", 0, count), payload)  # > 1 MiB reply
    finally:
        rt.finalize()


# ---------------------------------------------------------------------------
# (c) Mid-batch kill inside a mixed batch
# ---------------------------------------------------------------------------
def _issue_overlapping_batch(rt) -> list:
    return [
        rt.put_nb(0, 1, "a", 0, [1, 2, 3, 4]),
        rt.accumulate_nb(0, 1, "a", 2, [10, 10, 10], AccumulateOp.SUM),  # over the put
        rt.get_nb(0, 1, "a", 0, 8),
        rt.put_nb(0, 1, "b", 4, [5, 6]),
        rt.accumulate_nb(0, 1, "b", 5, [7], AccumulateOp.PROD),  # over the put
        rt.accumulate_nb(0, 1, "a", 3, [1], AccumulateOp.MAX),
    ]


def _discard_message(rt, handles) -> str:
    rt.observe_failures()
    rt.discard_pending()
    with pytest.raises(OpHandleError) as poisoned:
        handles[2].result()
    return str(poisoned.value)


def test_mid_batch_kill_in_a_mixed_batch_restores_the_image_byte_for_byte():
    windows = {"a": (8, np.int64), "b": (8, np.float32)}
    rt = _runtime("proc", **windows)
    try:
        backend = rt.backend
        for name in "ab":
            rt.put(2, 1, name, 0, np.arange(1, 9))
        before = {n: bytes(rt.window(n).shm.buf) for n in "ab"}
        handles = _issue_overlapping_batch(rt)
        backend.arm_kill(0, after_ops=5)  # both puts and both overlaps applied
        with pytest.raises(ProcessFailedError, match="process 0 has failed"):
            rt.flush(0, 1)
        assert {n: bytes(rt.window(n).shm.buf) for n in "ab"} == before
        assert backend.pending_ops(0) == len(handles)
        assert not any(h.completed for h in handles)
        message = _discard_message(rt, handles)
    finally:
        rt.finalize()
    sim = _runtime("sim", **windows)
    sim_handles = _issue_overlapping_batch(sim)
    sim.cluster.fail_rank(0)
    assert message == _discard_message(sim, sim_handles)


# ---------------------------------------------------------------------------
# (d) Window ids across kills, respawns and later allocations
# ---------------------------------------------------------------------------
def test_window_ids_survive_a_respawn_and_later_allocations():
    rt = _runtime("proc", w0=(4, np.int16), w1=(8, np.int64))
    try:
        backend = rt.backend
        stack = build_ft_stack(rt)
        stack.checkpointer.checkpoint(tag=0)
        os.kill(backend.worker_pid(1), signal.SIGKILL)
        assert backend.wait_dead(1, timeout=10.0)
        with pytest.raises(ProcessFailedError):
            rt.put(0, 1, "w1", 0, [1])
        stack.recovery.recover()  # rank 1's new worker attaches w0, w1 from scratch
        rt.win_allocate("w2", 8, dtype=np.float32)
        assert [rt.window(n).wire_id for n in ("w0", "w1", "w2")] == [0, 1, 2]
        rt.put_nb(1, 0, "w2", 0, [2.5])  # one batch over both windows, applied
        rt.put_nb(1, 0, "w1", 1, [7])  # by the respawned rank's worker
        got = rt.get_nb(1, 0, "w2", 0, 2)
        rt.flush(1, 0)
        assert rt.local(0, "w1").tolist() == [0, 7, 0, 0, 0, 0, 0, 0]
        assert rt.local(0, "w2").tolist() == [2.5, 0, 0, 0, 0, 0, 0, 0]
        assert got.result().tolist() == [2.5, 0.0] and got.result().dtype == np.float32
        rt.put(3, 1, "w2", 7, [1.5])  # an old worker writes the new window too
        assert rt.local(1, "w2")[7] == 1.5
        assert not rt.local(0, "w0").any() and not rt.local(1, "w0").any()
    finally:
        rt.finalize()


# ---------------------------------------------------------------------------
# (e) Corrupted messages
# ---------------------------------------------------------------------------
def _corrupt(message: bytes, how: str) -> bytes:
    assert message[0] == _APPLY
    if how == "truncated":
        return message[:-3]
    if how == "cut at a record":  # header promises two records, carries one
        return message[: _HEADER.size + _RECORD.size]
    record = _HEADER.size + _RECORD.size  # second record: [kind, op, window id, ...]
    if how in ("past its row", "rank past nprocs"):  # the put of [3.0] at rank 1's [4]
        kind, op, window, trg, offset, count = _RECORD.unpack_from(message, record)
        if how == "past its row":  # [8:9] of an 8-element row: rank 2's first element
            offset = 8
        else:  # a fifth rank of four: past the end of the segment
            trg = 4
        fields = _RECORD.pack(kind, op, window, trg, offset, count)
        return message[:record] + fields + message[record + _RECORD.size :]
    field = {"kind": 0, "op": 1, "window": 2}[how]
    return message[: record + field] + b"\xee" + message[record + field + 1 :]


@pytest.mark.parametrize(
    "how",
    ["truncated", "cut at a record", "kind", "op", "window", "past its row", "rank past nprocs"],
)
def test_a_corrupted_batch_is_refused_whole_and_the_worker_survives(how, monkeypatch):
    rt = _runtime("proc", w=(8, np.float64))
    try:
        backend = rt.backend
        assert isinstance(backend, ProcBackend)
        conn = backend._workers[0].conn
        send_bytes = conn.send_bytes
        rt.put_nb(0, 1, "w", 0, [1.0, 2.0])
        rt.put_nb(0, 1, "w", 4, [3.0])
        with monkeypatch.context() as patch:
            patch.setattr(conn, "send_bytes", lambda buf: send_bytes(_corrupt(buf, how)))
            with pytest.raises(BackendError, match="proc worker 0 failed to apply"):
                rt.flush(0, 1)
        assert not rt.local(1, "w").any()  # not even the intact first record
        assert not any(rt.window("w").shm.buf)  # nor a byte of any other rank's row
        assert backend.ping(0)
        rt.flush(0, 1)  # the same queue, sent intact, applies
        assert rt.local(1, "w").tolist() == [1.0, 2.0, 0, 0, 3.0, 0, 0, 0]
    finally:
        rt.finalize()


def test_an_unknown_binary_tag_is_reported_not_skipped():
    rt = _runtime("proc", w=(8, np.float64))
    try:
        worker = rt.backend._workers[2]
        worker.conn.send_bytes(b"\x07junk")
        tag, text = worker.conn.recv()  # control replies are plain pickles
        assert tag == "err" and "unknown message tag 7" in text
        assert rt.backend.ping(2)
    finally:
        rt.finalize()


def test_a_failed_attach_answers_every_later_request_with_its_error():
    # An attach asks for no reply, so its failure must not send one: the
    # worker holds the error, answers each later request with it and applies
    # nothing (its window ids no longer match the supervisor's).
    rt = _runtime("proc", w=(8, np.float64))
    try:
        rt.backend._workers[0].conn.send(("attach", "psm_no_such_segment", 8, "float64", 4))
        rt.accumulate_nb(0, 1, "w", 0, [1.0])
        for _ in range(2):  # the retry must not read a stale OK
            with pytest.raises(BackendError, match="FileNotFoundError"):
                rt.flush(0, 1)
            assert not any(rt.window("w").shm.buf)
        assert not rt.backend.ping(0)
        assert rt.backend.ping(1)
        rt.discard_pending()
    finally:
        rt.finalize()
