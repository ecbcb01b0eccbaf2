"""One record per issued operation: its charge, its handle face, its addressing.

* **Charging.**  An operation is charged when it completes, from the batch the
  backend returns.  ``_TimeModel`` is the specification, written against the
  completion stream alone: every origin clock and every ``rma.*`` counter of
  the seeded programs of ``tests/programs.py`` — closed by ``flush``,
  ``flush_all``, ``unlock`` and ``gsync``, with a recovery's
  ``discard_pending``, an excised target and a best-effort suspended target
  thrown in — must equal the model's *exactly*, after every single call, on
  every backend.  A discarded or diverted operation adds nothing.
* **The handle face.**  ``put_nb`` returns the action it issued; completion
  state, ``result()`` and its two refusals live on that record, and copying or
  pickling one never drags backend state along.
* **Addressing is integral** and wrong addressing fails at the call that
  wrote it, with the window and the origin in the message, on every backend;
  so does a payload that cannot be converted to the window's dtype.
* **Effect at completion.**  An issued operation touches no window byte until
  its epoch completes — so a get issued before a put to the same region reads
  the old value, and a discard has nothing to undo — on every backend.
* **The payload.**  A put's is one copy taken at the issue — its bytes in the
  window dtype — and lands the same through every way a backend applies it:
  one at a time, a coalesced run, the armed-kill wire, a localized replay.
"""

import dataclasses
import pickle
import types
from collections import Counter, defaultdict

import numpy as np
import pytest
from programs import HALF, make_runtime, perform, random_program

import repro
from repro.chaos import scaled_cost_model
from repro.backends.proc import _HEADER, _OK, _RECORD, _apply_batch, _ShmSlab
from repro.errors import OpHandleError, ProcessFailedError, WindowError
from repro.ft.inject import KillPlan, install_injector
from repro.ft.recovery import BestEffort
from repro.rma import (
    AccumulateOp,
    CommAction,
    Counters,
    OpHandle,
    OpKind,
    RmaInterceptor,
    SyncAction,
    SyncKind,
)
from repro.rma.window import Window
from repro.simulator.costs import ethernet_cluster_like

needs_proc = pytest.mark.skipif(
    not repro.proc_available(), reason="proc backend needs fork + POSIX shared memory"
)
BACKENDS = ["sim", "vector", pytest.param("proc", marks=needs_proc)]
pytestmark = pytest.mark.usefixtures("proc_hygiene")


# ---------------------------------------------------------------------------
# (a) The charging oracle
# ---------------------------------------------------------------------------
class _TimeModel(RmaInterceptor):
    """What a program must cost, derived from the completion stream alone.

    ``before_comm`` prices an issued operation (a diverted one never gets
    here), ``after_comm`` moves it into the batch of the running call, and
    :meth:`finish` charges that batch the way the runtime is specified to:
    per target in first-issue order, each pair's costs summed one operation
    at a time in issue order from ``0.0`` — then the call's own sync cost.
    """

    name = "time-model"

    def __init__(self, rt) -> None:
        self.costs = rt.cluster.costs
        self.now = [rt.cluster.now(r) for r in range(rt.nprocs)]
        self.totals: dict[str, float] = defaultdict(float)
        self.per_rank: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        #: seq -> (cost, bytes, metric) of ops issued and not yet completed.
        self.issued: dict[int, tuple[float, int, str]] = {}
        #: (src, trg) -> ops issued in the open epoch (what a flush is priced by).
        self.in_epoch: dict[tuple[int, int], int] = defaultdict(int)
        #: src -> [(trg, cost, bytes, metric)] completed by the running call.
        self.batch: dict[int, list[tuple]] = defaultdict(list)
        self.failed: set[int] = set()
        self.suspended: set[int] = set()

    def before_comm(self, action) -> None:
        cost = self.costs.remote_transfer(action.nbytes, atomic=action.kind.is_atomic)
        self.issued[action.seq] = (cost, action.nbytes, action.kind.metric)
        self.in_epoch[action.src, action.trg] += 1

    def after_comm(self, action) -> None:
        self.batch[action.src].append((action.trg, *self.issued.pop(action.seq)))

    def _count(self, name: str, rank: int | None, value: float = 1) -> None:
        self.totals[name] += value
        if rank is not None:
            self.per_rank[name][rank] += value

    def _sync(self, name: str, src: int, cost: float) -> None:
        self.now[src] += cost
        self._count(f"rma.{name}", src)

    def finish(self, call: tuple) -> None:
        """Account one finished program call."""
        for src, ops in self.batch.items():
            pairs: dict[int, list] = {}
            for trg, cost, nbytes, metric in ops:
                pair = pairs.setdefault(trg, [0.0, 0, Counter()])
                pair[0] += cost
                pair[1] += nbytes
                pair[2][metric] += 1
            for cost, nbytes, kinds in pairs.values():
                self.now[src] += cost
                for metric, n in kinds.items():
                    self._count(metric, src, n)
                self._count("rma.bytes_moved", src, nbytes)
        self.batch.clear()
        name, *args = call
        if name == "flush":
            self._sync(name, args[0], self.costs.flush(self.in_epoch.pop(tuple(args), 0)))
        elif name == "flush_all":
            (src,) = args
            mine = [pair for pair in self.in_epoch if pair[0] == src]
            self._sync(name, src, self.costs.flush(sum(self.in_epoch.pop(p) for p in mine)))
        elif name in ("lock", "unlock"):
            src, trg = args
            if trg not in self.suspended:  # a sync towards a suspended rank drops
                cost = self.costs.lock() if name == "lock" else self.costs.unlock()
                self._sync(name, src, cost)
            if name == "unlock":
                self.in_epoch.pop((src, trg), None)
        elif name == "gsync":
            alive = [r for r in range(len(self.now)) if r not in self.failed]
            after = max(self.now[r] for r in alive) + self.costs.gsync(len(self.now))
            for r in alive:
                self.now[r] = after
            self._count("rma.gsyncs", None)
            self.in_epoch.clear()
        elif name == "discard_pending":
            self.issued.clear()
            self.in_epoch.clear()
        elif name in ("suspend", "excise"):
            self.failed.add(args[0])
            if name == "suspend":
                self.suspended.add(args[0])


def _rma_counters(rt) -> tuple[list, dict]:
    snapshot = rt.cluster.metrics.snapshot()
    names = [
        n for n in snapshot.totals if n.startswith("rma.") and n != "rma.windows_allocated"
    ]
    return (
        [(n, snapshot.totals[n]) for n in names],  # in first-increment order
        {n: snapshot.per_rank[n] for n in names if n in snapshot.per_rank},
    )


#: The default machine and two others: the runtime looks its prices up once per
#: size, and the model calls the cost model per operation — they must agree.
COST_MODELS = {
    "default": None,
    "ethernet": ethernet_cluster_like(),
    "compressed": scaled_cost_model(compression=10_000.0),
}


@pytest.mark.parametrize("costs", list(COST_MODELS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_every_clock_and_counter_equals_the_completion_stream_model(backend, costs):
    exercised = Counter()
    for seed in range(6):
        rt = make_runtime(backend, cost_model=COST_MODELS[costs])
        mode = BestEffort(seed=seed, stale_fraction=0.0)  # drops only: no service cost
        mode.bind(rt, None)
        rt.set_tolerant(mode)
        model = _TimeModel(rt)
        rt.add_interceptor(model)
        try:
            handles = []
            for position, call in enumerate(random_program(seed, faults=True)):
                pending = rt.pending_nb_ops()
                out = perform(rt, call)
                model.finish(call)
                where = f"seed {seed}, call {position}: {call}"
                assert [rt.cluster.now(r) for r in range(4)] == model.now, where
                if call[0].endswith("_nb"):
                    handles.append(out)
                if call[0] == "discard_pending" and pending:
                    exercised["discarded"] += pending
                    assert out == pending and rt.pending_nb_ops() == 0
            totals, per_rank = _rma_counters(rt)
            assert totals == list(model.totals.items())
            assert per_rank == {n: dict(v) for n, v in model.per_rank.items()}
            assert rt.pending_nb_ops() == 0
            assert all(h.completed != h.discarded for h in handles)
            # Whatever was issued and never reached ``after_comm`` was charged nothing.
            exercised["uncharged"] += sum(h.discarded for h in handles)
            metrics = rt.cluster.metrics
            exercised["diverted"] += int(metrics.get("ft.dropped_ops"))
            exercised["tolerated"] += int(
                metrics.get("qos.dropped_puts") + metrics.get("qos.dropped_gets")
            )
        finally:
            rt.finalize()
    # The six programs really walk every way an issued op can end uncharged.
    assert all(exercised[k] > 0 for k in ("discarded", "uncharged", "diverted", "tolerated"))


# ---------------------------------------------------------------------------
# (b) The handle face
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_the_handle_is_the_issued_action(backend):
    rt = make_runtime(backend, size=8192)  # a 64 KiB slab a copy could drag along
    try:
        put = rt.put_nb(0, 1, "a", 0, [7.0])
        get = rt.get_nb(0, 1, "a", 0, 1)
        lost = rt.put_nb(0, 2, "a", 0, [1.0])
        for handle in (put, get, lost):
            assert isinstance(handle, OpHandle) and isinstance(handle, CommAction)
            assert handle.action is handle
            assert not handle.completed and not handle.discarded
        where = "[win=a,off=0,n=1,EC=0,GC=0,SC=0,GNC=0]"
        with pytest.raises(OpHandleError) as early:
            get.result()
        assert str(early.value) == (
            f"get(0<=1){where} is not completed; its buffer materializes at the "
            f"next flush/unlock/gsync towards rank 1"
        )
        rt.flush(0, 1)
        assert put.completed and get.completed and not lost.completed
        assert put.result() is None and get.result().tolist() == [7.0]
        assert rt.discard_pending() == 1
        assert lost.discarded and not lost.completed
        with pytest.raises(OpHandleError) as late:
            lost.result()
        assert str(late.value) == (
            f"handle of put(0=>2){where} was discarded by a recovery rollback; "
            f"its effect was never committed"
        )
        # A completed handle copies and pickles as the plain action it is.
        patched = get.with_data(np.array([9.0]))
        moved = dataclasses.replace(get, src=3)
        assert patched.data.tolist() == [9.0] and get.data.tolist() == [7.0]
        assert moved.src == 3 and moved.seq == get.seq == patched.seq
        blob = pickle.dumps(get)
        clone = pickle.loads(blob)
        assert clone.determinant() == get.determinant() and clone.completed
        assert clone.result().tolist() == [7.0]
        assert len(blob) < 1024 and b"Window" not in blob
        assert set(CommAction.__slots__) == {f.name for f in dataclasses.fields(CommAction)}
    finally:
        rt.finalize()


# ---------------------------------------------------------------------------
# (c) Addressing is integral, and fails where it is written
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_non_integral_addressing_fails_at_the_call_site(backend):
    data = np.arange(2.0) + 1.0
    with repro.launch(4, backend=backend) as job:
        job.allocate("w", 16)
        w = job.contexts[0].win("w")
        rt = job.runtime
        probes = [
            lambda: w.put_nb(1.9, 2.7, data),  # parent: wrote rank 1 at offset 2
            lambda: w.put_nb(1, 2.7, data),
            lambda: w.get_nb(1, 0, 2.5),  # parent: a bare TypeError at the flush
            lambda: w.accumulate_nb(1.5, 0, data),
            lambda: w[1, 1.5],  # parent: read element 1, as an array
            lambda: w[1.5, 0],
            lambda: w.__setitem__((1, 2.5), 4.0),
            lambda: rt.put_nb(0, 1.9, "w", 2.7, data),
            lambda: rt.get(0, 1, "w", 0.0, 2),
            lambda: rt.fetch_and_op(0, 1, "w", 1.0, 3.0),
        ]
        for probe in probes:
            with pytest.raises(WindowError, match=r"integer.*window 'w' \(origin rank 0\)"):
                probe()
        assert rt.pending_nb_ops() == 0 and not job.gather("w").any()
        rt.flush_all(0)  # nothing malformed was left behind to die here
        # Integers of any flavour keep working, numpy's included.
        w.put_nb(np.int64(1), np.int32(2), data)
        handle = w.get_nb(np.uint8(1), np.int64(2), np.int16(2))
        rt.flush(0, 1)
        assert handle.result().tolist() == [1.0, 2.0]
        assert w[np.int64(1), np.int64(3)] == 2.0 and w[1, 2:4].tolist() == [1.0, 2.0]
        assert type(handle.offset) is int and type(handle.count) is int


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_unconvertible_payload_fails_at_the_call_site(backend):
    with repro.launch(4, backend=backend) as job:
        job.allocate("w", 16)
        w = job.contexts[0].win("w")
        rt = job.runtime
        probes = [  # parent: a bare numpy ValueError / TypeError
            lambda: rt.put_nb(0, 1, "w", 0, "abc"),
            lambda: w.put_nb(1, 0, "abc"),
            lambda: rt.put_nb(0, 1, "w", 0, {"a": 1}),
            lambda: w.put_nb(1, 0, [1.0, [2.0, 3.0]]),
            lambda: rt.put(0, 1, "w", 0, "abc"),
            lambda: rt.accumulate(0, 1, "w", 0, ["x"]),
            lambda: w.accumulate_nb(1, 0, {"a": 1}),
            lambda: rt.compare_and_swap(0, 1, "w", 0, "x", 1.0),
        ]
        before = (
            rt.cluster.metrics.snapshot(), [rt.cluster.now(r) for r in range(4)],
            rt.counters.snapshot(),
        )
        for probe in probes:
            with pytest.raises(
                WindowError, match=r"window 'w'.s dtype float64 \(origin rank 0\)"
            ):
                probe()
        assert rt.pending_nb_ops() == 0 and sum(rt.counters.of(0).pending_ops.values()) == 0
        assert before == (
            rt.cluster.metrics.snapshot(), [rt.cluster.now(r) for r in range(4)],
            rt.counters.snapshot(),
        )
        rt.flush_all(0)  # nothing malformed was left behind to apply here
        assert not job.gather("w").any()


@pytest.mark.parametrize("dtype", [object, "datetime64[s]", "timedelta64[ms]"])
def test_a_window_must_be_plain_data_since_a_put_lands_as_bytes(dtype):
    rt = make_runtime("sim")
    with pytest.raises(WindowError, match=r"window 'x': dtype .* is not plain data"):
        rt.win_allocate("x", 4, dtype=dtype)
    assert "x" not in rt.windows


# ---------------------------------------------------------------------------
# (d) An operation takes effect when it completes, never before
# ---------------------------------------------------------------------------
def _memory(rt) -> dict:
    return {(w, r): rt.local(r, w).tolist() for w in ("a", "b") for r in range(rt.nprocs)}


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_put_nb_is_invisible_until_its_epoch_completes(backend):
    rt = make_runtime(backend)
    try:
        before = _memory(rt)
        rt.put_nb(0, 1, "a", 0, [5.0, 6.0])
        rt.accumulate_nb(0, 1, "b", 2, [3.0])
        rt.put_nb(0, 2, "a", 4, [7.0])
        assert _memory(rt) == before and rt.pending_nb_ops() == 3
        rt.flush(0, 1)  # completes the 0 -> 1 epoch only
        assert rt.local(1, "a")[:2].tolist() == [5.0, 6.0] and rt.local(1, "b")[2] == 3.0
        assert rt.local(2, "a")[4] == 0.0 and rt.pending_nb_ops() == 1
        rt.gsync()
        assert rt.local(2, "a")[4] == 7.0
    finally:
        rt.finalize()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_get_issued_before_a_put_reads_the_value_before_it(backend):
    # parent: ``sim`` wrote the put at issue, so the earlier get read 9.0
    rt = make_runtime(backend)
    try:
        rt.put(0, 1, "a", 0, [1.0, 2.0])
        early = rt.get_nb(0, 1, "a", 0, 2)
        rt.put_nb(0, 1, "a", 0, [9.0, 9.0])
        late = rt.get_nb(0, 1, "a", 0, 2)
        rt.flush(0, 1)
        assert early.result().tolist() == [1.0, 2.0]
        assert late.result().tolist() == [9.0, 9.0]
        assert rt.local(1, "a")[:2].tolist() == [9.0, 9.0]
    finally:
        rt.finalize()


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_discard_leaves_every_window_byte_untouched(backend):
    # Nobody asks the backend to capture anything: nothing was applied to undo.
    rt = make_runtime(backend)
    try:
        rt.put(0, 1, "a", 0, [1.0, 2.0])
        rt.put(1, 2, "b", 50, [3.0])
        before = _memory(rt)
        over, added = rt.put_nb(0, 1, "a", 0, [9.0, 9.0]), rt.accumulate_nb(0, 2, "b", 3, [5.0])
        swapped = rt.put_nb(1, 2, "b", 50, [7.0])
        kept = rt.put_nb(1, 3, "a", 60, [8.0])
        assert rt.backend.discard_rank(0) == [over, added] and _memory(rt) == before
        assert rt.backend.discard_targeting(1, frozenset({2})) == [swapped]
        assert _memory(rt) == before
        assert rt.discard_pending() == 1 and kept.discarded and _memory(rt) == before
        rt.gsync()  # nothing was left behind to land late
        assert _memory(rt) == before
        assert not any(h.completed for h in (over, added, swapped, kept))
    finally:
        rt.finalize()


# ---------------------------------------------------------------------------
# (e) The payload is one copy, taken at the issue, in the window's dtype
# ---------------------------------------------------------------------------
PAYLOADS = {
    "float64": lambda: np.arange(4.0) + 1.0,
    "int32": lambda: np.arange(1, 5, dtype=np.int32),
    "strided": lambda: np.arange(16.0)[::2],
    "reversed": lambda: (np.arange(4.0) + 1.0)[::-1],
    "2-d": lambda: np.arange(1.0, 7.0).reshape(2, 3),
    "0-d": lambda: np.array(5.0),
    "list": lambda: [1.0, 2.0, 3.0],
}


@pytest.mark.parametrize("call", ["put_nb", "accumulate_nb"])
@pytest.mark.parametrize("payload", list(PAYLOADS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_the_payload_is_the_issue_time_value_in_the_window_dtype(backend, payload, call):
    rt = make_runtime(backend)  # window "a" is float64 and starts at zeros
    try:
        buf = PAYLOADS[payload]()
        expected = np.array(buf, dtype=np.float64).ravel().tolist()
        op = getattr(rt, call)(0, 1, "a", 0, buf)
        if isinstance(buf, list):  # the caller reuses its buffer before the flush
            buf[:] = [-1.0] * len(buf)
        else:
            buf[...] = -1
        rt.flush(0, 1)
        assert rt.local(1, "a")[: len(expected)].tolist() == expected
        for landed in (op.data, op.operand):
            assert landed.tolist() == expected and landed.dtype == np.float64
            assert landed.ndim == 1 and landed.flags.c_contiguous
            if not isinstance(buf, list):
                assert not np.shares_memory(landed, buf)
    finally:
        rt.finalize()


def _scaled(buf, factor: int, shift: int):
    """``buf * factor + shift`` in the payload's own form (a list, a view, a 0-d array)."""
    if isinstance(buf, list):
        return [x * factor + shift for x in buf]
    buf *= factor
    buf += shift
    return buf


@pytest.mark.parametrize("payload", list(PAYLOADS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_coalesced_run_of_payload_puts_lands_whole(backend, payload, monkeypatch):
    """Back-to-back puts of one payload form one run per slab (one region
    write on ``vector``, one wire record on ``proc``), interleaved with another
    slab's run, and land as the per-op ``sim`` lands them."""
    rt = make_runtime(backend)
    n = len(np.array(PAYLOADS[payload](), dtype=np.float64).ravel())
    region, writes = Window._region, []
    monkeypatch.setattr(
        Window, "_region", lambda self, *where: writes.append(where) or region(self, *where)
    )
    try:
        expected = {1: [], 2: []}
        for k in range(3):
            for trg in (1, 2):
                buf = _scaled(PAYLOADS[payload](), k + 1, trg)
                expected[trg] += np.array(buf, dtype=np.float64).ravel().tolist()
                rt.put_nb(0, trg, "a", k * n, buf)
        rt.flush_all(0)
        for trg in (1, 2):
            assert rt.local(trg, "a")[: 3 * n].tolist() == expected[trg]
        if backend == "vector":
            assert writes == [(1, 0, 3 * n), (2, 0, 3 * n)]
    finally:
        rt.finalize()


@needs_proc
@pytest.mark.parametrize("payload", list(PAYLOADS))
def test_the_armed_kill_wire_carries_each_put_payload_as_its_own_record(payload, monkeypatch):
    """An armed kill ships one record per action; the worker's decoder, run
    here with the kill disarmed, lands every put's payload bytes."""
    rt = make_runtime("proc")
    conn, sent = rt.backend._workers[0].conn, []
    send_bytes = conn.send_bytes
    monkeypatch.setattr(conn, "send_bytes", lambda buf: sent.append(buf) or send_bytes(buf))
    try:
        parts = [_scaled(PAYLOADS[payload](), k + 1, 0) for k in range(3)]
        expected = np.concatenate([np.array(p, dtype=np.float64).ravel() for p in parts])
        offset = 0
        for part in parts:
            offset += rt.put_nb(0, 1, "a", offset, part).count
        rt.backend.arm_kill(0, after_ops=2)
        with pytest.raises(ProcessFailedError):
            rt.flush(0, 1)
        assert not rt.local(1, "a").any()  # the partial batch was rolled back
    finally:
        rt.finalize()
    (message,) = sent
    _, records, die_after = _HEADER.unpack_from(message)
    assert (records, die_after) == (3, 2)
    assert message[_HEADER.size + 3 * _RECORD.size :] == expected.tobytes()
    size = 2 * HALF
    shm = types.SimpleNamespace(buf=bytearray(size * 8 * 4))
    slabs = [_ShmSlab(shm, size, np.dtype(np.float64), 4)]
    disarmed = _HEADER.pack(message[0], records, -1) + message[_HEADER.size :]
    assert _apply_batch(0, disarmed, slabs) == bytes((_OK,))
    assert slabs[0].buffers[1][: expected.size].tolist() == expected.tolist()


def _payload_session(backend: str, payload: str, kill_at: int | None):
    """8 steps of a ring of payload puts under localized recovery: each rank
    puts its step-scaled payload into its right neighbour, gsyncs, and folds
    what it received into its own state (a local store after the sync)."""
    ft = repro.FaultTolerancePolicy(interval=2, store="memory", recovery="localized")
    with repro.launch(
        4, topology=repro.Topology(procs_per_node=2), ft=ft, backend=backend,
        sync_each_step=False,
    ) as job:
        job.allocate("w", 16)
        if kill_at is not None:
            install_injector(job, KillPlan.single(rank=1, after_ops=kill_at))

        def kernel(ctx, step):
            w = ctx.win("w")
            w.put_nb((ctx.rank + 1) % 4, 0, _scaled(PAYLOADS[payload](), step + 1, ctx.rank))
            yield ctx.gsync()
            mine = w.local
            mine[8:16] += mine[0:8]

        report = job.run(kernel, steps=8)
        return report, job.gather("w").tobytes()


@pytest.mark.parametrize("payload", list(PAYLOADS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_localized_replay_reapplies_the_logged_payload_bit_identically(backend, payload):
    _, reference = _payload_session(backend, payload, None)
    report, recovered = _payload_session(backend, payload, 22)  # mid step 5
    assert report.localized_recoveries == 1
    assert report.metrics.total("ft.replayed_bytes") > 0  # logged puts were re-applied
    assert recovered == reference


@pytest.mark.parametrize("payload", list(PAYLOADS))
def test_a_put_record_pickles_with_its_payload_and_counters(payload):
    rt = make_runtime("sim")
    rt.lock(0, 1)
    op = rt.put_nb(0, 1, "a", 0, PAYLOADS[payload]())
    clone = pickle.loads(pickle.dumps(op))
    assert clone.determinant() == op.determinant()
    assert (clone.EC, clone.GC, clone.SC, clone.GNC) == tuple(op.counters) == (0, 0, 1, 0)
    assert clone.data.tolist() == op.data.tolist() and clone.data.dtype == np.float64
    assert clone.operand.tolist() == op.operand.tolist() and not clone.data.flags.writeable
    assert (clone.nbytes, clone.completed) == (op.nbytes, False)


def test_directly_built_records_read_back_their_counters_unchanged():
    counters = Counters(ec=1, gc=2, sc=3, gnc=4)
    comm = CommAction(
        kind=OpKind.PUT, src=0, trg=1, window="w", offset=2, count=3, combine=False,
        counters=counters, op=AccumulateOp.REPLACE, data=np.arange(3.0), seq=7,
    )
    sync = SyncAction(
        kind=SyncKind.LOCK, src=0, trg=1, counters=counters, structure="s", seq=8
    )
    for action in (comm, sync):
        assert action.counters == counters and type(action.counters) is Counters
        assert (action.EC, action.GC, action.SC, action.GNC) == (1, 2, 3, 4)
    assert comm.determinant() == ("put", 0, 1, "w", 2, 3, False, (1, 2, 3, 4), 7)
    assert sync.determinant() == ("lock", 0, 1, "s", (1, 2, 3, 4), 8)
    assert comm.data.tolist() == [0.0, 1.0, 2.0] and comm.data.dtype == np.float64
    assert comm.nbytes == 24 and comm.describe().endswith("EC=1,GC=2,SC=3,GNC=4]")
