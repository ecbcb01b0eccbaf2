"""A blocking call completes in place, and nothing about it differs from the queue.

With nothing of its origin queued and nothing diverted, a blocking call is
applied by the backend's single-action hook (``Backend.apply_one``: one region
copy or one scalar read-modify-write in process, a batch of one on ``proc``),
then announced and charged where it was issued.  The differential suite runs
every blocking kind, every ``AccumulateOp`` and edge operands (NaN, -0.0,
±inf, integer wrap-around) on ``float64``/``float32``/``int64`` windows through
that path and through the queued one (the same call behind an operation of its
origin toward another rank), on ``sim``, ``vector`` and ``proc``: the window
bytes, the returned values (type and bits), the stamps, the clocks, the
``rma.*`` counters and the action log must all be identical.

A one-element atomic takes and returns a scalar of the window dtype; an
operand of more than one element is refused at the call site.
"""

import contextlib
import warnings

import numpy as np
import pytest

import repro
from repro.backends import apply_action
from repro.errors import WindowError
from repro.ft.stack import build_ft_stack
from repro.rma import AccumulateOp, CommAction, OpHandle, OpKind, RmaInterceptor, RmaRuntime
from repro.rma.window import Window
from repro.simulator import Cluster

needs_proc = pytest.mark.skipif(
    not repro.proc_available(), reason="proc backend needs fork + POSIX shared memory"
)
BACKENDS = ["sim", "vector", pytest.param("proc", marks=needs_proc)]
pytestmark = pytest.mark.usefixtures("proc_hygiene")

DTYPES = [np.float64, np.float32, np.int64]
BIG = np.iinfo(np.int64).max


def _edges(dtype) -> list:
    """Operands that probe the arithmetic's corners in ``dtype``."""
    if np.dtype(dtype).kind == "f":
        return [np.nan, -0.0, np.inf, -np.inf, 1.5, -3.25]
    return [BIG, -BIG - 1, -1, 3, 2**40]  # sums and products wrap around


def _program(dtype) -> list[tuple]:
    """Every blocking kind, with every operator where it takes one, over the edges.

    Each entry is ``(method, offset, args)``; a call at offset ``k`` reads and
    writes elements ``k`` (and ``k + 1``) of rank 1's window, which starts out
    holding the edges too.
    """
    calls, k = [], 0
    edges = _edges(dtype)
    for value in edges:
        pair = [value, edges[(edges.index(value) + 1) % len(edges)]]
        calls.append(("put", k, (pair,)))
        calls.append(("get", k, (2,)))
        for op in AccumulateOp:
            calls.append(("accumulate", k, (pair, op)))
            calls.append(("get_accumulate", k, (pair, op)))
            calls.append(("fetch_and_op", k, (value, op)))
        calls.append(("compare_and_swap", k, (value, value)))  # equal unless NaN
        calls.append(("compare_and_swap", k, (-0.0 if edges[0] != BIG else 0, value)))
        k += 2
    return calls


class _ClockAtCompletion(RmaInterceptor):
    """The origin's clock as each completion is announced: a hook sees it
    before the transfer is charged, on either path."""

    def __init__(self, rt: RmaRuntime) -> None:
        self.rt, self.seen = rt, []

    def after_comm(self, action) -> None:
        self.seen.append(self.rt.cluster.clock(action.src).now)


def _run(backend: str, dtype, queued: bool) -> dict:
    """Run :func:`_program` on rank 0 toward rank 1; record everything observable."""
    rt = RmaRuntime(Cluster.simple(4, procs_per_node=2), backend=backend)
    try:
        rt.win_allocate("w", 64, dtype=dtype)
        stack = build_ft_stack(rt, recovery="localized")  # the action log
        announced = _ClockAtCompletion(rt)
        rt.add_interceptor(announced)
        edges = _edges(dtype)
        rt.local(1, "w")[:] = np.resize(np.array(edges, dtype=dtype), 64)
        issued, issue = [], rt.backend.issue
        rt.backend.issue = lambda op: issued.append(op) or issue(op)
        returned = []
        with _arithmetic(dtype):  # entered once the proc workers are forked
            for index, (method, offset, args) in enumerate(_program(dtype)):
                # The same operation of the origin toward rank 2: queued ahead of
                # the call (which then completes with its pair), or issued after it.
                elsewhere = (0, 2, "w", index % 64, [index])
                if queued:
                    rt.put_nb(*elsewhere)
                locked = method == "fetch_and_op"
                if locked:
                    rt.lock(0, 1)
                returned.append(getattr(rt, method)(0, 1, "w", offset, *args))
                if locked:
                    rt.unlock(0, 1)
                if not queued:
                    rt.put_nb(*elsewhere)
                rt.flush(0, 2)
            rt.flush_all(0)
        calls = len(returned)
        assert len(issued) == (2 * calls if queued else calls)  # the path taken
        clocks = [rt.cluster.clock(r) for r in range(4)]
        metrics = rt.cluster.metrics.snapshot()
        return {
            "windows": [rt.local(r, "w").tobytes() for r in range(4)],
            "returned": [_value(x) for x in returned],
            "log": [_record(a) for a in stack.log.actions],
            "clocks": [(c.now, c.ticks, c.protocol) for c in clocks],
            "clock_at_completion": announced.seen,
            "counters": {
                name: (value, metrics.per_rank.get(name))
                for name, value in metrics.totals.items()
                if name.startswith("rma.")
            },
            "records": [_counters(own) for own in rt.counters.records],
        }
    finally:
        rt.finalize()


def _value(x):
    """A returned value's type and bits (``None`` for a put's or accumulate's record)."""
    if isinstance(x, OpHandle):
        return None
    return type(x).__name__, np.asarray(x).dtype.str, np.asarray(x).tobytes()


def _record(action) -> tuple:
    """Everything a logged action carries but its issue id."""
    fields = (action.data, action.operand, action.compare)
    return (
        action.kind, action.src, action.trg, action.window, action.offset, action.count,
        action.combine, action.op, action.nbytes, str(action.dtype),
        (action.EC, action.GC, action.SC, action.GNC),
        *(_value(f) if f is not None else None for f in fields),
    )


def _counters(own) -> tuple:
    return (
        dict(own.epoch_of_target), dict(own.pending_ops), own.gc, own.gnc,
        own.sc_local, dict(own.sc_held), dict(own.held_locks),
    )


@contextlib.contextmanager
def _arithmetic(dtype):
    """The edge operands' arithmetic: NaN and infinities raise IEEE flags (not
    here), integers wrap silently, as the array path does (no warning).

    Entered only once the runtime is built: with a second thread alive,
    ``fork()`` of the ``proc`` workers warns on Python 3.12, and the filter
    would raise that warning."""
    if np.dtype(dtype).kind == "f":
        with np.errstate(all="ignore"):
            yield
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_the_reference_program_exercises_what_it_claims(dtype):
    observed = _run("sim", dtype, queued=False)
    fetched = [r for r in observed["returned"] if r is not None]
    scalars = [r for r in fetched if r[0] == np.dtype(dtype).type.__name__]
    assert len(scalars) == 2 * len(_edges(dtype)) + len(AccumulateOp) * len(_edges(dtype))
    assert all(r[1] == np.dtype(dtype).str for r in fetched)
    # Every get-like fetched value is in the log, as a scalar for the atomics.
    kinds = [entry[0].value for entry in observed["log"]]
    assert kinds.count("fetch_and_op") == len(AccumulateOp) * len(_edges(dtype))
    # One put per edge, and every call's neighbouring put toward rank 2.
    assert kinds.count("put") == len(_edges(dtype)) + len(_program(dtype))


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_integer_atomic_wraps_around_silently(backend):
    rt = RmaRuntime(Cluster.simple(2), backend=backend)
    try:
        rt.win_allocate("w", 2, dtype=np.int64)
        rt.local(1, "w")[:] = BIG
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rt.fetch_and_op(0, 1, "w", 0, 1) == BIG
            assert rt.fetch_and_op(0, 1, "w", 1, 2, AccumulateOp.PROD) == BIG
        assert rt.local(1, "w").tolist() == [-BIG - 1, -2]
    finally:
        rt.finalize()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_in_place_equals_the_queued_path(backend, dtype):
    reference = _run("sim", dtype, queued=False)
    for queued in [True] if backend == "sim" else [False, True]:
        observed = _run(backend, dtype, queued)
        for key in reference:
            assert observed[key] == reference[key], (key, "queued" if queued else "in place")


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_a_one_element_atomic_converts_its_operand_as_an_array_would(dtype):
    rt = RmaRuntime(Cluster.simple(2), backend="sim")
    rt.win_allocate("w", 4, dtype=dtype)
    values = [1.75, -2, True, np.float32(0.1), np.int64(7)]
    if np.dtype(dtype).kind == "f":
        values += [np.nan, -0.0, np.inf, 1e300, "2.5"]
    with np.errstate(all="ignore"):
        for value in values:
            rt.fetch_and_op(0, 1, "w", 0, value, AccumulateOp.REPLACE)
            got = rt.fetch_and_op(0, 1, "w", 0, 0, AccumulateOp.NO_OP)
            expected = np.array([value], dtype=dtype)[0]
            assert type(got) is type(expected) and got.tobytes() == expected.tobytes()


def test_a_directly_built_one_element_atomic_applies_as_an_issued_one():
    """The constructor holds a one-element atomic's operand and compare value
    0-d, so ``apply_action`` (the ``proc`` worker's path) takes them as scalars."""
    window = Window("w", 4, np.float64, 2)
    window.buffers[1][:] = [5.0, 7.0, 0.0, 0.0]
    where = {"src": 0, "trg": 1, "window": "w", "count": 1, "combine": True}
    fao = CommAction(OpKind.FETCH_AND_OP, offset=0, op=AccumulateOp.SUM, data=[2.0], **where)
    cas = CommAction(OpKind.COMPARE_AND_SWAP, offset=1, data=[9.0], compare=[7.0], **where)
    for action in (fao, cas):
        apply_action(action, window)
    assert (fao.data, cas.data) == (5.0, 7.0) and np.ndim(fao.data) == np.ndim(cas.data) == 0
    assert window.buffers[1].tolist() == [7.0, 9.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        CommAction(OpKind.FETCH_AND_OP, offset=0, data=[1.0, 2.0], **where)


class _SuspendsTheTarget(RmaInterceptor):
    """Fails a fetch-and-op's target between its issue and its completion."""

    def __init__(self, rt: RmaRuntime) -> None:
        self.rt = rt

    def before_comm(self, action) -> None:
        if action.kind is OpKind.FETCH_AND_OP:
            self.rt.cluster.fail_rank(action.trg)
            self.rt.observe_failures()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_diverted_one_element_atomic_returns_a_scalar_too(backend):
    """Toward a suspended rank (a drop, or a stale checkpointed copy), toward an
    excised one (zero), and behind queued operations toward a rank suspended
    before the pair completes: a scalar of the window dtype every time."""
    rt = RmaRuntime(Cluster.simple(4, procs_per_node=2), backend=backend)
    try:
        rt.win_allocate("w", 4)
        stack = build_ft_stack(rt, recovery="best_effort")
        for rank in (1, 2, 3):
            rt.local(rank, "w")[:] = 5.0
        stack.checkpointer.checkpoint()
        rt.cluster.fail_rank(2)
        rt.observe_failures()  # suspended
        got = [rt.fetch_and_op(0, 2, "w", i % 4, 1.0) for i in range(8)]
        got.append(rt.compare_and_swap(0, 2, "w", 0, 5.0, 1.0))
        assert {float(g) for g in got} == {0.0, 5.0}  # dropped and stale service
        rt.cluster.fail_rank(3)
        rt.observe_failures()
        rt.excise_rank(3)
        got.append(rt.fetch_and_op(0, 3, "w", 0, 1.0))
        rt.add_interceptor(_SuspendsTheTarget(rt))
        rt.put_nb(0, 1, "w", 1, [2.0])
        got.append(rt.fetch_and_op(0, 1, "w", 0, 1.0))
        assert rt.cluster.metrics.get("qos.dropped_puts") == 1  # resolved with its pair
        assert all(type(g) is np.float64 for g in got), [type(g) for g in got]
    finally:
        rt.finalize()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_multi_element_operand_of_a_one_element_atomic_is_refused(backend):
    """Before: ``fetch_and_op`` wrote both elements and counted 16 bytes, and
    ``compare_and_swap`` compared a (1, 2) array with one element, never swapping."""
    with repro.launch(4, backend=backend) as job:
        job.allocate("w", 8)
        rt = job.runtime
        probes = [
            lambda: rt.fetch_and_op(0, 1, "w", 2, [1.0, 2.0]),
            lambda: rt.fetch_and_op(0, 1, "w", 2, np.ones(3), AccumulateOp.MAX),
            lambda: rt.fetch_and_op(0, 1, "w", 2, [1.0]),
            lambda: rt.compare_and_swap(0, 1, "w", 0, [0.0, 0.0], [9.0, 9.0]),
            lambda: rt.compare_and_swap(0, 1, "w", 0, [0.0, 0.0], 9.0),
            lambda: rt.compare_and_swap(0, 1, "w", 0, 0.0, np.array([9.0, 9.0])),
        ]
        before = (
            rt.cluster.metrics.snapshot(), [rt.cluster.now(r) for r in range(4)],
            rt.counters.snapshot(),
        )
        for probe in probes:
            with pytest.raises(
                WindowError,
                match=r"window 'w'.s dtype float64 \(origin rank 0\).*scalars, not arrays",
            ):
                probe()
        after = (
            rt.cluster.metrics.snapshot(), [rt.cluster.now(r) for r in range(4)],
            rt.counters.snapshot(),
        )
        assert after == before and rt.pending_nb_ops() == 0
        assert not job.gather("w").any()
        assert rt.fetch_and_op(0, 1, "w", 2, np.array(4.0)) == 0.0  # a 0-d array is one
        assert rt.local(1, "w")[2:4].tolist() == [4.0, 0.0]
