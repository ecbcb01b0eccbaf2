"""The real-process backend — ranks are OS processes, windows live in shm.

Every other backend executes RMA operations inside the coordinating Python
process; a simulated failure is just an exception.  :class:`ProcBackend`
makes the paper's fail-stop model *physical*:

* window storage is allocated in POSIX shared memory
  (:class:`multiprocessing.shared_memory.SharedMemory`): one segment per
  window holding its rank-major ``(nprocs, size)`` array, mapped by the
  supervisor and by every worker;
* each rank gets a **worker**: a forked OS process that owns the rank's
  execution vehicle.  Queued operations of origin ``src`` are shipped to
  ``src``'s worker at completion time as one flat binary message over a
  pipe (fixed-size records, one per action or per run of back-to-back puts,
  + raw operand bytes; layout in ``docs/ARCHITECTURE.md``) and applied there,
  a put run as one bounds-checked byte copy and any other action by the *same*
  :func:`~repro.backends.base.apply_action` the in-process backends use;
* the supervisor keeps the control plane — scheduler, runtime, counters,
  interceptors, checkpoint stores — in its own heap.  Checkpoint copies
  therefore survive any worker's death by construction, which is exactly the
  paper's requirement that recovery data outlive the failed process.

Death detection is *physical* too: a worker killed with ``SIGKILL`` (see
:mod:`repro.ft.inject`) is noticed through its process sentinel — either
synchronously, when a batch dispatch finds the pipe dead, or via
:meth:`ProcBackend.poll_failures`, one ``poll(0)`` system call per blocking
call, sync action and collective.  A nonblocking issue only queues and makes
none: it reads ``_discovered_dead`` (what ``wait_dead``, a dead pipe or a
mid-batch kill noted), so a worker killed silently from outside is observed by
the next completing or synchronising action.  Both routes converge
on the same fail-stop surfacing (:class:`~repro.errors.ProcessFailedError`,
window invalidation, interceptor notification) that simulated failures use,
so the fault-tolerance protocols cannot tell a real kill from an injected
exception — which is what makes the sim backend a valid oracle for killed
runs (the differential harness in ``tests/test_differential.py``).

A batch interrupted mid-apply by a kill leaves partial writes in shared
memory; the supervisor snapshots every target range before dispatching and
rolls the partial effects back, so a killed completion is effect-free —
matching the queue-discard semantics recovery relies on.
"""

from __future__ import annotations

import atexit
import functools
import multiprocessing
import os
import pickle
import select
import signal
import struct
import time
from dataclasses import dataclass
from multiprocessing import connection, shared_memory

import numpy as np

from repro.backends import BACKENDS
from repro.backends.base import Backend, _coalesce_puts, apply_action
from repro.errors import BackendError, ProcessFailedError, WatchdogError, WindowError
from repro.rma.actions import _COMPARE_AND_SWAP, _PUT, AccumulateOp, CommAction, OpKind
from repro.rma.window import Window

__all__ = ["ProcBackend", "SharedWindow", "proc_available"]

#: Segments whose close() hit a live exported view (e.g. an in-flight
#: exception's traceback frames holding window views while the session tears
#: down).  Parking them here keeps their __del__ from retrying — and warning —
#: at some arbitrary GC point; they are re-tried once the views are gone.
_deferred_closes: list[shared_memory.SharedMemory] = []


def _drain_deferred_closes() -> None:
    """Close the parked segments whose views died.  Re-entrant (a ``close`` may run
    a finalizer that drains again): the list is rebuilt from those still refusing."""
    parked, _deferred_closes[:] = _deferred_closes[:], []
    for seg in parked:
        try:
            seg.close()
        except BufferError:
            _deferred_closes.append(seg)


atexit.register(_drain_deferred_closes)

# The wire (table in docs/ARCHITECTURE.md): every pipe message starts with a
# one-byte tag.  The two hot messages are flat binary; the cold control ones
# (attach, ping/pong, sleep, exit, err) are pickled tuples whose first byte —
# pickle's PROTO opcode — *is* their tag, so ``Connection.send``/``recv`` speak them.
_APPLY = 1  #: supervisor -> worker: header, n records, operand bytes
_OK = 2  #: worker -> supervisor: the bytes fetched by the get-like records
_CONTROL = pickle.PROTO[0]  #: either way: ``pickle.dumps(tuple)``
_NO_REPLY = ("attach", "sleep")  #: the control messages a worker does not answer
_HEADER = struct.Struct("<BIi")  #: tag, n, die_after (-1: not armed)
_RECORD = struct.Struct("<BBHIQQ")  #: kind, op, window id, trg, offset, count
#: Enums cross as their definition index: both ends are forks of one interpreter.
_KINDS, _OPS = tuple(OpKind), tuple(AccumulateOp)
_FRAME, _LONG_FRAME = struct.Struct("!i"), struct.Struct("!Q")  #: ``Connection``'s lengths


def _recv(fd: int, buf: bytearray) -> bytearray:
    """The next ``Connection``-framed message off ``fd``, one ``os.read`` per message that
    has arrived whole; bytes read past it stay in ``buf`` (one per pipe end) for the next."""
    while True:
        size, head = (_FRAME.unpack_from(buf)[0] if len(buf) >= 4 else -2), 4
        if size == -1 and len(buf) >= 12:  # a body of >= 2 GiB: its length in 8 bytes
            size, head = _LONG_FRAME.unpack_from(buf, 4)[0], 12
        if 0 <= size <= len(buf) - head:
            message, buf[: head + size] = buf[head : head + size], b""
            return message
        if not (chunk := os.read(fd, 1 << 16)):
            raise EOFError
        buf += chunk


@functools.lru_cache(maxsize=1)
def proc_available() -> bool:
    """Whether this platform supports the real-process backend.

    Requires the ``fork`` start method (workers inherit the loaded modules
    and the supervisor's file descriptors) and working POSIX shared memory.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    try:
        probe = shared_memory.SharedMemory(create=True, size=8)
    except (OSError, ValueError):  # pragma: no cover - platform dependent
        return False
    probe.close()
    probe.unlink()
    return True


class SharedWindow(Window):
    """A :class:`Window` whose ``(nprocs, size)`` array is one shm segment.

    The segment is owned (created and unlinked) by the supervisor; workers
    attach by name.  Every state transition writes the row in place (as on
    any window), so the supervisor's view stays the memory the workers write.
    """

    def __init__(self, name: str, size: int, dtype: np.dtype, nprocs: int) -> None:
        dtype = np.dtype(dtype)
        self.shm: shared_memory.SharedMemory | None = shared_memory.SharedMemory(
            create=True, size=max(1, size * dtype.itemsize * nprocs)
        )
        array = np.frombuffer(self.shm.buf, dtype, size * nprocs).reshape(nprocs, size)
        array[...] = 0
        super().__init__(name=name, size=size, dtype=dtype, nprocs=nprocs, array=array)
        #: The window's name on the wire: its position in attach order.
        self.wire_id = -1

    @property
    def segment_name(self) -> str:
        """Name workers attach the underlying segment by."""
        if self.shm is None:
            raise WindowError(f"window {self.name!r} detached from shared memory")
        return self.shm.name

    def detach(self) -> None:
        """Swap the array for a private copy; close and unlink the segment.

        Idempotent.  Results gathered after a session closed keep reading
        the preserved copies.
        """
        if self.shm is None:
            return
        self.seal()  # a handed-out view must not be what pins the segment
        self.array = self.array.copy()
        self.buffers = list(self.array)
        seg, self.shm = self.shm, None
        _drain_deferred_closes()
        try:
            seg.close()
        except BufferError:
            # Someone still holds a view (typically traceback frames of an
            # exception in flight through kernel code).  Unlinking below is
            # name-based and works regardless; the mapping itself is parked
            # and closed once the views die.
            _deferred_closes.append(seg)
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class _ShmSlab:
    """Worker-side view of one shared window: its flat bytes (what a put run is
    copied into) and its ``(nprocs, size)`` rows, the buffers
    :func:`~repro.backends.base.apply_action` needs; no liveness bookkeeping (the
    supervisor owns that: nothing dies here)."""

    __slots__ = ("buffers", "dtype", "flat", "itemsize", "nprocs", "size")
    _invalidated = frozenset()

    def __init__(
        self, shm: shared_memory.SharedMemory, size: int, dtype: np.dtype, nprocs: int
    ) -> None:
        self.buffers = np.frombuffer(shm.buf, dtype, size * nprocs).reshape(nprocs, size)
        self.dtype, self.itemsize, self.size, self.nprocs = dtype, dtype.itemsize, size, nprocs
        self.flat = memoryview(shm.buf)  # rank r's row starts r * size * itemsize bytes in


def _apply_batch(rank: int, buf: bytes, slabs: list[_ShmSlab]) -> bytes:
    """Decode one ``APPLY`` message, apply its records, build the ``OK`` reply.

    A ``PUT`` record (a run) is one byte copy from ``buf`` into the segment, any other
    a :class:`CommAction` viewing its operands in ``buf`` for ``apply_action``.  Every
    id, range and the length are checked before the first write: a bad batch is refused whole.
    """
    _, n, die_after = _HEADER.unpack_from(buf)
    pos = _HEADER.size + n * _RECORD.size
    message, batch = memoryview(buf), []
    for kind_id, op_id, win_id, trg, offset, count in _RECORD.iter_unpack(
        message[_HEADER.size : pos]
    ):
        if kind_id >= len(_KINDS) or op_id >= len(_OPS) or win_id >= len(slabs):
            raise BackendError(f"record {len(batch)}: bad ids {(kind_id, op_id, win_id)}")
        kind, slab = _KINDS[kind_id], slabs[win_id]
        if trg >= slab.nprocs or offset + count > slab.size:
            raise BackendError(f"record {len(batch)}: rank {trg} [{offset}:+{count}] outside")
        if kind is _PUT:  # a run: one copy, kept in ``trg``'s row by the check above
            at, end = (trg * slab.size + offset) * slab.itemsize, pos + count * slab.itemsize
            batch.append((message[pos:end], slab.flat[at : at + end - pos]))
            pos = end
            continue
        data = compare = None
        if kind.is_put_like:
            data = np.frombuffer(buf, slab.dtype, count, pos)
            pos += data.nbytes
            if kind is _COMPARE_AND_SWAP:
                compare = np.frombuffer(buf, slab.dtype, count, pos)
                pos += compare.nbytes
        # Only what apply_action reads crossed the wire: no stamp, no window name.
        action = CommAction(
            kind, rank, trg, "", offset, count, False, None, _OPS[op_id], data, compare=compare
        )
        batch.append((action, slab))
    if pos != len(buf):  # also catches a batch cut short at a record boundary
        raise BackendError(f"batch of {n} records is {len(buf)} bytes, decodes to {pos}")
    reply = [bytes((_OK,))]
    for index, (what, where) in enumerate(batch):
        if index == die_after:
            os.kill(os.getpid(), signal.SIGKILL)
        if type(what) is memoryview:  # a put run: its payload bytes into the segment's
            where[:] = what
        else:
            apply_action(what, where)
            if what.kind.is_get_like:
                reply.append(what._data.tobytes())
    return b"".join(reply)


def _worker_main(rank: int, conn) -> None:
    """Loop of one rank's worker process.

    The parent owns every shm segment, so the child must not register
    attachments with its resource tracker — a SIGKILLed child would leak the
    registration and the tracker would spuriously unlink live segments.
    Exits via :func:`os._exit`: the forked interpreter inherited the
    supervisor's objects (windows, pipes) whose destructors must not run
    here.
    """
    from multiprocessing import resource_tracker

    resource_tracker.register = lambda *a, **k: None  # parent owns the segments
    slabs: list[_ShmSlab] = []  # attach order: the index is the wire window id
    segments: list[shared_memory.SharedMemory] = []
    failed = None  # a failed attach or sleep's error: they ask for no reply, later ones get it
    fd, unread = conn.fileno(), bytearray()
    try:
        while True:
            buf = _recv(fd, unread)
            tag = buf[0]
            try:
                if tag == _APPLY and failed is None:
                    conn.send_bytes(_apply_batch(rank, buf, slabs))
                    continue
                if tag == _CONTROL:
                    tag, *args = pickle.loads(buf)
                if tag == "exit":
                    break
                if failed is not None:  # its window ids may be off: apply nothing
                    if tag not in _NO_REPLY:
                        conn.send(("err", failed))
                elif tag == "attach":  # pipe ordering makes an ack unnecessary
                    seg_name, size, dtype_str, nprocs = args
                    seg = shared_memory.SharedMemory(name=seg_name)
                    segments.append(seg)
                    slabs.append(_ShmSlab(seg, size, np.dtype(dtype_str), nprocs))
                elif tag == "sleep":  # test hook: simulate a wedged worker
                    time.sleep(args[0])
                elif tag == "ping":
                    conn.send(("pong", os.getpid()))
                else:
                    raise BackendError(f"unknown message tag {tag!r}")
            except Exception as exc:  # noqa: BLE001 - report, don't die silently
                if tag in _NO_REPLY:  # one reply per request: hold it for the next
                    failed = f"{type(exc).__name__}: {exc}"
                else:
                    conn.send(("err", f"{type(exc).__name__}: {exc}"))
    except (EOFError, OSError):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass
        os._exit(0)


@dataclass
class _Worker:
    """Supervisor-side handle of one rank's worker process."""

    rank: int
    process: multiprocessing.process.BaseProcess
    conn: connection.Connection
    #: Persistent poll over the pipe and the process sentinel (the ack wait).
    poller: select.poll
    unread: bytearray  #: bytes read past the last reply (see :func:`_recv`)


class ProcBackend(Backend):
    """Deferred execution by real per-rank OS processes over shared memory."""

    name = "proc"

    #: Seconds a batch dispatch waits for the worker's ack before declaring
    #: the job wedged (a real deadlock raises a diagnostic
    #: :class:`~repro.errors.WatchdogError` instead of hanging CI).
    DEFAULT_ACK_TIMEOUT = 60.0
    #: Seconds :meth:`wait_dead` waits for a killed worker to terminate.
    DEATH_WAIT_S = 10.0

    def __init__(self, *, ack_timeout: float = DEFAULT_ACK_TIMEOUT) -> None:
        if not proc_available():  # pragma: no cover - platform dependent
            raise BackendError(
                "backend 'proc' needs the fork start method and POSIX shared "
                "memory; neither is available on this platform"
            )
        super().__init__()
        self.ack_timeout = ack_timeout
        self._ctx = multiprocessing.get_context("fork")
        self._workers: dict[int, _Worker] = {}
        #: Deaths discovered by a dispatch (pipe EOF/sentinel) or ``wait_dead``
        #: but not yet reported (``is_alive()`` can lag the pipe by microseconds
        #: after a SIGKILL).  Never rebound: the runtime's nonblocking issue
        #: path holds this very set and reads its truthiness.
        self._discovered_dead: set[int] = set()
        #: One poll object over the process sentinels of the workers not yet
        #: reported dead (``fd -> rank``; a report unwatches, a respawn watches
        #: the new incarnation, so each is reported at most once): a sentinel
        #: turns readable when its process ends — one ``poll(0)`` checks them all.
        self._poller = select.poll()
        self._watched: dict[int, int] = {}
        #: Pending self-kill instrumentation: rank -> ops to apply first.
        self._armed_kills: dict[int, int] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle and window storage
    # ------------------------------------------------------------------
    def bind(self, nprocs: int) -> None:
        super().bind(nprocs)
        for rank in range(nprocs):
            self._workers[rank] = self._spawn(rank)

    def create_window(self, name: str, size: int, dtype: np.dtype) -> Window:
        window = self.windows.create(
            name, size, dtype, self.nprocs, factory=SharedWindow
        )
        assert isinstance(window, SharedWindow)
        window.wire_id = len(self.windows) - 1
        for worker in self._workers.values():
            if worker.process.is_alive():
                self._send_attach(worker, window)
        return window

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for fd in self._watched:
            self._poller.unregister(fd)
        self._watched.clear()
        for worker in self._workers.values():
            if worker.process.is_alive():
                try:
                    worker.conn.send(("exit",))
                except (BrokenPipeError, OSError):
                    pass
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.kill()
                worker.process.join(timeout=2.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            worker.process.close()
        self._workers.clear()
        for window in self.windows.all():
            if isinstance(window, SharedWindow):
                window.detach()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown guard
        try:
            self.close()
        except Exception:  # noqa: BLE001 - never raise from a destructor
            pass

    # ------------------------------------------------------------------
    # Real-failure plumbing
    # ------------------------------------------------------------------
    def poll_failures(self) -> list[int]:
        ended = self._poller.poll(0)
        if not ended and not self._discovered_dead:
            return []
        dead = sorted(self._discovered_dead.union(self._watched[fd] for fd, _ in ended))
        for rank in dead:
            self._discovered_dead.discard(rank)
            self._unwatch(rank)
            self._note_death(rank)
        return dead

    def _unwatch(self, rank: int) -> None:
        """Stop polling ``rank``'s sentinel (reported, replaced or closing)."""
        for fd in [fd for fd, watched in self._watched.items() if watched == rank]:
            self._poller.unregister(fd)
            del self._watched[fd]

    def respawn_rank(self, rank: int) -> None:
        old = self._workers.get(rank)
        if old is not None:
            self._unwatch(rank)
            if old.process.is_alive():
                # A *virtually*-failed rank (marked with Cluster.fail_rank, no
                # SIGKILL) still has a live OS worker; the replacement takes over the
                # rank, so the stale vehicle is terminated rather than joined.
                old.process.kill()
            old.process.join(timeout=2.0)
            try:
                old.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            old.process.close()
        worker = self._workers[rank] = self._spawn(rank)
        self._discovered_dead.discard(rank)
        for window in self.windows.all():
            if isinstance(window, SharedWindow):
                self._send_attach(worker, window)

    def worker_pid(self, rank: int) -> int:
        """OS pid of ``rank``'s current worker (the kill target)."""
        return self._require_worker(rank).process.pid

    def wait_dead(self, rank: int) -> bool:
        """Block until ``rank``'s worker has terminated (sentinel wait, at most
        :attr:`DEATH_WAIT_S` seconds).

        A confirmed death is recorded for :meth:`poll_failures`: the sentinel
        can fire microseconds before the process becomes waitable, so a
        subsequent ``is_alive()`` is allowed to lag behind the truth.
        """
        worker = self._require_worker(rank)
        dead = not worker.process.is_alive() or bool(
            connection.wait([worker.process.sentinel], self.DEATH_WAIT_S)
        )
        if dead:
            self._note_death(rank)
        return dead

    def arm_kill(self, rank: int, after_ops: int) -> None:
        """Make ``rank``'s worker SIGKILL itself mid-batch.

        The worker dies immediately before applying the ``after_ops``-th
        operation of its subsequently dispatched batches (counted across
        batches) — the instrumentation the kill-timing stress tests use to
        hit the partial-batch rollback path deterministically.
        """
        if after_ops < 0:
            raise BackendError("after_ops must be non-negative")
        self._armed_kills[rank] = after_ops

    def ping(self, rank: int) -> bool:
        """Round-trip liveness probe of ``rank``'s worker."""
        worker = self._require_worker(rank)
        try:
            worker.conn.send(("ping",))
        except (BrokenPipeError, OSError):
            return False
        reply = self._await_reply(worker)
        return bool(reply) and reply[0] == _CONTROL and pickle.loads(reply)[0] == "pong"

    def describe_rank(self, rank: int) -> str:
        worker = self._workers.get(rank)
        if worker is None:
            return "no worker"
        process = worker.process
        known_dead = rank not in self._watched.values() or rank in self._discovered_dead
        alive = process.is_alive() and not known_dead
        state = "alive" if alive else f"dead exitcode={process.exitcode}"
        return f"pid={process.pid} {state} pending={self.pending_ops(rank)}"

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _spawn(self, rank: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(rank, child_conn),
            name=f"repro-proc-rank-{rank}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._poller.register(process.sentinel, select.POLLIN)
        self._watched[process.sentinel] = rank
        poller = select.poll()
        poller.register(parent_conn.fileno(), select.POLLIN)
        poller.register(process.sentinel, select.POLLIN)
        return _Worker(rank, process, parent_conn, poller, bytearray())

    @staticmethod
    def _send_attach(worker: _Worker, window: SharedWindow) -> None:
        try:
            worker.conn.send(
                ("attach", window.segment_name, window.size, str(window.dtype), window.nprocs)
            )
        except (BrokenPipeError, OSError):  # dead worker: poll reports it
            pass

    def _require_worker(self, rank: int) -> _Worker:
        worker = self._workers.get(rank)
        if worker is None:
            raise BackendError(f"no worker exists for rank {rank} (backend unbound?)")
        return worker

    def _note_death(self, rank: int) -> None:
        """Record a death discovered by a dispatch and reap the zombie.

        It stays queued for :meth:`poll_failures` (it must still reach the cluster
        through the ordinary observation path) until a report or a respawn.
        """
        if rank in self._watched.values():  # else: this incarnation was reported
            self._discovered_dead.add(rank)
        worker = self._workers.get(rank)
        if worker is not None:
            worker.process.join(timeout=0)  # reap the zombie

    def _apply(self, src: int, batch: list[CommAction]) -> None:
        """Ship a batch to ``src``'s worker and fold its results back.

        Raises :class:`~repro.errors.ProcessFailedError` — with the canonical
        fail-stop message, so exception identity holds across backends — when
        the worker is (or dies) instead of acking; partial effects of a
        mid-batch death are rolled back first, and the batch stays queued.
        """
        worker = self._workers.get(src)
        if worker is None:  # a dead worker fails the send or fires its sentinel below
            self._note_death(src)
            raise ProcessFailedError(src)
        die_after = self._armed_kills.pop(src, None)
        if die_after is not None and die_after >= len(batch):
            # Not reached within this batch: keep the remainder armed.
            self._armed_kills[src] = die_after - len(batch)
            die_after = None
        windows = self.windows._windows  # issued against registered windows
        if die_after is None:
            entries = _coalesce_puts(batch, windows)
        else:  # an armed kill counts operations: one record per action
            entries = [_coalesce_puts([op], windows)[0] for op in batch]
        records = [_HEADER.pack(_APPLY, len(entries), -1 if die_after is None else die_after)]
        operands: list[bytes] = []
        undo = []
        fetched = 0  # bytes the get-like actions will send back
        for a, win, count, data in entries:
            kind, trg, offset = a.kind, a.trg, a.offset
            kind_id, op_id = _KINDS.index(kind), _OPS.index(a.op)
            records.append(_RECORD.pack(kind_id, op_id, win.wire_id, trg, offset, count))
            if kind.is_put_like:
                saved = win.buffers[trg][offset : offset + count].copy()
                undo.append((win, trg, offset, saved))
                if kind is _PUT:  # a run's payloads are their bytes already
                    operands += data
                else:  # the runtime coerced these to the window dtype (hand-built ones here)
                    operands.append(np.asarray(data, win.dtype).tobytes())
                    if kind is _COMPARE_AND_SWAP:
                        operands.append(np.asarray(a.compare, win.dtype).tobytes())
            if kind.is_get_like:
                fetched += count * win.itemsize
        try:
            worker.conn.send_bytes(b"".join(records + operands))
        except (BrokenPipeError, OSError):
            self._note_death(src)
            raise ProcessFailedError(src) from None
        reply = self._await_reply(worker)
        if reply is None:
            # The worker died mid-batch: partial writes are already in shared
            # memory.  Restore the snapshots (newest first) so the aborted
            # completion is effect-free, like a discarded queue.
            for win, trg, offset, saved in reversed(undo):
                win.buffers[trg][offset : offset + saved.size] = saved
                win.stamps[trg] += 1
            self._note_death(src)
            raise ProcessFailedError(src)
        if reply[0] != _OK or len(reply) != 1 + fetched:
            detail = pickle.loads(reply)[1] if reply[0] == _CONTROL else repr(reply[:16])
            raise BackendError(f"proc worker {src} failed to apply a batch: {detail}")
        # Mirror apply_action's two mutations onto the supervisor's originals:
        # an atomic's operand is preserved for the replay log, then get-like
        # data takes the fetched values (a copy, owning its memory; a
        # one-element atomic's is a scalar).
        pos = 1
        for a, win, _, _ in entries:
            if a.kind.is_atomic and a._operand is None:
                a._operand = a._data
            if a.kind.is_get_like:
                fetched = np.frombuffer(reply, win.dtype, a.count, pos)
                a._data = fetched[0] if a.kind.is_scalar else fetched.copy()
                pos += fetched.nbytes

    def apply_one(self, action: CommAction, win: Window) -> None:
        """The single-action hook: the worker applies ``action`` as a batch of one."""
        self._apply(action.src, [action])

    def _await_reply(self, worker: _Worker) -> bytes | None:
        """Wait for the worker's reply, its death (``None``), or the watchdog timeout."""
        ready = dict(worker.poller.poll(0 if worker.unread else self.ack_timeout * 1000.0))
        if worker.unread or worker.conn.fileno() in ready:  # bytes read ahead: no wait
            try:
                return _recv(worker.conn.fileno(), worker.unread)
            except (EOFError, OSError):
                return None
        if ready:  # only the sentinel fired: the worker died
            return None
        raise WatchdogError(
            f"proc worker of rank {worker.rank} sent no reply within "
            f"{self.ack_timeout:.1f}s; worker states:\n"
            + "\n".join(
                f"  rank {r}: {self.describe_rank(r)}" for r in sorted(self._workers)
            )
        )


if proc_available():  # an unsupported platform gets a clean unknown-name error
    BACKENDS[ProcBackend.name] = ProcBackend
