"""Per-rank views of a running job: what an SPMD kernel sees.

A kernel is written from the perspective of *one* rank::

    def kernel(ctx, step):
        w = ctx.win("u")                 # window handle of this rank
        w[ctx.rank + 1, 0:4] = data      # one-sided put into a peer
        yield ctx.gsync()                # suspend at the collective
        total = w.local.sum()            # plain numpy on the own buffer

The :class:`RankContext` binds every runtime operation to its rank, so no
``src`` argument is ever threaded through application code.  Collectives
(:meth:`RankContext.gsync`, :meth:`RankContext.barrier`) return a
:class:`Collective` token that a generator kernel must ``yield``; the
cooperative scheduler performs the operation once, when every rank of the
phase has arrived (see :mod:`repro.api.scheduler`).
"""

from __future__ import annotations

import enum
from operator import index as _index
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SchedulerError, WindowError
from repro.rma.actions import AccumulateOp, CommAction, OpHandle, SyncAction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.rma.runtime import RmaRuntime

__all__ = ["Collective", "RankContext", "WindowHandle"]


class Collective(enum.Enum):
    """Suspension tokens for collective operations inside kernels."""

    GSYNC = "gsync"
    BARRIER = "barrier"


class WindowHandle:
    """Numpy-flavoured view of one window, bound to one origin rank.

    ``w[trg, off:off+k]`` reads ``k`` elements from rank ``trg`` (a one-sided
    get); ``w[trg, off:off+k] = data`` writes them (a one-sided put).  Integer
    indices address single elements.  :attr:`local` is a mutable numpy view of
    the origin's own buffer — plain loads and stores, no runtime call.

    The indexing forms are *blocking* (issue + immediate completion).  The
    ``*_nb`` methods issue nonblocking operations returning an
    :data:`~repro.rma.actions.OpHandle`; their effects and buffers
    materialize when a ``flush``/``unlock``/``gsync`` closes the epoch, and a
    batching backend may coalesce them into vectorized writes in between.
    """

    __slots__ = ("_ctx", "name", "_window")

    def __init__(self, ctx: "RankContext", name: str) -> None:
        self._ctx = ctx
        self.name = name
        #: The window, resolved on first use (a handle may precede allocation).
        self._window = None

    @property
    def size(self) -> int:
        """Elements per rank in this window."""
        if self._window is None:
            self._window = self._ctx._runtime.window(self.name)
        return self._window.size

    @property
    def local(self) -> np.ndarray:
        """View of the origin rank's own buffer, writable until the step ends."""
        return self._ctx._runtime.local_view(self._ctx.rank, self.name)

    def _where(self) -> str:
        """Locator suffix used by every handle-level error message."""
        return f"window {self.name!r} (origin rank {self._ctx.rank})"

    def _integral(self, what: str, value) -> int:
        """``value`` as an integer index (numpy integers included), or a
        :class:`~repro.errors.WindowError` that names the origin."""
        try:
            return _index(value)
        except TypeError:
            raise WindowError(
                f"{what} must be an integer, got {value!r} for {self._where()}"
            ) from None

    def _check_trg(self, trg: int) -> int:
        """Validate a target rank before it ever reaches the runtime."""
        trg = self._integral("target rank", trg)
        if not 0 <= trg < self._ctx.nranks:
            raise WindowError(
                f"target rank {trg} out of range 0..{self._ctx.nranks - 1} "
                f"for {self._where()}"
            )
        return trg

    def _resolve(self, index: int | slice) -> tuple[int, int]:
        """Normalize an element index/slice into ``(offset, count)``."""
        size = self.size
        if isinstance(index, slice):
            if index.step not in (None, 1):
                raise WindowError(
                    f"only unit-stride slices are supported on {self._where()}, "
                    f"got {index!r}"
                )
            offset, stop, _ = index.indices(size)
            count = stop - offset
            if count <= 0:
                raise WindowError(f"zero-length slice {index!r} on {self._where()}")
            return offset, count
        offset = self._integral("index", index)
        if offset < 0:
            offset += size
        if not 0 <= offset < size:
            raise WindowError(
                f"index {index} out of bounds for {self._where()} of size {size}"
            )
        return offset, 1

    def _reject(self, trg: int, offset: int) -> None:
        """Name what the inline check of a ``*_nb`` method refused: a target
        rank out of range or a negative explicit offset, with the origin.
        Integrality, count and upper bound are checked once, by the runtime
        at issue."""
        self._check_trg(trg)
        raise WindowError(
            f"negative offset {self._integral('offset', offset)} into {self._where()}"
        )

    def __getitem__(self, key: tuple[int, int | slice]) -> np.ndarray | float:
        """``w[trg, index]`` — one-sided get from rank ``trg``."""
        trg, index = key
        trg = self._check_trg(trg)
        offset, count = self._resolve(index)
        data = self._ctx.get(trg, self.name, offset, count)
        return data if isinstance(index, slice) else float(data[0])

    def __setitem__(self, key: tuple[int, int | slice], value) -> None:
        """``w[trg, index] = value`` — one-sided put into rank ``trg``."""
        trg, index = key
        trg = self._check_trg(trg)
        offset, count = self._resolve(index)
        payload = np.broadcast_to(np.asarray(value), (count,))
        self._ctx.put(trg, self.name, offset, payload)

    def accumulate(
        self,
        trg: int,
        offset: int,
        data: np.ndarray,
        op: AccumulateOp = AccumulateOp.SUM,
    ) -> CommAction:
        """Combining put into rank ``trg`` at ``offset`` (MPI_Accumulate)."""
        return self._ctx.accumulate(self._check_trg(trg), self.name, offset, data, op)

    # --- nonblocking variants -------------------------------------------
    def put_nb(self, trg: int, offset: int, data: np.ndarray) -> OpHandle:
        """Nonblocking put into rank ``trg``; completes at flush/unlock/gsync."""
        ctx = self._ctx
        if not 0 <= trg < ctx.nranks or offset < 0:
            self._reject(trg, offset)
        return ctx._runtime.put_nb(ctx.rank, trg, self.name, offset, data)

    def get_nb(self, trg: int, offset: int, count: int) -> OpHandle:
        """Nonblocking get from rank ``trg``; the handle's buffer materializes
        at the next flush/unlock/gsync towards ``trg``."""
        ctx = self._ctx
        if not 0 <= trg < ctx.nranks or offset < 0:
            self._reject(trg, offset)
        return ctx._runtime.get_nb(ctx.rank, trg, self.name, offset, count)

    def accumulate_nb(
        self,
        trg: int,
        offset: int,
        data: np.ndarray,
        op: AccumulateOp = AccumulateOp.SUM,
    ) -> OpHandle:
        """Nonblocking combining put into rank ``trg``."""
        ctx = self._ctx
        if not 0 <= trg < ctx.nranks or offset < 0:
            self._reject(trg, offset)
        return ctx._runtime.accumulate_nb(ctx.rank, trg, self.name, offset, data, op)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WindowHandle({self.name!r}, rank={self._ctx.rank})"


class RankContext:
    """Everything one rank of an SPMD job may do, with its rank pre-bound."""

    __slots__ = ("_runtime", "rank", "nranks", "_issued", "_handles")

    def __init__(self, runtime: "RmaRuntime", rank: int) -> None:
        self._runtime = runtime
        self.rank = rank
        self.nranks = runtime.nprocs
        #: Collective tokens issued but not yet yielded to the scheduler.
        self._issued: list[Collective] = []
        self._handles: dict[str, WindowHandle] = {}

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------
    def win(self, name: str) -> WindowHandle:
        """Handle on window ``name``, bound to this rank."""
        handle = self._handles.get(name)
        if handle is None:
            handle = self._handles[name] = WindowHandle(self, name)
        return handle

    def local(self, window: str) -> np.ndarray:
        """View of this rank's own buffer of ``window``, writable until the step ends."""
        return self._runtime.local_view(self.rank, window)

    # ------------------------------------------------------------------
    # Communication (origin = this rank)
    # ------------------------------------------------------------------
    def put(self, trg: int, window: str, offset: int, data: np.ndarray) -> CommAction:
        """One-sided write into rank ``trg`` (MPI_Put)."""
        return self._runtime.put(self.rank, trg, window, offset, data)

    def get(self, trg: int, window: str, offset: int, count: int) -> np.ndarray:
        """One-sided read from rank ``trg`` (MPI_Get)."""
        return self._runtime.get(self.rank, trg, window, offset, count)

    def accumulate(
        self,
        trg: int,
        window: str,
        offset: int,
        data: np.ndarray,
        op: AccumulateOp = AccumulateOp.SUM,
    ) -> CommAction:
        """Combining put into rank ``trg`` (MPI_Accumulate)."""
        return self._runtime.accumulate(self.rank, trg, window, offset, data, op)

    # --- nonblocking variants (complete at flush/unlock/gsync) ----------
    def put_nb(self, trg: int, window: str, offset: int, data: np.ndarray) -> OpHandle:
        """Issue a nonblocking one-sided write into rank ``trg``."""
        return self._runtime.put_nb(self.rank, trg, window, offset, data)

    def get_nb(self, trg: int, window: str, offset: int, count: int) -> OpHandle:
        """Issue a nonblocking one-sided read from rank ``trg``.

        The returned handle's :meth:`~repro.rma.actions.CommAction.result`
        raises until a ``flush``/``unlock``/``gsync`` completes the epoch.
        """
        return self._runtime.get_nb(self.rank, trg, window, offset, count)

    def accumulate_nb(
        self,
        trg: int,
        window: str,
        offset: int,
        data: np.ndarray,
        op: AccumulateOp = AccumulateOp.SUM,
    ) -> OpHandle:
        """Issue a nonblocking combining put into rank ``trg``."""
        return self._runtime.accumulate_nb(self.rank, trg, window, offset, data, op)

    def get_accumulate(
        self,
        trg: int,
        window: str,
        offset: int,
        data: np.ndarray,
        op: AccumulateOp = AccumulateOp.SUM,
    ) -> np.ndarray:
        """Atomic combine returning the previous target values."""
        return self._runtime.get_accumulate(self.rank, trg, window, offset, data, op)

    def fetch_and_op(
        self,
        trg: int,
        window: str,
        offset: int,
        value: float,
        op: AccumulateOp = AccumulateOp.SUM,
    ) -> np.generic:
        """Single-element atomic fetch-and-op (MPI_Fetch_and_op): ``value`` and the
        previous value returned are scalars of the window dtype."""
        return self._runtime.fetch_and_op(self.rank, trg, window, offset, value, op)

    def compare_and_swap(
        self, trg: int, window: str, offset: int, compare: float, value: float
    ) -> np.generic:
        """Single-element atomic CAS; returns the previous target value, a scalar."""
        return self._runtime.compare_and_swap(
            self.rank, trg, window, offset, compare, value
        )

    def locked_fetch_and_op(
        self, trg: int, window: str, offset: int, value: float
    ) -> np.generic:
        """``lock(trg)``, a SUM :meth:`fetch_and_op`, ``unlock(trg)`` in one call (the
        Locks scheme's update); returns the fetched scalar, as the three would."""
        return self._runtime.locked_fetch_and_op(self.rank, trg, window, offset, value)

    # ------------------------------------------------------------------
    # Point-to-point synchronization
    # ------------------------------------------------------------------
    def lock(self, trg: int, structure: str | None = None) -> SyncAction:
        """Acquire a lock on rank ``trg``."""
        return self._runtime.lock(self.rank, trg, structure)

    def unlock(self, trg: int, structure: str | None = None) -> SyncAction:
        """Release a lock on rank ``trg``."""
        return self._runtime.unlock(self.rank, trg, structure)

    def flush(self, trg: int) -> SyncAction:
        """Complete all outstanding operations towards rank ``trg``."""
        return self._runtime.flush(self.rank, trg)

    def flush_all(self) -> SyncAction:
        """Complete all outstanding operations of this rank."""
        return self._runtime.flush_all(self.rank)

    # ------------------------------------------------------------------
    # Collectives — suspension tokens for the cooperative scheduler
    # ------------------------------------------------------------------
    def gsync(self) -> Collective:
        """Request a global window synchronization; ``yield`` the result.

        The returned token must be yielded by the kernel; the scheduler
        performs one :meth:`~repro.rma.runtime.RmaRuntime.gsync` when every
        rank of the phase has yielded it.
        """
        self._issued.append(Collective.GSYNC)
        return Collective.GSYNC

    def barrier(self) -> Collective:
        """Request a plain barrier; ``yield`` the result."""
        self._issued.append(Collective.BARRIER)
        return Collective.BARRIER

    # ------------------------------------------------------------------
    # Compute and clocks
    # ------------------------------------------------------------------
    def compute(self, flops: float) -> float:
        """Charge ``flops`` of application compute on this rank's clock."""
        return self._runtime.compute(self.rank, flops)

    def now(self) -> float:
        """Current virtual time of this rank."""
        return self._runtime.cluster.now(self.rank)

    # ------------------------------------------------------------------
    # Scheduler bookkeeping
    # ------------------------------------------------------------------
    def _consume_token(self, token: object) -> Collective:
        """Validate a value yielded by this rank's kernel."""
        if not isinstance(token, Collective):
            raise SchedulerError(
                f"rank {self.rank} yielded {token!r}; kernels may only yield "
                f"collective tokens (`yield ctx.gsync()` / `yield ctx.barrier()`)"
            )
        if not self._issued or self._issued[0] is not token:
            raise SchedulerError(
                f"rank {self.rank} yielded {token} without issuing it via the "
                f"context; call `yield ctx.{token.value}()`"
            )
        self._issued.pop(0)
        return token

    def _check_no_pending_collective(self) -> None:
        """A finished kernel must not leave un-yielded collectives behind."""
        if self._issued:
            pending = self._issued[0]
            self._issued.clear()
            raise SchedulerError(
                f"rank {self.rank} called ctx.{pending.value}() without yielding "
                f"it; collectives suspend the kernel, so write it as a generator "
                f"(`yield ctx.{pending.value}()`)"
            )

    def _reset(self) -> None:
        """Drop pending tokens (the step was aborted by a failure)."""
        self._issued.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RankContext(rank={self.rank}, nranks={self.nranks})"
