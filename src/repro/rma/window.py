"""RMA windows — the shared memory regions of the model (§2).

Following the paper's implementation section (§6) we assume each process
exposes one (or more) contiguous regions of memory of equal size; in MPI-3
terms every such region is a *window*.  A window is one C-contiguous
``(nprocs, size)`` numpy array, rank-major as MPI-3's
``MPI_Win_allocate_shared`` lays it out: rank ``r``'s buffer is row ``r``, which
remote processes read and write through :class:`~repro.rma.runtime.RmaRuntime`.
Every backend keeps this one layout (``proc`` backs it with shared memory), and
the checkpoint chains mirror it.

A window buffer is *invalidated* when its owner fails (fail-stop: the memory
content is lost) and *reallocated* when a replacement process is spawned; both,
and a restore, rewrite the row in place, so a row view always reads the rank's
current bytes.

Local views have a lifetime: :meth:`Window.local` and :meth:`Window.view` hand out
views writable until the next :meth:`Window.seal` (a job-step boundary, a
checkpoint, a buffer swap).  Every hand-out, and every write outside the
completion stream, moves the rank's *raw-access stamp*; while it stands still,
only logged actions touched the buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ProcessFailedError, WindowError

__all__ = ["Window", "WindowRegistry"]


@dataclass
class Window:
    """One shared memory window replicated over all ranks."""

    name: str
    size: int
    dtype: np.dtype
    nprocs: int
    #: The window's one C-contiguous ``(nprocs, size)`` array (zeros unless a
    #: backend passes storage it owns).
    array: np.ndarray | None = None
    _invalidated: set[int] = field(default_factory=set)
    #: Rank ``r``'s buffer: row ``r`` of :attr:`array`, a view.
    buffers: list[np.ndarray] = field(init=False)
    #: Bytes per element.
    itemsize: int = field(init=False)
    #: Per-rank raw-access stamp (monotone).
    stamps: list[int] = field(init=False)
    #: ``(rank, view)`` pairs handed out since the last :meth:`seal`.
    _handed: list[tuple[int, np.ndarray]] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise WindowError("window size must be positive")
        if self.nprocs <= 0:
            raise WindowError("window needs at least one process")
        self.dtype = np.dtype(self.dtype)
        self.itemsize = int(self.dtype.itemsize)
        self.stamps = [0] * self.nprocs
        if self.array is None:
            self.array = np.zeros((self.nprocs, self.size), self.dtype)
        self.buffers = list(self.array)

    # ------------------------------------------------------------------
    # Local access
    # ------------------------------------------------------------------
    @property
    def nbytes_per_rank(self) -> int:
        """Window size in bytes at each rank."""
        return self.size * self.itemsize

    def local(self, rank: int) -> np.ndarray:
        """A fresh view of ``rank``'s full buffer, writable until the next :meth:`seal`."""
        self._check_rank(rank)
        return self._hand_out(rank)

    def seal(self, rank: int | None = None) -> None:
        """End the lifetime of the handed-out views (of ``rank``, or all): a store
        through a kept one raises instead of bypassing the checkpoint's change-set."""
        if not self._handed:
            return
        handed, self._handed = self._handed, []
        for owner, view in handed:
            if rank is None or owner == rank:
                view.setflags(write=False)
                self.stamps[owner] += 1
            else:
                self._handed.append((owner, view))

    def read(self, rank: int, offset: int, count: int) -> np.ndarray:
        """Copy ``count`` elements starting at ``offset`` from ``rank``'s buffer."""
        self._check_range(rank, offset, count)
        self._check_alive(rank)
        return self.buffers[rank][offset : offset + count].copy()

    def write(self, rank: int, offset: int, data: np.ndarray) -> None:
        """Overwrite ``rank``'s buffer at ``offset`` with ``data``."""
        data = np.asarray(data, dtype=self.dtype).ravel()
        self._check_range(rank, offset, data.size)
        self._check_alive(rank)
        self.buffers[rank][offset : offset + data.size] = data
        self.stamps[rank] += 1

    def view(self, rank: int, offset: int, count: int) -> np.ndarray:
        """A view into ``rank``'s buffer, writable until the next :meth:`seal`."""
        self._check_range(rank, offset, count)
        self._check_alive(rank)
        view = self.buffers[rank][offset : offset + count]
        self._handed.append((rank, view))
        self.stamps[rank] += 1
        return view

    def _hand_out(self, rank: int) -> np.ndarray:
        """:meth:`local` for a ``rank`` known in range (the runtime's settled path
        checks it inline): like :meth:`_region`, only invalidation is checked."""
        if rank in self._invalidated:
            self._check_alive(rank)
        view = self.buffers[rank][:]
        self._handed.append((rank, view))
        self.stamps[rank] += 1
        return view

    def check_access(self, rank: int, offset: int, count: int) -> None:
        """Validate a prospective access without performing it.

        Called by the runtime at *issue* time so a malformed nonblocking
        operation fails where it was written, identically on every backend —
        not at the flush that would eventually have applied it.
        """
        if not (0 <= rank < self.nprocs and 0 <= offset and 0 < count <= self.size - offset):
            self._check_range(rank, offset, count)  # raises the precise error

    def _region(self, rank: int, offset: int, count: int) -> np.ndarray:
        """Mutable slice for :func:`~repro.backends.base.apply_action`, whose
        range the runtime validated at issue; only *invalidation* is checked
        again (the target may have died between issue and completion).  Logged
        actions and the checkpoint's own reads come this way: no stamp."""
        if rank in self._invalidated:
            self._check_alive(rank)
        return self.buffers[rank][offset : offset + count]

    def restore(self, rank: int, data: np.ndarray) -> None:
        """Replace ``rank``'s entire buffer with checkpointed ``data``."""
        data = np.asarray(data, dtype=self.dtype).ravel()
        if data.size != self.size:
            raise WindowError(
                f"restore payload has {data.size} elements, window has {self.size}"
            )
        self._check_rank(rank)
        # Restoring is allowed even while the rank is marked invalid: it is
        # exactly how a replacement process re-populates its memory.
        self._swap(rank, data)
        self._invalidated.discard(rank)

    def _swap(self, rank: int, data: np.ndarray | None) -> None:
        """Overwrite ``rank``'s whole row in place (``None``: zeros).  Its handed-out
        views are sealed first: they keep reading the row, but no longer write it."""
        self.seal(rank)
        self.stamps[rank] += 1
        self.buffers[rank][...] = 0 if data is None else data

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def invalidate(self, rank: int) -> None:
        """Drop ``rank``'s buffer contents (its memory is lost on failure)."""
        self._check_rank(rank)
        self._swap(rank, None)
        self._invalidated.add(rank)

    def reallocate(self, rank: int) -> None:
        """Give a replacement process a fresh zeroed buffer."""
        self._check_rank(rank)
        self._swap(rank, None)
        self._invalidated.discard(rank)

    def is_invalidated(self, rank: int) -> bool:
        """Whether ``rank``'s buffer content has been lost and not restored."""
        return rank in self._invalidated

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nprocs:
            raise WindowError(
                f"rank {rank} out of range 0..{self.nprocs - 1} for window "
                f"{self.name!r}"
            )

    def _check_alive(self, rank: int) -> None:
        if rank in self._invalidated:
            raise ProcessFailedError(
                rank, f"window {self.name!r} at rank {rank} is invalidated (owner failed)"
            )

    def _check_range(self, rank: int, offset: int, count: int) -> None:
        self._check_rank(rank)
        if count <= 0:
            raise WindowError(
                f"zero-length access (count={count}) on window {self.name!r} "
                f"at rank {rank}; counts must be positive"
            )
        if offset < 0:
            raise WindowError(
                f"negative offset {offset} into window {self.name!r} at rank "
                f"{rank}"
            )
        if offset + count > self.size:
            raise WindowError(
                f"access [{offset}, {offset + count}) out of bounds for window "
                f"{self.name!r} of size {self.size} at rank {rank}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Window({self.name!r}, size={self.size}, dtype={self.dtype}, "
            f"nprocs={self.nprocs})"
        )


class WindowRegistry:
    """All windows created by a runtime, addressable by name."""

    def __init__(self) -> None:
        self._windows: dict[str, Window] = {}

    def create(
        self,
        name: str,
        size: int,
        dtype: np.dtype,
        nprocs: int,
        *,
        factory: type[Window] = Window,
    ) -> Window:
        """Create and register a new window.

        ``factory`` lets a backend substitute a :class:`Window` subclass whose
        array lives in backend-owned storage (e.g. POSIX shared memory for
        the real-process backend) while the registry bookkeeping stays common.
        """
        if name in self._windows:
            raise WindowError(f"window {name!r} already exists")
        dtype = np.dtype(dtype)
        if dtype.hasobject or dtype.kind in "mM":  # a put lands as raw bytes
            raise WindowError(f"window {name!r}: dtype {dtype} is not plain data")
        window = factory(name=name, size=size, dtype=dtype, nprocs=nprocs)
        self._windows[name] = window
        return window

    def get(self, name: str) -> Window:
        """Look a window up by name."""
        try:
            return self._windows[name]
        except KeyError as exc:
            raise WindowError(f"unknown window {name!r}") from exc

    def all(self) -> list[Window]:
        """All registered windows."""
        return list(self._windows.values())

    def seal(self) -> None:
        """Seal every window's handed-out views (a step boundary, a checkpoint)."""
        for window in self._windows.values():
            window.seal()

    def invalidate_rank(self, rank: int) -> None:
        """Invalidate ``rank``'s buffers in every window (process failure)."""
        for window in self._windows.values():
            window.invalidate(rank)

    def reallocate_rank(self, rank: int) -> None:
        """Reallocate ``rank``'s buffers in every window (process respawn)."""
        for window in self._windows.values():
            window.reallocate(rank)

    def __contains__(self, name: str) -> bool:
        return name in self._windows

    def __len__(self) -> int:
        return len(self._windows)
