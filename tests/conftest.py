"""Shared fixtures: a per-test hang limit, the checkpoint byte-equality oracle, and
process/shared-memory hygiene for the real-process tests."""

import faulthandler
import multiprocessing
import os
import sys
import tempfile
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.ft.stores import CheckpointStore, MultiLevelStore


#: Seconds one test may run before the suite dumps every thread's stack and
#: exits: ten times the slowest tier-1 test (≈ 6 s, the chaos kv grid on sim and
#: proc), so a hung rendezvous or a retry loop that never ends fails loudly
#: instead of stalling the run.  Stdlib only: ``pytest-timeout`` is optional.
HANG_LIMIT_S = 60.0

#: A duplicate of the terminal's stderr, taken while output capture is suspended:
#: the dump must not vanish into a test's captured output when the process exits.
_dump_fd: list[int] = []


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "no_store_oracle: run without the checkpoint byte-equality oracle"
    )
    _dump_fd.append(os.dup(sys.stderr.fileno()))


def pytest_unconfigure(config):
    if _dump_fd:
        os.close(_dump_fd.pop())


@pytest.fixture(autouse=True)
def hang_limit():
    """Exit with every thread's stack when a test outlives :data:`HANG_LIMIT_S`."""
    faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True, file=_dump_fd[0])
    yield
    faulthandler.cancel_dump_traceback_later()


def _same_bytes(held, live):
    held = np.asarray(held)  # a placement handle materializes a fresh array
    return held.shape == live.shape and held.tobytes() == live.tobytes()


@pytest.fixture(autouse=True)
def store_oracle(request, monkeypatch):
    """Every retained placement and every captured mirror is byte-equal to live.

    The stores take the put log as a slab's change-set whenever the window's
    raw-access stamp says nothing else touched it; this is the full compare
    they skip, run as an assertion after every ``_retain`` / ``_capture`` of
    the whole suite (``-0.0`` is not ``0.0``, a NaN equals itself).
    """
    if request.node.get_closest_marker("no_store_oracle"):
        yield
        return
    retain, capture = CheckpointStore._retain, MultiLevelStore._capture

    def checked_retain(self, version, windows, ranks):
        retained = retain(self, version, windows, ranks)
        for rank in ranks:
            for window in windows:
                name, live = window.name, window.buffers[rank]
                assert _same_bytes(retained[rank][name], live), (
                    f"{self.name}: image of rank {rank} window {name!r} differs from live"
                )
        return retained

    def checked_capture(self, lvl, windows, ranks, *rest):
        capture(self, lvl, windows, ranks, *rest)
        for rank in ranks:
            for window in windows:
                name, live = window.name, window.buffers[rank]
                assert _same_bytes(lvl.staged[0][rank][name], live), (
                    f"{lvl.kind} mirror of rank {rank} window {name!r} differs from live"
                )

    monkeypatch.setattr(CheckpointStore, "_retain", checked_retain)
    monkeypatch.setattr(MultiLevelStore, "_capture", checked_capture)
    yield


#: The temporary files and directories ``repro`` makes, by name prefix: a
#: DiskStore's scratch directory and a TraceWriter's staging file.
_TEMP_KINDS = {
    "repro-ckpt-": "DiskStore scratch directories",
    "repro-trace-": "trace staging files",
}


def _track_created(monkeypatch) -> dict[str, list[str]]:
    """The paths of what this test process creates from now on, by leak kind:
    POSIX shm segments (Linux: under /dev/shm) and :data:`_TEMP_KINDS`.

    Only this process's own creations count: a ``proc`` run or a DiskStore in
    another process (a concurrent test session, a benchmark) creates and removes
    its own under the same machine-wide names, which a diff of the ``/dev/shm``
    or tmpdir listing would blame on whatever test ran meanwhile.  Workers
    forked later attach to segments by name and create none.
    """
    created = {"shared-memory segments": [], **{kind: [] for kind in _TEMP_KINDS.values()}}
    shm_init, mkdtemp, mkstemp = (
        shared_memory.SharedMemory.__init__, tempfile.mkdtemp, tempfile.mkstemp
    )

    def note_temp(path: str) -> None:
        for prefix, kind in _TEMP_KINDS.items():
            if os.path.basename(path).startswith(prefix):
                created[kind].append(path)

    def tracking_shm_init(self, name=None, create=False, size=0, *args, **kwargs):
        shm_init(self, name, create, size, *args, **kwargs)
        if create:
            created["shared-memory segments"].append(os.path.join("/dev/shm", self.name))

    def tracking_mkdtemp(*args, **kwargs):
        path = mkdtemp(*args, **kwargs)
        note_temp(path)
        return path

    def tracking_mkstemp(*args, **kwargs):
        fd, path = mkstemp(*args, **kwargs)
        note_temp(path)
        return fd, path

    monkeypatch.setattr(shared_memory.SharedMemory, "__init__", tracking_shm_init)
    monkeypatch.setattr(tempfile, "mkdtemp", tracking_mkdtemp)
    monkeypatch.setattr(tempfile, "mkstemp", tracking_mkstemp)
    return created


@pytest.fixture
def proc_hygiene(monkeypatch):
    """Assert a test leaves no orphan worker processes, no leaked shm and no
    DiskStore or trace staging leftovers of its own.

    SIGKILL-heavy tests are exactly where teardown bugs hide: a worker that
    survives its session or a shared-memory segment that never gets unlinked
    would poison every later test (and, in CI, the machine).  Runs after the
    test body, so a failing assertion here names the leaking test directly.
    Where /dev/shm does not exist the segment check degrades to process
    hygiene only.
    """
    created = _track_created(monkeypatch)
    yield
    # Reap zombies first: a SIGKILLed child stays in active_children() until
    # someone joins it, which is bookkeeping, not a leak.
    for child in multiprocessing.active_children():
        child.join(timeout=2.0)
    leaked = [p for p in multiprocessing.active_children() if p.is_alive()]
    assert not leaked, f"orphan worker processes survived the test: {leaked}"
    for kind, paths in created.items():
        left = sorted(path for path in paths if os.path.exists(path))
        assert not left, f"leaked {kind}: {left}"
