"""Shared fixtures: process/shared-memory hygiene for the real-process tests."""

import multiprocessing
import os
import tempfile

import numpy as np
import pytest

from repro.ft.stores import CheckpointStore, MultiLevelStore


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "no_store_oracle: run without the checkpoint byte-equality oracle"
    )


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

    def checked_retain(self, version, snapshots):
        retained = retain(self, version, snapshots)
        for rank, windows in snapshots.items():
            for name, live in windows.items():
                assert _same_bytes(retained[rank][name], live), (
                    f"{self.name}: image of rank {rank} window {name!r} differs from live"
                )
        return retained

    def checked_capture(self, lvl, snapshots, *rest):
        capture(self, lvl, snapshots, *rest)
        for rank, windows in snapshots.items():
            for name, live in windows.items():
                assert _same_bytes(lvl.staged[0][rank][name].image, live), (
                    f"{lvl.kind} mirror of rank {rank} window {name!r} differs from live"
                )

    monkeypatch.setattr(CheckpointStore, "_retain", checked_retain)
    monkeypatch.setattr(MultiLevelStore, "_capture", checked_capture)
    yield


def _ckpt_scratch_dirs():
    """``repro-ckpt-*`` scratch directories currently present in the tmpdir.

    :class:`~repro.ft.stores.DiskStore` creates one per bound store and must
    remove it on ``close()`` — even when the session tears down after a failed
    restore.  A survivor here is a leak that would accumulate across CI runs.
    """
    root = tempfile.gettempdir()
    try:
        return {
            name for name in os.listdir(root) if name.startswith("repro-ckpt-")
        }
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return None


def _trace_staging_files():
    """``repro-trace-*`` staging files currently present in the tmpdir.

    :class:`~repro.trace.events.TraceWriter` stages next to its destination
    and must either publish (atomic rename) or unlink on close — even when
    the traced run aborts mid-step.  A survivor here is a leak.
    """
    root = tempfile.gettempdir()
    try:
        return {
            name for name in os.listdir(root) if name.startswith("repro-trace-")
        }
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return None


def _shm_segments():
    """Names of POSIX shm segments currently visible (Linux: /dev/shm).

    Python's :mod:`multiprocessing.shared_memory` names its segments
    ``psm_*``; restricting to that prefix keeps unrelated system segments
    (pulseaudio, browsers, ...) out of the diff.  Returns ``None`` where the
    tmpfs view does not exist — the check then degrades to process hygiene
    only.
    """
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return None


@pytest.fixture
def proc_hygiene():
    """Assert a test leaves no orphan worker processes and no leaked shm.

    SIGKILL-heavy tests are exactly where teardown bugs hide: a worker that
    survives its session or a shared-memory segment that never gets unlinked
    would poison every later test (and, in CI, the machine).  Runs after the
    test body, so a failing assertion here names the leaking test directly.
    """
    before = _shm_segments()
    scratch_before = _ckpt_scratch_dirs()
    staging_before = _trace_staging_files()
    yield
    # Reap zombies first: a SIGKILLed child stays in active_children() until
    # someone joins it, which is bookkeeping, not a leak.
    for child in multiprocessing.active_children():
        child.join(timeout=2.0)
    leaked = [p for p in multiprocessing.active_children() if p.is_alive()]
    assert not leaked, f"orphan worker processes survived the test: {leaked}"
    after = _shm_segments()
    if before is not None and after is not None:
        assert after - before == set(), (
            f"leaked shared-memory segments: {sorted(after - before)}"
        )
    scratch_after = _ckpt_scratch_dirs()
    if scratch_before is not None and scratch_after is not None:
        assert scratch_after - scratch_before == set(), (
            "leaked DiskStore scratch directories: "
            f"{sorted(scratch_after - scratch_before)}"
        )
    staging_after = _trace_staging_files()
    if staging_before is not None and staging_after is not None:
        assert staging_after - staging_before == set(), (
            "leaked trace staging files: "
            f"{sorted(staging_after - staging_before)}"
        )
