"""Window access, invalidation and reallocation semantics."""

import numpy as np
import pytest

from repro.backends.proc import proc_available
from repro.errors import ProcessFailedError, WindowError
from repro.rma import RmaRuntime
from repro.rma.window import Window, WindowRegistry
from repro.simulator import Cluster


@pytest.fixture
def window():
    return Window(name="u", size=8, dtype=np.float64, nprocs=4)


def test_buffers_start_zeroed_per_rank(window):
    for rank in range(4):
        assert np.array_equal(window.local(rank), np.zeros(8))


def test_read_write_round_trip(window):
    window.write(1, 2, [1.5, 2.5, 3.5])
    assert np.array_equal(window.read(1, 2, 3), [1.5, 2.5, 3.5])
    # read returns a copy, not a view
    copy = window.read(1, 2, 3)
    copy[0] = -1.0
    assert window.read(1, 2, 1)[0] == 1.5


def test_out_of_bounds_and_bad_rank_accesses_raise(window):
    with pytest.raises(WindowError):
        window.read(0, 6, 3)
    with pytest.raises(WindowError):
        window.write(0, -1, [1.0])
    with pytest.raises(WindowError):
        window.read(0, 0, 0)
    with pytest.raises(WindowError):
        window.local(7)


def test_invalidate_loses_content_and_blocks_access(window):
    window.write(2, 0, np.arange(8.0))
    window.invalidate(2)
    assert window.is_invalidated(2)
    for access in (
        lambda: window.local(2),
        lambda: window.read(2, 0, 1),
        lambda: window.write(2, 0, [1.0]),
    ):
        with pytest.raises(ProcessFailedError):
            access()
    # Other ranks are unaffected.
    assert np.array_equal(window.local(3), np.zeros(8))


def test_reallocate_gives_a_fresh_zeroed_buffer(window):
    window.write(1, 0, np.ones(8))
    window.invalidate(1)
    window.reallocate(1)
    assert not window.is_invalidated(1)
    assert np.array_equal(window.local(1), np.zeros(8))


def test_restore_repopulates_even_while_invalidated(window):
    checkpoint = np.arange(8.0)
    window.write(0, 0, checkpoint)
    saved = window.read(0, 0, 8)
    window.invalidate(0)
    window.restore(0, saved)
    assert not window.is_invalidated(0)
    assert np.array_equal(window.local(0), checkpoint)


def test_restore_rejects_wrong_payload_size(window):
    with pytest.raises(WindowError):
        window.restore(0, np.zeros(5))


def test_window_validates_construction():
    with pytest.raises(WindowError):
        Window(name="bad", size=0, dtype=np.float64, nprocs=2)
    with pytest.raises(WindowError):
        Window(name="bad", size=4, dtype=np.float64, nprocs=0)


def test_registry_creates_looks_up_and_rejects_duplicates():
    registry = WindowRegistry()
    win = registry.create("u", 4, np.float64, 2)
    assert registry.get("u") is win
    assert "u" in registry and len(registry) == 1
    with pytest.raises(WindowError):
        registry.create("u", 4, np.float64, 2)
    with pytest.raises(WindowError):
        registry.get("unknown")


def test_registry_invalidates_and_reallocates_across_all_windows():
    registry = WindowRegistry()
    a = registry.create("a", 4, np.float64, 3)
    b = registry.create("b", 2, np.int64, 3)
    registry.invalidate_rank(1)
    assert a.is_invalidated(1) and b.is_invalidated(1)
    registry.reallocate_rank(1)
    assert not a.is_invalidated(1) and not b.is_invalidated(1)


def _assert_one_rank_major_array(window):
    """Every ``buffers[r]`` is row ``r`` of the window's one C-contiguous
    ``(nprocs, size)`` array: same memory, same base."""
    array = window.array
    assert array.shape == (window.nprocs, window.size) and array.flags.c_contiguous
    owner = array if array.base is None else array.base  # shm: the segment's flat view
    assert len(window.buffers) == window.nprocs
    for rank, row in enumerate(window.buffers):
        assert row.shape == (window.size,) and row.ctypes.data == array[rank].ctypes.data
        assert np.shares_memory(row, array) and row.base is owner


@pytest.mark.parametrize(
    "backend",
    [
        "sim",
        "vector",
        pytest.param(
            "proc",
            marks=pytest.mark.skipif(not proc_available(), reason="proc needs fork + shm"),
        ),
    ],
)
@pytest.mark.usefixtures("proc_hygiene")  # cheap on sim/vector; on proc: no leaked segment
def test_a_window_is_one_rank_major_array_on_every_backend(backend):
    rt = RmaRuntime(Cluster.simple(4, procs_per_node=1), backend=backend)
    try:
        window = rt.win_allocate("w", 6)
        _assert_one_rank_major_array(window)
        window.write(1, 2, [1.5, 2.5])
        rt.put(0, 2, "w", 1, np.array([-0.0, 4.0, 8.0]))  # applied by the backend
        kept = rt.local(3, "w")
        kept[:] = 7.0
        _assert_one_rank_major_array(window)
        window.invalidate(3)
        assert not kept.any()  # a kept view reads the row's current bytes
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 1.0  # sealed before the invalidate: no write reaches the row
        window.reallocate(3)
        window.restore(0, np.arange(6.0))
        _assert_one_rank_major_array(window)
    finally:
        rt.finalize()  # on ``proc``: detach into a private copy
    _assert_one_rank_major_array(window)
    expected = np.zeros((4, 6))
    expected[0] = np.arange(6.0)
    expected[1, 2:4] = [1.5, 2.5]
    expected[2, 1:4] = [-0.0, 4.0, 8.0]
    assert window.array.tobytes() == expected.tobytes()
