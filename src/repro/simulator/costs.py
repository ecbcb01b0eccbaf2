"""Cost model for the simulated cluster.

The model is deliberately simple — a LogGP-flavoured linear model — because the
reproduction only needs *relative* costs to be faithful: remote RMA operations
are far more expensive than local memory traffic, atomics are more expensive
than plain puts, barriers grow logarithmically with the number of processes and
parallel-file-system (PFS) flushes are orders of magnitude slower than
in-memory checkpoints.  Those relations are what produce the shapes of the
paper's Figures 10d, 11a-c and 12.

Default constants are loosely modelled after a Cray XE6 / Gemini network (the
paper's Monte Rosa testbed): ~1.5 us put latency, ~6 GiB/s injection bandwidth
per process, ~2 us atomics, and a PFS delivering ~20 GiB/s aggregate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

from repro.errors import SimulationError

__all__ = ["CostModel", "cray_xe6_like", "ethernet_cluster_like"]

GiB = float(1 << 30)
MiB = float(1 << 20)


class _Prices(dict):
    """A price table filled on first lookup: ``table[key]`` is ``price(key)``,
    evaluated once — every later lookup returns that same float, without a call."""

    def __init__(self, price) -> None:
        super().__init__()
        self._price = price

    def __missing__(self, key) -> float:
        value = self[key] = self._price(key)
        return value


@dataclass(frozen=True)
class CostModel:
    """Timing parameters of the simulated machine.

    All times are in seconds, bandwidths in bytes/second.  Construction
    rejects a time that is not finite and ``>= 0`` and a bandwidth that is not
    finite and ``> 0`` (:class:`~repro.errors.SimulationError` naming the
    field): every derived cost is then a non-negative duration, which is what
    lets the hot path charge prices in place instead of through
    :meth:`~repro.simulator.timebase.VirtualClock.advance`'s check.
    """

    #: CPU overhead to issue any RMA operation (the "o" in LogGP).
    issue_overhead: float = 0.2e-6
    #: One-way network latency for a remote operation (the "L" in LogGP).
    network_latency: float = 1.5e-6
    #: Per-process injection bandwidth for remote puts/gets.
    network_bandwidth: float = 6.0 * GiB
    #: Additional latency of remote atomic operations (CAS, FAO, accumulate).
    atomic_latency: float = 0.6e-6
    #: Local memory copy bandwidth (used for logging puts locally, tmpfs copies).
    memory_bandwidth: float = 20.0 * GiB
    #: Fixed cost of a local memory operation (allocation, bookkeeping).
    memory_latency: float = 0.05e-6
    #: Base cost of a barrier / gsync.
    barrier_base: float = 2.0e-6
    #: Per-log2(P) factor of a barrier / gsync.
    barrier_per_level: float = 1.0e-6
    #: Cost of a flush towards one target (waiting for remote completion).
    flush_latency: float = 1.2e-6
    #: Cost of acquiring / releasing a remote lock.
    lock_latency: float = 2.0e-6
    #: Aggregate parallel-file-system bandwidth (shared by all writers).
    pfs_bandwidth: float = 20.0 * GiB
    #: Fixed PFS access latency (metadata, open/close).
    pfs_latency: float = 2.0e-3
    #: Time per floating point operation of the (scalar-equivalent) CPU.
    flop_time: float = 1.0 / 9.2e9
    #: Arbitrary per-element hash cost used by the key-value store app.
    hash_time: float = 8.0e-9
    #: Extra software overhead charged per logged action (bookkeeping).
    log_bookkeeping: float = 0.15e-6
    #: Name for reporting.
    name: str = field(default="cray-xe6-like", compare=False)

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name == "name":
                continue
            value, bandwidth = getattr(self, f.name), f.name.endswith("_bandwidth")
            try:
                valid = math.isfinite(value) and (value > 0 if bandwidth else value >= 0)
            except TypeError:
                valid = False
            if not valid:
                wanted = "a finite bandwidth > 0" if bandwidth else "a finite time >= 0"
                raise SimulationError(f"CostModel.{f.name} must be {wanted}, got {value!r}")

    def __getstate__(self) -> dict:
        """The fields alone: a price table is rebuilt by whoever looks it up."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # ------------------------------------------------------------------
    # Prices looked up per operation, each evaluated once per model
    # ------------------------------------------------------------------
    @cached_property
    def transfer_prices(self) -> dict[tuple[int, bool], float]:
        """:meth:`remote_transfer` per ``(nbytes, atomic)``: the same float
        expression, evaluated once per size, so a sum of looked-up prices is
        bit-identical to the sum of calls it replaces."""
        return _Prices(lambda key: self.remote_transfer(key[0], atomic=key[1]))

    @cached_property
    def barrier_prices(self) -> dict[int, float]:
        """:meth:`barrier` per participant count, evaluated once per count."""
        return _Prices(self.barrier)

    @cached_property
    def log_prices(self) -> dict[int, float]:
        """What logging a completed put-like action of ``nbytes`` costs its
        origin (§6.2): ``log_bookkeeping + local_copy(nbytes)``, once per size."""
        return _Prices(lambda nbytes: self.log_bookkeeping + self.local_copy(nbytes))

    # ------------------------------------------------------------------
    # Derived costs
    # ------------------------------------------------------------------
    def remote_transfer(self, nbytes: int, *, atomic: bool = False) -> float:
        """Time for one remote put/get/accumulate of ``nbytes`` bytes."""
        t = self.issue_overhead + self.network_latency + nbytes / self.network_bandwidth
        if atomic:
            t += self.atomic_latency
        return t

    def local_copy(self, nbytes: int) -> float:
        """Time to copy ``nbytes`` bytes within local memory."""
        return self.memory_latency + nbytes / self.memory_bandwidth

    def barrier(self, nprocs: int) -> float:
        """Time of a dissemination barrier over ``nprocs`` processes."""
        if nprocs <= 1:
            return self.barrier_base
        return self.barrier_base + self.barrier_per_level * math.ceil(math.log2(nprocs))

    def gsync(self, nprocs: int) -> float:
        """Time of a global window synchronization (fence / gsync)."""
        # A gsync both completes outstanding operations and synchronizes,
        # so it is modelled as a flush plus a barrier.
        return self.flush_latency + self.barrier(nprocs)

    def flush(self, pending_ops: int = 0) -> float:
        """Time of a flush completing ``pending_ops`` outstanding operations."""
        return self.flush_latency + 0.1e-6 * pending_ops

    def lock(self) -> float:
        """Time to acquire a remote lock."""
        return self.lock_latency

    def unlock(self) -> float:
        """Time to release a remote lock."""
        return self.lock_latency

    def pfs_write(self, nbytes: int, concurrent_writers: int = 1) -> float:
        """Time for one process to write ``nbytes`` to the PFS.

        The aggregate bandwidth is shared among ``concurrent_writers`` so the
        per-writer effective bandwidth shrinks with scale — this is what makes
        SCR-PFS fall behind in Figure 10d.
        """
        writers = max(1, concurrent_writers)
        effective = self.pfs_bandwidth / writers
        return self.pfs_latency + nbytes / effective

    def pfs_read(self, nbytes: int) -> float:
        """Time for one process to read ``nbytes`` back from the PFS.

        Modelled symmetrically to :meth:`pfs_write` (shared aggregate
        bandwidth, fixed access latency) — restores of disk-spilled
        checkpoints pay this.
        """
        return self.pfs_write(nbytes)

    def compute(self, flops: float) -> float:
        """Time to execute ``flops`` floating point operations."""
        return flops * self.flop_time

    def with_overrides(self, **kwargs: float) -> "CostModel":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


def cray_xe6_like() -> CostModel:
    """Cost model resembling the paper's Monte Rosa (Cray XE6, Gemini) testbed."""
    return CostModel(name="cray-xe6-like")


def ethernet_cluster_like() -> CostModel:
    """A slower commodity cluster: 25 us latency, 1 GiB/s per-process bandwidth."""
    return CostModel(
        issue_overhead=1.0e-6,
        network_latency=25.0e-6,
        network_bandwidth=1.0 * GiB,
        atomic_latency=5.0e-6,
        barrier_base=30.0e-6,
        barrier_per_level=10.0e-6,
        flush_latency=20.0e-6,
        lock_latency=30.0e-6,
        pfs_bandwidth=5.0 * GiB,
        pfs_latency=5.0e-3,
        name="ethernet-cluster-like",
    )
