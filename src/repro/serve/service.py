"""The sharded KV service as a study workload: ``"kv_service"``.

:class:`KvService` promotes the GUPS-style :class:`~repro.study.workloads.KvUpdate`
kernel into a *service*: every rank is simultaneously a *frontend* (it admits
the open-loop requests pre-assigned to it by the
:class:`~repro.serve.traffic.RequestGenerator`) and a *shard owner* (it holds
one :class:`~repro.serve.shard.ShardMap` region of the ``"kv"`` window).
Writes are lock-protected atomic ``fetch_and_op(SUM)`` on the owner, one
``ctx.locked_fetch_and_op`` each; reads are blocking one-sided gets.  On top
of the kernel the service records the **completion instant and status of
every request** on the admitting rank's virtual clock — the raw material of
the SLO report — in two per-request columns indexed by ``rid``.  The kernel
builds no object per request: it walks each ``(step, rank)``'s rid range
over flat lists of pre-resolved ``(owner, offset)`` placements and small-int
deltas.

Recording has to survive the recovery protocols without lying:

* a **global rollback** re-executes every step since the checkpoint, so a
  re-served request simply *overwrites* its record with the later completion
  — which is the truth: the client's response was lost with the rollback and
  only the re-execution's answer counts (this is exactly how rollback spikes
  tail latency for every key);
* a **localized replay** re-enters the kernel on the restored ranks, which
  re-measure at post-recovery clocks; the survivors wait and re-enter at
  most the crash step, recording just what they had not served before it
  (:attr:`~repro.rma.runtime.RmaRuntime.replay_restoring`): the failed
  shard's requests stall, everyone else's latency is untouched;
* a **degraded continuation** excises the victims: operations towards an
  excised owner are dropped by the runtime (reads observe zeros), so the
  service marks them ``stale_read``/``dropped_write`` — served on time, but
  wrong — and requests fronted by an excised rank are never re-admitted at
  all (the engine reports them ``unserved``).

The kernel stays a pure function of ``(step, rank)`` — the admission table
is precomputed, never derived from the clock — which is the contract that
keeps a localized replay from diverging from its log.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.errors import ServeError
from repro.serve.shard import ShardMap
from repro.serve.traffic import RequestGenerator
from repro.study.workloads import WORKLOADS, Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.api.scheduler import Kernel
    from repro.api.session import Job

__all__ = [
    "KvService",
    "STATUS_OK",
    "STATUS_STALE_READ",
    "STATUS_DROPPED_WRITE",
    "STATUS_UNSERVED",
    "STATUSES",
]

#: Request outcome taxonomy (the JSONL request log's ``status`` enumeration).
STATUS_OK = "ok"
#: A read answered from an excised owner's zeroed buffer (best-effort mode).
STATUS_STALE_READ = "stale_read"
#: A write towards an excised owner, silently dropped by the runtime.
STATUS_DROPPED_WRITE = "dropped_write"
#: A request whose frontend rank was excised before admitting it.
STATUS_UNSERVED = "unserved"

#: The status column's codes; 0 is "not yet recorded", reported as unserved.
_STATUS_NAMES = (STATUS_UNSERVED, STATUS_OK, STATUS_STALE_READ, STATUS_DROPPED_WRITE)
_OK, _STALE_READ, _DROPPED_WRITE = 1, 2, 3
STATUSES = frozenset(_STATUS_NAMES)


class KvService(Workload):
    """Sharded resilient KV service under seeded open-loop traffic."""

    name: ClassVar[str] = "kv_service"

    def __init__(
        self,
        *,
        nprocs: int = 8,
        slots: int = 64,
        key_space: int = 512,
        steps: int = 40,
        rate_per_step: float = 6.0,
        zipf_s: float = 1.1,
        read_fraction: float = 0.5,
        seed: int = 2026,
        flops_per_request: float = 50.0,
    ) -> None:
        super().__init__(nprocs=nprocs)
        if slots < 1 or steps < 1:
            raise ServeError("kv_service needs slots >= 1 and steps >= 1")
        if flops_per_request < 0:
            raise ServeError("flops_per_request must be non-negative")
        self.slots = slots
        self.nsteps = steps
        self.flops_per_request = flops_per_request
        self.shards = ShardMap(nshards=nprocs, slots=slots)
        self.generator = RequestGenerator(
            seed=seed, steps=steps, nprocs=nprocs, key_space=key_space,
            rate_per_step=rate_per_step, zipf_s=zipf_s, read_fraction=read_fraction,
        )
        #: The full trace, in arrival order (pure function of the parameters).
        self.requests = self.generator.generate()
        keys, index = np.unique(self.requests.key, return_inverse=True)
        placement = [self.shards.locate(key) for key in keys.tolist()]
        #: Per rid: its key's ``(owner, offset)`` (one shared tuple per key)
        #: and its delta as a small int (0: a read) — no object per request.
        self._place = [placement[i] for i in index.tolist()]
        self._delta = self.requests.delta.astype(np.int64).tolist()
        self._job: Job | None = None
        self._reset_records()

    # ------------------------------------------------------------------
    @property
    def steps(self) -> int:
        return self.nsteps

    def _reset_records(self) -> None:
        n = len(self.requests)
        #: ``(completion, status)`` per rid: the completion instant on the
        #: frontend's virtual clock and a code into ``_STATUS_NAMES`` (0: not
        #: yet recorded).  Overwrite semantics: a re-executed request's latest
        #: committed serving wins (see the module docstring for why that is
        #: correct under each recovery protocol).
        self.records = (np.zeros(n), np.zeros(n, dtype=np.uint8))

    def setup(self, job: "Job") -> None:
        job.allocate("kv", self.slots)
        self._job = job
        self._reset_records()

    def kernel(self) -> "Kernel":
        admitted = self.requests.admitted
        place, delta = self._place, self._delta
        flops = self.flops_per_request

        def kernel(ctx, step):
            job = self._job
            assert job is not None, "kv_service kernel run before setup(job)"
            runtime = job.runtime
            # During a localized replay the restored ranks re-measure (at
            # post-recovery clocks); a survivor re-enters at most the crash
            # step, where what it delivered before the crash stands.
            overwrite = (
                not runtime.replaying or ctx.rank in runtime.replay_restoring
            )
            excised = runtime.excised
            # Read at run time: setup() allocates each job's columns.
            completion, status = map(memoryview, self.records)
            for rid in admitted(step, ctx.rank):
                owner, offset = place[rid]
                value = delta[rid]
                if value:
                    ctx.locked_fetch_and_op(owner, "kv", offset, value)
                else:
                    ctx.get(owner, "kv", offset, 1)
                completed = ctx.compute(flops)
                if overwrite or not status[rid]:
                    if owner in excised:
                        status[rid] = _DROPPED_WRITE if value else _STALE_READ
                    else:
                        status[rid] = _OK
                    completion[rid] = completed

        return kernel

    def collect(self, job: "Job") -> np.ndarray:
        return job.gather("kv")

    # ------------------------------------------------------------------
    def expected(self) -> np.ndarray:
        """The failure-free table: every write applied to its hashed slot.

        ``fetch_and_op(SUM)`` commutes, so arrival order is irrelevant and a
        local reduction is exact — the digest-equality oracle for rollback
        and replay runs.
        """
        slot = np.array([rank * self.slots + offset for rank, offset in self._place], np.intp)
        table = np.zeros(self.nprocs * self.slots, dtype=np.float64)
        np.add.at(table, slot, self.requests.delta)  # a read adds +0.0: no bit changes
        return table


# The service registers into the *study* workload catalog — the dict object
# repro.registry already knows — so campaigns, both CLIs' --list and
# make_workload("kv_service") all resolve it with zero extra wiring.
WORKLOADS[KvService.name] = KvService
