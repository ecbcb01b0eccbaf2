"""The workload catalog: registry-resolved SPMD kernels for resilience studies.

The paper evaluates its protocols on concrete applications (§7); this module
promotes the three example kernels of the repository into first-class,
parameterizable workloads so the study engine (:mod:`repro.study.campaign`)
— and any script — can resolve them by name, exactly like
``backend="sim"|"vector"``, ``store=...`` and ``recovery=...``:

* ``"stencil"`` — the 1-D Jacobi heat stencil (nonblocking halo exchange, a
  mid-step ``gsync``);
* ``"allreduce"`` — the two-phase ring allreduce (combining accumulates, the
  paper's ``M``-flag hazard);
* ``"kv"`` — GUPS-style lock-protected random-access key-value updates
  (blocking fetch-and-ops under locks, the Locks-scheme path).

Every workload knows how to set a job up, which kernel to run for how many
steps, how to collect its result, and how to reduce that result to a
**bit-exact digest** — the equality test campaigns use to decide whether a
recovered trial finished identical to the failure-free reference.
"""

from __future__ import annotations

import abc
import functools
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.api.policy import FaultTolerancePolicy, Topology
from repro.api.session import Job, JobReport, launch
from repro.errors import CatastrophicFailure, ProcessFailedError, RecoveryError, StudyError
from repro.registry import register_kind, resolve_component
from repro.rma.actions import OpKind
from repro.simulator.costs import CostModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.api.scheduler import Kernel
    from repro.backends import Backend
    from repro.ft.inject import KillPlan
    from repro.trace.tracer import Tracer

__all__ = [
    "Workload",
    "WorkloadRun",
    "HeatStencil",
    "RingAllreduce",
    "KvUpdate",
    "WORKLOADS",
    "make_workload",
]


#: Metric names that count completed *communication* operations — exactly the
#: stream :class:`~repro.ft.inject.FaultInjector` indexes into.  Sync actions
#: (locks, flushes, gsyncs) and byte bookkeeping also live under ``rma.`` but
#: never pass through ``after_comm``, so they must not inflate the count.
_OP_METRICS = frozenset(f"rma.{kind.value}" for kind in OpKind)


@dataclass(frozen=True)
class WorkloadRun:
    """Outcome of one workload execution."""

    #: Registry name of the workload that ran.
    workload: str
    #: The collected result array (field / vectors / table); ``None`` if aborted.
    result: np.ndarray | None
    #: Bit-exact digest of ``result`` (dtype, shape and raw bytes); ``None`` if aborted.
    digest: str | None
    #: The session's counters at the end of the run (where it stopped, if aborted).
    report: JobReport
    #: The periodic checkpoint interval the session actually used — the
    #: analytic-model resolution when the policy said ``interval="auto"``.
    resolved_interval: int | None
    #: Per-rank window footprint in bytes (the analytic model's ``B``).
    bytes_per_rank: int
    #: Class name of the error that ended a run under a policy early
    #: (:class:`~repro.errors.RecoveryError`,
    #: :class:`~repro.errors.CatastrophicFailure`, or
    #: :class:`~repro.errors.ProcessFailedError` from the set-up), else ``None``.
    aborted: str | None = None

    @property
    def ops(self) -> int:
        """Length of the run's completion stream (communication operations).

        The stream is contractually identical across backends, and
        checkpoint/store traffic never passes through it, so one failure-free
        run without a policy on the default ``sim`` backend — a *probe* —
        calibrates kill offsets for every backend, store and protocol of a
        grid.  Running without fault tolerance also makes the probe's
        ``report.elapsed`` the *client's* failure-free timeline — what an
        open-loop arrival clock must be anchored to, or arrivals would slow
        down with the protocol under test.
        """
        totals = self.report.metrics.totals
        return int(sum(totals.get(name, 0) for name in _OP_METRICS))


class Workload(abc.ABC):
    """One catalog entry: a parameterized SPMD program with a digestible result.

    Subclasses define the window setup, the kernel, the step count and the
    result collection; the base class owns the digest and :meth:`run`, the
    one session of an engine cell.
    """

    #: Registry name ("stencil", "allreduce", "kv", ...).
    name: ClassVar[str] = "abstract"
    #: Whether the session should close every step with an implicit gsync
    #: (kernels with a mid-step collective synchronize themselves).
    sync_each_step: ClassVar[bool] = True

    def __init__(self, *, nprocs: int = 8) -> None:
        if nprocs < 2:
            raise StudyError(f"workload {self.name!r} needs at least 2 ranks")
        self.nprocs = nprocs

    # ------------------------------------------------------------------
    # The catalog contract
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def steps(self) -> int:
        """Number of job steps one run executes."""

    @abc.abstractmethod
    def setup(self, job: Job) -> None:
        """Allocate and deterministically initialize the job's windows."""

    @abc.abstractmethod
    def kernel(self) -> "Kernel":
        """The per-rank kernel to drive for :attr:`steps` steps."""

    @abc.abstractmethod
    def collect(self, job: Job) -> np.ndarray:
        """Gather the result array out of the finished job."""

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------
    def digest(self, result: np.ndarray) -> str:
        """Bit-exact digest of a result: dtype, shape and raw bytes."""
        arr = np.ascontiguousarray(result)
        h = hashlib.sha256()
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
        return h.hexdigest()

    def result_quality(self, result: np.ndarray, reference: np.ndarray) -> float:
        """How close ``result`` is to the failure-free ``reference``, in [0, 1].

        Bit-exact results (the digest test campaigns use) score exactly
        ``1.0`` — a global rollback recovery must land here.
        Anything else scores by normalized L1 distance,
        ``1 − ‖result − reference‖₁ / (‖reference‖₁ + ε)``, floored at 0 —
        the *quality* column of a :mod:`repro.chaos` cell, where
        best-effort delivery trades exactness for makespan.
        """
        if self.digest(result) == self.digest(reference):
            return 1.0
        a = np.asarray(result, dtype=np.float64).ravel()
        b = np.asarray(reference, dtype=np.float64).ravel()
        if a.shape != b.shape:
            return 0.0
        denom = float(np.abs(b).sum()) + 1e-12
        return max(0.0, 1.0 - float(np.abs(a - b).sum()) / denom)

    def run(
        self,
        *,
        ft: FaultTolerancePolicy | None = None,
        failures: "KillPlan | None" = None,
        backend: "str | Backend" = "sim",
        procs_per_node: int = 2,
        cost_model: CostModel | None = None,
        steps: int | None = None,
        trace: "Tracer | None" = None,
    ) -> WorkloadRun:
        """Launch a session, run the workload, digest the result.

        This is the one session of an engine cell: every probe, reference,
        trial and soak run of :mod:`repro.study` and :mod:`repro.chaos` (a
        serving cell's included) is one call.  ``failures`` is the
        :class:`~repro.ft.inject.KillPlan` :func:`~repro.api.session.launch`
        arms: real SIGKILLs on the real-process backend, simulated fail-stop
        elsewhere, at identical completion-stream positions and virtual
        times.  ``steps`` (default :attr:`steps`; a soak runs several
        rounds of the kernel) goes to :meth:`~repro.api.session.Job.run`,
        ``trace`` to :func:`~repro.api.session.launch`.

        A fault load the policy cannot carry — a rank lost together with its
        buddy, a failure before any usable checkpoint, or one striking the
        set-up's collectives before the first checkpoint could be taken — is
        an outcome, not an error: the run is :attr:`WorkloadRun.aborted` with
        the report so far and no result.  Without a policy every failure
        propagates, as it does out of :meth:`~repro.api.session.Job.run`.
        """
        with launch(
            self.nprocs,
            topology=Topology(procs_per_node=procs_per_node, cost_model=cost_model),
            ft=ft,
            failures=failures,
            sync_each_step=self.sync_each_step,
            backend=backend,
            trace=trace,
        ) as job:
            result = digest = aborted = None
            try:
                self.setup(job)
                report = job.run(self.kernel(), steps=self.steps if steps is None else steps)
            except (RecoveryError, CatastrophicFailure, ProcessFailedError) as exc:
                if ft is None:
                    raise
                aborted, report = type(exc).__name__, job.report()
            else:
                result = self.collect(job)
                digest = self.digest(result)
            resolved = job.resolved_interval
            footprint = sum(w.nbytes_per_rank for w in job.runtime.windows.all())
        return WorkloadRun(
            workload=self.name,
            result=result,
            digest=digest,
            report=report,
            resolved_interval=resolved,
            bytes_per_rank=footprint,
            aborted=aborted,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(nprocs={self.nprocs}, steps={self.steps})"


class HeatStencil(Workload):
    """1-D Jacobi heat stencil with nonblocking halo exchange (examples/heat_stencil_ft).

    Each rank owns ``n_local`` interior cells of a rod in a window ``u`` with
    one ghost cell per side; every step puts the boundary cells into the
    neighbours' ghost cells, suspends at a ``gsync`` and updates the interior.
    """

    name = "stencil"
    sync_each_step = False  # the kernel's mid-step gsync is the only sync

    ALPHA = 0.1  # diffusion coefficient of the explicit update

    def __init__(self, *, nprocs: int = 8, n_local: int = 32, iters: int = 60) -> None:
        super().__init__(nprocs=nprocs)
        if n_local < 1 or iters < 1:
            raise StudyError("stencil needs n_local >= 1 and iters >= 1")
        self.n_local = n_local
        self.iters = iters

    @property
    def steps(self) -> int:
        return self.iters

    def initial_field(self) -> np.ndarray:
        """Deterministic initial temperature: a sine profile plus a hot spot."""
        n_global = self.nprocs * self.n_local
        x = np.arange(n_global, dtype=np.float64)
        field = np.sin(2.0 * np.pi * x / n_global)
        field[n_global // 3] += 2.0
        return field

    def setup(self, job: Job) -> None:
        job.allocate("u", self.n_local + 2)
        initial = self.initial_field()
        n = self.n_local
        for ctx in job.contexts:
            ctx.local("u")[1 : n + 1] = initial[ctx.rank * n : (ctx.rank + 1) * n]

    def kernel(self) -> "Kernel":
        n_local = self.n_local
        alpha = self.ALPHA

        def kernel(ctx, step):
            u = ctx.win("u")
            mine = u.local
            # Halo exchange: nonblocking puts of the boundary cells into the
            # neighbours' ghost cells; the gsync below completes them (a
            # batching backend is free to coalesce them until then).
            if ctx.rank > 0:
                u.put_nb(ctx.rank - 1, n_local + 1, mine[1:2])
            if ctx.rank < ctx.nranks - 1:
                u.put_nb(ctx.rank + 1, 0, mine[n_local : n_local + 1])
            yield ctx.gsync()  # halos are visible from here on
            interior = mine[1 : n_local + 1]
            mine[1 : n_local + 1] = interior + alpha * (
                mine[0:n_local] - 2.0 * interior + mine[2 : n_local + 2]
            )
            ctx.compute(4.0 * n_local)

        return kernel

    def collect(self, job: Job) -> np.ndarray:
        return job.gather("u", part=slice(1, self.n_local + 1))


class RingAllreduce(Workload):
    """Two-phase ring allreduce (examples/ring_allreduce_ft).

    Reduce-scatter hops *accumulate* chunks into the right neighbour —
    exactly the combining operations a naive log re-application would
    double-apply (the paper's ``M`` flag, §3.2.3) — then allgather hops
    forward the reduced chunks with plain puts.
    """

    name = "allreduce"

    def __init__(self, *, nprocs: int = 8, chunk: int = 16) -> None:
        super().__init__(nprocs=nprocs)
        if chunk < 1:
            raise StudyError("allreduce needs chunk >= 1")
        self.chunk = chunk

    @property
    def steps(self) -> int:
        return 2 * self.nprocs - 2

    def initial_vector(self, rank: int) -> np.ndarray:
        """Deterministic per-rank input vector."""
        x = np.arange(self.nprocs * self.chunk, dtype=np.float64)
        return np.sin(x * (rank + 1)) + rank

    def expected(self) -> np.ndarray:
        """The element-wise sum every rank must end with."""
        return np.sum([self.initial_vector(r) for r in range(self.nprocs)], axis=0)

    def setup(self, job: Job) -> None:
        job.allocate("vec", self.nprocs * self.chunk)
        for ctx in job.contexts:
            ctx.local("vec")[:] = self.initial_vector(ctx.rank)

    def kernel(self) -> "Kernel":
        chunk = self.chunk

        def kernel(ctx, step):
            vec = ctx.win("vec")
            nranks = ctx.nranks
            right = (ctx.rank + 1) % nranks
            if step < nranks - 1:
                # Reduce-scatter hop: combine my partial chunk into the neighbour's.
                c = (ctx.rank - step) % nranks
                vec.accumulate_nb(right, c * chunk, vec.local[c * chunk : (c + 1) * chunk])
            else:
                # Allgather hop: forward the already-reduced chunk.
                t = step - (nranks - 1)
                c = (ctx.rank + 1 - t) % nranks
                vec.put_nb(right, c * chunk, vec.local[c * chunk : (c + 1) * chunk])
            ctx.compute(2.0 * chunk)

        return kernel

    def collect(self, job: Job) -> np.ndarray:
        return np.stack([job.local(r, "vec").copy() for r in range(self.nprocs)])


@functools.lru_cache(maxsize=4096)
def _kv_batch(
    seed: int, keyspace: int, updates: int, step: int, rank: int
) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng((seed, step, rank))
    keys = rng.integers(0, keyspace, size=updates)
    deltas = rng.integers(1, 10, size=updates).astype(np.float64)
    keys.flags.writeable = deltas.flags.writeable = False
    return keys, deltas


@functools.lru_cache(maxsize=4096)
def _kv_updates(seed: int, slots: int, nprocs: int, updates: int, step: int, rank: int):
    """One batch as the kernel applies it: ``(owner, offset, delta)`` Python tuples."""
    keys, deltas = _kv_batch(seed, nprocs * slots, updates, step, rank)
    return tuple((*divmod(k, slots), d) for k, d in zip(keys.tolist(), deltas.tolist()))


class KvUpdate(Workload):
    """GUPS-style lock-protected random-access key-value updates (examples/kv_update_ft).

    Each step every rank draws a deterministic pseudo-random batch of
    ``(key, delta)`` updates — seeded purely by ``(seed, step, rank)``, so a
    replayed step draws exactly the same batch — and applies each with a
    lock-protected atomic ``fetch_and_op(SUM)`` on the owner rank.
    """

    name = "kv"

    def __init__(
        self,
        *,
        nprocs: int = 8,
        slots: int = 24,
        updates_per_step: int = 8,
        steps: int = 24,
        seed: int = 11,
    ) -> None:
        super().__init__(nprocs=nprocs)
        if slots < 1 or updates_per_step < 1 or steps < 1:
            raise StudyError("kv needs slots, updates_per_step and steps all >= 1")
        self.slots = slots
        self.updates_per_step = updates_per_step
        self.nsteps = steps
        self.seed = seed

    @property
    def steps(self) -> int:
        return self.nsteps

    def batch(self, step: int, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """The update batch of ``rank`` at ``step``: pure function of its inputs.

        The arrays are read-only: every trial, probe, replayed step and
        :meth:`expected` of a campaign shares one drawn copy.
        """
        return _kv_batch(
            self.seed, self.nprocs * self.slots, self.updates_per_step, step, rank
        )

    def expected(self) -> np.ndarray:
        """Replay every batch locally, in the scheduler's (step, rank) order."""
        table = np.zeros(self.nprocs * self.slots, dtype=np.float64)
        for step in range(self.nsteps):
            for rank in range(self.nprocs):
                keys, deltas = self.batch(step, rank)
                for key, delta in zip(keys, deltas):
                    table[int(key)] += delta
        return table

    def setup(self, job: Job) -> None:
        job.allocate("table", self.slots)

    def kernel(self) -> "Kernel":
        shape = (self.seed, self.slots, self.nprocs, self.updates_per_step)
        updates = self.updates_per_step

        def kernel(ctx, step):
            for owner, offset, delta in _kv_updates(*shape, step, ctx.rank):
                ctx.lock(owner)
                ctx.fetch_and_op(owner, "table", offset, delta)
                ctx.unlock(owner)
            ctx.compute(10.0 * updates)

        return kernel

    def collect(self, job: Job) -> np.ndarray:
        return job.gather("table")


#: Registry of constructable workloads, by name.
WORKLOADS: dict[str, type[Workload]] = {
    HeatStencil.name: HeatStencil,
    RingAllreduce.name: RingAllreduce,
    KvUpdate.name: KvUpdate,
}
register_kind("workload", WORKLOADS)


def make_workload(spec: "str | Workload | None", **params: object) -> Workload:
    """Resolve a workload specification into a fresh (or given) instance.

    ``None`` means the default (``"stencil"``); a string is looked up in
    :data:`WORKLOADS` (an unknown name raises :class:`StudyError` listing the
    registered choices); a :class:`Workload` instance passes through, its own
    parameters winning over ``params``.
    """
    return resolve_component(
        "workload", spec, WORKLOADS, Workload, StudyError,
        default=HeatStencil.name, **params,
    )
