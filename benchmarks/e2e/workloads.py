"""The seven workloads of the end-to-end benchmark.

Every workload is a small object with the same four-step life:

* ``build(seed, scale)`` — generate every input from the benchmark seed
  (payload tables, traffic seed, kill-plan seed, campaign seed).  The program
  under test only ever receives these generated inputs;
* ``prepare()`` — run once per benchmark run, untimed, in a process of its
  own: compute the correctness reference (a plain-numpy replay, the
  service's ``expected()`` table, a failure-free probe …) and, where a timed
  run cannot count them itself, the failure-free action count;
* ``setup()`` — everything a user pays before the first step: ``launch``,
  window allocation and initialization, FT-stack build, injector install.
  Counted in ``setup_s``, never in ``wall_s``;
* ``execute(ready)`` — the timed scenario: ``Job.run`` → result collected and
  digested → ``Job.close`` (for the campaign: run + report + markdown +
  invariants).  Returns an :class:`Outcome` the caller checks against the
  reference.

The workloads depend only on the product's public surface: ``repro.launch``,
``Job``, ``FaultTolerancePolicy``, ``KvService``, ``KillPlan``,
``install_injector``, ``run_campaign`` and its report helpers.  Why each one
exists is recorded in ``BENCHMARK.json`` and in the README beside this file.
"""

from __future__ import annotations

import copy
import hashlib
import zlib
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.serve import KvService
from repro.study import check_invariants, render_markdown, report_json

__all__ = ["WORKLOADS", "Outcome", "action_count", "make"]

#: Doubles per put of the halo kernels.
CHUNK = 8
#: Rows of seeded drive data the kernels cycle through by step.
TABLE = 16
#: Counters under ``rma.*`` that are not application actions.
_NOT_ACTIONS = ("rma.bytes_moved", "rma.windows_allocated")


def _rng(seed: int, tag: str) -> np.random.Generator:
    """One independent, process-stable stream per (benchmark seed, purpose)."""
    entropy = (seed & (2**64 - 1), zlib.crc32(tag.encode()))  # any int is a seed
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _derived_seed(seed: int, tag: str) -> int:
    return int(_rng(seed, tag).integers(1, 2**31 - 1))


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, round(value * scale))


def digest(array: np.ndarray) -> str:
    """Bit-exact digest of a result: dtype, shape and raw bytes."""
    arr = np.ascontiguousarray(array)
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def action_count(metrics) -> int:
    """Application actions (comm + sync) recorded in a ``MetricsSnapshot``."""
    return int(
        sum(
            value
            for name, value in metrics.totals.items()
            if name.startswith("rma.") and name not in _NOT_ACTIONS
        )
    )


@dataclass
class Outcome:
    """What one executed scenario produced (all of it deterministic)."""

    digest: str
    #: Virtual makespan in seconds — the modelled protocol's cost.
    virt_s: float
    #: Application action count of this run (``None``: taken from the probe).
    ops: int | None
    #: Named problems found by the scenario itself (empty = fine).
    problems: list[str] = field(default_factory=list)
    #: Sub-results checked inside this run (campaign trials); they count as
    #: attempted operations beside the run itself.
    checks: int = 0
    #: The session's report (job-level workloads only).
    report: "repro.JobReport | None" = None


# ----------------------------------------------------------------------
# Job-level workloads: one launched session, one kernel
# ----------------------------------------------------------------------
class JobWorkload:
    """Shared set-up / execute path of the six single-session workloads."""

    name: str
    nprocs: int
    backend: str = "sim"
    window: str = "w"
    sync_each_step: bool = True
    steps: int

    #: Installed on the next launched job (the product-tracer pass only).
    tracer = None

    def build(self, seed: int, scale: float) -> None:
        raise NotImplementedError

    def policy(self) -> "repro.FaultTolerancePolicy | None":
        return None

    def init_windows(self, job: "repro.Job") -> None:
        raise NotImplementedError

    def kernel(self):
        raise NotImplementedError

    def expected_digest(self) -> str:
        """The computed (never recorded) reference digest."""
        raise NotImplementedError

    def prepare(self) -> dict:
        return {"digest": self.expected_digest()}

    def setup(self) -> "repro.Job":
        job = repro.launch(
            self.nprocs,
            ft=self.policy(),
            backend=self.backend,
            sync_each_step=self.sync_each_step,
            trace=self.tracer,
        )
        try:
            self.init_windows(job)
            self.arm(job)
        except BaseException:
            job.close()
            raise
        return job

    def arm(self, job: "repro.Job") -> None:
        """Last set-up step (fault injection); nothing by default."""

    def check(self, report: "repro.JobReport") -> list[str]:
        """Workload-specific sanity checks on a finished run's report."""
        return []

    def execute(self, job: "repro.Job") -> Outcome:
        try:
            report = job.run(self.kernel(), steps=self.steps)
            result = job.gather(self.window)
            outcome = Outcome(
                digest=digest(result),
                virt_s=report.elapsed,
                ops=action_count(report.metrics),
                problems=self.check(report),
                report=report,
            )
        finally:
            job.close()
        return outcome


class Halo(JobWorkload):
    """Nonblocking ring halo exchange; the kernel is owned by the benchmark.

    Window layout per rank: ``[from-left | from-right | state]``, each ``H``
    doubles.  A step streams the rank's state (plus/minus a seeded drive row)
    to both ring neighbours in ``CHUNK``-double ``put_nb`` calls, suspends at
    a ``gsync`` and relaxes the state towards the received halos.  Puts only
    touch the two halo regions and ranks only read their own state before the
    sync, so the program is race-free on every backend.
    """

    window = "halo"
    sync_each_step = False  # the kernel's mid-step gsync is the only sync

    def __init__(
        self,
        name: str,
        *,
        nprocs: int,
        per_neighbour: int,
        steps: int,
        backend: str = "sim",
        interval: int | None = None,
        size: int | None = None,
    ) -> None:
        self.name = name
        self.nprocs = nprocs
        self.per_neighbour = per_neighbour
        self.full_steps = steps
        self.backend = backend
        self.interval = interval
        self.h = per_neighbour * CHUNK
        self.size = size if size is not None else 3 * self.h

    def build(self, seed: int, scale: float) -> None:
        rng = _rng(seed, self.name)
        self.steps = _scaled(self.full_steps, scale, 4)
        self.init = rng.standard_normal((self.nprocs, self.h))
        self.drive = rng.standard_normal((TABLE, self.h))
        # Seeded per-step compute charge: moves virtual time only.
        self.flops = rng.integers(2_000, 6_000, size=TABLE).astype(np.float64)

    def policy(self):
        if self.interval is None:
            return None
        return repro.FaultTolerancePolicy(
            interval=self.interval, store="memory", recovery="global"
        )

    def init_windows(self, job) -> None:
        job.allocate(self.window, self.size)
        h = self.h
        for rank in range(self.nprocs):
            job.local(rank, self.window)[2 * h : 3 * h] = self.init[rank]

    def kernel(self):
        h, per, n = self.h, self.per_neighbour, self.nprocs
        drive, flops, name = self.drive, self.flops, self.window

        def kernel(ctx, step):
            w = ctx.win(name)
            mine = w.local
            row = drive[step % TABLE]
            to_left = mine[2 * h : 3 * h] + row
            to_right = mine[2 * h : 3 * h] - row
            left, right = (ctx.rank - 1) % n, (ctx.rank + 1) % n
            for j in range(per):
                lo = j * CHUNK
                w.put_nb(left, h + lo, to_left[lo : lo + CHUNK])
                w.put_nb(right, lo, to_right[lo : lo + CHUNK])
            yield ctx.gsync()  # halos are visible from here on
            mine[2 * h : 3 * h] = (
                0.25 * mine[0:h] + 0.25 * mine[h : 2 * h] + 0.5 * mine[2 * h : 3 * h]
            )
            ctx.compute(flops[step % TABLE])

        return kernel

    def expected_digest(self) -> str:
        """Plain-numpy replay of the kernel over all ranks at once."""
        h = self.h
        state = self.init.copy()
        from_left = np.zeros_like(state)
        from_right = np.zeros_like(state)
        for step in range(self.steps):
            row = self.drive[step % TABLE]
            # Rank r's left-going data lands in rank r-1's from-right region.
            from_right = np.roll(state + row, -1, axis=0)
            from_left = np.roll(state - row, 1, axis=0)
            state = 0.25 * from_left + 0.25 * from_right + 0.5 * state
        image = np.zeros((self.nprocs, self.size))
        image[:, 0:h] = from_left
        image[:, h : 2 * h] = from_right
        image[:, 2 * h : 3 * h] = state
        return digest(image.reshape(-1))


class HaloProc(Halo):
    """The halo kernel on real worker processes; reference is the sim run."""

    def prepare(self) -> dict:
        if not repro.proc_available():
            raise RuntimeError(
                "workload 'halo_proc' needs the 'proc' backend (fork start "
                "method + POSIX shared memory), which this platform lacks"
            )
        twin = copy.copy(self)  # same inputs, same kernel
        twin.backend = "sim"
        on_sim = twin.execute(twin.setup())
        if on_sim.digest != self.expected_digest():
            raise RuntimeError("halo_proc: sim twin disagrees with the numpy replay")
        return {"digest": on_sim.digest}


class RotatingCheckpoint(JobWorkload):
    """One small put per rank per step into a large, every-step checkpointed
    window: the checkpoint stores do the work, the RMA path almost none."""

    backend = "vector"
    window = "field"
    ELEMENTS = 64 * 1024
    PUT = 64

    def __init__(self, name: str, *, nprocs: int, steps: int) -> None:
        self.name = name
        self.nprocs = nprocs
        self.full_steps = steps

    def build(self, seed: int, scale: float) -> None:
        rng = _rng(seed, self.name)
        self.steps = _scaled(self.full_steps, scale, 4)
        self.init = rng.standard_normal((self.nprocs, self.ELEMENTS))
        self.chunks = rng.standard_normal((TABLE, self.PUT))
        self.flops = rng.integers(2_000, 6_000, size=TABLE).astype(np.float64)

    def policy(self):
        return repro.FaultTolerancePolicy(
            interval=1, store="multilevel", recovery="global"
        )

    def init_windows(self, job) -> None:
        job.allocate(self.window, self.ELEMENTS)
        for rank in range(self.nprocs):
            job.local(rank, self.window)[:] = self.init[rank]

    def _offset(self, step: int) -> int:
        return (step * self.PUT) % self.ELEMENTS

    def kernel(self):
        chunks, flops, n, name = self.chunks, self.flops, self.nprocs, self.window
        offset = self._offset

        def kernel(ctx, step):
            ctx.win(name).put_nb(
                (ctx.rank + 1) % n, offset(step), chunks[step % TABLE] + ctx.rank
            )
            ctx.compute(flops[step % TABLE])

        return kernel

    def expected_digest(self) -> str:
        image = self.init.copy()
        ranks = np.arange(self.nprocs, dtype=np.float64)[:, None]
        for step in range(self.steps):
            lo = self._offset(step)
            # Rank r writes into rank r+1: row q receives from rank q-1.
            image[:, lo : lo + self.PUT] = np.roll(
                self.chunks[step % TABLE] + ranks, 1, axis=0
            )
        return digest(image.reshape(-1))


class Kv(JobWorkload):
    """``KvService`` under localized recovery, failure-free or with kills."""

    window = "kv"
    RATE = 40.0
    #: Steps of fresh progress each kill gets to itself.  A recovered rank's
    #: checkpoint copies regain full redundancy only at the next periodic
    #: checkpoint; a second kill before that may find a rank and the holder
    #: of its last copy both gone, which no in-memory placement survives.
    STEPS_PER_KILL = 22

    def __init__(
        self, name: str, *, nprocs: int, steps: int, interval: int, kills: int = 0
    ) -> None:
        self.name = name
        self.nprocs = nprocs
        self.full_steps = steps
        self.interval = interval
        self.full_kills = kills

    def build(self, seed: int, scale: float) -> None:
        self.steps = _scaled(self.full_steps, scale, 2 * self.STEPS_PER_KILL)
        self.kills = min(self.full_kills, self.steps // self.STEPS_PER_KILL)
        self.traffic_seed = _derived_seed(seed, self.name + ".traffic")
        self.kill_seed = _derived_seed(seed, self.name + ".kills")
        self._service: KvService | None = None

    def _new_service(self) -> KvService:
        return KvService(
            nprocs=self.nprocs,
            steps=self.steps,
            rate_per_step=self.RATE,
            zipf_s=1.1,
            read_fraction=0.5,
            seed=self.traffic_seed,
        )

    def policy(self):
        return repro.FaultTolerancePolicy(
            interval=self.interval, store="memory", recovery="localized"
        )

    def init_windows(self, job) -> None:
        # A service instance carries per-run request records: fresh per job.
        self._service = self._new_service()
        self._service.setup(job)

    def kernel(self):
        return self._service.kernel()

    def kill_plan(self, completions: int) -> "repro.KillPlan":
        """One seeded POD kill in the central 40 % of each of ``kills`` equal
        strata of the 5–95 % span of the failure-free completion stream.

        Victims and positions are drawn, not hand-picked; stratifying only
        guarantees more than a checkpoint interval of fresh progress between
        two kills (see :attr:`STEPS_PER_KILL`).
        """
        lo, hi = 0.05 * completions, 0.95 * completions
        width = (hi - lo) / self.kills
        events = []
        for i in range(self.kills):
            plan = repro.KillPlan.seeded(
                np.random.SeedSequence((self.kill_seed, i)),
                nprocs=self.nprocs,
                min_ops=int(lo + (i + 0.3) * width),
                max_ops=int(lo + (i + 0.7) * width),
                kills=1,
            )
            events.extend(plan.events)
        return repro.KillPlan(events)

    def arm(self, job) -> None:
        # Every request completes exactly one communication action, so the
        # request count *is* the failure-free completion-stream length
        # (prepare() verifies that against the probe's counters).
        if self.kills:
            repro.install_injector(job, self.kill_plan(len(self._service.requests)))

    def check(self, report) -> list[str]:
        fired = int(report.metrics.total("inject.kills"))
        if fired != self.kills:
            return [f"{fired} of {self.kills} planned kills fired"]
        return []

    def prepare(self) -> dict:
        ref = {"digest": digest(self._new_service().expected())}
        if self.kills:
            # The failure-free probe: its digest is what a recovered run must
            # reproduce, its completion stream positions the kills, and its
            # action count is the goodput numerator.
            twin = copy.copy(self)  # same traffic, same policy
            twin.kills = 0
            probe = twin.execute(twin.setup())
            totals = probe.report.metrics.totals
            completions = int(totals.get("rma.get", 0) + totals.get("rma.fetch_and_op", 0))
            if probe.digest != ref["digest"]:
                raise RuntimeError(f"{self.name}: failure-free probe != expected()")
            if completions != len(twin._service.requests):
                raise RuntimeError(f"{self.name}: completion stream != request count")
            ref["ops"] = probe.ops
        return ref


# ----------------------------------------------------------------------
# The campaign workload: the product path a study user runs
# ----------------------------------------------------------------------
class StudyCampaign:
    """``run_campaign`` → ``report_json`` → ``render_markdown`` → invariants."""

    name = "study_campaign"

    def build(self, seed: int, scale: float) -> None:
        # The benchmark seed draws the kv workload's update batches.  The
        # campaign's own seed — the fault loads — stays the engine's default:
        # the number of failures a seed happens to draw moves the wall by
        # ±15 %, which would bury any change to the code under input noise.
        self.spec = repro.CampaignSpec(
            workloads=("stencil", "allreduce", "kv"),
            recoveries=("global", "localized"),
            mean_failures=(2.0,),
            intervals=(6,),
            trials=_scaled(4, scale, 1),
            seed=0,
            workload_params={
                "stencil": {"n_local": 16, "iters": 36},
                "kv": {"seed": _derived_seed(seed, self.name)},
            },
        )

    def prepare(self) -> dict:
        """Untimed probe run counting the sessions' actions (the campaign
        report carries no ``rma.*`` counters), and the reference report."""
        counted = []
        original = repro.Job.run

        def counting_run(job, *args, **kwargs):
            report = original(job, *args, **kwargs)
            counted.append(action_count(report.metrics))
            return report

        repro.Job.run = counting_run
        try:
            probe = self.execute(self.setup())
        finally:
            repro.Job.run = original
        if probe.problems:
            raise RuntimeError(f"{self.name}: probe failed: {probe.problems}")
        return {"digest": probe.digest, "ops": sum(counted)}

    def setup(self):
        return self.spec

    def execute(self, spec) -> Outcome:
        report = repro.run_campaign(spec, executor="serial")
        text = report_json(report)
        render_markdown(report)
        problems = list(check_invariants(report))
        trials = [t for cell in report["cells"].values() for t in cell["trials"]]
        surviving = [t for t in trials if t["survived"]]
        problems += [
            f"trial {t['trial']} survived but is not bit-identical"
            for t in surviving
            if not t["bit_identical"]
        ]
        return Outcome(
            digest=hashlib.sha256(text.encode()).hexdigest(),
            virt_s=float(sum(t["elapsed_s"] for t in surviving)),
            ops=None,
            problems=problems,
            checks=len(trials),
        )


def _catalog() -> dict:
    entries = [
        Halo("halo_nb", nprocs=8, per_neighbour=16, steps=300),
        Kv("kv_locks", nprocs=8, steps=400, interval=20),
        HaloProc("halo_proc", nprocs=4, per_neighbour=16, steps=150, backend="proc"),
        RotatingCheckpoint("ckpt_multilevel", nprocs=8, steps=500),
        Kv("kill_replay", nprocs=8, steps=200, interval=10, kills=8),
        Halo("wide_256", nprocs=256, per_neighbour=2, steps=40, interval=10, size=64),
        StudyCampaign(),
    ]
    return {entry.name: entry for entry in entries}


#: Workload names, in reporting order.
WORKLOADS = tuple(_catalog())


def make(name: str, seed: int, scale: float = 1.0):
    """A freshly built workload instance with its inputs generated from ``seed``."""
    workload = _catalog()[name]
    workload.build(seed, scale)
    return workload
