"""Seeded failure-scenario generators — :class:`~repro.ft.inject.KillPlan` factories.

A *scenario* turns a seed and the calibrated shape of a soak (how many
completion-stream operations one workload round emits) into a concrete kill
plan.  Plans are expressed as **operation offsets**, not virtual times,
because the completion stream is the one sequence the backends are
contractually required to emit identically — the same scenario therefore
strikes at the same program points on ``sim`` and ``proc``, which is what
makes cross-backend soak comparisons (and their byte-identical event logs)
possible.

The catalog mirrors the failure modes of the paper's §7 evaluation and the
classic chaos-engineering taxonomy:

* ``"poisson"`` — independent fail-stop kills with exponential inter-arrival
  gaps, the memoryless process behind every MTBF model;
* ``"correlated"`` — node-level kills taking out a whole failure domain at
  once (the event buddy placement must survive, §5);
* ``"cascade"`` — an initial kill followed by secondary kills of further
  ranks a few steps later (correlated-in-time, not in space);
* ``"flaky"`` — one rank killed again and again after each respawn, then
  left dead (the crash-looping pod of the reliability literature);
* ``"single"`` — one node kill part-way through the soak: what one failure
  costs each recovery rule, the serving cell's plan.

Scenarios are registry-resolved (:func:`repro.registry.resolve_component`)
under the kind ``"scenario"``, exactly like backends/stores/recovery.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ChaosError
from repro.ft.inject import KillEvent, KillKind, KillPlan
from repro.registry import register_kind, resolve_component
from repro.simulator.rng import make_rng

__all__ = [
    "Scenario",
    "PoissonKills",
    "CorrelatedFailures",
    "CascadingFailures",
    "FlakyRank",
    "SingleKill",
    "SCENARIOS",
    "make_scenario",
]


class Scenario(abc.ABC):
    """One catalog entry: a seeded generator of soak-length kill plans.

    Subclasses draw events from the rng handed to :meth:`plan`; the same seed
    must always yield the same plan, event for event, and disjoint seeds
    yield independent streams (:func:`repro.simulator.rng.make_rng` wraps
    :class:`numpy.random.SeedSequence` spawning).
    """

    #: Registry name ("poisson", "correlated", "cascade", "flaky", ...).
    name: str = "abstract"

    def __init__(self, *, rate_per_round: float = 0.75) -> None:
        if rate_per_round < 0:
            raise ChaosError(f"scenario {self.name!r} needs rate_per_round >= 0")
        self.rate_per_round = rate_per_round

    @abc.abstractmethod
    def plan(
        self,
        seed: int | np.random.Generator | np.random.SeedSequence,
        *,
        nprocs: int,
        ops_per_round: int,
        steps_per_round: int,
        rounds: int,
        procs_per_node: int = 2,
    ) -> KillPlan:
        """Generate the kill plan for a soak of ``rounds`` workload rounds.

        ``ops_per_round`` is the calibrated completion-stream length of one
        failure-free round (:attr:`repro.study.workloads.WorkloadRun.ops` of a probe run);
        ``steps_per_round`` the workload's step count, so scenarios can space
        events in units of whole steps.
        """

    # ------------------------------------------------------------------
    def _shape(self, nprocs: int, ops_per_round: int, steps_per_round: int, rounds: int):
        if nprocs < 2:
            raise ChaosError(f"scenario {self.name!r} needs nprocs >= 2")
        if ops_per_round < 1 or steps_per_round < 1 or rounds < 1:
            raise ChaosError(
                f"scenario {self.name!r} needs ops_per_round, steps_per_round "
                f"and rounds all >= 1"
            )
        total_ops = ops_per_round * rounds
        ops_per_step = max(1, ops_per_round // steps_per_round)
        return total_ops, ops_per_step

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(rate_per_round={self.rate_per_round:g})"


class PoissonKills(Scenario):
    """Independent fail-stop kills with exponential inter-arrival gaps.

    Gaps are drawn in operation units with mean ``ops_per_round /
    rate_per_round`` and floored at two whole steps, so one recovery can
    complete before the next failure lands (two simultaneous deaths of a
    buddy pair would be a catastrophic failure, which is the ``"cascade"``
    scenario's business, not this one's).
    """

    name = "poisson"
    #: What each event kills: one rank (a node for ``"correlated"``).
    kind = KillKind.POD_KILL

    def plan(self, seed, *, nprocs, ops_per_round, steps_per_round, rounds,
             procs_per_node=2) -> KillPlan:
        total_ops, ops_per_step = self._shape(
            nprocs, ops_per_round, steps_per_round, rounds
        )
        rng = make_rng(seed)
        if self.rate_per_round == 0:
            return KillPlan([])
        mean_gap = ops_per_round / self.rate_per_round
        min_gap = 2 * ops_per_step
        events = []
        offset = ops_per_step  # never before the first step's work
        while True:
            offset += max(min_gap, int(round(rng.exponential(mean_gap))))
            if offset >= total_ops:
                break
            events.append(KillEvent(offset, int(rng.integers(0, nprocs)), self.kind))
        return KillPlan(events)


class CorrelatedFailures(PoissonKills):
    """Node-level kills: every event takes out a whole failure domain.

    Same arrival process as ``"poisson"`` but each event is a ``NODE_KILL``
    — all ranks sharing the victim's compute node die together, the smallest
    correlated failure topology-aware buddy placement must survive (§5).
    """

    name = "correlated"
    kind = KillKind.NODE_KILL


class CascadingFailures(Scenario):
    """An initial kill followed by secondary kills rippling to further ranks.

    Each trigger (Poisson arrivals, like ``"poisson"``) is followed by
    ``cascade - 1`` follow-up kills of other ranks, spaced two steps apart —
    far enough for the previous recovery to complete, close enough that the
    outages chain into one long episode of repeated rollbacks.
    """

    name = "cascade"

    def __init__(self, *, rate_per_round: float = 0.4, cascade: int = 3) -> None:
        super().__init__(rate_per_round=rate_per_round)
        if cascade < 2:
            raise ChaosError("cascade scenario needs cascade >= 2 ranks per burst")
        self.cascade = cascade

    def plan(self, seed, *, nprocs, ops_per_round, steps_per_round, rounds,
             procs_per_node=2) -> KillPlan:
        total_ops, ops_per_step = self._shape(
            nprocs, ops_per_round, steps_per_round, rounds
        )
        rng = make_rng(seed)
        if self.rate_per_round == 0:
            return KillPlan([])
        mean_gap = ops_per_round / self.rate_per_round
        burst_span = 2 * ops_per_step * self.cascade
        events = []
        offset = ops_per_step
        while True:
            offset += max(burst_span, int(round(rng.exponential(mean_gap))))
            if offset >= total_ops:
                break
            first = int(rng.integers(0, nprocs))
            for k in range(min(self.cascade, nprocs)):
                strike = offset + k * 2 * ops_per_step
                if strike >= total_ops:
                    break
                events.append(
                    KillEvent(after_ops=strike, rank=(first + k) % nprocs)
                )
        return KillPlan(events)


class FlakyRank(Scenario):
    """One rank killed again and again after each respawn, then left dead.

    The crash-looping pod: a single seeded victim dies ``flaps`` times at
    regular intervals.  Under ``"global"``/``"localized"`` recovery the
    rank is respawned each time and dies again; under ``"degraded"`` the first
    death removes it and every later event is *skipped* (the injector still
    reports it, so the chaos log can show the excision absorbing the flaps).
    """

    name = "flaky"

    def __init__(self, *, rate_per_round: float = 1.0, flaps: int = 3) -> None:
        super().__init__(rate_per_round=rate_per_round)
        if flaps < 1:
            raise ChaosError("flaky scenario needs flaps >= 1")
        self.flaps = flaps

    def plan(self, seed, *, nprocs, ops_per_round, steps_per_round, rounds,
             procs_per_node=2) -> KillPlan:
        total_ops, ops_per_step = self._shape(
            nprocs, ops_per_round, steps_per_round, rounds
        )
        rng = make_rng(seed)
        victim = int(rng.integers(0, nprocs))
        first = ops_per_step + int(rng.integers(0, ops_per_step))
        span = max(1, total_ops - first)
        gap = max(2 * ops_per_step, span // (self.flaps + 1))
        events = []
        for flap in range(self.flaps):
            strike = first + flap * gap
            if strike >= total_ops:
                break
            events.append(KillEvent(after_ops=strike, rank=victim))
        return KillPlan(events)


class SingleKill(Scenario):
    """One node kill at 45% of the soak's completion stream.

    The victim is seeded; the offset is not, so every seed strikes at the same
    program point.  A ``NODE_KILL`` takes out a whole failure domain, which a
    localized replay must restore without its survivors re-serving.
    """

    name = "single"
    kill_frac = 0.45
    kind = KillKind.NODE_KILL

    def plan(self, seed, *, nprocs, ops_per_round, steps_per_round, rounds,
             procs_per_node=2) -> KillPlan:
        total_ops, _ = self._shape(nprocs, ops_per_round, steps_per_round, rounds)
        victim = int(make_rng(seed).integers(0, nprocs))
        after_ops = max(1, int(self.kill_frac * total_ops))
        return KillPlan([KillEvent(after_ops=after_ops, rank=victim, kind=self.kind)])


#: Registry of constructable scenarios, by name.
SCENARIOS: dict[str, type[Scenario]] = {
    PoissonKills.name: PoissonKills,
    CorrelatedFailures.name: CorrelatedFailures,
    CascadingFailures.name: CascadingFailures,
    FlakyRank.name: FlakyRank,
    SingleKill.name: SingleKill,
}
register_kind("scenario", SCENARIOS)


def make_scenario(spec: "str | Scenario | None", **params: object) -> Scenario:
    """Resolve a scenario specification into a fresh (or given) instance.

    ``None`` means the default (``"poisson"``); an unknown name raises
    :class:`ChaosError` listing the registered choices; a :class:`Scenario`
    instance passes through, its own parameters winning over ``params``.
    """
    return resolve_component(
        "scenario", spec, SCENARIOS, Scenario, ChaosError,
        default=PoissonKills.name, **params,
    )
