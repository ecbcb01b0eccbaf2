"""Analytic checkpoint-interval and overhead model (§5–§7).

The paper does not just build fault-tolerance mechanisms — it *models* them:
per-level failure rates fitted to a real cluster failure history (§7.1) feed
an analytic expression of checkpoint/recovery overhead (§5), which picks the
checkpoint interval and predicts how the memory / disk / parity schemes
compare before a single trial runs.  This module reproduces that methodology
on top of the simulator's :class:`~repro.simulator.costs.CostModel`:

* :func:`checkpoint_seconds` / :func:`restart_seconds` — the per-store cost
  of placing one coordinated checkpoint and of restoring from it, derived
  from the same cost-model primitives the stores charge
  (:mod:`repro.ft.stores`);
* :func:`system_failure_rate` — the aggregate fail-stop rate ``λ = Σ_j λ_j``
  of per-level exponential processes, the paper's Eq. 9-shaped input;
* :func:`optimal_interval_seconds` — the Young/Daly optimal coordinated-
  checkpoint interval ``τ_opt ≈ sqrt(2·C·M)`` (with Daly's higher-order
  correction), where ``C`` is the checkpoint cost and ``M = 1/λ`` the MTBF;
* :func:`predicted_overhead` — the first-order expected overhead of running
  with a given interval: checkpoint time per interval plus expected rework
  and restart per failure — the quantity behind the paper's overhead curves;
* :class:`IntervalModel` — all of the above bundled for one machine/job
  configuration, which is what ``FaultTolerancePolicy(interval="auto")``
  resolves through at session launch.

Everything is closed-form and deterministic; the Monte-Carlo campaign
(:mod:`repro.study.campaign`) reports these predictions next to the measured
overheads so the model can be judged exactly as the paper judges its own.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.errors import StudyError
from repro.registry import available, plural
from repro.simulator.costs import CostModel

__all__ = [
    "IntervalModel",
    "REPLAY_COST_FRACTION",
    "checkpoint_seconds",
    "restart_seconds",
    "level_capture_seconds",
    "system_failure_rate",
    "optimal_interval_seconds",
    "predicted_overhead",
]

#: Group size assumed for the parity store's cost estimate when none is given
#: (matches :attr:`repro.ft.stores.ParityStore.DEFAULT_MAX_GROUP`).
DEFAULT_PARITY_GROUP = 4

#: Fraction of a re-executed step's full cost that a localized *replay* pays:
#: suppressed actions are charged bookkeeping instead of network transfers
#: (:attr:`repro.simulator.costs.CostModel.log_bookkeeping` vs
#: :meth:`~repro.simulator.costs.CostModel.remote_transfer`), so fast-forward
#: rework is roughly an order of magnitude cheaper than global re-execution.
REPLAY_COST_FRACTION = 0.15


def _unmodelled(what: str, kind: str, name: str) -> StudyError:
    """The error for a registered ``kind`` name the model has no formula for."""
    known = ", ".join(repr(k) for k in available(kind))
    return StudyError(
        f"no analytic {what} model for {kind} {name!r}; modelled {plural(kind)} are: {known}"
    )


def system_failure_rate(rates_per_level: Mapping[int, float]) -> float:
    """Aggregate fail-stop rate ``λ = Σ_j λ_j`` in failures/second.

    ``rates_per_level`` maps FDH levels to the *system-wide* rate of the
    exponential failure process at that level — the same shape
    :func:`repro.ft.inject.exponential_schedule` consumes.  An empty
    mapping (or all-zero rates) means a failure-free machine: rate ``0.0``,
    infinite MTBF.
    """
    total = 0.0
    for level, rate in rates_per_level.items():
        if rate < 0:
            raise StudyError(f"failure rate for level {level} must be non-negative")
        total += rate
    return total


def checkpoint_seconds(
    store: str,
    *,
    bytes_per_rank: int,
    nprocs: int,
    cost_model: CostModel,
    parity_group: int = DEFAULT_PARITY_GROUP,
) -> float:
    """Analytic cost ``C`` of one coordinated checkpoint, per the store's placement.

    The estimate follows each store's critical path as charged by
    :mod:`repro.ft.stores` — a rank's own copy work plus the transfer of the
    redundant copy — and adds the two coordination barriers bracketing every
    coordinated checkpoint:

    * ``"memory"`` — local copy + buddy transfer + the buddy writing it down
      (2x placement, §3.1/§5);
    * ``"disk"`` — one shared-bandwidth PFS write of the rank's snapshot with
      all ranks writing concurrently (the SCR-PFS baseline of §7);
    * ``"parity"`` — local copy + the rank's contribution to the group XOR
      reduction + its ``1/k`` parity chunk being written (§3.3);
    * ``"multilevel"`` — the base level's every-checkpoint cost (its default
      base is the memory scheme); the rarer upper-level captures are
      amortized separately by
      :meth:`IntervalModel.multilevel_intervals`, not paid per checkpoint.
    """
    if bytes_per_rank < 0:
        raise StudyError("bytes_per_rank must be non-negative")
    if nprocs < 1:
        raise StudyError("nprocs must be at least 1")
    costs = cost_model
    nbytes = int(bytes_per_rank)
    if store in ("memory", "multilevel"):
        place = (
            costs.local_copy(nbytes)
            + costs.remote_transfer(nbytes)
            + costs.local_copy(nbytes)
        )
    elif store == "disk":
        place = costs.pfs_write(nbytes, concurrent_writers=nprocs)
    elif store == "parity":
        k = max(2, parity_group)
        place = (
            costs.local_copy(nbytes)
            + costs.remote_transfer(nbytes)
            + costs.local_copy(-(-nbytes // k))
        )
    else:
        raise _unmodelled("checkpoint-cost", "store", store)
    return place + 2.0 * costs.barrier(nprocs)


def restart_seconds(
    store: str,
    *,
    bytes_per_rank: int,
    nprocs: int,
    cost_model: CostModel,
) -> float:
    """Analytic cost ``R`` of restoring one failed rank after a fail-stop.

    Mirrors what :meth:`~repro.ft.stores.CheckpointStore.fetch` charges: a
    buddy transfer for ``"memory"``, a PFS read for ``"disk"``, a group
    reconstruction transfer for ``"parity"`` — plus the recovery barrier.
    """
    if bytes_per_rank < 0:
        raise StudyError("bytes_per_rank must be non-negative")
    costs = cost_model
    nbytes = int(bytes_per_rank)
    if store in ("memory", "multilevel", "parity"):
        # The multilevel common case restores from its base level; upper-level
        # fetches are rarer and priced like the disk/parity stores they mirror.
        fetch = costs.remote_transfer(nbytes)
    elif store == "disk":
        fetch = costs.pfs_read(nbytes)
    else:
        raise _unmodelled("restart-cost", "store", store)
    return fetch + costs.barrier(nprocs)


def level_capture_seconds(
    kind: str,
    *,
    bytes_per_rank: int,
    nprocs: int,
    cost_model: CostModel,
    dirty_fraction: float = 1.0,
) -> float:
    """Analytic cost of one upper-level *incremental* capture (§5).

    A :class:`~repro.ft.stores.MultiLevelStore` upper level ships only the
    bytes dirtied since its last capture; ``dirty_fraction`` scales the
    per-rank footprint accordingly (``1.0`` = assume everything changed — the
    conservative default when no measurement exists).  ``"parity"``-class
    levels pay a cross-domain transfer, ``"disk"``-class levels a
    shared-bandwidth PFS write.
    """
    if not 0.0 < dirty_fraction <= 1.0:
        raise StudyError("dirty_fraction must be in (0, 1]")
    nbytes = max(1, int(bytes_per_rank * dirty_fraction))
    if kind == "parity":
        return cost_model.remote_transfer(nbytes)
    if kind == "disk":
        return cost_model.pfs_write(nbytes, concurrent_writers=nprocs)
    raise StudyError(
        f"no analytic capture-cost model for level kind {kind!r}; "
        f"modelled kinds are: 'parity', 'disk'"
    )


def optimal_interval_seconds(checkpoint_s: float, mtbf_s: float) -> float:
    """Young/Daly optimal coordinated-checkpoint interval ``τ_opt`` in seconds.

    For ``C < 2M`` uses Daly's higher-order expansion

    ``τ = sqrt(2·C·M) · [1 + (1/3)·sqrt(C/(2M)) + (1/9)·(C/(2M))] − C``

    and degenerates to ``τ = M`` when checkpoints are so expensive that
    ``C ≥ 2M``.  An infinite MTBF (failure-free machine) yields ``inf`` —
    never checkpoint periodically.
    """
    if checkpoint_s <= 0:
        raise StudyError("checkpoint cost must be positive")
    if mtbf_s <= 0:
        raise StudyError("MTBF must be positive")
    if math.isinf(mtbf_s):
        return math.inf
    ratio = checkpoint_s / (2.0 * mtbf_s)
    if ratio >= 1.0:
        return mtbf_s
    tau = math.sqrt(2.0 * checkpoint_s * mtbf_s)
    tau *= 1.0 + math.sqrt(ratio) / 3.0 + ratio / 9.0
    return max(tau - checkpoint_s, checkpoint_s)


def predicted_overhead(
    interval_s: float,
    *,
    checkpoint_s: float,
    restart_s: float,
    mtbf_s: float,
) -> float:
    """First-order expected overhead fraction of running with interval ``τ``.

    ``overhead = C/τ + ((τ + C)/2 + R) / M`` — checkpoint time amortized over
    the interval, plus (per failure, i.e. per MTBF) the expected half-interval
    of lost work and the restart cost.  ``0 ≤ overhead`` and failure-free
    machines pay only the ``C/τ`` term.  ``τ = inf`` (no periodic
    checkpoints) pays no checkpoint or rework term here — the lost work per
    failure is the whole run, which a steady-state model cannot represent —
    only the restart cost per MTBF; the campaign measures the rest of that
    gamble empirically.
    """
    if interval_s <= 0:
        raise StudyError("interval must be positive")
    if math.isinf(interval_s):
        return 0.0 if math.isinf(mtbf_s) else restart_s / mtbf_s
    overhead = checkpoint_s / interval_s
    if not math.isinf(mtbf_s):
        overhead += ((interval_s + checkpoint_s) / 2.0 + restart_s) / mtbf_s
    return overhead


@dataclass(frozen=True)
class IntervalModel:
    """The analytic model instantiated for one machine/job configuration.

    This is what ``FaultTolerancePolicy(interval="auto")`` resolves through:
    the session builds an :class:`IntervalModel` from its topology's cost
    model, the declared store, the measured per-rank window footprint and the
    declared (or estimated) per-level failure rates, then asks for
    :meth:`optimal_interval_steps` given the measured per-step cost.
    """

    cost_model: CostModel
    nprocs: int
    bytes_per_rank: int
    store: str = "memory"
    rates_per_level: Mapping[int, float] = field(default_factory=dict)
    parity_group: int = DEFAULT_PARITY_GROUP

    # ------------------------------------------------------------------
    @property
    def failure_rate(self) -> float:
        """Aggregate fail-stop rate λ in failures/second."""
        return system_failure_rate(self.rates_per_level)

    @property
    def mtbf_seconds(self) -> float:
        """Mean time between failures ``M = 1/λ`` (``inf`` when failure-free)."""
        rate = self.failure_rate
        return math.inf if rate == 0.0 else 1.0 / rate

    @property
    def checkpoint_cost_seconds(self) -> float:
        """Analytic per-checkpoint cost ``C`` for the configured store."""
        return checkpoint_seconds(
            self.store,
            bytes_per_rank=self.bytes_per_rank,
            nprocs=self.nprocs,
            cost_model=self.cost_model,
            parity_group=self.parity_group,
        )

    @property
    def restart_cost_seconds(self) -> float:
        """Analytic per-failure restart cost ``R`` for the configured store."""
        return restart_seconds(
            self.store,
            bytes_per_rank=self.bytes_per_rank,
            nprocs=self.nprocs,
            cost_model=self.cost_model,
        )

    # ------------------------------------------------------------------
    def optimal_interval_seconds(self) -> float:
        """Young/Daly ``τ_opt`` in virtual seconds (``inf`` when failure-free)."""
        return optimal_interval_seconds(self.checkpoint_cost_seconds, self.mtbf_seconds)

    def optimal_interval_steps(
        self, step_seconds: float, *, max_steps: int | None = None
    ) -> int | None:
        """``τ_opt`` converted to whole job steps of measured cost ``step_seconds``.

        Returns ``None`` for a failure-free machine — take no periodic
        checkpoints at all (the session still takes its initial one).  The
        result is clamped to ``[1, max_steps]`` when a bound is given.
        """
        if step_seconds <= 0:
            raise StudyError("step_seconds must be positive")
        tau = self.optimal_interval_seconds()
        if math.isinf(tau):
            return None
        steps = max(1, round(tau / step_seconds))
        if max_steps is not None:
            steps = min(steps, max(1, max_steps))
        return steps

    def multilevel_intervals(
        self,
        kinds: Sequence[str] = ("parity", "disk"),
        *,
        level_rates: Sequence[float] | None = None,
        dirty_fraction: float = 1.0,
    ) -> list[int | None]:
        """Per-level capture cadences — the multi-level optimum of §5–§7.

        Extends Young/Daly level by level: upper level ``j`` (guarding the
        failures its base cannot survive) has its own capture cost ``C_j``
        (:func:`level_capture_seconds`, scaled by ``dirty_fraction``) and its
        own guarded rate ``λ_j``, giving ``τ_j = sqrt(2·C_j·M_j)``; the
        cadence is ``n_j = round(τ_j / τ_0)`` base checkpoints, at least 1.

        ``level_rates`` gives ``λ_j`` per upper level explicitly; by default
        the model's :attr:`rates_per_level` are assigned in ascending FDH
        order — the base absorbs the lowest level, each upper level guards
        the next one up, the last absorbs every remaining level.  A level
        with rate 0 (nothing to guard) gets cadence ``None``: capture once
        (the seeding full image) and never refresh.  Feed the result to
        :class:`repro.ft.stores.MultiLevelStore` as ``levels=zip(kinds, cadences)``
        (mapping ``None`` to "leave the default").
        """
        if level_rates is not None:
            if len(level_rates) != len(kinds):
                raise StudyError(
                    f"expected {len(kinds)} level rates, got {len(level_rates)}"
                )
            rates = [float(rate) for rate in level_rates]
        else:
            by_level = [
                self.rates_per_level[lvl]
                for lvl in sorted(self.rates_per_level)
            ]
            guarded = by_level[1:]  # the base level absorbs the lowest
            last = len(kinds) - 1  # ... and the last upper level every remaining one
            rates = [guarded[idx] if idx < len(guarded) else 0.0 for idx in range(last)]
            rates.append(sum(guarded[last:]))
        tau_base = self.optimal_interval_seconds()
        cadences: list[int | None] = []
        for kind, rate in zip(kinds, rates):
            if rate < 0:
                raise StudyError("level failure rates must be non-negative")
            if rate == 0.0 or math.isinf(tau_base):
                cadences.append(None)
                continue
            capture = level_capture_seconds(
                kind,
                bytes_per_rank=self.bytes_per_rank,
                nprocs=self.nprocs,
                cost_model=self.cost_model,
                dirty_fraction=dirty_fraction,
            )
            tau = optimal_interval_seconds(capture, 1.0 / rate)
            cadences.append(max(1, round(tau / tau_base)))
        return cadences

    def predicted_overhead(self, interval_steps: int | None, step_seconds: float) -> float:
        """Predicted overhead fraction of checkpointing every ``interval_steps``.

        ``None`` means no periodic checkpoints (``τ = inf``).
        """
        if step_seconds <= 0:
            raise StudyError("step_seconds must be positive")
        tau = math.inf if interval_steps is None else interval_steps * step_seconds
        return predicted_overhead(
            tau,
            checkpoint_s=self.checkpoint_cost_seconds,
            restart_s=self.restart_cost_seconds,
            mtbf_s=self.mtbf_seconds,
        )

    # ------------------------------------------------------------------
    # Predicted repair time and availability (the chaos layer's yardstick)
    # ------------------------------------------------------------------
    def predicted_mttr_seconds(
        self,
        recovery: str,
        *,
        step_seconds: float,
        interval_steps: int | None,
    ) -> float:
        """Predicted detection → service-restored time for one failure.

        *Repair* ends when the crash-aborted step completes again (the chaos
        log's ``service_restored`` marker), so the estimate prices the
        protocol's rework, not just its restore:

        * ``"global"`` — restore ``R`` plus re-executing the expected
          half-interval of lost work at full cost, plus the aborted step;
        * ``"localized"`` — restore ``R`` plus the same rework at
          :data:`REPLAY_COST_FRACTION` of full cost (suppressed actions are
          bookkeeping, not transfers), plus the aborted step;
        * ``"degraded"`` — no restore at all: a membership barrier and the
          aborted step re-run by the survivors;
        * ``"best_effort"`` — nothing aborts: a kill lands at a completion,
          inside a step's sync, so only that sync's flush is left of the step
          before the suspended rank restores alone, ``R``, at its boundary.

        An unprotected interval (``None`` — only the initial checkpoint) has
        expected rework of half the MTBF-worth of steps.
        """
        if step_seconds <= 0:
            raise StudyError("step_seconds must be positive")
        if interval_steps is not None and interval_steps < 1:
            raise StudyError("interval_steps must be at least 1 (or None)")
        if interval_steps is not None:
            lost_work = interval_steps * step_seconds / 2.0
        else:
            mtbf = self.mtbf_seconds
            lost_work = 0.0 if math.isinf(mtbf) else mtbf / 2.0
        restart = self.restart_cost_seconds
        barrier = self.cost_model.barrier(self.nprocs)
        if recovery == "global":
            return restart + lost_work + step_seconds
        if recovery == "localized":
            return restart + REPLAY_COST_FRACTION * lost_work + step_seconds
        if recovery == "degraded":
            return barrier + step_seconds
        if recovery == "best_effort":
            return restart + self.cost_model.flush()
        raise _unmodelled("MTTR", "recovery", recovery)

    def predicted_availability(
        self,
        recovery: str,
        *,
        step_seconds: float,
        interval_steps: int | None,
    ) -> float:
        """Predicted steady-state availability ``M / (M + MTTR)``.

        ``M`` is the configured MTBF; a failure-free machine is fully
        available.  Compared against the chaos soak's *observed*
        availability in the ``python -m repro.chaos`` report.
        """
        mtbf = self.mtbf_seconds
        if math.isinf(mtbf):
            return 1.0
        mttr = self.predicted_mttr_seconds(
            recovery, step_seconds=step_seconds, interval_steps=interval_steps
        )
        return mtbf / (mtbf + mttr)
