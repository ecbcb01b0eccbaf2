"""Serving traffic through a failure: the per-window SLO table.

A chaos cell of the sharded ``"kv_service"`` workload (:mod:`repro.serve`)
prices a failure the way a service owner does — request latency against an
SLO — beside the infrastructure units (MTTR, availability) every chaos cell
reports.  This example drives the service under seeded open-loop traffic,
injects one seeded NODE_KILL mid-run (the ``"single"`` scenario), and
compares what each recovery protocol does to the latency tail **on
identical traffic and an identical kill plan**:

* ``global`` rollback re-executes every step since the checkpoint — every
  key's requests get re-served at later clocks, so the recovery-window p99
  spikes for everyone;
* ``localized`` replay fast-forwards survivors through the log and restores
  only the failed shard — its requests stall, everyone else's latency stands;
* ``degraded`` continuation excises the victims and keeps serving — latency
  stays flat, but the excised shard's reads go stale and its writes drop:
  a measurable error rate is the price of the flat tail.

Run with::

    PYTHONPATH=src python examples/kv_service_slo.py
"""

from __future__ import annotations

from repro.chaos import SoakSpec, check_chaos_invariants, render_markdown, run_comparison

#: A small, seconds-long serving cell: one round of modest traffic.
SPEC = SoakSpec(
    workload="kv_service",
    scenario="single",
    rounds=1,
    interval=8,
    compression=1000.0,
    seed=2026,
    nprocs=8,
    workload_params={
        "kv_service": {"steps": 24, "rate_per_step": 5.0, "slots": 32, "key_space": 256}
    },
)


def main() -> None:
    results = run_comparison(SPEC)

    for result in results:
        slo = result.served.slo["overall"]
        print(
            f"{result.spec.cell_key:38s} kills={result.metrics.kills_fired} "
            f"recoveries={result.recoveries} excised={result.excised_ranks} "
            f"errors={slo['errors']}/{slo['requests']}"
        )
    print()
    print(render_markdown(results), end="")

    violations = check_chaos_invariants(results)
    for violation in violations:
        print(f"INVARIANT: {violation}")
    if violations:
        raise SystemExit(1)
    print()
    print(
        "invariants hold: localized recovery-window p99 < global's; "
        "degraded errs but its tail stays flat"
    )


if __name__ == "__main__":
    main()
