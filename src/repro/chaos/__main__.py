"""``python -m repro.chaos`` — run a long-horizon soak / chaos comparison.

Examples::

    # The default comparison: stencil under Poisson kills, global,
    # localized and degraded recovery on identical schedules, markdown
    # table on stdout:
    python -m repro.chaos

    # An hour-equivalent soak of the kv workload under node-level failures
    # on the real-process backend, streaming the event log:
    python -m repro.chaos --workload kv --scenario correlated \\
        --backends proc --rounds 12 --compression 10000 \\
        --events soak.jsonl --output soak.json

    # The CI gate: sim + proc smoke, schema validation, baseline comparison:
    python -m repro.chaos --quick --backends sim,proc \\
        --check-baseline tests/baselines/chaos.json

    # What can I put on each axis?
    python -m repro.chaos --list

Exit status 1 when a comparison invariant is violated or the baseline gate
fails.
"""

from __future__ import annotations

import argparse

from repro.chaos.metrics import write_events
from repro.chaos.report import (
    check_against_baseline,
    check_chaos_invariants,
    render_markdown,
    report_json,
)
from repro.chaos.soak import SoakResult, SoakSpec, run_comparison
from repro.cli import add_common_arguments, add_report_arguments, csv, engine_main

__all__ = ["main"]


def quick_spec() -> SoakSpec:
    """The seconds-long CI soak: small rounds, the default fault load."""
    return SoakSpec(
        rounds=4, interval=6, workload_params={"stencil": {"n_local": 16, "iters": 24}}
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="long-horizon soak engine with accelerated virtual time",
    )
    add_common_arguments(parser)
    parser.add_argument("--workload", help="workload to soak")
    parser.add_argument(
        "--scenario",
        help="failure scenario (poisson, correlated, cascade, flaky)",
    )
    parser.add_argument(
        "--backends", type=csv, default=("sim",),
        help="comma-separated backends to compare on identical schedules",
    )
    parser.add_argument(
        "--stores", type=csv, default=("memory",),
        help="comma-separated checkpoint stores to compare",
    )
    parser.add_argument(
        "--recoveries", type=csv, default=("global", "localized", "degraded"),
        help="comma-separated recovery protocols to compare (default %(default)s)",
    )
    parser.add_argument("--rounds", type=int, help="workload rounds to soak")
    parser.add_argument("--interval", type=int, help="checkpoint interval in steps")
    parser.add_argument(
        "--compression", type=float,
        help="virtual-time compression factor (default %(default)sx)",
    )
    parser.add_argument(
        "--rate", type=float, dest="rate_per_round", metavar="KILLS_PER_ROUND",
        help="expected kills per workload round (default %(default)s)",
    )
    parser.add_argument("--nprocs", type=int, help="ranks per job")
    parser.add_argument("--procs-per-node", type=int, help="ranks packed per node")
    parser.add_argument(
        "--events", default=None, metavar="PATH",
        help="stream the first cell's JSONL event log here",
    )
    add_report_arguments(parser, regression_metric="MTTR/unavailability")
    return parser


def _run(args: argparse.Namespace, base: SoakSpec) -> list[SoakResult]:
    return run_comparison(
        base,
        recoveries=args.recoveries,
        backends=args.backends,
        stores=args.stores,
    )


def _write_event_log(args: argparse.Namespace, results: list[SoakResult]) -> None:
    if args.events:
        write_events(results[0].events, args.events)
        print(f"event log written to {args.events}")


def main(argv: list[str] | None = None) -> int:
    return engine_main(
        build_parser(), argv,
        spec=SoakSpec(),
        quick=quick_spec(),
        run=_run,
        render=render_markdown,
        to_json=report_json,
        invariants=check_chaos_invariants,
        invariants_message=(
            "invariants hold (localized MTTR < global; degraded availability > both; "
            "best_effort makespan < global; exact rules quality 1.0; incremental < "
            "full; backends agree)"
        ),
        gate=check_against_baseline,
        artifacts=_write_event_log,
    )


if __name__ == "__main__":
    raise SystemExit(main())
