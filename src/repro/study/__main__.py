"""``python -m repro.study`` — run a Monte-Carlo resilience campaign.

Examples::

    # The default small campaign, markdown summary on stdout:
    python -m repro.study

    # A custom sweep, JSON + markdown artifacts, 8 worker processes:
    python -m repro.study --workloads stencil,allreduce,kv \\
        --stores memory,disk,parity --recoveries global,localized \\
        --rates 0,2,4 --intervals auto,4,12 --trials 8 --seed 7 \\
        --executor process --jobs 8 --output report.json --markdown report.md

    # The CI gate: tiny grid, invariants + baseline comparison:
    python -m repro.study --quick \\
        --check-baseline tests/baselines/study.json

    # What can I put on each axis?
    python -m repro.study --list

Exit status 1 when an invariant is violated or the baseline gate fails.
"""

from __future__ import annotations

import argparse

from repro.cli import add_common_arguments, add_report_arguments, csv, engine_main
from repro.registry import available, plural
from repro.study.campaign import (
    CampaignSpec,
    check_against_baseline,
    check_invariants,
    quick_spec,
    render_markdown,
    report_json,
    run_campaign,
)

__all__ = ["main"]


def _intervals(value: str) -> tuple[int | str, ...]:
    return tuple(item if item == "auto" else int(item) for item in csv(value))


def _floats(value: str) -> tuple[float, ...]:
    return tuple(float(item) for item in csv(value))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.study",
        description="Monte-Carlo resilience-study campaign runner",
    )
    add_common_arguments(parser)
    for kind in ("workload", "backend", "store", "recovery"):
        parser.add_argument(
            f"--{plural(kind)}", type=csv,
            help=f"comma-separated {plural(kind)} (registered: {', '.join(available(kind))})",
        )
    parser.add_argument(
        "--rates", type=_floats, dest="mean_failures", metavar="MEANS",
        help="comma-separated expected failures per failure-free makespan "
             "(default %(default)s)",
    )
    parser.add_argument(
        "--intervals", type=_intervals,
        help="comma-separated checkpoint intervals: step counts and/or 'auto'",
    )
    parser.add_argument("--trials", type=int, help="seeded trials per cell")
    parser.add_argument("--nprocs", type=int, help="ranks per job")
    parser.add_argument("--procs-per-node", type=int, help="ranks packed per node")
    parser.add_argument(
        "--executor", choices=("serial", "process"), default="serial",
        help="how cells/trials are dispatched (report is identical either way)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N", help="max executor workers"
    )
    add_report_arguments(parser, regression_metric="overhead")
    return parser


def main(argv: list[str] | None = None) -> int:
    return engine_main(
        build_parser(), argv,
        spec=CampaignSpec(),
        quick=quick_spec(),
        run=lambda args, spec: run_campaign(
            spec, executor=args.executor, max_workers=args.jobs
        ),
        render=render_markdown,
        to_json=report_json,
        invariants=check_invariants,
        invariants_message=(
            "invariants hold (localized < global restored bytes; auto within 2x)"
        ),
        gate=check_against_baseline,
    )


if __name__ == "__main__":
    raise SystemExit(main())
