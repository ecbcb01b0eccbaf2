"""``python -m repro.qos`` — quantify the quality/robustness/speed trade-off.

Examples::

    # The default comparison: sparse kv updates, global rollback vs
    # best-effort delivery on memory vs multilevel stores, identical kill plans:
    python -m repro.qos

    # A bigger sweep on sim and proc, JSON artifact:
    python -m repro.qos --workload kv --backends sim,proc \\
        --stores memory,multilevel,parity --trials 4 --kills 2 \\
        --output qos.json

    # The CI gate: quick smoke (sim + proc when available), invariants +
    # baseline comparison:
    python -m repro.qos --quick \\
        --check-baseline tests/baselines/qos.json

    # What can I put on each axis?
    python -m repro.qos --list

Exit status 1 when a trade-off invariant is violated or the baseline gate
fails.
"""

from __future__ import annotations

import argparse

from repro.cli import add_common_arguments, add_report_arguments, csv, engine_main
from repro.qos.engine import (
    QosSpec,
    check_invariants,
    quick_spec,
    report_json,
    run_qos,
)
from repro.qos.report import check_against_baseline, render_markdown

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.qos",
        description="recovery-rule × store-hierarchy comparison on identical "
                    "kill plans",
    )
    add_common_arguments(parser)
    parser.add_argument(
        "--workload",
        help="workload under test (sparse-write kernels show the trade-off best)",
    )
    parser.add_argument(
        "--recoveries", type=csv,
        help="comma-separated recovery rules to compare",
    )
    parser.add_argument(
        "--stores", type=csv,
        help="comma-separated checkpoint stores to compare",
    )
    parser.add_argument(
        "--backends", type=csv,
        help="comma-separated backends to run identical plans on",
    )
    parser.add_argument("--kills", type=int, help="injected kills per trial")
    parser.add_argument("--trials", type=int, help="seeded kill plans per cell")
    parser.add_argument("--nprocs", type=int, help="ranks per job")
    parser.add_argument("--procs-per-node", type=int, help="ranks packed per node")
    parser.add_argument("--interval", type=int, help="checkpoint interval in steps")
    parser.add_argument(
        "--stale-fraction", type=float,
        help="probability a tolerated get serves stale checkpoint data "
             "instead of dropping (default %(default)s)",
    )
    parser.add_argument(
        "--executor", choices=("serial", "process"), default="serial",
        help="how cells/trials are dispatched (report is identical either way)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N", help="max executor workers"
    )
    add_report_arguments(parser, regression_metric="virtual-makespan")
    return parser


def main(argv: list[str] | None = None) -> int:
    return engine_main(
        build_parser(), argv,
        spec=QosSpec(),
        quick=quick_spec(),
        run=lambda args, spec: run_qos(spec, executor=args.executor, max_workers=args.jobs),
        render=render_markdown,
        to_json=report_json,
        invariants=check_invariants,
        invariants_message=(
            "invariants hold (global quality == 1.0; best-effort strictly "
            "faster; incremental < full; backends agree)"
        ),
        gate=check_against_baseline,
    )


if __name__ == "__main__":
    raise SystemExit(main())
