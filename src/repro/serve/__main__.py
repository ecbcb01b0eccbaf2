"""``python -m repro.serve`` — sharded KV service under failures, SLO report.

Examples::

    # The default comparison: one seeded NODE_KILL against all three
    # recovery protocols on identical traffic, SLO table on stdout:
    python -m repro.serve

    # The same grid on the real-process backend too, with the canonical
    # request log and JSON report written out:
    python -m repro.serve --backends sim,proc \\
        --requests requests.jsonl --output serve.json

    # The CI gate: quick smoke, schema-validated log, baseline comparison:
    python -m repro.serve --quick --backends sim,proc \\
        --check-baseline tests/baselines/serve.json

    # What can I put on each axis?
    python -m repro.serve --list

Exit status 1 when a comparison invariant is violated or the baseline gate
fails.
"""

from __future__ import annotations

import argparse

from repro.cli import add_common_arguments, add_report_arguments, csv, engine_main
from repro.registry import available
from repro.serve.engine import ServeResult, ServeSpec, run_slo_comparison
from repro.serve.report import (
    check_against_baseline,
    check_serve_invariants,
    render_markdown,
    report_json,
    write_requests,
)

__all__ = ["main"]


def quick_spec() -> ServeSpec:
    """The seconds-long CI serving cell: short run, modest key space."""
    return ServeSpec(steps=24, rate_per_step=5.0, slots=32, key_space=256, interval=8)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="sharded resilient KV service with open-loop traffic and latency SLOs",
    )
    add_common_arguments(parser)
    parser.add_argument(
        "--backends", type=csv, default=("sim",),
        help="comma-separated backends to compare on identical traffic",
    )
    parser.add_argument(
        "--stores", type=csv, default=("memory",),
        help="comma-separated checkpoint stores to compare",
    )
    parser.add_argument(
        "--recoveries", type=csv, default=("global", "localized", "degraded"),
        help="comma-separated recovery protocols to compare (default %(default)s)",
    )
    parser.add_argument(
        "--delivery",
        help=f"delivery mode every cell serves under "
             f"(registered: {', '.join(available('delivery'))})",
    )
    parser.add_argument("--steps", type=int, help="job steps to serve")
    parser.add_argument(
        "--rate", type=float, dest="rate_per_step", metavar="REQS_PER_STEP",
        help="mean request arrivals per job step (default %(default)s)",
    )
    parser.add_argument(
        "--zipf", type=float, dest="zipf_s", metavar="S",
        help="key-skew exponent (0 = uniform; default %(default)s)",
    )
    parser.add_argument(
        "--read-fraction", type=float,
        help="fraction of requests that are reads (default %(default)s)",
    )
    parser.add_argument("--key-space", type=int, help="distinct client keys")
    parser.add_argument("--slots", type=int, help="slots per shard")
    parser.add_argument("--interval", type=int, help="checkpoint interval in steps")
    parser.add_argument(
        "--compression", type=float,
        help="virtual-time compression factor (default %(default)sx)",
    )
    parser.add_argument("--nprocs", type=int, help="ranks (= shards) per job")
    parser.add_argument("--procs-per-node", type=int, help="ranks packed per node")
    parser.add_argument(
        "--kill-frac", type=float,
        help="kill offset as a fraction of the probe's op stream (default %(default)s)",
    )
    parser.add_argument(
        "--kill-kind",
        help="pod_kill (one rank) or node_kill (every rank of the node)",
    )
    parser.add_argument(
        "--requests", default=None, metavar="PATH",
        help="write the canonical JSONL request log (all cells) here",
    )
    add_report_arguments(parser, regression_metric="p99")
    return parser


def _run(args: argparse.Namespace, base: ServeSpec) -> list[ServeResult]:
    return run_slo_comparison(
        base,
        recoveries=args.recoveries,
        backends=args.backends,
        stores=args.stores,
    )


def _write_request_log(args: argparse.Namespace, results: list[ServeResult]) -> None:
    if args.requests:
        count = write_requests(results, args.requests)
        print(f"{count} request rows written to {args.requests}")


def main(argv: list[str] | None = None) -> int:
    return engine_main(
        build_parser(), argv,
        spec=ServeSpec(),
        quick=quick_spec(),
        run=_run,
        render=render_markdown,
        to_json=report_json,
        invariants=check_serve_invariants,
        invariants_message=(
            "invariants hold (localized recovery p99 < global; "
            "degraded errs but stays flat)"
        ),
        gate=check_against_baseline,
        artifacts=_write_request_log,
    )


if __name__ == "__main__":
    raise SystemExit(main())
