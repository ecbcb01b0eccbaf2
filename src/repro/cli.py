"""Shared command-line conventions of the ``repro`` engines.

Three engines ship a ``python -m`` entry point — :mod:`repro.study`,
:mod:`repro.chaos` and :mod:`repro.serve` — and they follow one contract:
``--list`` prints the component registry and exits, ``--seed`` seeds every
stochastic choice, and the report epilogue (markdown to stdout, optional JSON
artifact, invariant gate, baseline gate) behaves identically everywhere.  A
flag that sets a field of the engine's spec dataclass is declared with
``dest=<field>`` and no default: :func:`parse_spec` takes the defaults from
the spec — the plain one, or under ``--quick`` the engine's seconds-long CI
preset, which any flag given explicitly (``--seed`` included) then refines.  This module is that contract in one place
(:func:`engine_main`); the per-engine ``__main__`` modules only contribute
their flags, their specs and their gate functions.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import sys
from collections.abc import Callable, Sequence
from contextlib import nullcontext

from repro.errors import ReproError
from repro.registry import render_available
from repro.trace.tracer import tracing

__all__ = [
    "csv",
    "add_common_arguments",
    "add_report_arguments",
    "parse_spec",
    "engine_main",
]


def csv(value: str) -> tuple[str, ...]:
    """``argparse`` type for comma-separated name lists (blanks dropped)."""
    return tuple(item.strip() for item in value.split(",") if item.strip())


class _HelpFormatter(argparse.HelpFormatter):
    """Help whose ``%(default)s`` prints a tuple as the comma list its flag takes."""

    def _expand_help(self, action: argparse.Action) -> str:
        if isinstance(action.default, tuple):
            action = copy.copy(action)
            action.default = ",".join(map(str, action.default))
        return super()._expand_help(action)


def add_common_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags every engine answers identically, and its help format."""
    parser.formatter_class = _HelpFormatter
    parser.add_argument(
        "--list", action="store_true",
        help="print every registered component of every kind and exit",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="start from the engine's seconds-long CI configuration "
             "(explicit flags still apply)",
    )
    parser.add_argument(
        "--seed", type=int,
        help="master seed for every stochastic choice (default %(default)s)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="dump a full-run virtual-time trace (canonical JSONL; inspect "
             "with `python -m repro.trace`)",
    )


def add_report_arguments(
    parser: argparse.ArgumentParser, *, regression_metric: str
) -> None:
    """The shared report/gate flags (``--output`` … ``--skip-invariants``)."""
    parser.add_argument(
        "--output", default=None, metavar="PATH", help="write the JSON report here"
    )
    parser.add_argument(
        "--markdown", default=None, metavar="PATH",
        help="write the markdown summary here (always printed to stdout)",
    )
    parser.add_argument(
        "--check-baseline", default=None, metavar="PATH",
        help="compare against a baseline JSON report and exit 1 on regression",
    )
    parser.add_argument(
        "--max-regression", type=float, default=2.0,
        help=f"tolerated {regression_metric} ratio against the baseline "
             f"(default %(default)s)",
    )
    parser.add_argument(
        "--skip-invariants", action="store_true",
        help="do not gate on the report invariants (debugging only)",
    )


def parse_spec(
    parser: argparse.ArgumentParser, argv: Sequence[str] | None, *, spec, quick
) -> tuple[argparse.Namespace, object]:
    """Parse ``argv`` into ``(args, spec)``, the spec's fields as the flag defaults.

    ``spec`` is the engine's default spec and ``quick`` its ``--quick``
    preset; every field some flag sets as its ``dest`` defaults to the base
    spec's value, so only the flags given explicitly change it.  A value
    the spec rejects is a usage error: one ``error:`` line, exit status 2.
    """
    names = {f.name for f in dataclasses.fields(spec)}
    names &= {action.dest for action in parser._actions}
    parser.set_defaults(**{name: getattr(spec, name) for name in names})
    args = parser.parse_args(argv)
    if args.quick:
        spec = quick
        parser.set_defaults(**{name: getattr(spec, name) for name in names})
        args = parser.parse_args(argv)
    try:
        spec = dataclasses.replace(spec, **{name: getattr(args, name) for name in names})
    except ReproError as exc:
        parser.error(str(exc))
    return args, spec


def engine_main(
    parser: argparse.ArgumentParser,
    argv: Sequence[str] | None,
    *,
    spec,
    quick,
    run: Callable[[argparse.Namespace, object], object],
    render: Callable[[object], str],
    to_json: Callable[[object], str],
    invariants: Callable[[object], list[str]],
    invariants_message: str,
    gate: Callable[..., list[str]],
    artifacts: Callable[[argparse.Namespace, object], None] | None = None,
) -> int:
    """The whole command line; returns the process exit status.

    :func:`parse_spec` turns ``argv`` into ``args`` and the spec to run.
    ``--list`` prints the registry and exits 0.  A ``--check-baseline`` file
    is read and parsed first: an unreadable one is a ``REGRESSION:`` line and
    exit status 1 before anything runs.  Otherwise ``run(args, spec)``
    runs the engine — under a run-wide trace hub when
    ``--trace PATH`` was given: every session launched inside joins it
    (labelled by comparison cell) and the merged trace is written,
    atomically, even when the run raises.  The markdown goes to stdout and —
    with the JSON report — to the files asked for, ``artifacts(args,
    result)`` writes the engine's extra logs, and the two gates run:
    ``invariants(result)`` unless ``--skip-invariants``, and
    ``gate(report_document, baseline_document, max_ratio=...)`` when
    ``--check-baseline`` names a file.  Violations go to stderr, prefixed
    ``INVARIANT:`` / ``REGRESSION:`` — the strings CI greps for.
    """
    args, spec = parse_spec(parser, argv, spec=spec, quick=quick)
    if args.list:
        print(render_available())
        return 0
    baseline = None
    if args.check_baseline:
        try:
            with open(args.check_baseline) as fh:
                baseline = json.load(fh)
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            print(
                f"REGRESSION: cannot read baseline {args.check_baseline}: {exc}",
                file=sys.stderr,
            )
            return 1
    with tracing(path=args.trace) if args.trace else nullcontext():
        result = run(args, spec)
    if args.trace:
        print(f"trace written to {args.trace}")
    markdown, json_text = render(result), to_json(result)
    print(markdown, end="")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(json_text)
        print(f"report written to {args.output}")
    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write(markdown)
        print(f"summary written to {args.markdown}")
    if artifacts is not None:
        artifacts(args, result)
    status = 0
    if not args.skip_invariants:
        violations = invariants(result)
        for violation in violations:
            print(f"INVARIANT: {violation}", file=sys.stderr)
        if violations:
            status = 1
        else:
            print(invariants_message)
    if args.check_baseline:
        failures = gate(json.loads(json_text), baseline, max_ratio=args.max_regression)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            status = 1
        else:
            print(
                f"baseline check passed against {args.check_baseline} "
                f"(tolerance {args.max_regression:.1f}x)"
            )
    return status
