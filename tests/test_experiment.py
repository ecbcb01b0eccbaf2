"""The experiment core: seed rule, grid dispatch, probe and the baseline gate."""

from __future__ import annotations

import dataclasses
import importlib
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.api.policy import Topology
from repro.api.session import launch
from repro.backends.proc import proc_available
from repro.cli import parse_spec
from repro.errors import CampaignError, ReproError
from repro.experiment import (
    baseline_gate,
    check_names,
    markdown_table,
    plan_entropy,
    report_json,
    run_grid,
)
from repro.ft.inject import FaultInjector, KillPlan
from repro.simulator.costs import cray_xe6_like
from repro.study.workloads import make_workload


# ----------------------------------------------------------------------
# The paired-seed rule
# ----------------------------------------------------------------------
def _draw(*parts) -> list[int]:
    return plan_entropy(*parts).generate_state(2).tolist()


def test_plan_entropy_is_exactly_the_parts_passed():
    # An excluded axis is one that is not passed: cells that differ only in
    # it (here: nothing else to differ in) draw the identical load ...
    assert _draw(2026, "stencil", "poisson") == _draw(2026, "stencil", "poisson")
    # ... and every part that *is* passed separates, int or str.
    loads = [
        _draw(2026, "stencil", "poisson"),
        _draw(2027, "stencil", "poisson"),
        _draw(2026, "kv", "poisson"),
        _draw(2026, "stencil", "cascade"),
        _draw(2026, "stencil", "poisson", 1),
    ]
    assert len({tuple(load) for load in loads}) == len(loads)
    # numpy pads entropy with zeros, so a trailing 0 is the one part that
    # does not separate — why every engine passes a fixed number of parts.
    assert _draw(2026, "stencil", "poisson", 0) == loads[0]


def test_plan_entropy_is_stable_across_processes_and_machines():
    # Strings enter as crc32, never as hash(): these literals hold everywhere.
    assert _draw(2026, "stencil", "poisson") == [679143016, 3508499586]
    assert plan_entropy(7, 1, 2).generate_state(1).tolist() == [1734722684]
    assert plan_entropy(np.int64(7), 1, 2).generate_state(1).tolist() == [1734722684]


def test_check_names_lists_the_registered_choices():
    check_names((("backend", ("sim", "vector")), ("store", ("memory",))),
                CampaignError, "campaign spec")
    with pytest.raises(CampaignError, match=r"unknown store 'tape' in campaign spec; "
                                            r"registered stores are: .*'memory'"):
        check_names((("backend", ("sim",)), ("store", ("tape",))),
                    CampaignError, "campaign spec")


# ----------------------------------------------------------------------
# The failure-free probe
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["stencil", "allreduce", "kv"])
def test_probe_counts_the_stream_the_injector_indexes(name):
    workload = make_workload(name, nprocs=4)
    run = workload.run(procs_per_node=2, cost_model=cray_xe6_like())
    with launch(
        workload.nprocs,
        topology=Topology(procs_per_node=2, cost_model=cray_xe6_like()),
        sync_each_step=workload.sync_each_step,
    ) as job:
        workload.setup(job)
        counter = FaultInjector(KillPlan([]))
        job.runtime.add_interceptor(counter)
        report = job.run(workload.kernel(), steps=workload.steps)
    assert run.ops == counter.ops_seen > 0
    assert run.report.elapsed == report.elapsed


# ----------------------------------------------------------------------
# Grid dispatch
# ----------------------------------------------------------------------
def _square(task: int) -> int:
    return task * task


def _fail_on_three(task: int) -> int:
    if task == 3:
        raise ValueError("task 3 failed")
    return task


def test_run_grid_is_ordered_and_identical_across_executors():
    tasks = list(range(12))
    expected = [task * task for task in tasks]
    for executor in ("serial", "process"):
        got = run_grid(
            _square, tasks, executor=executor, max_workers=3, error=ReproError
        )
        assert got == expected, executor


def test_run_grid_shuts_the_pool_down_when_a_task_raises():
    before = set(threading.enumerate())
    for executor in ("serial", "process"):
        with pytest.raises(ValueError, match="task 3 failed"):
            run_grid(
                _fail_on_three, range(6), executor=executor, max_workers=2,
                error=ReproError,
            )
    leaked = [t for t in set(threading.enumerate()) - before if t.is_alive()]
    assert leaked == []


def test_run_grid_rejects_unknown_executors_with_the_callers_error():
    for name in ("fiber", "thread"):
        with pytest.raises(
            CampaignError, match=f"unknown executor '{name}'; choose 'serial' or 'process'$"
        ):
            run_grid(_square, [1], executor=name, error=CampaignError)


def test_run_grid_refuses_the_process_executor_while_a_trace_hub_is_active(tmp_path):
    # A pool's children cannot see the parent's hub: the run would publish a
    # trace without a single session of its grid in it.
    from repro.study.__main__ import main
    from repro.trace import tracing

    with tracing():
        with pytest.raises(CampaignError, match="'process'.*; choose 'serial'$"):
            run_grid(_square, [1, 2], executor="process", error=CampaignError)
        assert run_grid(_square, [1, 2], executor="serial", error=CampaignError) == [1, 4]
    assert run_grid(_square, [1, 2], executor="process", error=CampaignError) == [1, 4]
    trace = tmp_path / "trace.jsonl"
    with pytest.raises(CampaignError, match="choose 'serial'$"):
        main(["--quick", "--executor", "process", "--trace", str(trace)])


def test_comparison_grids_reject_an_empty_axis_with_the_engines_own_error():
    from repro.chaos import SoakSpec, run_comparison
    from repro.errors import ChaosError

    with pytest.raises(ChaosError, match="comparison axes must be non-empty"):
        run_comparison(SoakSpec(), recoveries=())
    with pytest.raises(ChaosError, match="comparison axes must be non-empty"):
        run_comparison(SoakSpec(workload="kv_service", scenario="single", rounds=1), stores=())


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------
def test_report_json_and_markdown_table_are_canonical():
    assert report_json({"b": 1, "a": [1, 2]}) == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'
    assert markdown_table(("x", "y"), [(1, "a"), (2.5, "—")]) == (
        "| x | y |\n|---|---|\n| 1 | a |\n| 2.5 | — |\n"
    )


# ----------------------------------------------------------------------
# The baseline gate, per field class
# ----------------------------------------------------------------------
def _report(**cell) -> dict:
    base = {"kills": 2, "plan": [[10, 1]], "mttr_s": 4.0, "availability": 0.99,
            "metrics": {"p99": 5.0}, "trials": [{"digest": "aa"}, {"digest": "bb"}]}
    return {"meta": {"engine": "repro.test"}, "cells": {"c0": {**base, **cell}}}


def _gate(report: dict, baseline: dict, **kwargs) -> list[str]:
    return baseline_gate(
        report, baseline,
        exact=("kills", ("plan", "kill plan changed"), "trials.digest"),
        ratio=(
            ("mttr_s", "MTTR", "{:.3f}s"),
            ("availability", "unavailability", "{:.6f}", lambda a: 1.0 - a),
            ("metrics.p99", "p99", "{:.1f}ms"),
        ),
        **kwargs,
    )


def test_gate_passes_against_itself():
    assert _gate(_report(), _report()) == []


def test_gate_exact_fields_must_be_equal():
    assert _gate(_report(kills=3), _report()) == ["c0: kills changed from 2 to 3"]
    assert _gate(_report(plan=[[11, 1]]), _report()) == ["c0: kill plan changed"]
    changed = _report(trials=[{"digest": "aa"}, {"digest": "cc"}])
    assert _gate(changed, _report()) == [
        "c0: digest changed from ['aa', 'bb'] to ['aa', 'cc']"
    ]


def test_gate_ratio_fields_drift_inside_the_band_only():
    assert _gate(_report(mttr_s=7.9), _report()) == []
    assert _gate(_report(mttr_s=8.1), _report()) == [
        "c0: MTTR 8.100s is 2.02x the baseline's 4.000s (allowed 2.0x)"
    ]
    assert _gate(_report(mttr_s=8.1), _report(), max_ratio=3.0) == []
    assert _gate(_report(mttr_s=1.0), _report()) == []  # improvements pass
    assert _gate(_report(metrics={"p99": 11.0}), _report()) == [
        "c0: p99 11.0ms is 2.20x the baseline's 5.0ms (allowed 2.0x)"
    ]


def test_gate_ratio_transform_applies_to_both_sides():
    # availability 0.99 -> 0.97 is 1.0 -> 3.0 percent *un*availability: 3x.
    assert _gate(_report(availability=0.97), _report()) == [
        "c0: unavailability 0.030000 is 3.00x the baseline's 0.010000 (allowed 2.0x)"
    ]
    assert _gate(_report(availability=0.985), _report()) == []


def test_gate_none_is_an_empty_measurement_only_on_both_sides():
    assert _gate(_report(mttr_s=None), _report(mttr_s=None)) == []
    assert _gate(_report(metrics=None), _report(metrics=None)) == []
    assert _gate(_report(mttr_s=None), _report()) == [
        "c0: MTTR presence changed (4.0 -> None)"
    ]
    assert _gate(_report(), _report(metrics=None)) == [
        "c0: p99 presence changed (None -> 5.0)"
    ]


def test_gate_never_passes_vacuously():
    report = _report()
    missing = _report()
    missing["cells"]["c1"] = missing["cells"]["c0"]
    assert _gate(report, missing) == ["c1: cell missing from current report"]
    assert _gate(report, {"meta": {"engine": "repro.test"}}) == [
        "baseline repro.test report has no cells to compare against"
    ]
    assert _gate(report, {"meta": {"engine": "repro.other"}, "cells": {"c0": {}}}) == [
        "baseline is not a repro.test report (meta.engine: 'repro.other')"
    ]
    assert _gate(report, {"cells": {"c0": {}}}) == [
        "baseline is not a repro.test report (meta.engine: none)"
    ]
    hollow = _report()
    del hollow["cells"]["c0"]["kills"], hollow["cells"]["c0"]["metrics"]["p99"]
    assert _gate(report, hollow) == [
        "c0: kills is absent from the baseline",
        "c0: metrics.p99 is absent from the baseline",
    ]


def test_study_cli_fails_on_a_baseline_without_cells(tmp_path, capsys):
    # A wall-clock report (the shape the retired bench scripts wrote) is not
    # a campaign report: every gate used to loop over nothing and "pass".
    from repro.study.__main__ import main

    baseline = tmp_path / "wall.json"
    baseline.write_text(json.dumps({"campaign_wall_s": 1.9, "meta": {"trials": 8}}))
    status = main(["--quick", "--executor", "serial", "--skip-invariants",
                   "--check-baseline", str(baseline)])
    captured = capsys.readouterr()
    assert status == 1
    assert "REGRESSION: baseline is not a repro.study report" in captured.err
    assert "baseline check passed" not in captured.out


def test_serving_cell_cli_fails_cleanly_on_another_schema(tmp_path, capsys):
    # Cells, but no ``meta.engine`` and no ``slo`` in them — this used to die
    # with KeyError: 'slo'.
    from repro.chaos.__main__ import main

    baseline = tmp_path / "other.json"
    baseline.write_text(json.dumps(
        {"cells": {"sim/memory/global": {"recovery_p99_ms": 86.9, "errors": 0}}}
    ))
    status = main(["--quick", "--workload", "kv_service", "--scenario", "single",
                   "--rounds", "1", "--skip-invariants", "--check-baseline", str(baseline)])
    captured = capsys.readouterr()
    assert status == 1
    assert "REGRESSION: baseline is not a repro.chaos report" in captured.err


def test_a_gated_path_only_a_serving_cell_has_is_optional_on_both_sides_only():
    served = _report(slo={"p99": 5.0})
    gate = dict(exact=(), ratio=(("slo.p99", "p99", "{:.1f}ms"),), optional=("slo.p99",))
    assert baseline_gate(_report(), _report(), **gate) == []
    assert baseline_gate(served, served, **gate) == []
    assert baseline_gate(_report(), served, **gate) == [
        "c0: slo.p99 is absent from the current report"
    ]
    assert baseline_gate(served, _report(), **gate) == ["c0: slo.p99 is absent from the baseline"]


# ----------------------------------------------------------------------
# The command line -> spec contract: the spec states every default, and
# ``--quick`` is a preset that explicit flags refine
# ----------------------------------------------------------------------
#: Each engine's spec class, as its ``__main__`` imports it beside ``quick_spec``.
ENGINE_SPECS = {"study": "CampaignSpec", "chaos": "SoakSpec"}


@pytest.mark.parametrize(
    ("engine", "argv", "changed"),
    [
        *((engine, [], {}) for engine in ENGINE_SPECS),
        *((engine, ["--quick"], {}) for engine in ENGINE_SPECS),
        *((engine, ["--quick", "--seed", "5"], {"seed": 5}) for engine in ENGINE_SPECS),
        ("study", ["--quick", "--rates", "0,4"], {"mean_failures": (0.0, 4.0)}),
        ("chaos", ["--rate", "1.5"], {"rate_per_round": 1.5}),
    ],
)
def test_engine_flags_refine_the_spec_they_default_to(engine, argv, changed):
    cli = importlib.import_module(f"repro.{engine}.__main__")
    spec, quick = getattr(cli, ENGINE_SPECS[engine]), cli.quick_spec
    args, built = parse_spec(cli.build_parser(), argv, spec=spec(), quick=quick())
    base = quick() if args.quick else spec()
    assert built == dataclasses.replace(base, **changed)


@pytest.mark.parametrize(
    ("engine", "listed"),
    [
        ("study", "(default 2.0)"),
        ("chaos", "(default global,localized,degraded)"),
    ],
)
def test_help_prints_a_tuple_default_as_the_comma_list_its_flag_takes(
    engine, listed, capsys
):
    cli = importlib.import_module(f"repro.{engine}.__main__")
    with pytest.raises(SystemExit) as exited:
        cli.main(["--help"])
    out = " ".join(capsys.readouterr().out.split())  # undo the line wrapping
    assert exited.value.code == 0
    assert listed in out
    assert "('" not in out and "default (" not in out


@pytest.mark.parametrize(
    ("engine", "argv", "message"),
    [
        ("chaos", ["--workload", "nope"], "unknown workload 'nope' in soak spec"),
        ("study", ["--trials", "0"], "a campaign needs at least one trial per cell"),
        # chaos runs its cells serially: there is no executor to pick.
        ("chaos", ["--executor", "serial"], "unrecognized arguments: --executor serial"),
    ],
)
def test_a_rejected_flag_or_spec_value_is_a_usage_error(engine, argv, message, capsys):
    cli = importlib.import_module(f"repro.{engine}.__main__")
    with pytest.raises(SystemExit) as exited:
        cli.main(argv)
    err = capsys.readouterr().err
    assert exited.value.code == 2
    assert f"python -m repro.{engine}: error: {message}" in err
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# The checked-in baselines: what CI's ``engines`` job gates, held by tier-1
# ----------------------------------------------------------------------
BASELINES = Path(__file__).resolve().parent / "baselines"

#: The chaos baselines record ``proc`` cells, which only a host with fork +
#: POSIX shared memory can reproduce.
PROC_CELLS = pytest.mark.skipif(
    not proc_available(), reason="baseline has proc cells; proc backend unavailable"
)


@pytest.mark.usefixtures("proc_hygiene")
@pytest.mark.parametrize(
    ("engine", "axes", "exact_field"),
    [
        ("study", [], "recoveries"),
        pytest.param(
            "chaos", ["--backends", "sim,proc"], "metrics.recoveries", marks=PROC_CELLS
        ),
        pytest.param(
            "chaos_serve",
            ["--workload", "kv_service", "--scenario", "single", "--rounds", "1",
             "--interval", "8", "--compression", "1000", "--backends", "sim,proc"],
            "request_count", marks=PROC_CELLS,
        ),
    ],
)
def test_quick_run_passes_its_checked_in_baseline_and_fails_a_stale_one(
    engine, axes, exact_field, tmp_path, capsys
):
    # A PR that moves a schedule-shaped quantity must re-record the baseline:
    # a stale one (the PR 5 -> PR 15 study incident) breaks here, not only in CI.
    # ``chaos_serve`` is the chaos engine's serving cell, gated by its own file.
    main = importlib.import_module(f"repro.{engine.partition('_')[0]}.__main__").main
    baseline = BASELINES / f"{engine}.json"
    assert main(["--quick", *axes, "--check-baseline", str(baseline)]) == 0
    assert "baseline check passed" in capsys.readouterr().out

    document = json.loads(baseline.read_text())
    *path, leaf = exact_field.split(".")
    node = next(iter(document["cells"].values()))
    for part in path:
        node = node[part]
    node[leaf] += 1
    stale = tmp_path / f"{engine}.json"
    stale.write_text(json.dumps(document))
    assert main(["--quick", *axes, "--check-baseline", str(stale)]) == 1
    captured = capsys.readouterr()
    assert "REGRESSION:" in captured.err
    assert "baseline check passed" not in captured.out

    # An unreadable baseline is one failure line before anything runs — not a
    # traceback after the whole sweep.
    truncated = tmp_path / "truncated.json"
    truncated.write_text(baseline.read_text()[:40])
    for unreadable in (tmp_path / "missing.json", truncated):
        assert main(["--quick", *axes, "--check-baseline", str(unreadable)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"REGRESSION: cannot read baseline {unreadable}: ")
