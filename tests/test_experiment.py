"""The experiment core: seed rule, grid dispatch, probe and the baseline gate."""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.api.policy import Topology
from repro.api.session import launch
from repro.errors import CampaignError, ReproError
from repro.experiment import (
    baseline_gate,
    check_names,
    markdown_table,
    plan_entropy,
    probe,
    report_json,
    run_grid,
)
from repro.ft.inject import FaultInjector, KillPlan
from repro.simulator.costs import cray_xe6_like
from repro.study.workloads import make_workload

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


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
    ops, run = probe(workload, procs_per_node=2, cost_model=cray_xe6_like())
    with launch(
        workload.nprocs,
        topology=Topology(procs_per_node=2, cost_model=cray_xe6_like()),
        sync_each_step=workload.sync_each_step,
    ) as job:
        workload.setup(job)
        counter = FaultInjector(KillPlan([]))
        job.runtime.add_interceptor(counter)
        report = job.run(workload.kernel(), steps=workload.steps)
    assert ops == counter.ops_seen > 0
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
    for executor in ("serial", "thread", "process"):
        got = run_grid(
            _square, tasks, executor=executor, max_workers=3, error=ReproError
        )
        assert got == expected, executor


def test_run_grid_shuts_the_pool_down_when_a_task_raises():
    before = set(threading.enumerate())
    for executor in ("serial", "thread", "process"):
        with pytest.raises(ValueError, match="task 3 failed"):
            run_grid(
                _fail_on_three, range(6), executor=executor, max_workers=2,
                error=ReproError,
            )
    leaked = [t for t in set(threading.enumerate()) - before if t.is_alive()]
    assert leaked == []


def test_run_grid_rejects_unknown_executors_with_the_callers_error():
    with pytest.raises(CampaignError, match="unknown executor 'fiber'"):
        run_grid(_square, [1], executor="fiber", error=CampaignError)


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


def test_study_cli_fails_on_a_baseline_without_cells(capsys):
    # benchmarks/BENCH_study.json is bench_study.py's wall report, not a
    # campaign report: every gate used to loop over nothing and "pass".
    from repro.study.__main__ import main

    status = main(["--quick", "--executor", "serial", "--skip-invariants",
                   "--check-baseline", str(BENCHMARKS / "BENCH_study.json")])
    captured = capsys.readouterr()
    assert status == 1
    assert "REGRESSION: baseline is not a repro.study report" in captured.err
    assert "baseline check passed" not in captured.out


def test_serve_cli_fails_cleanly_on_another_schema(capsys):
    # benchmarks/BENCH_serve_baseline.json is bench_serve.py's baseline: it
    # has cells but no ``slo`` — this used to die with KeyError: 'slo'.
    from repro.serve.__main__ import main

    baseline = BENCHMARKS / "BENCH_serve_baseline.json"
    assert "slo" not in next(iter(json.loads(baseline.read_text())["cells"].values()))
    status = main(["--quick", "--skip-invariants", "--check-baseline", str(baseline)])
    captured = capsys.readouterr()
    assert status == 1
    assert "REGRESSION: baseline is not a repro.serve report" in captured.err
