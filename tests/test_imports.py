"""Import budgets and the lazy-facade contract.

``import repro`` + ``launch()`` loads the core stack and nothing else:
engines, trace tooling, the real-process backend with its
``multiprocessing`` stack and the pool executors load on first use.  Like
``test_hotpath``'s call budgets these are exact, machine-independent
counts; every budget runs in a fresh interpreter (this process has pytest,
``conftest`` and the other test modules loaded).
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.backends.proc import proc_available

SRC = Path(repro.__file__).resolve().parent.parent
FACADES = (
    "repro", "repro.backends", "repro.study", "repro.chaos", "repro.serve", "repro.trace",
)

#: Never loaded by ``import repro`` or by a sim job (name or dotted prefix).
NOT_CORE = (
    "networkx", "multiprocessing", "concurrent.futures", "socket", "subprocess", "email",
    "xml", "repro.backends.proc", "repro.chaos", "repro.serve", "repro.study.campaign",
    "repro.study.workloads", "repro.experiment", "repro.cli",
    "repro.trace.diff", "repro.trace.export", "repro.trace.summary",
)

_PRELUDE = """
import sys
import numpy
base = set(sys.modules)
def loaded(prefixes):
    return sorted(m for m in sys.modules
                  if any(m == p or m.startswith(p + ".") for p in prefixes))
"""

_SIM_JOB = """
import repro
def kernel(ctx, step):
    ctx.put((ctx.rank + 1) % ctx.nranks, "w", 0, [float(step)])
with repro.launch(8, ft=repro.FaultTolerancePolicy(interval=10, recovery="localized")) as job:
    job.allocate("w", 8)
    job.run(kernel, steps=2)
"""

#: Best-effort is a recovery rule in ``repro.ft.recovery``: a job that picks it
#: loads no engine.
_BEST_EFFORT_JOB = _SIM_JOB.replace('recovery="localized"', 'recovery="best_effort"')


def fresh(code: str) -> object:
    """Run ``code`` in a new interpreter; its last stdout line, evaluated."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# (a), (b): what an entry point loads
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "entry", ["import repro", _SIM_JOB, _BEST_EFFORT_JOB],
    ids=["import", "sim-job", "best-effort-job"],
)
def test_core_entry_points_load_the_core_stack_and_nothing_else(entry):
    stray, added = fresh(
        _PRELUDE + entry + f"\nprint((loaded({NOT_CORE!r}), len(set(sys.modules) - base)))"
    )
    assert stray == []
    assert added <= 100  # 469 before the facades went lazy; 78 when this was written


def test_serve_facade_loads_its_submodules_not_the_other_engines():
    mine, others = fresh(
        _PRELUDE + "from repro.serve import KvService\n"
        "print((loaded(['repro.serve', 'repro.study']),"
        " loaded(['repro.chaos', 'repro.study.campaign', 'repro.experiment'])))"
    )
    assert others == []
    assert mine == [
        "repro.serve", "repro.serve.service", "repro.serve.shard", "repro.serve.traffic",
        "repro.study", "repro.study.workloads",
    ]


def test_serial_campaign_never_loads_a_pool_executor():
    stray = fresh(
        _PRELUDE + "import repro\n"
        "spec = repro.CampaignSpec(workloads=('kv',), recoveries=('global',), trials=1)\n"
        "repro.run_campaign(spec, executor='serial')\n"
        "print(loaded(['concurrent.futures', 'multiprocessing', 'repro.chaos']))"
    )
    assert stray == []


# ---------------------------------------------------------------------------
# Import has no process-level side effects; proc registers on first use
# ---------------------------------------------------------------------------
_CHILDREN = """
import os
def children():
    me, found = str(os.getpid()), []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = open(f"/proc/{pid}/stat").read()
        except OSError:
            continue
        if stat.rpartition(")")[2].split()[1] == me:
            found.append(stat)
    return found
def shm():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
before = shm()
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs a Linux /proc")
def test_import_and_sim_launch_start_no_process_and_touch_no_shm():
    kids, tracker, leaked = fresh(
        _CHILDREN + "import sys, repro\nrepro.launch(8).close()\n"
        "print((children(), 'multiprocessing.resource_tracker' in sys.modules,"
        " sorted(shm() - before)))"
    )
    assert kids == [] and tracker is False and leaked == []


@pytest.mark.skipif(not proc_available(), reason="proc backend needs fork + POSIX shm")
def test_proc_backend_registers_on_first_launch_in_a_fresh_interpreter(proc_hygiene):
    early, backend, listed, field, alive, leaked = fresh(
        _CHILDREN + "import sys, repro\n"
        "early = 'repro.backends.proc' in sys.modules\n"
        "def kernel(ctx, step):\n"
        "    ctx.put((ctx.rank + 1) % ctx.nranks, 'w', 0, [float(ctx.rank + step)])\n"
        "with repro.launch(4, backend='proc') as job:\n"
        "    job.allocate('w', 2)\n"
        "    job.run(kernel, steps=2)\n"
        "    field = job.gather('w').tolist()\n"
        "    backend = type(job.runtime.backend).__name__\n"
        "import multiprocessing\n"
        "print((early, backend, repro.available('backend'), field,"
        " len(multiprocessing.active_children()), sorted(shm() - before)))"
    )
    assert early is False and backend == "ProcBackend"
    assert listed == ("proc", "sim", "vector")
    assert field == [4.0, 0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0]
    assert alive == 0 and leaked == []


# ---------------------------------------------------------------------------
# (e): the registry from a fresh interpreter — same strings as before
# ---------------------------------------------------------------------------
def test_registry_listings_and_errors_from_a_fresh_interpreter():
    backends, workloads, made, unknown, stray = fresh(
        _PRELUDE + "import repro\n"
        "backends, workloads = repro.available('backend'), repro.available('workload')\n"
        "stray = loaded(['repro.chaos', 'repro.study.campaign', 'repro.experiment'])\n"
        "made = repr(repro.make_workload('kv_service'))\n"
        "try:\n    repro.launch(4, backend='nope')\n"
        "except repro.ReproError as exc:\n    unknown = str(exc)\n"
        "print((backends, workloads, made, unknown, stray))"
    )
    names = ("proc", "sim", "vector") if proc_available() else ("sim", "vector")
    assert backends == names
    assert workloads == ("allreduce", "kv", "kv_service", "stencil")
    assert made == "KvService(nprocs=8, steps=40)"
    assert unknown == (
        "unknown backend 'nope'; registered backends are: "
        + ", ".join(repr(name) for name in names) + " (or pass a Backend instance)"
    )
    assert stray == []  # kind-scoped: a backend or workload lookup loads no engine


def test_subpackages_resolve_as_attributes_after_a_bare_import():
    names = fresh(
        "import repro\n"
        "print([getattr(repro, n).__name__ for n in 'study chaos serve trace'.split()]"
        " + [repro.chaos.run_soak.__module__, repro.study.campaign.__name__])"
    )
    assert names == [
        "repro.study", "repro.chaos", "repro.serve", "repro.trace",
        "repro.chaos.soak", "repro.study.campaign",
    ]


def test_the_quality_trade_off_has_no_engine_of_its_own():
    # Best-effort delivery's quality/speed columns are a chaos cell's.
    assert not hasattr(repro, "qos")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.qos")


def test_the_serving_cell_has_no_engine_of_its_own():
    # A serving cell is a chaos cell of the kv_service workload: repro.serve
    # keeps the workload, its SLO reduction and the request log only.
    import repro.serve

    for gone in ("ServeSpec", "ServeResult", "run_service", "run_slo_comparison",
                 "check_serve_invariants", "check_against_baseline", "render_markdown"):
        assert not hasattr(repro.serve, gone)
    for module in ("repro.serve.engine", "repro.serve.__main__"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    ran = subprocess.run([sys.executable, "-m", "repro.serve"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert ran.returncode != 0 and "cannot be directly executed" in ran.stderr


# ---------------------------------------------------------------------------
# (c), (d): the facade contract
# ---------------------------------------------------------------------------
def _table(package: str) -> dict[str, str]:
    """The facade's runtime name → defining-module table."""
    module = importlib.import_module(package)
    return inspect.getclosurevars(module.__getattr__).nonlocals["exports"]


@pytest.mark.parametrize("package", FACADES)
def test_facade_exports_resolve_to_the_defining_modules_objects(package):
    module = importlib.import_module(package)
    table = _table(package)
    assert set(table) <= set(module.__all__)
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        value = getattr(module, name)
        if name in table:
            assert value is getattr(importlib.import_module(table[name]), name)
            assert name not in vars(module)  # resolved per access, never cached
    assert set(dir(module)) >= set(module.__all__)
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(module.__all__)
    with pytest.raises(AttributeError, match=f"module '{package}' has no attribute 'nope'"):
        _ = module.nope


@pytest.mark.parametrize("package", FACADES)
def test_type_checking_imports_and_runtime_table_agree(package):
    module = importlib.import_module(package)
    blocks = [
        node for node in ast.parse(Path(module.__file__).read_text()).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
    ]
    assert len(blocks) == 1
    declared = {
        (alias.name, node.module)
        for node in blocks[0].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert declared == set(_table(package).items())


def test_spec_instances_pickle_through_the_facades():
    for spec in (repro.SoakSpec(), repro.CampaignSpec()):
        assert pickle.loads(pickle.dumps(spec)) == spec


def test_rebinding_the_defining_module_is_what_the_facades_return(monkeypatch):
    original = repro.study.campaign.run_campaign

    def stand_in(spec):
        return spec

    monkeypatch.setattr(repro.study.campaign, "run_campaign", stand_in)
    assert repro.run_campaign is stand_in and repro.study.run_campaign is stand_in
    monkeypatch.undo()
    assert repro.run_campaign is original and repro.study.run_campaign is original
