"""A time-triggered kill is a real SIGKILL on the real-process backend.

One plan vocabulary serves both triggers: the same virtual-time kill of one
rank, or of a whole rack (a level-2 element of the failure-domain hierarchy,
§5), strikes a ``sim`` run by marking the cluster and a ``proc`` run by
killing the worker processes — at the same observation points, so the
recovered result and the virtual makespan are identical.
"""

import pytest

import repro
from repro.api.session import SessionObserver
from repro.backends.proc import proc_available
from repro.ft import KillEvent, KillKind, KillPlan
from repro.simulator.topology import FailureDomainHierarchy
from repro.study import make_workload

pytestmark = [
    pytest.mark.skipif(not proc_available(), reason="needs fork + POSIX shared memory"),
    pytest.mark.usefixtures("proc_hygiene"),
]


class _Kills(SessionObserver):
    """Every fired (or skipped) kill, as the injector announces it."""

    def __init__(self):
        self.records = []

    def on_kill(self, record):
        self.records.append(record)


def _stencil(backend="sim", failures=None):
    """8 ranks, 2 per node, 2 nodes per rack; buddies on the other rack."""
    workload = make_workload("stencil", nprocs=8, n_local=8, iters=12)
    topology = repro.Topology(procs_per_node=2, fdh=FailureDomainHierarchy(("node", "rack"), (2,), 2))
    policy = repro.FaultTolerancePolicy(interval=3, buddy_level=2)
    kills = _Kills()
    with repro.launch(
        8, topology=topology, ft=policy, failures=failures, backend=backend
    ) as job:
        job.add_observer(kills)
        workload.setup(job)
        report = job.run(workload.kernel(), steps=workload.steps)
        digest = workload.digest(workload.collect(job))
    return digest, report, kills.records


@pytest.fixture(scope="module")
def failure_free():
    return _stencil()


@pytest.mark.parametrize(
    "victim, ranks",
    [(dict(rank=3), (3,)), (dict(element=(2, 1)), (4, 5, 6, 7))],
    ids=["pod", "rack"],
)
def test_a_timed_kill_is_a_real_sigkill_on_proc_and_agrees_with_sim(failure_free, victim, ranks):
    digest, report, _ = failure_free
    plan = KillPlan([KillEvent(time=0.5 * report.elapsed, **victim)])
    sim_digest, sim, sim_kills = _stencil("sim", plan)
    proc_digest, proc, proc_kills = _stencil("proc", plan)
    assert [k.victims for k in sim_kills] == [k.victims for k in proc_kills] == [ranks]
    assert proc_kills[0].event.kind is (
        KillKind.POD_KILL if "rank" in victim else KillKind.ELEMENT_KILL
    )
    assert not any(k.real for k in sim_kills)
    assert all(k.real for k in proc_kills)
    assert proc.metrics.total("inject.kills") == len(ranks)
    assert sim.recoveries == proc.recoveries == 1
    assert proc_digest == sim_digest == digest
    assert proc.elapsed == sim.elapsed
