"""Kill plans: event validation and ordering, exponential sampling determinism, timed injection."""

import pytest

from repro.errors import FailureScheduleError, TopologyError
from repro.ft.inject import FaultInjector, KillEvent, KillKind, KillPlan, exponential_schedule
from repro.rma import RmaRuntime
from repro.simulator import Cluster
from repro.simulator.topology import FailureDomainHierarchy


def test_schedule_sorts_events_on_construction():
    events = [
        KillEvent(time=3.0, rank=1),
        KillEvent(time=1.0, element=(1, 0)),
        KillEvent(time=2.0, rank=2),
    ]
    schedule = KillPlan(events)
    assert [ev.time for ev in schedule] == [1.0, 2.0, 3.0]


def test_schedule_merge_combines_both_sides():
    merged = KillPlan(
        [*KillPlan.single(0, time=2.0), *KillPlan([KillEvent(time=1.0, element=(1, 3))])]
    )
    assert [(ev.time, ev.kind) for ev in merged] == [
        (1.0, KillKind.ELEMENT_KILL), (2.0, KillKind.POD_KILL)
    ]


def test_a_plan_lists_stream_kills_by_offset_then_timed_kills_by_time():
    plan = KillPlan([
        KillEvent(time=1.0, rank=0),
        KillEvent(after_ops=9, rank=2),
        KillEvent(after_ops=3, rank=1, kind=KillKind.NODE_KILL),
    ])
    assert [(ev.after_ops, ev.time) for ev in plan] == [(3, None), (9, None), (None, 1.0)]


@pytest.mark.parametrize(
    "event",
    [
        dict(time=-1.0, rank=0),
        dict(time=1.0, element=(-1, 0)),
        dict(time=1.0, rank=-2),
    ],
)
def test_invalid_events_are_rejected(event):
    with pytest.raises(FailureScheduleError):
        KillEvent(**event)


@pytest.mark.parametrize(
    "event",
    [
        dict(rank=0),  # no trigger
        dict(after_ops=5, time=1.0, rank=0),  # two triggers
        dict(time=1.0),  # no victim
        dict(time=1.0, rank=0, element=(1, 0)),  # two victims
        dict(time=1.0, element=(1, 0), kind=KillKind.NODE_KILL),
        dict(after_ops=0, rank=0),  # before the opening checkpoint
    ],
)
def test_a_kill_has_exactly_one_trigger_and_one_victim(event):
    with pytest.raises(FailureScheduleError):
        KillEvent(**event)


def test_naming_an_element_makes_an_element_kill():
    assert KillEvent(time=1.0, element=(2, 1)).kind is KillKind.ELEMENT_KILL
    assert KillEvent(after_ops=4, element=(0, 3)).kind is KillKind.ELEMENT_KILL


def test_exponential_schedule_is_deterministic_under_fixed_seed():
    kwargs = dict(
        horizon=1000.0,
        rates_per_level={1: 0.01, 2: 0.002},
        max_index_per_level={1: 64, 2: 8},
    )
    a = exponential_schedule(seed=42, **kwargs)
    b = exponential_schedule(seed=42, **kwargs)
    c = exponential_schedule(seed=43, **kwargs)
    assert list(a) == list(b)
    assert list(a) != list(c)
    assert len(a) > 0
    assert all(0.0 < ev.time <= 1000.0 for ev in a)
    assert all(ev.element[1] < kwargs["max_index_per_level"][ev.element[0]] for ev in a)


def test_exponential_schedule_different_seeds_are_disjoint():
    # Continuous exponential draws from independent streams collide with
    # probability zero: different seeds must exercise disjoint schedules.
    kwargs = dict(
        horizon=1000.0,
        rates_per_level={1: 0.05},
        max_index_per_level={1: 64},
    )
    times = [
        {ev.time for ev in exponential_schedule(seed=seed, **kwargs)}
        for seed in range(5)
    ]
    for i, a in enumerate(times):
        assert a
        for b in times[i + 1 :]:
            assert not (a & b)


def test_exponential_schedule_accepts_seed_sequences():
    import numpy as np

    kwargs = dict(
        horizon=500.0, rates_per_level={1: 0.02}, max_index_per_level={1: 16}
    )
    # Structured entropy — how the study campaign seeds its trials — is
    # as deterministic as a plain integer seed.
    a = exponential_schedule(seed=np.random.SeedSequence((7, 1, 0)), **kwargs)
    b = exponential_schedule(seed=np.random.SeedSequence((7, 1, 0)), **kwargs)
    c = exponential_schedule(seed=np.random.SeedSequence((7, 1, 1)), **kwargs)
    assert list(a) == list(b)
    assert not ({ev.time for ev in a} & {ev.time for ev in c})


def test_exponential_schedule_zero_rate_yields_no_events():
    schedule = exponential_schedule(
        horizon=100.0, rates_per_level={1: 0.0}, max_index_per_level={1: 4}
    )
    assert len(schedule) == 0


def test_exponential_schedule_validates_inputs():
    with pytest.raises(FailureScheduleError):
        exponential_schedule(horizon=0.0, rates_per_level={}, max_index_per_level={})
    with pytest.raises(FailureScheduleError):
        exponential_schedule(
            horizon=1.0, rates_per_level={1: -0.1}, max_index_per_level={1: 4}
        )
    with pytest.raises(FailureScheduleError):
        exponential_schedule(
            horizon=1.0, rates_per_level={1: 0.1}, max_index_per_level={}
        )


def test_a_failure_event_describes_its_time_and_target():
    assert KillEvent(time=1.5e-4, rank=3).describe() == "t=0.000150s: failure of rank 3"
    assert KillEvent(time=2.0, element=(1, 7)).describe() == (
        "t=2.000000s: failure of level-1 element 7"
    )
    assert KillEvent(after_ops=40, rank=2, kind=KillKind.NODE_KILL).describe() == (
        "op 40: failure of the node of rank 2"
    )


def test_an_element_names_itself_in_the_ancestor_errors():
    fdh = FailureDomainHierarchy(("node", "rack"), (2,), 4)
    node = fdh.node(3)
    assert node.name == "node[3]" and node.ancestor(2).name == "rack[1]"
    with pytest.raises(TopologyError, match=r"rack\[1\] is at level 2; cannot descend"):
        node.ancestor(2).ancestor(1)
    with pytest.raises(TopologyError, match=r"node\[3\] has no ancestor at level 3"):
        node.ancestor(3)


def _armed(plan, nprocs=8, procs_per_node=2):
    """A runtime on a flat machine with an injector for ``plan``."""
    rt = RmaRuntime(Cluster.simple(nprocs, procs_per_node=procs_per_node))
    injector = FaultInjector(plan)
    rt.add_interceptor(injector)
    return rt, injector


def test_injector_fires_events_once_and_in_time_order():
    rt, injector = _armed(KillPlan([KillEvent(time=1.0, rank=1), KillEvent(time=2.0, rank=5)]))
    cluster = rt.cluster
    assert cluster.next_due == 1.0
    assert rt.observe_failures(0.5) == []
    assert rt.observe_failures(1.5) == [1]
    # Already-fired events are not reported again.
    assert rt.observe_failures(3.0) == [5]
    assert cluster.failed == frozenset({1, 5})
    assert [fired.victims for fired in injector.fired] == [(1,), (5,)]
    assert cluster.next_due == float("inf")  # nothing left to fire


def test_node_level_event_kills_every_rank_on_the_node():
    rt, injector = _armed(KillPlan([KillEvent(time=1.0, element=(1, 2))]))
    assert rt.observe_failures(1.0) == [4, 5]
    assert rt.cluster.metrics.get("inject.kills") == 2


def test_injector_revive_clears_failed_state():
    rt, _ = _armed(KillPlan.single(3, time=1.0))
    rt.observe_failures(2.0)
    assert not rt.cluster.is_alive(3)
    rt.cluster.respawn_rank(3)
    assert rt.cluster.is_alive(3)


def test_event_targeting_out_of_range_rank_raises():
    rt, _ = _armed(KillPlan.single(99, time=1.0))
    with pytest.raises(FailureScheduleError):
        rt.observe_failures(2.0)


def test_a_timed_plan_leaves_the_completion_stream_alone():
    rt, injector = _armed(KillPlan.single(3, time=1.0))
    assert rt.interceptors.after_comm is None
    with pytest.raises(FailureScheduleError, match="one plan of time-triggered kills"):
        rt.add_interceptor(FaultInjector(KillPlan.single(2, time=2.0)))
    assert list(rt.interceptors) == [injector] and rt.cluster.next_due == 1.0
