"""FailureSchedule ordering, exponential sampling determinism, injection."""

import pytest

from repro.errors import FailureScheduleError, TopologyError
from repro.simulator.failures import (
    FailureEvent,
    FailureInjector,
    FailureSchedule,
    exponential_schedule,
)
from repro.simulator.placement import block_placement
from repro.simulator.topology import FailureDomainHierarchy


def test_schedule_sorts_events_on_construction():
    events = [
        FailureEvent(time=3.0, level=0, index=1),
        FailureEvent(time=1.0, level=1, index=0),
        FailureEvent(time=2.0, level=0, index=2),
    ]
    schedule = FailureSchedule(events)
    assert [ev.time for ev in schedule] == [1.0, 2.0, 3.0]


def test_schedule_add_keeps_events_sorted():
    schedule = FailureSchedule.single_rank(4, 5.0)
    schedule.add(FailureEvent(time=1.0, level=0, index=2))
    assert [ev.time for ev in schedule] == [1.0, 5.0]
    assert len(schedule) == 2


def test_schedule_merge_combines_both_sides():
    merged = FailureSchedule(
        [*FailureSchedule.single_rank(0, 2.0), *FailureSchedule.element(1, 3, 1.0)]
    )
    assert [(ev.time, ev.level) for ev in merged] == [(1.0, 1), (2.0, 0)]


@pytest.mark.parametrize(
    "event",
    [
        FailureEvent(time=-1.0, level=0, index=0),
        FailureEvent(time=1.0, level=-1, index=0),
        FailureEvent(time=1.0, level=0, index=-2),
    ],
)
def test_invalid_events_are_rejected(event):
    with pytest.raises(FailureScheduleError):
        FailureSchedule([event])


def test_element_constructor_requires_positive_level():
    with pytest.raises(FailureScheduleError):
        FailureSchedule.element(0, 1, 1.0)


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
    assert all(ev.index < kwargs["max_index_per_level"][ev.level] for ev in a)


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
    assert FailureEvent(time=1.5e-4, level=0, index=3).describe() == (
        "t=0.000150s: failure of rank 3"
    )
    assert FailureEvent(time=2.0, level=1, index=7).describe() == (
        "t=2.000000s: failure of level-1 element 7"
    )


def test_an_element_names_itself_in_the_ancestor_errors():
    fdh = FailureDomainHierarchy(("node", "rack"), (2,), 4)
    node = fdh.node(3)
    assert node.name == "node[3]" and node.ancestor(2).name == "rack[1]"
    with pytest.raises(TopologyError, match=r"rack\[1\] is at level 2; cannot descend"):
        node.ancestor(2).ancestor(1)
    with pytest.raises(TopologyError, match=r"node\[3\] has no ancestor at level 3"):
        node.ancestor(3)


def _placement(nprocs=8, procs_per_node=2):
    fdh = FailureDomainHierarchy.flat(nprocs // procs_per_node)
    return block_placement(fdh, nprocs, procs_per_node)


def test_injector_fires_events_once_and_in_time_order():
    schedule = FailureSchedule.ranks({1: 1.0, 5: 2.0})
    injector = FailureInjector(schedule, _placement())
    assert injector.newly_failed_ranks(0.5) == []
    assert injector.newly_failed_ranks(1.5) == [1]
    # Already-fired events are not reported again.
    assert injector.newly_failed_ranks(3.0) == [5]
    assert injector.failed_ranks == frozenset({1, 5})
    assert not injector._pending  # nothing left to fire


def test_node_level_event_kills_every_rank_on_the_node():
    schedule = FailureSchedule.element(level=1, index=2, time=1.0)
    injector = FailureInjector(schedule, _placement(nprocs=8, procs_per_node=2))
    assert injector.newly_failed_ranks(1.0) == [4, 5]


def test_injector_revive_clears_failed_state():
    injector = FailureInjector(FailureSchedule.single_rank(3, 1.0), _placement())
    injector.newly_failed_ranks(2.0)
    assert injector.is_failed(3)
    injector.revive(3)
    assert not injector.is_failed(3)


def test_event_targeting_out_of_range_rank_raises():
    injector = FailureInjector(FailureSchedule.single_rank(99, 1.0), _placement())
    with pytest.raises(FailureScheduleError):
        injector.newly_failed_ranks(2.0)
