import pytest

from repro.geometry.rect import Rect
from repro.grid.grid import Grid

import serving
import traffic

GRID = Grid(Rect(0.0, 360.0, 0.0, 180.0), 360, 180)
DATASETS = ("a", "b")


def _plan(name, seed, seconds=2.0):
    return traffic.generate(serving.SPECS[name], GRID, DATASETS, seconds, seed)


@pytest.mark.parametrize("name", sorted(serving.SPECS))
def test_same_seed_gives_identical_lines_and_arrivals(name):
    first, second = _plan(name, 7), _plan(name, 7)
    assert first.lines() == second.lines()
    assert [s.arrival for s in first.sessions] == [s.arrival for s in second.sessions]
    assert first.warm_lines == second.warm_lines


@pytest.mark.parametrize("name", sorted(serving.SPECS))
def test_different_seed_gives_different_traffic(name):
    first, second = _plan(name, 7), _plan(name, 8)
    assert first.lines() != second.lines()
    assert [s.arrival for s in first.sessions] != [s.arrival for s in second.sessions]


@pytest.mark.parametrize("name", sorted(serving.SPECS))
def test_offered_load_is_a_constant_of_the_workload(name):
    spec = serving.SPECS[name]
    plan = _plan(name, 3, seconds=4.0)
    arrivals = [s.arrival for s in plan.sessions]
    assert arrivals == sorted(arrivals)
    assert 0.0 <= arrivals[0] and arrivals[-1] < 4.0
    assert all(len(s.lines) == spec.steps for s in plan.sessions)
    assert plan.attempted == len(plan.lines())
    if spec.burst_size:
        bursts = int(4.0 / spec.burst_every_s)
        assert len(plan.sessions) == bursts * spec.burst_size
        assert len(set(arrivals)) == bursts
    else:
        assert len(plan.sessions) == round(spec.sessions_per_s * 4.0)


def test_bursts_leave_most_of_each_period_to_drain():
    spec = serving.SPECS["overload"]
    starts = sorted({s.arrival for s in _plan("overload", 5, seconds=20.0).sessions})
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    assert min(gaps) >= 0.75 * spec.burst_every_s


def test_overload_replays_fixed_traces():
    plan = _plan("overload", 1)
    spec = serving.SPECS["overload"]
    bodies = {line.split(b'"session"')[0] for line in plan.lines()}
    # Sessions differ in tenant and deadline only; browse steps repeat.
    assert len(bodies) <= spec.fixed_traces * spec.steps * len(traffic.TENANTS) * 2
    assert len(plan.warm_lines) == spec.fixed_traces * spec.steps


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError):
        _plan("pan", -1)
