"""Admission control: the window, the degrade curve, the triage rules.

Everything runs on a fake clock -- the controller is pure logic, which is
the point of keeping it out of the event loop.
"""

import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway.admission import (
    AdmissionController,
    ServiceTimeWindow,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def make_controller(clock=None, **kwargs):
    clock = clock or FakeClock()
    window = ServiceTimeWindow(clock=clock)
    defaults = dict(workers=2, max_pending=8, window=window)
    defaults.update(kwargs)
    return AdmissionController(**defaults), window, clock


class TestServiceTimeWindow:
    def test_empty_window_returns_optimistic_prior(self):
        window = ServiceTimeWindow(clock=FakeClock(), default_p50=0.05)
        assert window.p50() == 0.05
        assert len(window) == 0

    def test_p50_is_the_median_of_observations(self):
        window = ServiceTimeWindow(clock=FakeClock())
        for s in (0.1, 0.2, 0.3):
            window.observe(s)
        assert window.p50() == pytest.approx(0.2)
        assert len(window) == 3

    def test_old_samples_age_out(self):
        clock = FakeClock()
        window = ServiceTimeWindow(window_s=10.0, clock=clock, default_p50=0.01)
        window.observe(5.0)  # a slow spell
        clock.advance(11.0)
        window.observe(0.1)  # the current regime
        assert window.p50() == pytest.approx(0.1)
        assert len(window) == 1

    def test_all_samples_aged_out_falls_back_to_prior(self):
        clock = FakeClock()
        window = ServiceTimeWindow(window_s=1.0, clock=clock, default_p50=0.02)
        window.observe(9.0)
        clock.advance(2.0)
        assert window.p50() == 0.02

    def test_max_samples_bounds_memory(self):
        window = ServiceTimeWindow(max_samples=4, clock=FakeClock())
        for s in (1.0, 1.0, 1.0, 0.1, 0.1, 0.1, 0.1):
            window.observe(s)
        assert window.p50() == pytest.approx(0.1)
        assert len(window) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceTimeWindow(window_s=0.0)
        with pytest.raises(ValueError):
            ServiceTimeWindow(max_samples=0)
        with pytest.raises(ValueError):
            ServiceTimeWindow(default_p50=0.0)
        window = ServiceTimeWindow(clock=FakeClock())
        with pytest.raises(ValueError):
            window.observe(-1.0)


class ReferenceWindow:
    """The window as a plain list of ``(time, seconds)``, read through
    ``statistics.median``."""

    def __init__(self, *, window_s, max_samples, default_p50, clock):
        self.window_s = window_s
        self.max_samples = max_samples
        self.default_p50 = default_p50
        self.clock = clock
        self.samples = []

    def _live(self):
        horizon = self.clock() - self.window_s
        self.samples = [(t, s) for t, s in self.samples if t >= horizon]
        return [s for _, s in self.samples]

    def observe(self, seconds):
        self.samples.append((self.clock(), seconds))
        del self.samples[: -self.max_samples]

    def __len__(self):
        return len(self._live())

    def p50(self):
        live = self._live()
        return statistics.median(live) if live else self.default_p50


#: A few distinct service times, so duplicates (and their evictions) are
#: common, plus arbitrary non-negative floats.
service_times = st.one_of(
    st.sampled_from([0.0, 0.001, 0.02, 0.02, 0.5, 3.0]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), service_times),
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5])),
    ),
    max_size=120,
)


class TestWindowParity:
    """The sorted-list window against the plain list it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        ops=operations,
        max_samples=st.integers(1, 6),
        window_s=st.sampled_from([0.5, 1.0, 3.0]),
    )
    def test_matches_median_and_nearest_rank(self, ops, max_samples, window_s):
        clock = FakeClock()
        window = ServiceTimeWindow(
            window_s=window_s, max_samples=max_samples, default_p50=0.02, clock=clock
        )
        reference = ReferenceWindow(
            window_s=window_s, max_samples=max_samples, default_p50=0.02, clock=clock
        )
        for op, value in ops:
            if op == "observe":
                window.observe(value)
                reference.observe(value)
            else:
                clock.advance(value)
            assert window.p50() == reference.p50()
            assert len(window) == len(reference)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_service_times_are_rejected(self, bad):
        window = ServiceTimeWindow(clock=FakeClock())
        window.observe(0.1)
        with pytest.raises(ValueError):
            window.observe(bad)
        assert len(window) == 1
        assert window.p50() == 0.1


class TestWaitEstimate:
    def test_idle_gateway_waits_nothing(self):
        controller, _, _ = make_controller(workers=2)
        assert controller.estimated_wait(pending=0) == 0.0
        assert controller.estimated_wait(pending=1) == 0.0

    def test_wait_grows_with_queue_depth(self):
        controller, window, _ = make_controller(workers=2)
        window.observe(0.1)
        # pending=2: one request must retire before a worker frees up.
        assert controller.estimated_wait(pending=2) == pytest.approx(0.05)
        assert controller.estimated_wait(pending=5) == pytest.approx(0.2)


class TestDegradeCurve:
    def test_full_quality_below_degrade_start(self):
        controller, _, _ = make_controller(
            max_pending=10, degrade_start=0.5, degrade_floor=0.25
        )
        assert controller.degrade_factor(pending=0) == 1.0
        assert controller.degrade_factor(pending=5) == 1.0

    def test_linear_ramp_to_floor(self):
        controller, _, _ = make_controller(
            max_pending=10, degrade_start=0.5, degrade_floor=0.25
        )
        # Midway between start (0.5) and full (1.0) pressure.
        mid = controller.degrade_factor(pending=7)
        assert 0.25 < mid < 1.0
        assert controller.degrade_factor(pending=10) == pytest.approx(0.25)

    def test_monotone_nonincreasing(self):
        controller, _, _ = make_controller(max_pending=10)
        factors = [controller.degrade_factor(p) for p in range(11)]
        assert factors == sorted(factors, reverse=True)


class TestTriage:
    def test_unbounded_budget_is_always_admitted_below_queue_full(self):
        controller, window, _ = make_controller(max_pending=4)
        window.observe(10.0)  # terrible service times
        decision = controller.triage(budget=None, pending=3)
        assert decision.admitted
        assert decision.effective_deadline is None

    def test_queue_full_sheds_regardless_of_budget(self):
        controller, _, _ = make_controller(max_pending=4)
        decision = controller.triage(budget=None, pending=4)
        assert not decision.admitted
        assert decision.reason == "queue_full"
        assert decision.retry_after_s > 0

    def test_budget_covering_wait_is_admitted_at_full_quality(self):
        controller, window, _ = make_controller(max_pending=10)
        window.observe(0.1)
        decision = controller.triage(budget=5.0, pending=0)
        assert decision.admitted
        assert decision.degrade_factor == 1.0
        assert decision.effective_deadline == pytest.approx(5.0)

    def test_budget_below_wait_plus_service_is_shed_with_retry_hint(self):
        controller, window, _ = make_controller(workers=1, max_pending=100)
        window.observe(1.0)
        # pending=10 -> wait = 10s; a 2s budget cannot cover it.
        decision = controller.triage(budget=2.0, pending=10)
        assert not decision.admitted
        assert decision.reason == "deadline"
        # Hint covers the excess wait plus one service time.
        assert decision.retry_after_s == pytest.approx(8.0 + 1.0)

    def test_degraded_admission_keeps_deadline_above_predicted_wait(self):
        controller, window, _ = make_controller(
            workers=1, max_pending=10, degrade_start=0.1, degrade_floor=0.2
        )
        window.observe(0.5)
        # Heavy pressure: pending=9 -> wait = 4.5s; budget 10s covers it.
        decision = controller.triage(budget=10.0, pending=9)
        assert decision.admitted
        assert decision.degrade_factor < 1.0
        # The degraded deadline still clears the queue wait: the request
        # must not reach its worker already expired.
        assert decision.effective_deadline > decision.estimated_wait_s
        assert decision.effective_deadline < 10.0

    def test_zero_budget_admitted_only_when_a_worker_is_idle(self):
        controller, window, _ = make_controller(workers=1, max_pending=10)
        window.observe(0.5)
        idle = controller.triage(budget=0.0, pending=0)
        assert idle.admitted
        assert idle.effective_deadline == 0.0
        busy = controller.triage(budget=0.0, pending=3)
        assert not busy.admitted
        assert busy.reason == "deadline"

    def test_coarse_capable_turns_a_deadline_shed_into_admission(self):
        controller, window, _ = make_controller(
            workers=1, max_pending=100, degrade_floor=0.25
        )
        window.observe(1.0)
        # pending=10 -> wait = 10s; a 12s budget fails the fine-path
        # triage (wait + p50 >= budget is false here... use 10.5s).
        shed = controller.triage(budget=10.5, pending=10)
        assert not shed.admitted and shed.reason == "deadline"
        coarse = controller.triage(budget=10.5, pending=10, coarse_capable=True)
        assert coarse.admitted
        assert coarse.coarse
        assert coarse.effective_deadline == pytest.approx(10.5)
        assert coarse.degrade_factor == pytest.approx(0.25)

    def test_coarse_capable_cannot_save_a_budget_below_the_wait(self):
        controller, window, _ = make_controller(workers=1, max_pending=100)
        window.observe(1.0)
        # wait = 10s; a 2s budget expires in queue either way.
        decision = controller.triage(budget=2.0, pending=10, coarse_capable=True)
        assert not decision.admitted
        assert decision.reason == "deadline"

    def test_fine_path_admission_is_not_marked_coarse(self):
        controller, window, _ = make_controller(max_pending=10)
        window.observe(0.1)
        decision = controller.triage(budget=5.0, pending=0, coarse_capable=True)
        assert decision.admitted
        assert not decision.coarse
        assert decision.degrade_factor == 1.0

    def test_negative_budget_rejected(self):
        controller, _, _ = make_controller()
        with pytest.raises(ValueError):
            controller.triage(budget=-1.0, pending=0)

    def test_constructor_validation(self):
        window = ServiceTimeWindow(clock=FakeClock())
        with pytest.raises(ValueError):
            AdmissionController(workers=0, max_pending=1, window=window)
        with pytest.raises(ValueError):
            AdmissionController(workers=1, max_pending=0, window=window)
        with pytest.raises(ValueError):
            AdmissionController(
                workers=1, max_pending=1, window=window, degrade_start=0.0
            )
        with pytest.raises(ValueError):
            AdmissionController(
                workers=1, max_pending=1, window=window, degrade_floor=1.5
            )
        with pytest.raises(ValueError):
            AdmissionController(
                workers=1, max_pending=1, window=window, triage_margin=0.0
            )
