"""Tests for SLO tracking (:mod:`repro.serve.slo`): burn-rate math on a
fake clock, the multi-window AND rule, and the Prometheus export
shape."""

import pytest

from repro import obs
from repro.serve import slo
from repro.serve.slo import SLOTracker, slo_families


@pytest.fixture(autouse=True)
def fresh_registry():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture(autouse=True)
def easy_objectives(monkeypatch):
    """Objectives with easy numbers: budgets of 0.1, short windows."""
    for name, value in (
        ("LATENCY_OBJECTIVE_MS", 100.0),
        ("LATENCY_TARGET", 0.9),
        ("AVAILABILITY_TARGET", 0.9),
        ("SHORT_WINDOW_S", 10.0),
        ("LONG_WINDOW_S", 60.0),
        ("FAST_BURN_THRESHOLD", 5.0),
    ):
        monkeypatch.setattr(slo, name, value)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt
        return self.now


def _tracker(clock):
    return SLOTracker("m", clock=clock)


class TestBurnRates:
    def test_no_traffic_is_zero_burn(self):
        tracker = _tracker(FakeClock())
        assert tracker.burn_rate() == 0.0
        assert not tracker.breaching()

    def test_all_good_is_zero_burn(self):
        clock = FakeClock()
        tracker = _tracker(clock)
        for _ in range(50):
            tracker.record(10.0, ok=True)
        assert tracker.burn_rate() == 0.0

    def test_burn_is_error_fraction_over_budget(self):
        clock = FakeClock()
        tracker = _tracker(clock)  # availability budget = 0.1
        for i in range(100):
            tracker.record(10.0, ok=i % 5 != 0)  # 20% bad
        rates = tracker.burn_rates()
        assert rates["availability"]["short"] == pytest.approx(2.0)
        assert rates["availability"]["long"] == pytest.approx(2.0)

    def test_slow_requests_burn_latency_budget_only(self):
        clock = FakeClock()
        tracker = _tracker(clock)
        for _ in range(10):
            tracker.record(500.0, ok=True)  # over the 100ms objective
        rates = tracker.burn_rates()
        assert rates["latency"]["short"] == pytest.approx(10.0)
        assert rates["availability"]["short"] == 0.0

    def test_multi_window_and_rule(self):
        clock = FakeClock()
        tracker = _tracker(clock)
        # 55s of good traffic fills the long window...
        for _ in range(55):
            tracker.record(10.0, ok=True, now=clock.advance(1.0))
        # ...then a short burst of pure failures.
        for _ in range(5):
            tracker.record(10.0, ok=False, now=clock.advance(1.0))
        rates = tracker.burn_rates()["availability"]
        assert rates["short"] > rates["long"]
        # The combined signal is the *min* of the two windows — the
        # burst alone must not read as a full-blown breach.
        assert tracker.burn_rate() == pytest.approx(rates["long"])

    def test_old_samples_age_out(self):
        clock = FakeClock()
        tracker = _tracker(clock)
        for _ in range(10):
            tracker.record(10.0, ok=False)
        assert tracker.burn_rate() > 0
        clock.advance(120.0)  # past the long window
        tracker.record(10.0, ok=True)  # triggers pruning on next read
        assert tracker.burn_rate() == 0.0

    def test_breaching_at_threshold(self):
        clock = FakeClock()
        tracker = _tracker(clock)  # threshold 5.0, budget 0.1
        for _ in range(10):
            tracker.record(10.0, ok=False)  # burn 10.0 both windows
        assert tracker.breaching()

    def test_snapshot_shape(self):
        tracker = _tracker(FakeClock())
        tracker.record(10.0, ok=True)
        snap = tracker.snapshot()
        assert snap["model"] == "m"
        assert snap["requests"] == 1
        assert set(snap["burn_rates"]) == {"latency", "availability"}
        assert snap["breaching"] is False
        assert snap["policy"] == slo.objectives()
        assert snap["policy"]["latency_objective_ms"] == 100.0


class TestPrometheusExport:
    def test_families_render_and_parse(self):
        clock = FakeClock()
        tracker = _tracker(clock)
        for i in range(20):
            tracker.record(10.0, ok=i % 2 == 0)
        text = obs.render_prometheus(
            extra_families=slo_families([tracker.snapshot()])
        )
        families = obs.parse_prometheus(text)
        burn = families["serve_slo_burn_rate"]
        keys = {
            (labels["model"], labels["sli"], labels["window"])
            for labels, _ in burn
        }
        assert keys == {
            ("m", "latency", "short"),
            ("m", "latency", "long"),
            ("m", "availability", "short"),
            ("m", "availability", "long"),
        }
        breaching = dict(
            (labels["model"], value)
            for labels, value in families["serve_slo_breaching"]
        )
        assert breaching["m"] == 1.0  # 50% bad over a 0.1 budget
