"""Tests for the resilience layer: retry, breaker, chaos, backends.

Everything timing-sensitive runs against injected fake clocks and fake
sleeps — the only real processes appear in the process-pool tests
(``ProcessPoolBackend`` and the ``MinibatchPool`` built on it), where
process lifecycle *is* the property under test.
"""

import os
import random
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import nn, obs, serve
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    ResultCorruptionError,
    ServeError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.obs import trace
from repro.scnn import MinibatchPool, SCConfig
from repro.scnn.layers import SCConv2d
from repro.serve.backend import (
    InThreadBackend,
    ProcessPoolBackend,
    _validate_logits,
    make_backend,
)
from repro.serve import breaker as breaker_module
from repro.serve import service as service_module
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, BreakerPolicy, CircuitBreaker
from repro.utils import retry as retry_module
from repro.utils.chaos import ChaosConfig
from repro.serve.policy import DegradeController, ServePolicy
from repro.serve.registry import ModelRegistry
from repro.utils.retry import RetryPolicy, call_with_retry


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now


def _fp_model(seed=0, features=8, classes=3):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Linear(features, 16, rng=rng),
        nn.ReLU(),
        nn.Linear(16, classes, rng=rng),
    )


def _fp_entry(name="fp", **register_kw):
    registry = ModelRegistry()
    entry = registry.register(
        name, _fp_model(), input_shape=(8,), warm=False, **register_kw
    )
    return registry, entry


#: Per-sample input shape of :func:`_sc_model`.
SC_INPUT_SHAPE = (1, 6, 6)


def _sc_model(seed=0):
    """One SC conv + FP head: a 3-tier ladder (32/16/8-bit streams)."""
    cfg = SCConfig(stream_length=32, stream_length_pooling=32)
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        SCConv2d(1, 2, 3, cfg, rng=rng),
        nn.Flatten(),
        nn.Linear(2 * 4 * 4, 3, rng=rng),
    )


def _sc_batch(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (n, *SC_INPUT_SHAPE)).astype(np.float32)


@pytest.fixture
def no_jitter(monkeypatch):
    """Backoff delays at their nominal values."""
    monkeypatch.setattr(retry_module, "JITTER", 0.0)


def _registry_records(entry):
    """Pool-worker task: whether telemetry is on in the worker, and how
    many spans and profiles its registry holds."""
    registry = obs.get_registry()
    return registry.enabled, registry.span_count(), registry.profile_count()


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay_s=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay_s=0.5, max_delay_s=0.1)

    def test_exponential_schedule_without_jitter(self, no_jitter):
        policy = RetryPolicy(base_delay_s=0.01, max_delay_s=1.0)
        delays = [policy.delay_for(k) for k in (1, 2, 3, 4)]
        assert delays == [0.01, 0.02, 0.04, 0.08]

    def test_delay_capped_at_max(self, no_jitter):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=0.25)
        assert policy.delay_for(5) == 0.25

    def test_jitter_shrinks_never_grows(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=1.0)
        rng = random.Random(7)
        for attempt in (1, 2, 3):
            nominal = min(0.1 * 2.0 ** (attempt - 1), 1.0)
            for _ in range(20):
                delay = policy.delay_for(attempt, rng)
                assert nominal * 0.5 <= delay <= nominal

    def test_invalid_attempt_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy().delay_for(0)


@pytest.mark.usefixtures("no_jitter")
class TestCallWithRetry:
    def policy(self, **kw):
        base = dict(max_attempts=3, base_delay_s=0.01, max_delay_s=1.0)
        base.update(kw)
        return RetryPolicy(**base)

    def test_success_after_failures_records_delays(self):
        calls, slept = [], []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise WorkerCrashError("boom")
            return "ok"

        result = call_with_retry(
            flaky, policy=self.policy(), sleep=slept.append
        )
        assert result == "ok"
        assert len(calls) == 3
        assert slept == [0.01, 0.02]  # exponential, jitter disabled

    def test_exhaustion_reraises_last_error_unwrapped(self):
        sentinel = WorkerCrashError("always")

        def doomed():
            raise sentinel

        with pytest.raises(WorkerCrashError) as excinfo:
            call_with_retry(
                doomed, policy=self.policy(max_attempts=2), sleep=lambda _: None
            )
        assert excinfo.value is sentinel  # the object, not a wrapper

    def test_non_retryable_propagates_immediately(self):
        calls = []

        def wrong_kind():
            calls.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            call_with_retry(
                wrong_kind,
                policy=self.policy(),
                retry_on=(WorkerCrashError,),
                sleep=lambda _: None,
            )
        assert len(calls) == 1

    def test_retry_after_hint_floors_backoff(self):
        slept = []

        def backpressured():
            if not slept:
                error = WorkerTimeoutError("busy")
                error.retry_after_s = 0.5  # server asked for 500ms
                raise error
            return "ok"

        assert (
            call_with_retry(
                backpressured, policy=self.policy(), sleep=slept.append
            )
            == "ok"
        )
        assert slept == [0.5]  # hint beat the 10ms schedule

    def test_on_retry_sees_error_attempt_delay(self):
        seen = []

        def flaky():
            if len(seen) < 2:
                raise WorkerCrashError(f"fail {len(seen)}")
            return "ok"

        call_with_retry(
            flaky,
            policy=self.policy(),
            sleep=lambda _: None,
            on_retry=lambda error, attempt, delay: seen.append(
                (type(error).__name__, attempt, delay)
            ),
        )
        assert seen == [
            ("WorkerCrashError", 1, 0.01),
            ("WorkerCrashError", 2, 0.02),
        ]


class TestCircuitBreaker:
    def breaker(self, clock):
        policy = BreakerPolicy(failure_threshold=3, reset_s=5.0)
        return CircuitBreaker("m", policy, clock=clock)

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            BreakerPolicy(reset_s=-1)

    def test_trips_after_consecutive_failures(self):
        b = self.breaker(FakeClock())
        for _ in range(2):
            b.record_failure()
        assert b.state == CLOSED and b.allow()
        b.record_failure()
        assert b.state == OPEN and not b.allow()
        assert b.trips == 1

    def test_success_resets_failure_streak(self):
        b = self.breaker(FakeClock())
        b.record_failure()
        b.record_failure()
        b.record_success()  # streak broken
        b.record_failure()
        b.record_failure()
        assert b.state == CLOSED

    def test_open_reports_remaining_retry_after(self):
        clock = FakeClock()
        b = self.breaker(clock)
        for _ in range(3):
            b.record_failure()
        assert b.retry_after_s() == pytest.approx(5.0)
        clock.advance(2.0)
        assert b.retry_after_s() == pytest.approx(3.0)
        assert b.to_dict()["retry_after_s"] == pytest.approx(3.0)

    def test_half_open_admits_bounded_probes(self, monkeypatch):
        monkeypatch.setattr(breaker_module, "HALF_OPEN_PROBES", 2)
        clock = FakeClock()
        b = self.breaker(clock)
        for _ in range(3):
            b.record_failure()
        clock.advance(5.1)
        assert b.allow()  # probe 1
        assert b.allow()  # probe 2
        assert not b.allow()  # probe budget spent
        assert b.state == HALF_OPEN

    def test_probe_success_closes(self):
        clock = FakeClock()
        b = self.breaker(clock)
        for _ in range(3):
            b.record_failure()
        clock.advance(5.1)
        assert b.allow()
        b.record_success()
        assert b.state == CLOSED and b.allow()

    def test_probe_failure_reopens_and_restarts_timer(self):
        clock = FakeClock()
        b = self.breaker(clock)
        for _ in range(3):
            b.record_failure()
        clock.advance(5.1)
        assert b.allow()
        b.record_failure()  # the probe failed
        assert b.state == OPEN and b.trips == 2
        assert b.retry_after_s() == pytest.approx(5.0)  # full reset again

    def test_refund_returns_probe_slot(self):
        clock = FakeClock()
        b = self.breaker(clock)
        for _ in range(3):
            b.record_failure()
        clock.advance(5.1)
        assert b.allow()
        assert not b.allow()  # slot taken
        b.refund()  # the probe never reached execution
        assert b.allow()  # slot usable again


class TestChaosConfig:
    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig(crash_rate=1.5)
        with pytest.raises(ConfigurationError):
            ChaosConfig(crash_rate=0.6, stall_rate=0.6)
        with pytest.raises(ConfigurationError):
            ChaosConfig(stall_s=-1)

    def test_inactive_config_never_injects(self):
        chaos = ChaosConfig()
        assert not chaos.active
        assert all(
            chaos.decide(w, t) == "none" for w in range(4) for t in range(50)
        )

    def test_decide_is_deterministic_and_pure(self):
        chaos = ChaosConfig(crash_rate=0.2, stall_rate=0.2, seed=9)
        first = [chaos.decide(w, t) for w in range(3) for t in range(40)]
        second = [chaos.decide(w, t) for w in range(3) for t in range(40)]
        assert first == second

    def test_seed_and_worker_change_the_schedule(self):
        a = ChaosConfig(crash_rate=0.3, seed=1)
        b = ChaosConfig(crash_rate=0.3, seed=2)
        tasks = range(64)
        assert [a.decide(0, t) for t in tasks] != [
            b.decide(0, t) for t in tasks
        ]
        assert [a.decide(0, t) for t in tasks] != [
            a.decide(1, t) for t in tasks
        ]

    def test_certain_rates_hit_their_action(self):
        assert ChaosConfig(crash_rate=1.0).decide(0, 1) == "crash"
        assert ChaosConfig(stall_rate=1.0).decide(0, 1) == "stall"
        assert ChaosConfig(corrupt_rate=1.0).decide(0, 1) == "corrupt"

    def test_dict_roundtrip(self):
        chaos = ChaosConfig(
            crash_rate=0.1, stall_rate=0.2, corrupt_rate=0.05,
            stall_s=0.03, seed=4,
        )
        assert ChaosConfig.from_dict(chaos.to_dict()) == chaos

    def test_parse_spec(self):
        chaos = ChaosConfig.parse("crash=0.05,stall=0.1,stall_ms=80,seed=3")
        assert chaos.crash_rate == 0.05
        assert chaos.stall_rate == 0.1
        assert chaos.stall_s == pytest.approx(0.08)
        assert chaos.seed == 3
        assert ChaosConfig.parse("") == ChaosConfig()

    def test_parse_rejects_bad_specs(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig.parse("crash")
        with pytest.raises(ConfigurationError):
            ChaosConfig.parse("frobnicate=1")
        with pytest.raises(ConfigurationError):
            ChaosConfig.parse("crash=lots")


class TestValidation:
    def test_accepts_clean_logits(self):
        logits = np.zeros((4, 3), np.float64)
        out = _validate_logits(logits, 4, "m")
        assert out.shape == (4, 3)

    def test_rejects_wrong_batch_dimension(self):
        with pytest.raises(ResultCorruptionError, match="shape"):
            _validate_logits(np.zeros((3, 3)), 4, "m")

    def test_rejects_non_float_dtype(self):
        with pytest.raises(ResultCorruptionError, match="dtype"):
            _validate_logits(np.zeros((4, 3), np.int64), 4, "m")

    def test_rejects_non_finite(self):
        bad = np.zeros((4, 3))
        bad[1, 2] = np.nan
        with pytest.raises(ResultCorruptionError, match="non-finite"):
            _validate_logits(bad, 4, "m")


class TestInThreadBackend:
    def test_clean_run_returns_logits_and_tier(self):
        _, entry = _fp_entry()
        backend = InThreadBackend()
        logits, tier = backend.run(entry, np.zeros((2, 8), np.float32), 0)
        assert logits.shape == (2, 3) and tier == 0
        assert backend.stats()["tasks"] == 1

    def test_chaos_crash_raises_worker_crash(self):
        _, entry = _fp_entry()
        backend = InThreadBackend(chaos=ChaosConfig(crash_rate=1.0))
        with pytest.raises(WorkerCrashError, match="chaos"):
            backend.run(entry, np.zeros((1, 8), np.float32), 0)

    def test_chaos_corruption_trips_validation(self):
        _, entry = _fp_entry()
        backend = InThreadBackend(
            chaos=ChaosConfig(corrupt_rate=1.0)
        )
        with pytest.raises(ResultCorruptionError):
            backend.run(entry, np.zeros((1, 8), np.float32), 0)

    def test_chaos_stall_delays_but_completes(self):
        _, entry = _fp_entry()
        backend = InThreadBackend(
            chaos=ChaosConfig(stall_rate=1.0, stall_s=0.01)
        )
        t0 = time.perf_counter()
        logits, _ = backend.run(entry, np.zeros((1, 8), np.float32), 0)
        assert time.perf_counter() - t0 >= 0.01
        assert logits.shape == (1, 3)

    def test_factory(self):
        assert make_backend("thread").name == "thread"
        assert make_backend("process", num_workers=1).name == "process"
        with pytest.raises(ConfigurationError):
            make_backend("quantum")


class _FlakyBackend(InThreadBackend):
    """Fails the first ``failures`` run() calls, then behaves normally."""

    def __init__(self, failures: int, error_type=WorkerCrashError):
        super().__init__()
        self.failures = failures
        self.error_type = error_type
        self.attempts = 0

    def run(self, entry, batch, tier, timeout_s=None):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise self.error_type(f"injected failure {self.attempts}")
        return super().run(entry, batch, tier, timeout_s=timeout_s)


class TestServiceResilience:
    def make_service(self, backend, **policy_kw):
        registry = ModelRegistry()
        registry.register("fp", _fp_model(), input_shape=(8,), warm=False)
        base = dict(
            max_batch=4,
            max_wait_s=0.0,
            max_queue=16,
            retry=RetryPolicy(
                max_attempts=3, base_delay_s=0.001, max_delay_s=0.002
            ),
        )
        base.update(policy_kw)
        return serve.InferenceService(
            registry, ServePolicy(**base), backend=backend
        )

    def test_transient_crashes_are_retried_to_success(self):
        backend = _FlakyBackend(failures=2)
        service = self.make_service(backend)
        with service:
            result = service.predict("fp", np.zeros(8, np.float32))
        assert result.outputs.shape == (3,)
        assert backend.attempts == 3
        stats = service.stats()
        assert stats["resilience"]["batch_retries"] == 2
        assert stats["requests"]["completed"] == 1
        assert stats["accounting"]["balanced"]

    def test_corruption_is_retried_like_a_crash(self):
        backend = _FlakyBackend(failures=1, error_type=ResultCorruptionError)
        service = self.make_service(backend)
        with service:
            result = service.predict("fp", np.zeros(8, np.float32))
        assert result.outputs.shape == (3,)
        assert service.stats()["resilience"]["batch_retries"] == 1

    def test_exhausted_retries_fail_the_request(self):
        backend = _FlakyBackend(failures=100)
        service = self.make_service(backend)
        with service:
            with pytest.raises(WorkerCrashError):
                service.predict("fp", np.zeros(8, np.float32))
        stats = service.stats()
        assert stats["requests"]["failed"] == 1
        assert stats["accounting"]["balanced"]

    def test_repeated_failures_open_the_breaker(self, monkeypatch):
        monkeypatch.setattr(
            service_module, "BREAKER",
            BreakerPolicy(failure_threshold=2, reset_s=60.0),
        )
        backend = _FlakyBackend(failures=10_000)
        service = self.make_service(
            backend, retry=RetryPolicy(max_attempts=1)
        )
        x = np.zeros(8, np.float32)
        with service:
            for _ in range(2):
                with pytest.raises(WorkerCrashError):
                    service.predict("fp", x)
            with pytest.raises(CircuitOpenError) as excinfo:
                service.predict("fp", x)
        assert excinfo.value.retry_after_s is not None
        assert 0 < excinfo.value.retry_after_s <= 60.0
        stats = service.stats()
        assert stats["requests"]["rejected_circuit_open"] == 1
        assert stats["resilience"]["breakers"]["fp"]["state"] == "open"
        assert stats["accounting"]["balanced"]

    def test_breaker_probe_recovers_service(self, monkeypatch):
        monkeypatch.setattr(
            service_module, "BREAKER",
            BreakerPolicy(failure_threshold=2, reset_s=5.0),
        )
        clock = FakeClock()
        backend = _FlakyBackend(failures=2)
        registry = ModelRegistry()
        registry.register("fp", _fp_model(), input_shape=(8,), warm=False)
        policy = ServePolicy(
            max_batch=4,
            max_wait_s=0.0,
            max_queue=16,
            default_deadline_s=None,
            retry=RetryPolicy(max_attempts=1),
        )
        service = serve.InferenceService(
            registry, policy, clock=clock, backend=backend
        )
        x = np.zeros(8, np.float32)
        with service:
            for _ in range(2):
                with pytest.raises(WorkerCrashError):
                    service.predict("fp", x)
            with pytest.raises(CircuitOpenError):
                service.predict("fp", x)
            clock.advance(5.1)  # reset window elapsed: probe admitted
            result = service.predict("fp", x)
        assert result.outputs.shape == (3,)
        assert (
            service.stats()["resilience"]["breakers"]["fp"]["state"]
            == "closed"
        )

    def test_expired_at_dequeue_counted_and_failed(self):
        # Dispatch threads not started: drive the dequeue path by hand
        # so the deadline can pass *between* batch release and
        # execution.
        clock = FakeClock()
        registry = ModelRegistry()
        registry.register("fp", _fp_model(), input_shape=(8,), warm=False)
        service = serve.InferenceService(
            registry,
            ServePolicy(max_batch=4, max_wait_s=0.0, max_queue=16),
            clock=clock,
        )
        request, _ = service.submit(
            "fp", np.zeros(8, np.float32), deadline_s=0.05
        )
        batch, expired = service.batcher.next_batch(timeout=0.1)
        assert batch == [request] and expired == []  # live at release
        clock.advance(0.1)  # deadline passes post-release
        service._in_flight += 1  # what _dispatch_loop does before running
        service._run_batch(batch)
        with pytest.raises(Exception, match="at dequeue"):
            request.future.result(timeout=1)
        stats = service.stats()
        assert stats["resilience"]["deadline_expired_at_dequeue"] == 1
        assert stats["requests"]["expired"] == 1
        assert stats["accounting"]["balanced"]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=128),  # queue depth
            st.floats(min_value=0.0, max_value=0.4, allow_nan=False),  # dt
        ),
        min_size=1,
        max_size=60,
    )
)
def test_property_cooldown_bounds_tier_change_rate(samples):
    """Hysteresis invariant: the controller never changes tier twice
    within one cooldown window, whatever depth sequence it observes —
    this is what makes degrade/recover flapping impossible."""
    policy = ServePolicy(
        degrade_high_watermark=16,
        degrade_low_watermark=2,
        cooldown_s=0.25,
    )
    controller = DegradeController(policy, max_tier=3)
    now = 0.0
    change_times = []
    tier = controller.tier
    for depth, dt in samples:
        now += dt
        new_tier = controller.observe(depth, now=now)
        assert 0 <= new_tier <= 3
        assert abs(new_tier - tier) <= 1  # one step at a time
        if new_tier != tier:
            change_times.append(now)
            tier = new_tier
    for earlier, later in zip(change_times, change_times[1:]):
        assert later - earlier >= policy.cooldown_s


@pytest.fixture(scope="module")
def process_pool():
    """One tiny supervised pool shared by the process-backend tests
    (forkserver warm-up is the expensive part; pay it once)."""
    backend = ProcessPoolBackend(num_workers=1)
    backend.start()
    yield backend
    backend.stop()


class TestProcessPoolBackend:
    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(num_workers=0)

    def test_forward_bit_identical_to_in_thread(self, process_pool):
        _, entry = _fp_entry()
        rng = np.random.default_rng(5)
        batch = rng.uniform(0, 1, (3, 8)).astype(np.float32)
        thread_logits, thread_tier = InThreadBackend().run(entry, batch, 0)
        pool_logits, pool_tier = process_pool.run(entry, batch, 0)
        assert pool_tier == thread_tier
        assert np.array_equal(pool_logits, thread_logits)

    def test_stats_report_pool_shape(self, process_pool):
        stats = process_pool.stats()
        assert stats["backend"] == "process"
        assert stats["num_workers"] == 1
        assert stats["spawned"] >= 1
        assert stats["start_method"] in ("forkserver", "spawn")

    def test_crash_surfaces_as_worker_crash_and_respawns(self):
        _, entry = _fp_entry()
        chaos = ChaosConfig(crash_rate=1.0, seed=0)
        with ProcessPoolBackend(num_workers=1, chaos=chaos) as backend:
            with pytest.raises(WorkerCrashError):
                backend.run(entry, np.zeros((1, 8), np.float32), 0)
            deadline = time.monotonic() + 10.0
            while (
                backend.counters["respawned"] == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert backend.counters["crashes_detected"] >= 1
            assert backend.counters["respawned"] >= 1

    def test_corruption_raises_and_retires_the_worker(self):
        _, entry = _fp_entry()
        chaos = ChaosConfig(corrupt_rate=1.0, seed=0)
        with ProcessPoolBackend(num_workers=1, chaos=chaos) as backend:
            (first,) = backend._workers.values()
            with pytest.raises(ResultCorruptionError, match="non-finite"):
                backend.run(entry, np.zeros((2, 8), np.float32), 0)
            first.process.join(timeout=5.0)
            assert not first.process.is_alive()
            deadline = time.monotonic() + 10.0
            while (
                backend.counters["respawned"] == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert backend.counters["respawned"] >= 1
            assert first.id not in backend._workers
            assert backend.counters["tasks"] == 0

    def test_first_ship_flips_a_degraded_model_to_the_requested_tier(
        self, process_pool
    ):
        registry = ModelRegistry()
        entry = registry.register(
            "sc-degraded", _sc_model(), input_shape=SC_INPUT_SHAPE,
            warm=False,
        )
        # The parent's copy is on its deepest tier when the worker first
        # receives it; a tier-0 call must still run at tier 0.
        entry.set_tier(entry.max_tier)
        batch = _sc_batch(2)
        pool_logits, pool_tier = process_pool.run(entry, batch, 0)
        deep_logits, _ = InThreadBackend().run(entry, batch, entry.max_tier)
        thread_logits, thread_tier = InThreadBackend().run(entry, batch, 0)
        assert pool_tier == thread_tier == 0
        assert np.array_equal(pool_logits, thread_logits)
        assert not np.array_equal(deep_logits, thread_logits)

    def test_runtime_sys_path_gets_a_warm_template(self, tmp_path):
        # A process that can import repro only through a sys.path
        # insert: the forkserver's preload must still find it, or every
        # worker imports numpy and repro from cold.
        script = textwrap.dedent(
            f"""
            import sys
            sys.path.insert(0, {os.path.dirname(repro.__path__[0])!r})
            from repro.serve.backend import ProcessPoolBackend

            backend = ProcessPoolBackend(num_workers=1).start()
            try:
                stats = backend.stats()
            finally:
                backend.stop()
            print(stats["start_method"], stats["spawned"], stats["cold_spawns"])
            """
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        method, spawned, cold = done.stdout.split()
        if method != "forkserver":
            pytest.skip("spawn workers always import from cold")
        assert (spawned, cold) == ("1", "0")

    def test_run_after_stop_raises(self):
        backend = ProcessPoolBackend(num_workers=1)
        backend._stopping = True  # never started; acquire must bail out
        _, entry = _fp_entry()
        with pytest.raises(ServeError):
            backend.run(entry, np.zeros((1, 8), np.float32), 0)


class TestProcessServiceEndToEnd:
    def test_service_predictions_match_thread_backend(self):
        registry = ModelRegistry()
        model = _fp_model()
        registry.register("fp", model, input_shape=(8,), warm=False)
        policy = ServePolicy(max_batch=1, max_wait_s=0.0, max_queue=16)
        rng = np.random.default_rng(11)
        xs = rng.uniform(0, 1, (4, 8)).astype(np.float32)

        with serve.InferenceService(registry, policy) as thread_service:
            thread_results = thread_service.predict_many("fp", xs)
        backend = ProcessPoolBackend(num_workers=1)
        with serve.InferenceService(
            registry, policy, backend=backend
        ) as pool_service:
            pool_results = pool_service.predict_many("fp", xs)
        for t, p in zip(thread_results, pool_results):
            assert np.array_equal(t.outputs, p.outputs)
            assert t.tier == p.tier


class TestWorkerTelemetry:
    """A pool worker's registry keeps no span and no profile from the
    calls it answered, serving or training, traced or not."""

    def test_serving_calls_leave_no_records(self):
        registry = ModelRegistry()
        entry = registry.register(
            "sc", _sc_model(), input_shape=SC_INPUT_SHAPE, warm=False
        )
        ctx = trace.new_trace()
        with ProcessPoolBackend(num_workers=1) as backend:
            (worker,) = backend._workers
            for tier in (0, 1, 2):
                backend.run(entry, _sc_batch(2, seed=tier), tier)
            with trace.scope(ctx):
                backend.run(entry, _sc_batch(3), 1)
            records = backend.call(entry, _registry_records, (), tuple)
        assert records == (True, 0, 0)
        # The traced call's spans were shipped before they were dropped.
        (shipped,) = [
            span for span in trace.collect_trace(ctx.trace_id)
            if span["name"] == "worker.forward"
        ]
        assert shipped["process"] == f"worker-{worker}"
        assert {
            key: shipped["attrs"][key]
            for key in ("model", "tier", "batch", "worker")
        } == {"model": "sc", "tier": 1, "batch": 3, "worker": worker}

    def test_training_calls_leave_no_records(self):
        with MinibatchPool(
            _sc_model(), input_shape=SC_INPUT_SHAPE, num_workers=1
        ) as pool:
            for seed in range(3):
                assert pool.sc_values(_sc_batch(4, seed=seed)) is not None
            records = pool.backend.call(
                pool.entry, _registry_records, (), tuple
            )
        assert records == (True, 0, 0)
