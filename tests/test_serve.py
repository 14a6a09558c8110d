"""Tests for the serving stack: batcher, policy, registry, service, HTTP.

The coalescing / flush / expiry / hysteresis logic is exercised through
injected fake clocks and direct ``poll()`` calls — no sleeps anywhere in
the happy path. Real threads appear only where concurrency itself is the
property under test (service integration, reconfigure safety, HTTP).
"""

import threading

import numpy as np
import pytest

from repro import nn, serve
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    QueueFullError,
    ReplicaUnavailableError,
    ServeError,
    ServiceDrainingError,
    ShapeError,
    UnknownModelError,
    WorkerCrashError,
)
from repro.models.cnn4 import cnn4_sc
from repro.scnn import SCConfig
from repro.scnn.layers import SCConv2d, set_stream_lengths
from repro.serve import service as service_module
from repro.serve.batcher import MicroBatcher, PendingRequest
from repro.serve.breaker import BreakerPolicy
from repro.serve.policy import DegradeController, ServePolicy
from repro.serve.registry import MIN_TIER_LENGTH, ModelRegistry, tier_ladder
from repro.utils.retry import RetryPolicy


class FakeClock:
    """Deterministic monotonic clock for sleep-free timing tests."""

    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now


def _request(clock, model="m", deadline_s=None, value=0.0):
    now = clock()
    return PendingRequest(
        model=model,
        x=np.full((2,), value, dtype=np.float32),
        enqueued_at=now,
        deadline_at=None if deadline_s is None else now + deadline_s,
    )


def _fp_model(seed=0, features=8, classes=3):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Linear(features, 16, rng=rng),
        nn.ReLU(),
        nn.Linear(16, classes, rng=rng),
    )


def _sc_model(stream_length=32, seed=0):
    cfg = SCConfig(
        stream_length=stream_length, stream_length_pooling=stream_length
    )
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        SCConv2d(1, 2, 3, cfg, rng=rng),
        nn.Flatten(),
        nn.Linear(2 * 4 * 4, 3, rng=rng),
    ), cfg


class TestTierLadder:
    def test_halves_each_role_per_tier(self):
        cfg = SCConfig(stream_length=64, stream_length_pooling=128)
        ladder = tier_ladder(cfg, 3)
        assert ladder[0]["stream_length"] == 64
        assert ladder[1]["stream_length"] == 32
        assert ladder[2]["stream_length"] == 16
        assert ladder[1]["stream_length_pooling"] == 64
        assert ladder[2]["output_stream_length"] == 32

    def test_floor_dedupes_tail_tiers(self):
        cfg = SCConfig(
            stream_length=MIN_TIER_LENGTH,
            stream_length_pooling=MIN_TIER_LENGTH,
            output_stream_length=MIN_TIER_LENGTH,
        )
        assert len(tier_ladder(cfg, 4)) == 1  # already at the floor

    def test_invalid_count_rejected(self):
        with pytest.raises(ConfigurationError):
            tier_ladder(SCConfig(stream_length=64), 0)


class TestMicroBatcher:
    def test_full_batch_releases_immediately(self):
        clock = FakeClock()
        b = MicroBatcher(max_batch=3, max_wait_s=1.0, clock=clock)
        requests = [_request(clock, value=i) for i in range(3)]
        for r in requests:
            assert b.offer(r)
        batch, expired = b.poll()
        assert expired == []
        assert batch == requests  # arrival order
        assert b.depth() == 0

    def test_partial_batch_waits_then_flushes(self):
        clock = FakeClock()
        b = MicroBatcher(max_batch=8, max_wait_s=0.010, clock=clock)
        b.offer(_request(clock))
        clock.advance(0.004)
        b.offer(_request(clock))
        batch, _ = b.poll()
        assert batch is None  # oldest has waited only 4ms of 10
        clock.advance(0.006)
        batch, _ = b.poll()
        assert batch is not None and len(batch) == 2

    def test_queue_full_refuses_admission(self):
        clock = FakeClock()
        b = MicroBatcher(max_batch=2, max_queue=2, clock=clock)
        assert b.offer(_request(clock))
        assert b.offer(_request(clock))
        assert not b.offer(_request(clock))
        assert b.depth() == 2

    def test_expired_requests_removed_not_batched(self):
        clock = FakeClock()
        b = MicroBatcher(max_batch=2, max_wait_s=0.010, clock=clock)
        stale = _request(clock, deadline_s=0.005)
        b.offer(stale)
        fresh = _request(clock, deadline_s=10.0)
        b.offer(fresh)
        clock.advance(0.006)  # stale's deadline passed, batch not full
        batch, expired = b.poll()
        assert expired == [stale]
        assert batch is None or stale not in batch
        assert b.depth() + (len(batch) if batch else 0) == 1

    def test_deadline_near_releases_early(self):
        clock = FakeClock()
        b = MicroBatcher(max_batch=8, max_wait_s=0.010, clock=clock)
        b.offer(_request(clock, deadline_s=0.008))
        # Deadline (8ms away) is inside the 10ms wait window: another
        # full wait would expire it, so the singleton ships now.
        batch, expired = b.poll()
        assert expired == []
        assert batch is not None and len(batch) == 1

    def test_batches_group_by_model_preserving_order(self):
        clock = FakeClock()
        b = MicroBatcher(max_batch=8, max_wait_s=0.0, clock=clock)
        a1, b1, a2 = (
            _request(clock, "a"), _request(clock, "b"), _request(clock, "a")
        )
        for r in (a1, b1, a2):
            b.offer(r)
        batch, _ = b.poll()
        assert batch == [a1, a2]  # head's model, arrival order
        batch, _ = b.poll()
        assert batch == [b1]  # other model kept its place

    def test_blocking_next_batch_times_out_empty(self):
        b = MicroBatcher(max_batch=2)
        batch, expired = b.next_batch(timeout=0.01)
        assert batch is None and expired == []

    def test_timeout_runs_on_the_real_clock(self):
        """A fake clock that never advances does not hold a dispatch
        thread past its timeout."""
        b = MicroBatcher(max_batch=2, clock=FakeClock())
        returned = []
        waiter = threading.Thread(
            target=lambda: returned.append(b.next_batch(timeout=0.05)),
            daemon=True,
        )
        waiter.start()
        waiter.join(timeout=1.0)
        assert returned == [(None, [])]

    def test_drain_empties_queue(self):
        clock = FakeClock()
        b = MicroBatcher(max_batch=8, max_wait_s=1.0, clock=clock)
        requests = [_request(clock) for _ in range(3)]
        for r in requests:
            b.offer(r)
        assert b.drain() == requests
        assert b.depth() == 0


class TestDegradeController:
    def policy(self, **kw):
        base = dict(
            degrade_high_watermark=10,
            degrade_low_watermark=2,
            cooldown_s=1.0,
        )
        base.update(kw)
        return ServePolicy(**base)

    def test_degrades_above_high_watermark(self):
        clock = FakeClock()
        c = DegradeController(self.policy(), max_tier=2, clock=clock)
        assert c.observe(10) == 1

    def test_cooldown_blocks_consecutive_steps(self):
        clock = FakeClock()
        c = DegradeController(self.policy(), max_tier=2, clock=clock)
        assert c.observe(50) == 1
        assert c.observe(50) == 1  # still cooling down
        clock.advance(1.1)
        assert c.observe(50) == 2  # second step after cooldown
        clock.advance(1.1)
        assert c.observe(50) == 2  # clamped at max_tier

    def test_recovers_below_low_watermark_with_hysteresis(self):
        clock = FakeClock()
        c = DegradeController(self.policy(), max_tier=2, clock=clock)
        c.observe(50)
        clock.advance(1.1)
        assert c.observe(5) == 1  # between watermarks: hold
        assert c.observe(2) == 0  # at/below low watermark: recover
        assert c.transitions == 2

    def test_recovery_also_cooldown_gated(self):
        clock = FakeClock()
        c = DegradeController(self.policy(), max_tier=3, clock=clock)
        c.observe(50)
        clock.advance(1.1)
        c.observe(50)
        clock.advance(1.1)
        assert c.observe(0) == 1
        assert c.observe(0) == 1  # cooldown: no double recovery
        clock.advance(1.1)
        assert c.observe(0) == 0

    def test_non_degradable_model_never_moves(self):
        clock = FakeClock()
        c = DegradeController(self.policy(), max_tier=0, clock=clock)
        assert c.observe(10_000) == 0
        assert c.transitions == 0

    def test_idle_service_stays_native_after_a_late_request(self):
        """One late answer at an empty queue is not overload: the SLO
        tracker records the miss, and the model stays on tier 0."""
        clock = FakeClock()
        registry = ModelRegistry()
        registry.register(
            "sc", _sc_model()[0], input_shape=(1, 6, 6), warm=False
        )
        service = serve.InferenceService(registry, ServePolicy(), clock=clock)
        x = np.zeros((1, 6, 6), np.float32)
        tiers = []
        for latency_s in (0.03, 0.03, 0.03, 0.03, 0.3, 0.03, 0.03, 0.03):
            request, _ = service.submit("sc", x)
            clock.advance(latency_s)
            batch, _ = service.batcher.next_batch(timeout=0.1)
            service._in_flight += len(batch)  # as _dispatch_loop does
            service._run_batch(batch)
            tiers.append(request.future.result(timeout=5).tier)
            clock.advance(0.5)
        stats = service.stats()
        assert tiers == [0] * 8
        assert stats["models"]["sc"]["tier"] == 0
        assert stats["slo"]["sc"]["short_window"]["latency_bad"] == 1
        assert stats["slo"]["sc"]["burn_rate"] > 1.0
        assert stats["accounting"]["balanced"]


class TestServePolicy:
    def test_queue_must_hold_a_batch(self):
        with pytest.raises(ConfigurationError):
            ServePolicy(max_batch=16, max_queue=8)

    def test_watermarks_must_be_ordered(self):
        with pytest.raises(ConfigurationError):
            ServePolicy(degrade_high_watermark=2, degrade_low_watermark=2)

    def test_deadline_must_be_positive_or_none(self):
        with pytest.raises(ConfigurationError):
            ServePolicy(default_deadline_s=0)
        ServePolicy(default_deadline_s=None)  # explicit no-deadline is fine


class TestRegistry:
    def test_duplicate_name_rejected(self):
        reg = ModelRegistry()
        reg.register("m", _fp_model(), input_shape=(8,), warm=False)
        with pytest.raises(ConfigurationError):
            reg.register("m", _fp_model(), input_shape=(8,), warm=False)

    def test_unknown_model_raises(self):
        with pytest.raises(UnknownModelError):
            ModelRegistry().get("ghost")

    def test_sc_config_discovered_and_tiers_built(self):
        model, cfg = _sc_model()
        reg = ModelRegistry()
        entry = reg.register("sc", model, input_shape=(1, 6, 6), warm=False)
        assert entry.sc_config is cfg
        assert entry.max_tier >= 1

    def test_set_tier_changes_simulator_lengths(self):
        model, cfg = _sc_model(stream_length=32)
        reg = ModelRegistry()
        entry = reg.register("sc", model, input_shape=(1, 6, 6), warm=False)
        conv = model.layers[0]
        assert conv.simulator.length == 32
        entry.set_tier(1)
        assert conv.simulator.length == 16
        entry.set_tier(0)
        assert conv.simulator.length == 32

    def test_warm_runs_every_tier_and_ends_native(self):
        model, _ = _sc_model()
        reg = ModelRegistry()
        entry = reg.register("sc", model, input_shape=(1, 6, 6), warm=True)
        assert entry.tier == 0

    def test_forward_reports_serving_tier(self):
        model, _ = _sc_model()
        reg = ModelRegistry()
        entry = reg.register("sc", model, input_shape=(1, 6, 6), warm=False)
        entry.set_tier(1)
        logits, tier = entry.forward(np.zeros((2, 1, 6, 6), np.float32))
        assert logits.shape == (2, 3)
        assert tier == 1


class TestServiceIntegration:
    def make_service(self, **policy_kw):
        registry = ModelRegistry()
        model = _fp_model()
        registry.register("fp", model, input_shape=(8,), warm=False)
        base = dict(max_batch=4, max_wait_s=0.002, max_queue=16)
        base.update(policy_kw)
        return serve.InferenceService(registry, ServePolicy(**base)), model

    def test_predict_matches_direct_forward(self):
        service, model = self.make_service()
        x = np.linspace(0, 1, 8, dtype=np.float32)
        with service:
            result = service.predict("fp", x)
        from repro.nn.tensor import Tensor, no_grad

        with no_grad():
            direct = model(Tensor(x[None].copy())).data[0]
        np.testing.assert_allclose(result.outputs, direct, rtol=1e-6)
        assert result.tier == 0 and not result.degraded
        assert result.latency_s >= 0

    def test_predict_many_preserves_input_order(self):
        service, model = self.make_service()
        rng = np.random.default_rng(2)
        xs = rng.uniform(0, 1, (6, 8)).astype(np.float32)
        with service:
            results = service.predict_many("fp", xs)
        from repro.nn.tensor import Tensor, no_grad

        with no_grad():
            direct = model(Tensor(xs.copy())).data
        for i, r in enumerate(results):
            np.testing.assert_allclose(r.outputs, direct[i], rtol=1e-6)

    def test_admission_errors_are_synchronous(self):
        service, _ = self.make_service()
        with service:
            with pytest.raises(UnknownModelError):
                service.predict("ghost", np.zeros(8, np.float32))
            with pytest.raises(ShapeError):
                service.predict("fp", np.zeros(7, np.float32))

    def test_queue_full_backpressure(self):
        # Dispatcher not started: the queue can only fill.
        service, _ = self.make_service(max_batch=2, max_queue=2)
        x = np.zeros(8, np.float32)
        service.submit("fp", x)
        service.submit("fp", x)
        with pytest.raises(QueueFullError):
            service.submit("fp", x)
        stats = service.stats()
        assert stats["requests"]["rejected_queue_full"] == 1
        assert stats["requests"]["accepted"] == 2
        assert stats["accounting"]["balanced"]

    def test_expired_request_fails_with_deadline_error(self):
        service, _ = self.make_service(max_wait_s=0.02)
        with service:
            with pytest.raises(DeadlineExceededError):
                service.predict("fp", np.zeros(8, np.float32), deadline_s=1e-9)
        stats = service.stats()
        assert stats["requests"]["expired"] == 1
        assert stats["accounting"]["balanced"]

    def test_overload_every_request_accounted_for(self):
        service, _ = self.make_service(
            max_batch=2, max_queue=4, max_wait_s=0.0
        )
        x = np.zeros(8, np.float32)
        outcomes = {"ok": 0, "rejected": 0, "expired": 0}
        lock = threading.Lock()

        def client():
            for _ in range(10):
                try:
                    service.predict("fp", x, deadline_s=0.5)
                    key = "ok"
                except QueueFullError:
                    key = "rejected"
                except DeadlineExceededError:
                    key = "expired"
                with lock:
                    outcomes[key] += 1

        with service:
            threads = [threading.Thread(target=client) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = service.stats()
        assert sum(outcomes.values()) == 80
        requests = stats["requests"]
        assert requests["accepted"] == outcomes["ok"] + outcomes["expired"]
        assert requests["rejected_queue_full"] == outcomes["rejected"]
        assert stats["accounting"]["balanced"]

    def test_degrades_under_burst_and_reports_tier(self):
        registry = ModelRegistry()
        model, _ = _sc_model()
        registry.register("sc", model, input_shape=(1, 6, 6))
        policy = ServePolicy(
            max_batch=2,
            max_wait_s=0.0,
            max_queue=64,
            degrade_high_watermark=4,
            degrade_low_watermark=1,
            cooldown_s=0.0,
        )
        xs = np.zeros((24, 1, 6, 6), np.float32)
        with serve.InferenceService(registry, policy) as service:
            results = service.predict_many("sc", xs, deadline_s=None)
        tiers = [r.tier for r in results]
        assert any(t > 0 for t in tiers), tiers  # burst forced degradation
        for r in results:
            assert r.degraded == (r.tier > 0)

    def test_stop_fails_queued_requests(self):
        service, _ = self.make_service()
        request, _ = service.submit("fp", np.zeros(8, np.float32))
        service.stop()  # never started; drains the queue
        with pytest.raises(Exception, match="stopped"):
            request.future.result(timeout=1)

    def test_queue_full_carries_retry_after_hint(self):
        service, _ = self.make_service(max_batch=2, max_queue=2)
        x = np.zeros(8, np.float32)
        service.submit("fp", x)
        service.submit("fp", x)
        with pytest.raises(QueueFullError) as excinfo:
            service.submit("fp", x)
        assert excinfo.value.retry_after_s == pytest.approx(
            service.policy.retry_after_s()
        )


class TestConcurrentReconfigure:
    def test_forwards_race_tier_flips_without_torn_state(self):
        """Outputs under concurrent reconfigure match one of the two
        tier-consistent references exactly — never a mix of lengths."""
        model, _ = _sc_model(stream_length=32)
        x = np.random.default_rng(0).uniform(0, 1, (1, 1, 6, 6)).astype(
            np.float32
        )
        refs = {}
        for length in (32, 16):
            set_stream_lengths(
                model, stream_length=length, stream_length_pooling=length
            )
            refs[length] = model(x).data.copy()
        stop = threading.Event()

        def flipper():
            length = 16
            while not stop.is_set():
                set_stream_lengths(
                    model, stream_length=length, stream_length_pooling=length
                )
                length = 48 - length  # 16 <-> 32

        thread = threading.Thread(target=flipper)
        thread.start()
        try:
            for _ in range(40):
                out = model(x).data
                assert any(
                    np.array_equal(out, ref) for ref in refs.values()
                ), "forward saw a torn stream-length configuration"
        finally:
            stop.set()
            thread.join()


class TestHTTPServer:
    def test_http_roundtrip_and_error_mapping(self):
        registry = ModelRegistry()
        registry.register("fp", _fp_model(), input_shape=(8,), warm=False)
        service = serve.InferenceService(registry).start()
        server = serve.make_server(service, port=0)
        server.serve_background()
        try:
            client = serve.HTTPClient(f"http://127.0.0.1:{server.port}")
            health = client.healthz()
            assert health["status"] == "ok" and health["models"] == ["fp"]

            x = np.linspace(0, 1, 8)
            single = client.predict("fp", x)
            assert len(single["outputs"]) == 3
            assert single["tier"] == 0 and not single["degraded"]

            batch = client.predict("fp", np.tile(x, (3, 1)))
            assert [len(r["outputs"]) for r in batch] == [3, 3, 3]

            with pytest.raises(UnknownModelError):
                client.predict("ghost", x)
            with pytest.raises(ShapeError):
                client.predict("fp", x[:7])

            stats = client.stats()
            assert stats["requests"]["accepted"] == 4
            assert stats["accounting"]["balanced"]

            # Every entry of the protocol's error table comes back as
            # its own class, with its status and any retry hint.
            def failing(error):
                def fail(*args):
                    raise error

                return fail

            for kind, status in serve.server.STATUS_FOR:
                error = kind("injected")
                if hasattr(error, "retry_after_s"):
                    error.retry_after_s = 0.25
                assert serve.status_for(error) == status
                server.predict = failing(error)
                with pytest.raises(kind) as excinfo:
                    client.predict("fp", x)
                assert type(excinfo.value) is kind
                assert getattr(excinfo.value, "retry_after_s", 0.25) == (
                    pytest.approx(0.25)
                )
            server.predict = failing(WorkerCrashError("not in the table"))
            with pytest.raises(ServeError) as excinfo:
                client.predict("fp", x)  # 500: the base class
            assert type(excinfo.value) is ServeError
        finally:
            server.shutdown()
            service.stop()

    @pytest.mark.parametrize(
        "status, body, expected",
        [
            (503, b"", CircuitOpenError),  # the first 503 listed
            (400, b"not json", ShapeError),
            (503, b'{"error": "ServiceDrainingError"}', ServiceDrainingError),
            (429, b'{"error": "NoSuchError"}', QueueFullError),
            (500, b'{"error": "KeyError"}', ServeError),
        ],
    )
    def test_error_decoder_prefers_name_then_status(
        self, status, body, expected
    ):
        import io
        import urllib.error
        from email.message import Message

        headers = Message()
        headers["Retry-After"] = "2"
        err = urllib.error.HTTPError(
            "http://x/predict", status, "reason", headers, io.BytesIO(body)
        )
        error = serve.client.error_from_http(err)
        assert type(error) is expected
        if hasattr(error, "retry_after_s"):
            assert error.retry_after_s == 2.0

    def test_replica_unavailable_is_a_retryable_503(self):
        """A router that gives up answers 503, the client decodes it back
        into the typed error with its hint, and both clients' retry
        covers it."""
        import io
        import urllib.error
        from email.message import Message

        error = ReplicaUnavailableError("no replica", retry_after_s=0.05)
        assert serve.status_for(error) == 503
        assert isinstance(error, serve.client.BACKPRESSURE)
        headers = Message()
        headers["X-Retry-After-Ms"] = "50.000"
        body = b'{"error": "ReplicaUnavailableError", "detail": "no replica"}'
        err = urllib.error.HTTPError(
            "http://x/predict", 503, "reason", headers, io.BytesIO(body)
        )
        decoded = serve.client.error_from_http(err)
        assert type(decoded) is ReplicaUnavailableError
        assert decoded.retry_after_s == pytest.approx(0.05)

    def test_http_429_sends_retry_after_headers(self):
        """Queue-full over HTTP: 429 plus both backoff headers, and the
        client surfaces the precise hint as ``retry_after_s``."""
        import urllib.error
        import urllib.request

        registry = ModelRegistry()
        registry.register("fp", _fp_model(), input_shape=(8,), warm=False)
        policy = ServePolicy(max_batch=2, max_queue=2, max_wait_s=0.005)
        service = serve.InferenceService(registry, policy)  # dispatcher off
        server = serve.make_server(service, port=0)
        server.serve_background()
        try:
            x = np.zeros(8, np.float32)
            service.submit("fp", x)
            service.submit("fp", x)  # queue now at capacity
            url = f"http://127.0.0.1:{server.port}"
            body = b'{"model": "fp", "inputs": ' + str(
                x.tolist()
            ).encode() + b"}"
            request = urllib.request.Request(
                f"{url}/predict", data=body,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5)
            hint_s = policy.retry_after_s()
            assert excinfo.value.code == 429
            headers = excinfo.value.headers
            assert int(headers["Retry-After"]) >= hint_s  # ceiling-rounded
            assert float(headers["X-Retry-After-Ms"]) == pytest.approx(
                hint_s * 1e3
            )

            client = serve.HTTPClient(url)
            with pytest.raises(QueueFullError) as excinfo:
                client.predict("fp", x)
            assert excinfo.value.retry_after_s == pytest.approx(hint_s)
        finally:
            server.shutdown()
            service.stop()

    def test_http_503_when_breaker_open(self, monkeypatch):
        """A repeatedly failing model maps to 500 first (the crash), then
        503 + Retry-After once the breaker opens."""
        monkeypatch.setattr(
            service_module, "BREAKER",
            BreakerPolicy(failure_threshold=1, reset_s=60.0),
        )

        class _CrashingBackend(serve.InThreadBackend):
            def run(self, entry, batch, tier, timeout_s=None):
                raise WorkerCrashError("worker keeps dying")

        registry = ModelRegistry()
        registry.register("fp", _fp_model(), input_shape=(8,), warm=False)
        policy = ServePolicy(
            max_batch=2,
            max_wait_s=0.0,
            max_queue=16,
            retry=RetryPolicy(max_attempts=1),
        )
        service = serve.InferenceService(
            registry, policy, backend=_CrashingBackend()
        ).start()
        server = serve.make_server(service, port=0)
        server.serve_background()
        try:
            client = serve.HTTPClient(f"http://127.0.0.1:{server.port}")
            x = np.zeros(8, np.float32)
            with pytest.raises(ServeError) as excinfo:
                client.predict("fp", x)  # crash -> 500
            assert not isinstance(excinfo.value, CircuitOpenError)
            with pytest.raises(CircuitOpenError) as excinfo:
                client.predict("fp", x)  # breaker open -> 503
            assert excinfo.value.retry_after_s is not None
            assert 0 < excinfo.value.retry_after_s <= 60.0
        finally:
            server.shutdown()
            service.stop()

    def test_http_client_retries_backpressure(self):
        client = serve.HTTPClient(
            "http://unused.invalid",
            retry=RetryPolicy(
                max_attempts=3, base_delay_s=0.0, max_delay_s=0.0
            ),
        )
        calls = []

        def flaky(path, payload):
            calls.append(path)
            if len(calls) == 1:
                error = QueueFullError("HTTP 429: full")
                error.retry_after_s = 0.0
                raise error
            return {"ok": True}

        client._request_once = flaky
        assert client._request("/predict", {}) == {"ok": True}
        assert calls == ["/predict", "/predict"]


def test_cnn4_serves_end_to_end():
    """The registry's primary workload: CNN-4 SC, warm, predict, stats."""
    cfg = SCConfig(stream_length=16, stream_length_pooling=16)
    model = cnn4_sc(
        cfg, num_classes=10, in_channels=1, input_size=16,
        width_mult=0.25, seed=3,
    )
    registry = ModelRegistry()
    registry.register("cnn4", model, input_shape=(1, 16, 16), num_tiers=2)
    x = np.random.default_rng(1).uniform(0, 1, (1, 16, 16)).astype(np.float32)
    with serve.InferenceService(registry) as service:
        result = service.predict("cnn4", x)
        stats = service.stats()
    assert result.outputs.shape == (10,)
    assert 0 <= result.argmax < 10
    assert stats["requests"]["completed"] == 1
    assert stats["models"]["cnn4"]["max_tier"] == 1


class _SlowModel(nn.layers.Module):
    """Forward sleeps a fixed interval — an in-flight request holder."""

    def __init__(self, service_s=0.15, features=8, classes=3):
        super().__init__()
        self.service_s = service_s
        self.head = nn.layers.Linear(
            features, classes, rng=np.random.default_rng(0)
        )

    def forward(self, x):
        import time

        time.sleep(self.service_s)
        return self.head(x)


class _ThreadRecordingBackend(serve.InThreadBackend):
    """In-thread backend that keeps every thread a batch ran on (the
    objects, not their idents, which the OS reuses)."""

    def __init__(self, capacity=1):
        super().__init__()
        self.capacity = capacity
        self.threads = []

    def run(self, entry, batch, tier, timeout_s=None):
        self.threads.append(threading.current_thread())
        return super().run(entry, batch, tier, timeout_s=timeout_s)


class TestDispatchThreads:
    def _service(self, backend, service_s=0.002):
        registry = ModelRegistry()
        registry.register(
            "fp", _SlowModel(service_s=service_s), input_shape=(8,),
            warm=False,
        )
        policy = ServePolicy(
            max_batch=2, max_wait_s=0.001, max_queue=128,
            default_deadline_s=None,
        )
        return serve.InferenceService(registry, policy, backend=backend)

    def test_services_run_batches_on_their_own_threads(self):
        """Two services in one process serve 100 concurrent requests
        each: each one's batches run on at most its own parallelism of
        threads, and no thread runs batches of both."""
        from repro.utils.parallel import cpu_count

        backends = [_ThreadRecordingBackend(), _ThreadRecordingBackend(3)]
        services = [self._service(backend) for backend in backends]
        x = np.zeros(8, np.float32)
        for service in services:
            service.start()
        try:
            pending = [
                service.submit("fp", x)[0]
                for _ in range(100)
                for service in services
            ]
            for request in pending:
                assert request.future.result(timeout=30).outputs.shape == (3,)
            parallelism = [
                service.stats()["resilience"]["dispatch_parallelism"]
                for service in services
            ]
        finally:
            for service in services:
                service.stop()
        assert parallelism == [cpu_count(), max(cpu_count(), 3)]
        ran_on = [set(backend.threads) for backend in backends]
        for threads, limit in zip(ran_on, parallelism):
            assert 1 <= len(threads) <= limit
        assert not ran_on[0] & ran_on[1]

    def test_stop_returns_after_the_running_batch(self):
        """stop() during a 0.3 s forward returns only once that
        request's answer is in."""
        started = threading.Event()

        class _Signalling(serve.InThreadBackend):
            def run(self, entry, batch, tier, timeout_s=None):
                started.set()
                return super().run(entry, batch, tier, timeout_s=timeout_s)

        service = self._service(_Signalling(), service_s=0.3).start()
        request, _ = service.submit("fp", np.zeros(8, np.float32))
        assert started.wait(timeout=10)
        service.stop()
        assert request.future.done()
        assert request.future.result().outputs.shape == (3,)


class TestGracefulDrain:
    def _stack(self, model=None, **policy_kw):
        registry = ModelRegistry()
        registry.register(
            "fp", model or _fp_model(), input_shape=(8,), warm=False
        )
        policy = ServePolicy(**policy_kw) if policy_kw else None
        service = serve.InferenceService(registry, policy).start()
        server = serve.make_server(service, port=0)
        server.serve_background()
        return registry, service, server

    def test_drain_sheds_predict_with_503_and_retry_after(self):
        import json as json_module
        import urllib.error
        import urllib.request

        _, service, server = self._stack()
        try:
            assert not server.draining
            assert server.drain(timeout_s=5.0)  # idle: drains instantly
            assert server.draining

            url = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{url}/healthz", timeout=5) as r:
                assert json_module.loads(r.read())["status"] == "draining"

            body = json_module.dumps(
                {"model": "fp", "inputs": [0.0] * 8}
            ).encode()
            request = urllib.request.Request(
                f"{url}/predict",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5)
            err = excinfo.value
            assert err.code == 503
            assert err.headers["Retry-After"] is not None
            assert err.headers["X-Retry-After-Ms"] is not None
            payload = json_module.loads(err.read())
            assert payload["error"] == "ServiceDrainingError"
            with pytest.raises(ServiceDrainingError) as excinfo:
                serve.HTTPClient(url).predict("fp", np.zeros(8, np.float32))
            assert excinfo.value.retry_after_s == pytest.approx(1.0)
            assert isinstance(excinfo.value, serve.client.BACKPRESSURE)

            # A body whose length cannot be read is a 400 that closes
            # the connection, draining or not.
            import http.client

            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=5
            )
            conn.putrequest("POST", "/predict")
            conn.putheader("Content-Length", "eight")
            conn.endheaders(body)
            response = conn.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            assert json_module.loads(response.read())["error"] == "ShapeError"
            conn.close()

            # Keep-alive framing survived the shed: the same socket
            # path still answers GETs.
            with urllib.request.urlopen(f"{url}/stats", timeout=5) as r:
                assert r.status == 200
        finally:
            server.shutdown()
            service.stop()

    def test_drain_waits_for_inflight_requests(self):
        import time

        _, service, server = self._stack(model=_SlowModel(service_s=0.2))
        client = serve.HTTPClient(f"http://127.0.0.1:{server.port}")
        try:
            result = {}

            def slow_predict():
                result["out"] = client.predict("fp", np.zeros(8, np.float32))

            thread = threading.Thread(target=slow_predict, daemon=True)
            thread.start()
            deadline = time.monotonic() + 2.0
            while service.pending() == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert service.pending() >= 1  # the request is in the house
            assert server.drain(timeout_s=5.0)  # waits for it, then True
            thread.join(timeout=5.0)
            assert len(result["out"]["outputs"]) == 3  # finished, not shed
            assert service.pending() == 0
        finally:
            server.shutdown()
            service.stop()

    def test_pending_counts_queued_and_inflight(self):
        _, service, server = self._stack()
        try:
            assert service.pending() == 0
        finally:
            server.shutdown()
            service.stop()

    def test_install_graceful_shutdown_on_sigterm(self):
        import os
        import signal

        before = set(threading.enumerate())
        _, service, server = self._stack()
        dispatch = [
            thread for thread in threading.enumerate()
            if thread not in before
            and thread.name.startswith("serve-dispatch")
        ]
        assert len(dispatch) == (
            service.stats()["resilience"]["dispatch_parallelism"]
        )
        done = threading.Event()
        previous = signal.getsignal(signal.SIGTERM)
        try:
            serve.install_graceful_shutdown(
                server, service, drain_timeout_s=5.0, on_done=done.set
            )
            os.kill(os.getpid(), signal.SIGTERM)
            assert done.wait(timeout=10.0)
            assert server.draining
            assert service._stop.is_set()
            # on_done runs after stop() returned: fully stopped.
            assert not any(thread.is_alive() for thread in dispatch)
        finally:
            signal.signal(signal.SIGTERM, previous)


class TestShardedServing:
    def test_concurrent_sharded_batches_match_in_process(self):
        """Two models whose kernels shard two ways serve two batches at
        once on the service's dispatch threads; every answer equals the
        in-process forward bit for bit (kernel shards take helpers from
        their own pool and the dispatch threads run shards themselves)."""
        from repro.nn.tensor import Tensor, no_grad

        registry = ModelRegistry()
        models = {}
        for seed, name in enumerate(("a", "b")):
            cfg = SCConfig(stream_length=32, stream_length_pooling=32)
            rng = np.random.default_rng(seed)
            models[name] = nn.Sequential(
                SCConv2d(1, 4, 3, cfg.with_(num_workers=2), rng=rng),
                nn.Flatten(),
                nn.Linear(4 * 6 * 6, 3, rng=rng),
            )
            registry.register(name, models[name], input_shape=(1, 8, 8), warm=False)
        policy = ServePolicy(
            max_batch=4, max_wait_s=0.05, default_deadline_s=None
        )
        xs = np.random.default_rng(7).uniform(0, 1, (4, 1, 8, 8))
        xs = xs.astype(np.float32)
        with serve.InferenceService(registry, policy) as service:
            pending = {
                name: [service.submit(name, x)[0] for x in xs] for name in models
            }
            served = {
                name: np.stack([r.future.result(timeout=60).outputs for r in reqs])
                for name, reqs in pending.items()
            }
            stats = service.stats()
        assert stats["batches"]["dispatched"] == 2
        for name, model in models.items():
            with no_grad():
                direct = model(Tensor(xs.copy())).data
            np.testing.assert_array_equal(served[name], direct)
