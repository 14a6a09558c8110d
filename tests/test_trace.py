"""Tests for request tracing (:mod:`repro.obs.trace`) and its
propagation through the serving stack: header round-trips, deterministic
ids, span stamping, cross-process span ingestion, and the live
``/metrics`` + ``/tracez`` endpoints."""

import json
import time

import numpy as np
import pytest

from repro import nn, obs, serve
from repro.obs import trace
from repro.obs.trace import TraceContext


@pytest.fixture(autouse=True)
def fresh_registry():
    obs.reset()
    trace.set_trace_root(1234)
    yield
    obs.reset()


def _trace_names(trace_id, want, timeout_s=2.0):
    """Span names of ``trace_id``, polled until ``want`` appears.

    The dispatch/worker spans close *after* the request future resolves,
    so the client can observe its response a beat before the spans land
    in the registry.
    """
    deadline = time.monotonic() + timeout_s
    names = set()
    while time.monotonic() < deadline:
        names = {s["name"] for s in trace.collect_trace(trace_id)}
        if want <= names:
            break
        time.sleep(0.01)
    return names


def _fp_model(seed=0, features=8, classes=3):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Linear(features, 16, rng=rng),
        nn.ReLU(),
        nn.Linear(16, classes, rng=rng),
    )


def _send_first_trace_id(conn):
    """Child-process task: the first trace id this process mints."""
    conn.send(trace.new_trace().trace_id)
    conn.close()


class TestTraceContext:
    def test_ids_deterministic_under_pinned_root(self):
        trace.set_trace_root(42)
        first = trace.new_trace()
        trace.set_trace_root(42)
        again = trace.new_trace()
        assert first == again
        assert len(first.trace_id) == 16
        int(first.trace_id, 16)  # valid hex

    def test_different_roots_differ(self):
        trace.set_trace_root(1)
        a = trace.new_trace()
        trace.set_trace_root(2)
        b = trace.new_trace()
        assert a.trace_id != b.trace_id

    def test_child_keeps_trace_id_and_links_parent(self):
        ctx = trace.new_trace()
        child = ctx.child()
        assert child.trace_id == ctx.trace_id
        assert child.parent_span_id == ctx.span_id
        assert child.span_id != ctx.span_id

    def test_header_round_trip(self):
        ctx = trace.new_trace()
        parsed = TraceContext.from_header(ctx.to_header())
        assert parsed.trace_id == ctx.trace_id
        assert parsed.span_id == ctx.span_id

    @pytest.mark.parametrize(
        "value",
        [None, "", "nodash", "a-b-c", "xyz!-0abc", "0abc-zzz", "-", "a-"],
    )
    def test_malformed_header_degrades_to_none(self, value):
        assert TraceContext.from_header(value) is None

    def test_dict_round_trip(self):
        ctx = trace.new_trace().child()
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_forked_children_mint_their_own_ids(self):
        """Children forked from one template (the pool's forkserver)
        each draw ids from their own root, not the template's."""
        from repro.serve.backend import pool_context

        ctx = pool_context()
        ids = []
        for _ in range(2):
            receiver, sender = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_send_first_trace_id, args=(sender,))
            child.start()
            sender.close()
            assert receiver.poll(60)
            ids.append(receiver.recv())
            child.join(timeout=30)
            assert not child.is_alive()
        assert ids[0] != ids[1]


class TestScope:
    def test_current_none_outside_scope(self):
        assert trace.current() is None

    def test_scope_installs_and_restores(self):
        ctx = trace.new_trace()
        with trace.scope(ctx):
            assert trace.current() == ctx
            inner = ctx.child()
            with trace.scope(inner):
                assert trace.current() == inner
            assert trace.current() == ctx
        assert trace.current() is None

    def test_none_scope_is_passthrough(self):
        ctx = trace.new_trace()
        with trace.scope(ctx):
            with trace.scope(None):
                assert trace.current() == ctx

    def test_spans_stamped_with_trace_attrs(self):
        ctx = trace.new_trace()
        with trace.scope(ctx):
            with obs.span("work"):
                pass
        record = obs.get_registry().spans[-1].to_dict()
        assert record["attrs"]["trace_id"] == ctx.trace_id
        assert record["attrs"]["parent_span_id"] == ctx.span_id

    def test_untraced_spans_not_stamped(self):
        with obs.span("work"):
            pass
        record = obs.get_registry().spans[-1].to_dict()
        assert "trace_id" not in record.get("attrs", {})


class TestIngestAndCollect:
    def test_ingest_rebases_and_labels_process(self):
        ctx = trace.new_trace()
        registry = obs.get_registry()
        remote = [
            {
                "name": "worker.forward",
                "path": "worker.forward",
                "start_s": 1.0,
                "wall_s": 0.5,
                "cpu_s": 0.4,
                "depth": 0,
                "thread": "w",
                "attrs": {"trace_id": ctx.trace_id},
            }
        ]
        registry.ingest_spans(
            remote, process="worker-3",
            epoch_wall=registry.epoch_wall + 10.0,
        )
        spans = trace.collect_trace(ctx.trace_id)
        assert len(spans) == 1
        assert spans[0]["process"] == "worker-3"
        assert spans[0]["start_s"] == pytest.approx(11.0)

    def test_collect_matches_batch_trace_ids_attr(self):
        ctx = trace.new_trace()
        with obs.span("serve.dispatch", trace_ids=[ctx.trace_id, "ffff"]):
            pass
        assert len(trace.collect_trace(ctx.trace_id)) == 1
        assert len(trace.collect_trace("ffff")) == 1
        assert trace.collect_trace("0000") == []

    def test_recent_traces_groups_and_orders_newest_first(self):
        first, second = trace.new_trace(), trace.new_trace()
        with trace.scope(first), obs.span("a"):
            pass
        with trace.scope(second), obs.span("b"):
            pass
        traces = trace.recent_traces(limit=10)
        assert [t["trace_id"] for t in traces[:2]] == [
            second.trace_id,
            first.trace_id,
        ]
        assert traces[0]["span_count"] == 1

    def test_recent_traces_respects_limit(self):
        for _ in range(5):
            with trace.scope(trace.new_trace()), obs.span("x"):
                pass
        assert len(trace.recent_traces(limit=2)) == 2


class TestServeTracePropagation:
    def _serve(self, backend=None, trace_sample=0):
        registry = serve.ModelRegistry()
        registry.register("m", _fp_model(), input_shape=(8,), warm=False)
        service = serve.InferenceService(registry, backend=backend).start()
        server = serve.make_server(
            service, port=0, trace_sample=trace_sample
        )
        server.serve_background()
        client = serve.HTTPClient(
            f"http://127.0.0.1:{server.port}", trace_requests=True
        )
        return service, server, client

    def test_header_joins_frontend_and_dispatch_spans(self):
        service, server, client = self._serve()
        try:
            client.predict("m", np.zeros((8,), dtype=np.float32))
            trace_id = client.last_trace_id
            assert trace_id is not None
            want = {"serve.request", "serve.dispatch"}
            assert want <= _trace_names(trace_id, want)
        finally:
            server.shutdown()
            service.stop()

    def test_untraced_request_records_no_request_span(self):
        service, server, client = self._serve()
        client.trace_requests = False
        try:
            before = obs.get_registry().span_count()
            client.predict("m", np.zeros((8,), dtype=np.float32))
            names = {
                s.to_dict()["name"]
                for s in obs.get_registry().spans[before:]
            }
            assert "serve.request" not in names
        finally:
            server.shutdown()
            service.stop()

    def test_ambient_sampling_traces_every_nth(self):
        service, server, client = self._serve(trace_sample=2)
        client.trace_requests = False
        try:
            for _ in range(4):
                client.predict("m", np.zeros((8,), dtype=np.float32))
            deadline = time.monotonic() + 2.0
            sampled = set()
            while time.monotonic() < deadline:
                sampled = {
                    s.attrs.get("trace_id")
                    for s in obs.get_registry().spans
                    if s.name == "serve.request"
                }
                if len(sampled) >= 2:
                    break
                time.sleep(0.01)
            assert len(sampled) == 2  # requests 0 and 2 of 0..3
        finally:
            server.shutdown()
            service.stop()

    def test_metrics_endpoint_serves_valid_prometheus(self):
        service, server, client = self._serve()
        try:
            client.predict("m", np.zeros((8,), dtype=np.float32))
            families = obs.parse_prometheus(client.metrics())
            assert "serve_requests_accepted_total" in families
            assert "serve_request_latency_ms_window" in families
            assert "serve_slo_burn_rate" in families
            assert "obs_dropped_spans_total" in families
            quantiles = {
                labels["quantile"]
                for labels, _ in families["serve_request_latency_ms_window"]
            }
            assert quantiles == {"0.5", "0.95", "0.99"}
        finally:
            server.shutdown()
            service.stop()

    def test_tracez_returns_sampled_traces(self):
        service, server, client = self._serve()
        try:
            client.predict("m", np.zeros((8,), dtype=np.float32))
            payload = client.tracez(limit=5)
            ids = [t["trace_id"] for t in payload["traces"]]
            assert client.last_trace_id in ids
        finally:
            server.shutdown()
            service.stop()


class TestProcessPoolMergedTrace:
    def test_single_merged_trace_across_processes(self, tmp_path):
        backend = serve.ProcessPoolBackend(num_workers=1)
        registry = serve.ModelRegistry()
        registry.register("m", _fp_model(), input_shape=(8,), warm=False)
        service = serve.InferenceService(
            registry, backend=backend
        ).start()
        server = serve.make_server(service, port=0, trace_sample=0)
        server.serve_background()
        client = serve.HTTPClient(
            f"http://127.0.0.1:{server.port}", trace_requests=True
        )
        try:
            client.predict("m", np.zeros((8,), dtype=np.float32))
            trace_id = client.last_trace_id
            want = {"serve.request", "serve.dispatch", "worker.forward"}
            assert want <= _trace_names(trace_id, want)
            spans = trace.collect_trace(trace_id)
            processes = {s.get("process", "") for s in spans}
            assert "" in processes  # frontend spans
            assert any(p.startswith("worker-") for p in processes)
            path = tmp_path / "req.trace.json"
            obs.write_request_trace(path, trace_id)
            doc = json.loads(path.read_text())
            assert doc["metadata"]["trace_id"] == trace_id
            pids = {
                e["pid"]
                for e in doc["traceEvents"]
                if e.get("ph") == "X"
            }
            assert len(pids) == 2  # frontend + worker rows
        finally:
            server.shutdown()
            service.stop()
