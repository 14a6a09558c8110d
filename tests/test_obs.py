"""Tests for the telemetry subsystem (:mod:`repro.obs`)."""

import json
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.arch import GEO_ULP, STREAMS_32_64, compile_network
from repro.arch.executor import Executor
from repro.models.shapes import cnn4_shapes
from repro.scnn.config import SCConfig
from repro.scnn.sim import SCConvSimulator, clear_table_cache
from repro.utils.parallel import parallel_map


@pytest.fixture(autouse=True)
def fresh_registry():
    obs.reset()
    saved = obs.enabled()
    obs.set_enabled(True)
    yield
    obs.set_enabled(saved)
    obs.reset()


class TestSpans:
    def test_records_wall_and_cpu(self):
        with obs.span("outer") as sp:
            pass
        assert sp.wall_s >= 0.0
        record = obs.get_registry().spans[-1]
        assert record.name == "outer"
        assert record.wall_s >= 0.0 and record.cpu_s >= 0.0

    def test_nesting_builds_paths(self):
        with obs.span("a"):
            with obs.span("b"):
                with obs.span("c"):
                    pass
        paths = {s.path for s in obs.get_registry().spans}
        assert {"a", "a/b", "a/b/c"} <= paths
        depths = {s.path: s.depth for s in obs.get_registry().spans}
        assert depths["a"] == 0 and depths["a/b/c"] == 2

    def test_exception_safety(self):
        with pytest.raises(ValueError):
            with obs.span("outer"):
                with obs.span("inner"):
                    raise ValueError("boom")
        spans = {s.path: s for s in obs.get_registry().spans}
        # Both spans completed, both carry the error, and the thread
        # stack fully unwound (a new span roots at depth 0 again).
        assert spans["outer"].error == "ValueError"
        assert spans["outer/inner"].error == "ValueError"
        with obs.span("after") as sp:
            pass
        assert sp.depth == 0

    def test_sibling_threads_have_independent_stacks(self):
        def worker(_):
            time.sleep(0.01)  # leave the helper time to take a shard
            with obs.span("shard", thread=threading.current_thread().name):
                return threading.current_thread().name

        caller = threading.current_thread().name
        with obs.span("caller"):
            names = parallel_map(worker, list(range(4)), 2)
        assert set(names) - {caller}  # a helper ran some shards
        shard_spans = [
            s for s in obs.get_registry().spans if s.name == "shard"
        ]
        assert len(shard_spans) == 4
        # Helper threads root their own stacks: no cross-thread nesting.
        # Shards the calling thread runs itself nest under its span.
        for s in shard_spans:
            on_caller = s.attrs["thread"] == caller
            assert s.depth == (1 if on_caller else 0)
            assert s.path == ("caller/shard" if on_caller else "shard")

    def test_summary_tree_renders(self):
        with obs.span("phase"):
            with obs.span("step"):
                pass
        obs.counter("demo.count").add(3)
        tree = obs.summary_tree()
        assert "phase" in tree and "step" in tree and "demo.count" in tree


class TestCounters:
    def test_thread_safety_under_parallel_map(self):
        counter = obs.counter("test.hammer")

        def hammer(_):
            for _ in range(1000):
                counter.add(1)

        parallel_map(hammer, list(range(8)), 4)
        assert counter.value == 8000

    def test_gauge_tracks_max(self):
        g = obs.gauge("test.gauge")
        g.set(3)
        g.set(1)
        assert g.value == 1 and g.max == 3

    def test_reset_keeps_counter_objects_live(self):
        c = obs.counter("test.persist")
        c.add(5)
        obs.reset()
        assert c.value == 0
        c.add(2)
        assert obs.get_registry().counters()["test.persist"] == 2


class TestDisabledMode:
    def test_spans_and_profiles_are_noops(self):
        with obs.enabled_scope(False):
            with obs.span("ghost") as sp:
                pass
            assert sp is obs.NOOP_SPAN
            obs.add_profile({"kind": "ghost"})
        snap = obs.get_registry().snapshot()
        assert snap["spans"] == []
        assert snap["profiles"] == []

    def test_forward_emits_no_profile_when_disabled(self):
        clear_table_cache()
        cfg = SCConfig(stream_length=32, stream_length_pooling=32)
        sim = SCConvSimulator((2, 1, 3, 3), cfg)
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (1, 1, 5, 5)).astype(np.float32)
        w = rng.uniform(-0.4, 0.4, (2, 1, 3, 3)).astype(np.float32)
        with obs.enabled_scope(False):
            y_off = sim(x, w)
        snap = obs.get_registry().snapshot()
        assert snap["profiles"] == []
        assert snap["spans"] == []
        assert snap["counters"].get("sc.kernels.calls", {"value": 0})[
            "value"
        ] == 0
        # Cache stats stay live (backward-compatible contract) and the
        # output is bit-identical to an instrumented run.
        from repro.scnn.sim import table_cache_stats

        assert table_cache_stats()["misses"] == 1
        y_on = sim(x, w)
        np.testing.assert_array_equal(y_off, y_on)
        assert len(obs.get_registry().profiles) == 1

    def test_layer_profile_recorded_when_enabled(self):
        clear_table_cache()
        cfg = SCConfig(stream_length=32, stream_length_pooling=32)
        sim = SCConvSimulator((2, 1, 3, 3), cfg)
        rng = np.random.default_rng(0)
        sim(
            rng.uniform(0, 1, (1, 1, 5, 5)).astype(np.float32),
            rng.uniform(-0.4, 0.4, (2, 1, 3, 3)).astype(np.float32),
        )
        profile = obs.get_registry().profiles[-1]
        assert profile["kind"] == "layer_forward"
        assert profile["kernel_shape"] == [2, 1, 3, 3]
        assert profile["mode"] == "pbw"
        assert profile["stream_length"] == 32
        assert profile["bytes_touched"] > 0
        assert profile["wall_s"] >= 0.0


class TestExporters:
    def _populate(self):
        with obs.span("root", tag="x"):
            with obs.span("leaf"):
                pass
        obs.counter("exp.count", unit="words").add(7)
        obs.gauge("exp.gauge").set(1.5)
        obs.add_profile({"kind": "demo", "value": 3})

    def test_jsonl_round_trip(self, tmp_path):
        self._populate()
        path = obs.write_jsonl(tmp_path / "t.jsonl")
        records = obs.read_jsonl(path)
        assert records["meta"][0]["enabled"] is True
        counters = {r["name"]: r for r in records["counter"]}
        assert counters["exp.count"]["value"] == 7
        assert counters["exp.count"]["unit"] == "words"
        gauges = {r["name"]: r for r in records["gauge"]}
        assert gauges["exp.gauge"]["value"] == 1.5
        spans = {r["path"]: r for r in records["span"]}
        assert spans["root"]["attrs"] == {"tag": "x"}
        assert spans["root/leaf"]["depth"] == 1
        assert records["profile"] == [{"kind": "demo", "value": 3}]

    def test_chrome_trace_round_trip(self, tmp_path):
        self._populate()
        path = obs.write_chrome_trace(tmp_path / "t.trace.json")
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"root", "leaf"}
        for event in complete:
            assert event["dur"] >= 0 and event["ts"] >= 0
        counter_events = [e for e in events if e["ph"] == "C"]
        assert any(e["name"] == "exp.count" for e in counter_events)

    def test_export_profile_writes_both(self, tmp_path):
        self._populate()
        jsonl, trace = obs.export_profile(tmp_path / "run1")
        assert jsonl.name == "run1.jsonl" and trace.name == "run1.trace.json"
        assert jsonl.exists() and trace.exists()
        # Suffixed inputs collapse onto the same base.
        jsonl2, _ = obs.export_profile(tmp_path / "run2.jsonl")
        assert jsonl2.name == "run2.jsonl"


class TestExecutorHistogram:
    def test_histogram_totals_match_cycle_totals(self):
        layers = cnn4_shapes(16)
        programs = compile_network(layers, GEO_ULP, STREAMS_32_64)
        for program in programs:
            state = Executor(GEO_ULP).run(program.instructions)
            trace_cycles = sum(ev.cycles for ev in state.trace)
            assert sum(state.cycle_histogram.values()) == trace_cycles
            assert state.trace_cycles == trace_cycles
            # The timeline differs from the executed-cycle total only by
            # the shadow prefetches that overlap generation for free.
            shadow = state.cycle_histogram.get("LD_SHADOW", 0)
            assert state.cycle == trace_cycles - shadow

    def test_histogram_mirrored_to_counters(self):
        layers = cnn4_shapes(16)
        program = compile_network(layers, GEO_ULP, STREAMS_32_64)[0]
        state = Executor(GEO_ULP).run(program.instructions)
        counters = obs.get_registry().counters()
        for name, cycles in state.cycle_histogram.items():
            assert counters[f"executor.cycles.{name}"] == cycles
        assert counters["executor.instructions"] == len(state.trace)


class TestParallelTelemetry:
    def test_shard_durations_and_utilization_recorded(self):
        parallel_map(lambda v: v * v, list(range(8)), 2)
        reg = obs.get_registry()
        counters = reg.counters()
        assert counters["parallel.tasks"] == 8
        assert counters["parallel.busy_seconds"] >= 0.0
        gauges = reg.gauges()
        assert 0.0 <= gauges["parallel.utilization"]["value"] <= 1.0
        assert gauges["parallel.shard_imbalance"]["value"] >= 1.0

    def test_serial_path_records_nothing(self):
        parallel_map(lambda v: v, [1, 2, 3], 1)
        # reset() zeroes counters in place, so the key may pre-exist at 0
        # from earlier tests; the serial path must not bump it.
        assert obs.get_registry().counters().get("parallel.tasks", 0) == 0


class TestHistogramQuantileEdges:
    def test_empty_histogram_has_no_percentile(self):
        hist = obs.histogram("edge.empty")
        assert hist.percentile(50) is None
        assert hist.percentile(99) is None

    def test_single_sample_every_quantile_is_that_sample(self):
        hist = obs.histogram("edge.single")
        hist.observe(42.0)
        for q in (0, 50, 95, 99, 100):
            assert hist.percentile(q) == pytest.approx(42.0)

    def test_all_equal_samples_collapse_to_that_value(self):
        hist = obs.histogram("edge.equal")
        for _ in range(100):
            hist.observe(7.0)
        for q in (50, 95, 99):
            assert hist.percentile(q) == pytest.approx(7.0)


class TestRollingWindow:
    def test_empty_snapshot_is_none_valued(self):
        window = obs.rolling("roll.empty")
        snap = window.snapshot()
        assert snap["count"] == 0
        assert snap["p50"] is None and snap["p99"] is None

    def test_single_sample(self):
        clock = iter([0.0, 0.1]).__next__
        window = obs.RollingWindow("roll.one", window_s=60.0, clock=clock)
        window.observe(5.0)
        snap = window.snapshot()
        assert snap["count"] == 1
        assert snap["p50"] == snap["p95"] == snap["p99"] == 5.0

    def test_all_equal(self):
        window = obs.rolling("roll.eq")
        for _ in range(50):
            window.observe(3.0)
        snap = window.snapshot()
        assert snap["p50"] == snap["p95"] == snap["p99"] == 3.0
        assert snap["mean"] == pytest.approx(3.0)

    def test_quantiles_nearest_rank(self):
        window = obs.rolling("roll.rank")
        for v in range(1, 101):  # 1..100
            window.observe(float(v))
        snap = window.snapshot()
        assert snap["p50"] == 50.0
        assert snap["p95"] == 95.0
        assert snap["p99"] == 99.0

    def test_samples_expire_with_the_window(self):
        now = {"t": 0.0}
        window = obs.RollingWindow(
            "roll.exp", window_s=10.0, clock=lambda: now["t"]
        )
        window.observe(100.0)
        now["t"] = 5.0
        window.observe(1.0)
        assert window.snapshot()["count"] == 2
        now["t"] = 11.0  # first sample (t=0) now older than 10s
        snap = window.snapshot()
        assert snap["count"] == 1
        assert snap["max"] == 1.0

    def test_concurrent_writers_lose_nothing(self):
        window = obs.rolling("roll.threads")
        per_thread = 500
        n_threads = 8

        def write(base):
            for i in range(per_thread):
                window.observe(float(base + i))

        threads = [
            threading.Thread(target=write, args=(t * per_thread,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = window.snapshot()
        # MAX_ROLLING_SAMPLES caps retention; everything retained must
        # be intact and the stats well-formed under the race.
        expected = min(per_thread * n_threads, window.maxlen)
        assert snap["count"] == expected
        assert snap["min"] >= 0.0
        assert snap["max"] <= per_thread * n_threads - 1
        assert snap["p50"] is not None

    def test_reset_clears(self):
        window = obs.rolling("roll.reset")
        window.observe(1.0)
        window.reset()
        assert window.snapshot()["count"] == 0


class TestPrometheusExposition:
    def test_render_and_parse_round_trip(self):
        obs.counter("prom.requests").add(5)
        obs.gauge("prom.depth").set(3)
        hist = obs.histogram("prom.lat", bounds=(1, 10, 100))
        for v in (0.5, 5.0, 50.0, 500.0):
            hist.observe(v)
        obs.rolling("prom.win").observe(7.0)
        families = obs.parse_prometheus(obs.render_prometheus())
        assert ("prom_requests_total" in families)
        assert dict_sample(families["prom_requests_total"]) == 5.0
        assert dict_sample(families["prom_depth"]) == 3.0
        buckets = {
            labels["le"]: value
            for labels, value in families["prom_lat_bucket"]
        }
        assert buckets["+Inf"] == 4.0  # cumulative
        assert buckets["10.0"] == 2.0
        assert dict_sample(families["prom_lat_count"]) == 4.0
        window = {
            labels["quantile"]: value
            for labels, value in families["prom_win_window"]
        }
        assert window["0.5"] == 7.0

    def test_label_escaping_survives_round_trip(self):
        extra = {
            "weird_family": {
                "type": "gauge",
                "help": "label escaping",
                "samples": [({"name": 'a"b\\c'}, 1.0)],
            }
        }
        families = obs.parse_prometheus(
            obs.render_prometheus(extra_families=extra)
        )
        labels, value = families["weird_family"][0]
        assert labels["name"] == 'a"b\\c'
        assert value == 1.0

    def test_malformed_exposition_raises(self):
        with pytest.raises(ValueError):
            obs.parse_prometheus("this is { not valid\n")

    def test_dropped_spans_surface_in_summary_and_metrics(self):
        registry = obs.get_registry()
        registry.dropped_spans = 7
        registry.dropped_profiles = 2
        tree = obs.summary_tree()
        assert "DROPPED: 7 spans, 2 profiles" in tree
        families = obs.parse_prometheus(obs.render_prometheus())
        assert dict_sample(families["obs_dropped_spans_total"]) == 7.0
        assert dict_sample(families["obs_dropped_profiles_total"]) == 2.0


def dict_sample(samples):
    """The value of a single-sample family."""
    assert len(samples) == 1
    return samples[0][1]
