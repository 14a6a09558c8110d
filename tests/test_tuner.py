"""Tests for the per-shape autotuner and plan cache (:mod:`repro.sc.tuner`).

The load-bearing guarantees: plans survive a disk round trip verbatim,
stale caches (schema version or kernel-code hash mismatch) are dropped
wholesale rather than half-applied, the tune-on-miss/hit-on-repeat
contract holds, and a tuned call returns bits identical to the untuned
one.
"""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sc import tuner
from repro.sc.kernels import DEFAULT_SLAB_BYTES, ExecPlan, fused_conv_counts
from repro.sc.rng import LFSRSource
from repro.scnn.sim import clear_table_cache, stream_table


@pytest.fixture(autouse=True)
def isolated_tuner_state():
    """Never touch the user's real plan cache or autotune default."""
    tuner.set_plan_cache(tuner.PlanCache(None))
    tuner.set_default_autotune(None)
    clear_table_cache()
    yield
    tuner.set_plan_cache(None)
    tuner.set_default_autotune(None)
    clear_table_cache()


def make_operands(n=2, cin=2, cout=3, k=3, p=10, bits=5, length=32, seed=0):
    rng = np.random.default_rng(seed)
    source = LFSRSource(bits)
    seeds = np.arange(1, 1 + cin * k * k + cout)
    table, unique = stream_table(source, bits, length, seeds, False)
    act_rows = np.searchsorted(unique, seeds[: cin * k * k].reshape(cin, k, k))
    cols = rng.integers(0, 1 << bits, size=(n, cin, k, k, p))
    wq = rng.integers(0, 1 << bits, size=(cout, cin, k, k))
    wrow = np.searchsorted(unique, seeds[cin * k * k:])
    wp = table[wrow[:, None, None, None] % table.shape[0], wq]
    wn = table[
        wrow[:, None, None, None] % table.shape[0], (wq + 3) % (1 << bits)
    ]
    return table, act_rows, cols, wp, wn


class TestExecPlan:
    def test_round_trip(self):
        plan = ExecPlan(
            slab_bytes=1 << 20,
            channel_block=4,
            spatial_chunk=32,
            path="sparse",
            layout="s_outer",
        )
        assert ExecPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecPlan.from_dict({"slab_bytes": 1024, "nope": 1})

    @pytest.mark.parametrize(
        "bad",
        (
            {"slab_bytes": 0},
            {"channel_block": 0},
            {"spatial_chunk": -1},
            {"path": "???"},
            {"layout": "???"},
        ),
    )
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            ExecPlan(**bad)


class TestPlanKey:
    def test_distinct_shapes_distinct_keys(self):
        a = tuner.plan_key("pbw", 2, 3, 3, 3, 4, 10, 1)
        b = tuner.plan_key("pbw", 2, 3, 3, 3, 4, 11, 1)
        assert a != b

    def test_lanes_distinct_keys(self):
        one = tuner.plan_key("pbw", 2, 3, 3, 3, 4, 10, 1)
        two = tuner.plan_key("pbw", 2, 3, 3, 3, 4, 10, 1, lanes=2)
        assert one != two

    def test_shards_distinct_keys(self):
        serial = tuner.plan_key("pbw", 2, 3, 3, 3, 4, 10, 1)
        sharded = tuner.plan_key("pbw", 2, 3, 3, 3, 4, 10, 1, shards=2)
        assert serial != sharded
        assert tuner.CACHE_VERSION == 3  # keys changed shape

    def test_density_buckets_quantize(self):
        low = tuner.plan_key("sc", 1, 1, 1, 1, 1, 1, 1, zero_frac=0.05)
        low2 = tuner.plan_key("sc", 1, 1, 1, 1, 1, 1, 1, zero_frac=0.2)
        high = tuner.plan_key("sc", 1, 1, 1, 1, 1, 1, 1, zero_frac=0.9)
        assert low == low2
        assert low != high


class TestPlanCache:
    def test_disk_round_trip(self, tmp_path):
        path = tmp_path / "plans.json"
        cache = tuner.PlanCache(path)
        plan = ExecPlan(slab_bytes=2048, channel_block=2, layout="s_outer")
        cache.store("k1", plan)
        fresh = tuner.PlanCache(path)
        assert fresh.lookup("k1") == plan
        assert fresh.hits == 1

    def test_memory_only_without_path(self):
        cache = tuner.PlanCache(None)
        cache.store("k", ExecPlan())
        assert cache.lookup("k") == ExecPlan()
        assert cache.path is None

    def test_version_mismatch_invalidates(self, tmp_path):
        path = tmp_path / "plans.json"
        tuner.PlanCache(path).store("k", ExecPlan())
        record = json.loads(path.read_text())
        record["version"] = tuner.CACHE_VERSION + 1
        path.write_text(json.dumps(record))
        assert tuner.PlanCache(path).lookup("k") is None

    def test_kernel_hash_mismatch_invalidates(self, tmp_path):
        path = tmp_path / "plans.json"
        tuner.PlanCache(path).store("k", ExecPlan())
        record = json.loads(path.read_text())
        record["kernel_hash"] = "0" * 16
        path.write_text(json.dumps(record))
        assert tuner.PlanCache(path).lookup("k") is None

    def test_corrupt_file_ignored(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text("{not json")
        cache = tuner.PlanCache(path)
        assert cache.lookup("k") is None
        assert cache.misses == 1

    def test_bad_plan_entry_skipped(self, tmp_path):
        path = tmp_path / "plans.json"
        cache = tuner.PlanCache(path)
        cache.store("good", ExecPlan(channel_block=2))
        record = json.loads(path.read_text())
        record["plans"]["bad"] = {"slab_bytes": 0}
        path.write_text(json.dumps(record))
        fresh = tuner.PlanCache(path)
        assert fresh.lookup("good") == ExecPlan(channel_block=2)
        assert fresh.lookup("bad") is None

    def test_clear_disk(self, tmp_path):
        path = tmp_path / "plans.json"
        cache = tuner.PlanCache(path)
        cache.store("k", ExecPlan())
        cache.clear(disk=True)
        assert not path.exists()
        assert len(cache) == 0


class TestAutotuneSwitch:
    def test_explicit_wins(self):
        tuner.set_default_autotune(False)
        assert tuner.autotune_enabled(True) is True
        assert tuner.autotune_enabled(False) is False

    def test_process_default(self):
        tuner.set_default_autotune(True)
        assert tuner.autotune_enabled(None) is True
        tuner.set_default_autotune(False)
        assert tuner.autotune_enabled(None) is False

    def test_env_fallback(self, monkeypatch):
        tuner.set_default_autotune(None)
        monkeypatch.delenv("REPRO_AUTOTUNE", raising=False)
        assert tuner.autotune_enabled(None) is False
        monkeypatch.setenv("REPRO_AUTOTUNE", "1")
        assert tuner.autotune_enabled(None) is True
        monkeypatch.setenv("REPRO_AUTOTUNE", "off")
        assert tuner.autotune_enabled(None) is False


class TestCandidatePlans:
    def test_souter_only_for_natural_modes(self):
        apc = tuner.candidate_plans(mode="apc")
        pbhw = tuner.candidate_plans(mode="pbhw")
        assert not any(p.layout == "s_outer" for p in apc)
        assert any(p.layout == "s_outer" for p in pbhw)

    def test_sparse_candidates_gated_on_density(self):
        dense_only = tuner.candidate_plans(zero_frac=0.0, mode="fxp")
        with_sparse = tuner.candidate_plans(zero_frac=0.8, mode="fxp")
        assert not any(p.path == "sparse" for p in dense_only)
        assert any(p.path == "sparse" for p in with_sparse)

    def test_all_candidates_valid_plans(self):
        for plan in tuner.candidate_plans(zero_frac=0.9):
            assert ExecPlan.from_dict(plan.to_dict()) == plan


class TestPlanFor:
    def test_miss_tunes_then_hits(self):
        cache = tuner.get_plan_cache()
        operands = make_operands()
        plan1 = tuner.plan_for(*operands, "pbw")
        assert cache.misses == 1 and cache.tunes == 1
        plan2 = tuner.plan_for(*operands, "pbw")
        assert cache.hits == 1 and cache.tunes == 1
        assert plan1 == plan2

    def test_tuned_call_bit_identical(self):
        operands = make_operands()
        for mode in ("sc", "pbw", "pbhw", "fxp", "apc"):
            base = fused_conv_counts(*operands, mode, autotune=False)
            tuned = fused_conv_counts(*operands, mode, autotune=True)
            again = fused_conv_counts(*operands, mode, autotune=True)
            np.testing.assert_array_equal(tuned, base)
            np.testing.assert_array_equal(again, base)

    def test_distinct_density_buckets_tune_separately(self):
        table, act_rows, cols, wp, wn = make_operands()
        cache = tuner.get_plan_cache()
        tuner.plan_for(table, act_rows, cols, wp, wn, "pbw", zero_frac=0.0)
        tuner.plan_for(table, act_rows, cols, wp, wn, "pbw", zero_frac=0.95)
        assert cache.tunes == 2
        assert len(cache) == 2

    def test_lane_counts_tune_separately(self):
        # Lengths 32 and 64 both fit one word, but only 32 runs two lanes
        # per word: a plan tuned for one shape must not serve the other.
        cache = tuner.get_plan_cache()
        tuner.plan_for(*make_operands(length=32), "pbw", length=32)
        tuner.plan_for(*make_operands(length=64), "pbw", length=64)
        assert cache.tunes == 2
        assert len(cache) == 2

    def test_shard_counts_tune_separately(self):
        cache = tuner.get_plan_cache()
        operands = make_operands()
        tuner.plan_for(*operands, "pbw", workers=1)
        tuner.plan_for(*operands, "pbw", workers=2)
        tuner.plan_for(*operands, "pbw", workers=2)
        assert cache.tunes == 2
        assert len(cache) == 2

    def test_tuned_two_lane_call_bit_identical(self):
        operands = make_operands()
        for mode in ("sc", "pbw", "pbhw", "fxp", "apc"):
            base = fused_conv_counts(*operands, mode, autotune=False)
            tuned = fused_conv_counts(
                *operands, mode, autotune=True, length=32
            )
            np.testing.assert_array_equal(tuned, base)

    def test_tune_seeded_per_key(self):
        # Same key -> same candidate ordering -> deterministic given
        # deterministic timings; at minimum the chosen plan must be a
        # member of the candidate set.
        operands = make_operands()
        plan = tuner.plan_for(*operands, "apc")
        assert plan in tuner.candidate_plans(zero_frac=0.0, mode="apc")


class TestKernelCodeHash:
    def test_stable_and_short(self):
        a = tuner.kernel_code_hash()
        assert a == tuner.kernel_code_hash()
        assert len(a) == 16


class TestFusedIntegration:
    def test_autotune_flag_routes_through_tuner(self):
        operands = make_operands()
        cache = tuner.get_plan_cache()
        fused_conv_counts(*operands, "pbhw", autotune=True)
        assert cache.misses == 1
        fused_conv_counts(*operands, "pbhw", autotune=True)
        assert cache.hits == 1

    def test_autotune_false_never_touches_cache(self):
        operands = make_operands()
        tuner.set_default_autotune(True)
        cache = tuner.get_plan_cache()
        fused_conv_counts(*operands, "pbhw", autotune=False)
        assert cache.misses == 0 and cache.hits == 0

    def test_explicit_plan_bypasses_tuner(self):
        operands = make_operands()
        tuner.set_default_autotune(True)
        cache = tuner.get_plan_cache()
        fused_conv_counts(*operands, "pbhw", plan=ExecPlan())
        assert cache.misses == 0 and cache.hits == 0

    def test_default_slab_bytes_used_when_plan_cache_empty(self):
        # The historical slab_bytes override path must keep working.
        operands = make_operands()
        a = fused_conv_counts(*operands, "pbw", autotune=False)
        b = fused_conv_counts(
            *operands, "pbw", autotune=False,
            slab_bytes=DEFAULT_SLAB_BYTES // 4,
        )
        np.testing.assert_array_equal(a, b)


class TestConfigKnob:
    def test_config_round_trip_and_default(self):
        from repro.scnn.config import SCConfig

        assert SCConfig().autotune is False
        cfg = SCConfig(autotune=True)
        assert SCConfig.from_dict(cfg.to_dict()) == cfg

    def test_simulator_autotuned_matches_reference(self):
        from repro.scnn.config import SCConfig
        from repro.scnn.sim import SCConvSimulator

        rng = np.random.default_rng(31)
        x = rng.uniform(0, 1, size=(2, 3, 6, 6)).astype(np.float32)
        w = rng.uniform(-0.4, 0.4, size=(4, 3, 3, 3)).astype(np.float32)
        cfg = SCConfig(
            stream_length=32, stream_length_pooling=32, accumulation="pbhw"
        )
        ref = SCConvSimulator((4, 3, 3, 3), cfg.with_(engine="reference"))(x, w)
        tuned = SCConvSimulator((4, 3, 3, 3), cfg.with_(autotune=True))(x, w)
        np.testing.assert_array_equal(ref, tuned)
        assert tuner.get_plan_cache().tunes > 0

    def test_autotune_is_execution_knob(self):
        # Flipping autotune must be a reconfigure-in-place knob (like
        # engine/num_workers), not one that invalidates seed plans or
        # stream tables.
        from repro.scnn.sim import _EXECUTION_KNOBS

        assert "autotune" in _EXECUTION_KNOBS
