"""Tests for the bit-true SC convolution simulator."""

import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.scnn.config import SCConfig
from repro.scnn.sim import (
    SCConvSimulator,
    SCLinearSimulator,
    clear_table_cache,
    stream_table,
)
from repro.sc.rng import LFSRSource


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_table_cache()
    yield
    clear_table_cache()


def make_inputs(seed=0, n=2, cin=3, size=6, cout=4, k=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, cin, size, size)).astype(np.float32)
    w = rng.uniform(-0.4, 0.4, size=(cout, cin, k, k)).astype(np.float32)
    return x, w


class TestStreamTable:
    def test_table_shape(self):
        src = LFSRSource(5)
        table, unique = stream_table(src, 5, 32, np.array([3, 7, 3]), False)
        assert unique.tolist() == [3, 7]
        assert table.shape == (2, 32, 1)

    def test_table_counts_match_values(self):
        # Over a full period the row for value q holds exactly q ones.
        src = LFSRSource(5)
        table, unique = stream_table(src, 5, 31, np.array([1]), False)
        from repro.utils.bitops import popcount_packed

        counts = popcount_packed(table[0])
        np.testing.assert_array_equal(counts, np.arange(32))

    def test_lfsr_table_cached(self):
        src = LFSRSource(5)
        a, _ = stream_table(src, 5, 32, np.array([1, 2]), False)
        b, _ = stream_table(src, 5, 32, np.array([1, 2]), False)
        assert a is b

    @pytest.mark.parametrize("progressive", [False, True])
    def test_build_peak_is_bounded_by_the_table(self, progressive):
        # The serving CNN-4's output layer: 7 bits, length 128, 762
        # seeds. An alphabet-wide comparison peaks at 82x (plain) and
        # 146x (progressive) the table's bytes.
        seeds = np.arange(762) * 3
        tracemalloc.start()
        try:
            table, _ = stream_table(LFSRSource(7), 7, 128, seeds, progressive)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.shape == (762, 128, 2)
        assert peak <= 4 * table.nbytes


_FAULT_PROBE = textwrap.dedent(
    """
    import resource

    import numpy as np

    from repro.models import lenet5_sc
    from repro.scnn.config import SCConfig
    from repro.serve.registry import ModelRegistry

    cfg = SCConfig(stream_length=64, stream_length_pooling=32)
    entry = ModelRegistry().register("lenet5", lenet5_sc(cfg), (1, 28, 28))
    x = np.random.default_rng(0).uniform(0, 1, (1, 1, 28, 28)).astype("f4")
    entry.forward(x, tier=0)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        entry.forward(x, tier=0)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    print((after - before) / 20)
    """
)


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="pins glibc malloc thresholds"
)
def test_steady_serving_forwards_do_not_page_fault():
    # A fresh process registers LeNet-5 (warming every tier), then
    # runs batch-1 forwards, which must reuse heap memory. Left to
    # glibc's dynamic rule, the mmap and trim thresholds stay at a few
    # MB, and each forward hands ~10 MB back to the kernel and faults
    # ~2,400 pages in again.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    faults_per_forward = float(proc.stdout.split()[-1])
    assert faults_per_forward < 100


_ARENA_PROBE = textwrap.dedent(
    """
    import threading

    import numpy as np

    from repro.models import cnn4_sc
    from repro.scnn.config import SCConfig
    from repro.serve.registry import ModelRegistry

    def hwm_kb():
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])

    cfg = SCConfig(stream_length=64, stream_length_pooling=32)
    model = cnn4_sc(cfg, in_channels=3, input_size=32, width_mult=0.5)
    entry = ModelRegistry().register("cnn4", model, (3, 32, 32))
    x = np.random.default_rng(0).uniform(0, 1, (8, 3, 32, 32)).astype("f4")
    for _ in range(3):
        entry.forward(x, tier=0)
    before = hwm_kb()
    release = threading.Event()

    def serve(done):
        entry.forward(x, tier=0)
        done.set()
        release.wait()

    threads = []
    for _ in range(2):
        done = threading.Event()
        thread = threading.Thread(target=serve, args=(done,))
        thread.start()
        done.wait()
        threads.append(thread)
    release.set()
    for thread in threads:
        thread.join()
    print((hwm_kb() - before) / 1024)
    """
)


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="pins glibc's arena count"
)
def test_forwards_on_new_threads_reuse_the_heap():
    # After three main-thread forwards, two more run on two live
    # threads in turn, as serving dispatch threads do. With one malloc
    # arena per thread, each thread's forward faulted in its own copy
    # of the scratch (and kept it), so a process's peak depended on
    # which threads happened to run forwards.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-c", _ARENA_PROBE],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    growth_mb = float(proc.stdout.split()[-1])
    assert growth_mb < 2.0


class TestSCConvSimulator:
    def test_forward_peak_is_below_the_int64_columns(self):
        # CNN-4 (w0.5)'s second conv at serving batch 8. The unrolled
        # activation levels and the kernel's grouped copy of them are
        # a forward's largest temporaries: held as int64 they peaked at
        # 3x the int64 columns' bytes (19.6 MB).
        x, w = make_inputs(seed=12, n=8, cin=16, size=16, cout=16, k=5)
        cfg = SCConfig(
            stream_length=32, stream_length_pooling=32, num_workers=1
        )
        sim = SCConvSimulator((16, 16, 5, 5), cfg, padding=2)
        expected = sim(x, w)  # builds and caches the stream table
        tracemalloc.start()
        try:
            out = sim(x, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(out, expected)
        columns = x.size * 5 * 5 * 8  # (N, Cin, KH, KW, OH, OW) int64
        assert peak < columns

    def test_output_shape(self):
        x, w = make_inputs()
        cfg = SCConfig(stream_length=32, stream_length_pooling=32)
        sim = SCConvSimulator((4, 3, 3, 3), cfg)
        assert sim(x, w).shape == (2, 4, 4, 4)

    def test_fxp_converges_to_linear_conv(self):
        # FXP accumulation is an unbiased estimate of the linear conv;
        # at 256-bit streams the error must be small.
        x, w = make_inputs(seed=1)
        cfg = SCConfig(
            stream_length=256, stream_length_pooling=256, accumulation="fxp"
        )
        sim = SCConvSimulator((4, 3, 3, 3), cfg)
        y = sim(x, w)
        y_fp = F.conv2d(Tensor(x), Tensor(w)).data
        assert np.abs(y - y_fp).mean() < 0.06

    def test_accumulation_mode_ordering(self):
        # Counts can only grow as more accumulation moves to fixed point.
        x, w = make_inputs(seed=2)
        w = np.abs(w)  # positive weights isolate the pos channel
        outs = {}
        for mode in ("sc", "pbw", "pbhw", "fxp"):
            cfg = SCConfig(
                stream_length=64, stream_length_pooling=64, accumulation=mode
            )
            outs[mode] = SCConvSimulator((4, 3, 3, 3), cfg)(x, w)
        assert np.all(outs["sc"] <= outs["pbw"] + 1e-6)
        assert np.all(outs["pbw"] <= outs["pbhw"] + 1e-6)
        assert np.all(outs["pbhw"] <= outs["fxp"] + 1e-6)

    def test_sc_mode_saturates_at_one(self):
        x, w = make_inputs(seed=3)
        w = np.abs(w)
        cfg = SCConfig(stream_length=64, stream_length_pooling=64, accumulation="sc")
        y = SCConvSimulator((4, 3, 3, 3), cfg)(x, w)
        assert y.max() <= 1.0 + 1e-6

    def test_lfsr_deterministic_across_calls(self):
        x, w = make_inputs(seed=4)
        cfg = SCConfig(stream_length=32, stream_length_pooling=32)
        sim = SCConvSimulator((4, 3, 3, 3), cfg)
        np.testing.assert_array_equal(sim(x, w), sim(x, w))

    def test_trng_varies_across_calls(self):
        x, w = make_inputs(seed=5)
        cfg = SCConfig(
            stream_length=32, stream_length_pooling=32, rng_kind="trng"
        )
        sim = SCConvSimulator((4, 3, 3, 3), cfg)
        assert not np.array_equal(sim(x, w), sim(x, w))

    def test_progressive_close_to_normal(self):
        # Progressive loading perturbs only the first few cycles, so at
        # 128-bit streams the outputs stay close (paper: -0.42% worst
        # case at 32 bits on a whole network).
        x, w = make_inputs(seed=6)
        base = SCConfig(stream_length=128, stream_length_pooling=128)
        y_normal = SCConvSimulator((4, 3, 3, 3), base)(x, w)
        y_prog = SCConvSimulator(
            (4, 3, 3, 3), base.with_(progressive=True)
        )(x, w)
        assert np.abs(y_normal - y_prog).mean() < 0.05

    def test_extreme_sharing_biases_or_accumulation(self):
        # Extreme sharing correlates the product streams that meet at the
        # same OR gate, so OR degenerates toward max() and the output
        # collapses far below the independent-stream OR expectation —
        # the Fig. 1 collapse mechanism. FXP accumulation is immune
        # (per-product estimates stay unbiased), so we compare OR outputs
        # against the independent-OR expectation.
        from repro.sc.accumulate import expected_accumulate
        from repro.nn.functional import im2col

        x, w = make_inputs(seed=7)
        w = np.abs(w)
        cols = im2col(x, 3, 3, 1, 0)  # (N, C, KH, KW, OH, OW)
        probs = np.einsum(
            "nijkhw,oijk->nohwijk", cols, w
        )  # products per (n, cout, oh, ow, cin, kh, kw)
        expected = expected_accumulate(probs, "sc")
        errs = {}
        for sharing in ("moderate", "extreme"):
            cfg = SCConfig(
                stream_length=128,
                stream_length_pooling=128,
                accumulation="sc",
                sharing=sharing,
            )
            y = SCConvSimulator((4, 3, 3, 3), cfg)(x, w)
            errs[sharing] = np.abs(y - expected).mean()
        assert errs["extreme"] > 1.5 * errs["moderate"]

    def test_input_validation(self):
        cfg = SCConfig(stream_length=32, stream_length_pooling=32)
        sim = SCConvSimulator((4, 3, 3, 3), cfg)
        with pytest.raises(ShapeError):
            sim(np.zeros((2, 5, 6, 6)), np.zeros((4, 3, 3, 3)))
        with pytest.raises(ShapeError):
            sim(np.zeros((2, 3, 6, 6)), np.zeros((4, 3, 5, 5)))

    def test_batch_chunking_is_transparent(self):
        x, w = make_inputs(seed=8, n=5)
        big = SCConfig(stream_length=32, stream_length_pooling=32, batch_chunk=16)
        small = big.with_(batch_chunk=2)
        ya = SCConvSimulator((4, 3, 3, 3), big)(x, w)
        yb = SCConvSimulator((4, 3, 3, 3), small)(x, w)
        np.testing.assert_array_equal(ya, yb)


class TestSCLinearSimulator:
    def test_output_shape(self):
        cfg = SCConfig(stream_length=64, stream_length_pooling=64)
        sim = SCLinearSimulator(16, 5, cfg)
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(3, 16)).astype(np.float32)
        w = rng.uniform(-0.4, 0.4, size=(5, 16)).astype(np.float32)
        assert sim(x, w).shape == (3, 5)

    def test_fxp_converges_to_dot(self):
        cfg = SCConfig(
            stream_length=256, stream_length_pooling=256, accumulation="fxp"
        )
        sim = SCLinearSimulator(8, 3, cfg)
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(4, 8)).astype(np.float32)
        w = rng.uniform(-0.5, 0.5, size=(3, 8)).astype(np.float32)
        y = sim(x, w)
        np.testing.assert_allclose(y, x @ w.T, atol=0.15)

    def test_group_selection_divides(self):
        cfg = SCConfig(stream_length=64, stream_length_pooling=64)
        # 84 features: the widest divisor <= 8 is 7.
        sim = SCLinearSimulator(84, 10, cfg)
        assert sim.binary_groups == 7
        assert 84 % sim.binary_groups == 0

    def test_sc_mode_single_group(self):
        cfg = SCConfig(
            stream_length=64, stream_length_pooling=64, accumulation="sc"
        )
        assert SCLinearSimulator(84, 10, cfg).binary_groups == 1

    def test_fxp_mode_every_feature(self):
        cfg = SCConfig(
            stream_length=64, stream_length_pooling=64, accumulation="fxp"
        )
        assert SCLinearSimulator(84, 10, cfg).binary_groups == 84


class TestTableCacheLRU:
    """Stream-table cache eviction (satellite: LRU + hit/miss stats)."""

    def test_hit_and_miss_counters(self):
        from repro.scnn.sim import table_cache_stats

        src = LFSRSource(5)
        assert table_cache_stats()["misses"] == 0
        stream_table(src, 5, 32, np.array([1, 2]), False)
        stats = table_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 0
        stream_table(src, 5, 32, np.array([1, 2]), False)
        stats = table_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert stats["size"] == 1

    def test_nondeterministic_sources_bypass_cache(self):
        from repro.sc.rng import TRNGSource
        from repro.scnn.sim import table_cache_stats

        src = TRNGSource(5, root_seed=9)
        stream_table(src, 5, 32, np.array([1]), False)
        stats = table_cache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 0
        assert stats["size"] == 0

    def test_lru_evicts_oldest_not_everything(self, monkeypatch):
        from repro.scnn import sim as sim_module

        monkeypatch.setattr(sim_module, "_TABLE_CACHE_LIMIT", 2)
        src = LFSRSource(5)
        a1, _ = stream_table(src, 5, 32, np.array([1]), False)
        b1, _ = stream_table(src, 5, 32, np.array([2]), False)
        # Touch A so B becomes least-recently-used.
        a2, _ = stream_table(src, 5, 32, np.array([1]), False)
        assert a2 is a1
        # Inserting C must evict only B; A survives (the pre-fix code
        # cleared the whole cache on overflow).
        stream_table(src, 5, 32, np.array([3]), False)
        a3, _ = stream_table(src, 5, 32, np.array([1]), False)
        assert a3 is a1
        b2, _ = stream_table(src, 5, 32, np.array([2]), False)
        assert b2 is not b1
        stats = sim_module.table_cache_stats()
        assert stats["evictions"] >= 1
        assert stats["size"] <= 2

    def test_clear_resets_stats(self):
        from repro.scnn.sim import table_cache_stats

        src = LFSRSource(5)
        stream_table(src, 5, 32, np.array([4]), False)
        clear_table_cache()
        stats = table_cache_stats()
        assert stats == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "size": 0,
            "capacity": stats["capacity"],
            "bytes": 0,
        }

    def test_bytes_resident_tracks_tables(self, monkeypatch):
        from repro.scnn import sim as sim_module

        monkeypatch.setattr(sim_module, "_TABLE_CACHE_LIMIT", 2)
        src = LFSRSource(5)
        table_a, _ = stream_table(src, 5, 32, np.array([1]), False)
        assert sim_module.table_cache_stats()["bytes"] == table_a.nbytes
        table_b, _ = stream_table(src, 5, 32, np.array([2, 3]), False)
        two = sim_module.table_cache_stats()["bytes"]
        assert two == table_a.nbytes + table_b.nbytes
        # Eviction releases the evicted table's bytes, not everything.
        stream_table(src, 5, 32, np.array([4]), False)
        stats = sim_module.table_cache_stats()
        assert stats["evictions"] == 1
        assert 0 < stats["bytes"] < two + table_a.nbytes


class TestLinearGroupFolding:
    """SCLinearSimulator folds the feature axis into a conv kernel;
    these pin down that the folding preserves the per-feature streams."""

    def test_fxp_full_groups_match_exact_dot(self):
        # binary_groups == in_features puts every product in fixed
        # point; the output must equal the dot product computed
        # feature by feature straight from the stream tables.
        from repro.sc.formats import quantize_unipolar
        from repro.scnn.sim import _build_source
        from repro.utils.bitops import popcount_packed

        f, fout, n = 6, 3, 4
        cfg = SCConfig(
            stream_length=64, stream_length_pooling=64, accumulation="fxp"
        )
        sim = SCLinearSimulator(f, fout, cfg, binary_groups=f)
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=(n, f)).astype(np.float32)
        w = rng.uniform(-0.5, 0.5, size=(fout, f)).astype(np.float32)
        y = sim(x, w)

        conv = sim._conv
        bits, length = conv.bits, conv.length
        source = _build_source(conv.cfg, bits, conv.layer_index, 0)
        all_seeds = np.concatenate(
            [conv.plan.weight_seeds.ravel(), conv.plan.act_seeds.ravel()]
        )
        table, unique = stream_table(
            source, bits, length, all_seeds, conv.cfg.progressive
        )
        act_seeds = np.broadcast_to(
            conv.plan.act_seeds, (1, 1, f)
        ).reshape(f)
        w_seeds = np.broadcast_to(
            conv.plan.weight_seeds, (fout, 1, 1, f)
        ).reshape(fout, f)
        qa = quantize_unipolar(x, bits)
        wc = np.clip(w, -1.0, 1.0)
        qp = quantize_unipolar(np.maximum(wc, 0.0), bits)
        qn = quantize_unipolar(np.maximum(-wc, 0.0), bits)
        sa = table[np.searchsorted(unique, act_seeds)[None, :], qa]
        sp = table[np.searchsorted(unique, w_seeds), qp]
        sn = table[np.searchsorted(unique, w_seeds), qn]
        expected = np.empty((n, fout), dtype=np.float32)
        for i in range(n):
            for o in range(fout):
                total = 0
                for j in range(f):
                    total += int(
                        popcount_packed((sa[i, j] & sp[o, j])[None])[0]
                    )
                    total -= int(
                        popcount_packed((sa[i, j] & sn[o, j])[None])[0]
                    )
                expected[i, o] = np.float32(total / length)
        np.testing.assert_array_equal(y, expected)

    def test_pbw_default_groups_equal_explicit(self):
        # The default PBW group choice for 16 features is 8; asking for
        # it explicitly must be bit-identical to the default.
        cfg = SCConfig(
            stream_length=64, stream_length_pooling=64, accumulation="pbw"
        )
        auto = SCLinearSimulator(16, 5, cfg)
        assert auto.binary_groups == 8
        explicit = SCLinearSimulator(16, 5, cfg, binary_groups=8)
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, size=(3, 16)).astype(np.float32)
        w = rng.uniform(-0.5, 0.5, size=(5, 16)).astype(np.float32)
        np.testing.assert_array_equal(auto(x, w), explicit(x, w))

    def test_pbw_default_groups_equal_explicit_across_engines(self):
        cfg = SCConfig(
            stream_length=64, stream_length_pooling=64, accumulation="pbw"
        )
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, size=(2, 12)).astype(np.float32)
        w = rng.uniform(-0.5, 0.5, size=(4, 12)).astype(np.float32)
        outs = []
        for engine in ("fused", "reference"):
            for groups in (None, 6):
                sim = SCLinearSimulator(
                    12, 4, cfg.with_(engine=engine), binary_groups=groups
                )
                assert sim.binary_groups == 6
                outs.append(sim(x, w))
        for other in outs[1:]:
            np.testing.assert_array_equal(outs[0], other)


class TestKernelStatsAttribution:
    """Per-layer kernel stats come from each forward's own fused calls,
    so concurrent forwards of different layers never see each other's
    stats (process-global state would)."""

    _STAT_KEYS = ("kernel_layout", "lanes", "shards")

    def _layers(self):
        rng = np.random.default_rng(5)
        layers = []
        # FXP runs the product-count tables, PBHW the s_outer sweep, so
        # the two layers' stats differ.
        for index, (mode, cin, size) in enumerate(
            (("fxp", 4, 12), ("pbhw", 2, 10))
        ):
            x = rng.uniform(0, 1, size=(4, cin, size, size)).astype(np.float32)
            w = rng.uniform(-0.4, 0.4, size=(5, cin, 3, 3)).astype(np.float32)
            # An explicit shard count: concurrent calls split the default
            # share, so their shards would differ from the serial run's.
            cfg = SCConfig(
                stream_length=32, stream_length_pooling=32,
                accumulation=mode, num_workers=2,
            )
            layers.append(
                (SCConvSimulator((5, cin, 3, 3), cfg, layer_index=index), x, w)
            )
        return layers

    def _stats(self, kind):
        """``{layer_index: {stats tuple}}`` from profiles or spans."""
        from repro import obs

        reg = obs.get_registry()
        if kind == "profile":
            records = [(r["layer_index"], r) for r in reg.profiles]
        else:
            records = [
                (s.attrs["layer"], s.attrs)
                for s in reg.spans
                if s.name == "scnn.conv_forward"
            ]
        by_layer = {}
        for layer, rec in records:
            stats = tuple(rec[name] for name in self._STAT_KEYS)
            by_layer.setdefault(layer, set()).add(stats)
        return by_layer

    def test_concurrent_forwards_match_serial_stats(self):
        import threading

        from repro import obs

        layers = self._layers()
        obs.reset()
        for sim, x, w in layers:
            sim(x, w)
        serial = {kind: self._stats(kind) for kind in ("profile", "span")}
        assert all(len(stats) == 1 for stats in serial["profile"].values())
        first, second = (next(iter(serial["profile"][i])) for i in (0, 1))
        assert first[:2] == ("table", 2)
        assert second[:2] == ("s_outer", 2)

        obs.reset()
        barrier = threading.Barrier(len(layers))

        def forward(sim, x, w):
            barrier.wait(timeout=60)
            for _ in range(3):
                sim(x, w)

        threads = [
            threading.Thread(target=forward, args=layer) for layer in layers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        for kind in ("profile", "span"):
            assert self._stats(kind) == serial[kind]

    def test_profile_reports_resolved_shards(self):
        """The profile and span carry the shard count each call ran as,
        not the ``num_workers`` knob (which reads 0 under auto)."""
        from unittest import mock

        from repro import obs
        from repro.utils import parallel

        rng = np.random.default_rng(9)
        x = rng.uniform(0.2, 1, size=(2, 3, 8, 8)).astype(np.float32)
        w = rng.uniform(-0.4, 0.4, size=(4, 3, 3, 3)).astype(np.float32)
        cfg = SCConfig(stream_length=32, stream_length_pooling=32)
        with mock.patch.object(parallel, "cpu_count", return_value=2):
            for workers, engine, want in (
                (0, "fused", 2), (1, "fused", 1), (0, "reference", None)
            ):
                obs.reset()
                sim = SCConvSimulator(
                    (4, 3, 3, 3), cfg.with_(num_workers=workers, engine=engine)
                )
                sim(x, w)
                reg = obs.get_registry()
                (profile,) = reg.profiles
                assert "workers" not in profile
                assert profile["shards"] == want
                (span,) = [s for s in reg.spans if s.name == "scnn.conv_forward"]
                assert span.attrs.get("shards") == want

    def test_all_zero_chunk_reads_mixed(self):
        """A batch chunk of all-zero activations runs no kernel
        (``layout=None``, ``lanes=0``, ``shards=0``), so a forward that
        also runs a kernel reads ``"mixed"`` for every kernel stat,
        whichever chunk comes first."""
        from repro import obs

        rng = np.random.default_rng(11)
        x = rng.uniform(0.2, 1, size=(2, 3, 8, 8)).astype(np.float32)
        x[0] = 0.0
        w = rng.uniform(-0.4, 0.4, size=(4, 3, 3, 3)).astype(np.float32)
        cfg = SCConfig(
            stream_length=32, stream_length_pooling=32, batch_chunk=1,
            num_workers=1,
        )
        for batch in (x, x[::-1].copy()):
            obs.reset()
            SCConvSimulator((4, 3, 3, 3), cfg)(batch, w)
            (profile,) = obs.get_registry().profiles
            assert [profile[k] for k in self._STAT_KEYS] == ["mixed"] * 3


class TestResolvedSeedRows:
    """Each seed plan is resolved to its stream-table rows once, when
    the plan is built; forwards only read them."""

    SHAPE = (4, 3, 3, 3)

    def _cfg(self, **kwargs):
        return SCConfig(stream_length=32, stream_length_pooling=32, **kwargs)

    def test_stream_table_receives_the_plans_unique_seeds(self, monkeypatch):
        import repro.scnn.sim as sim_module

        seen = []

        def recorder(source, bits, length, seeds, progressive):
            seen.append(np.array(seeds))
            return stream_table(source, bits, length, seeds, progressive)

        monkeypatch.setattr(sim_module, "stream_table", recorder)
        sim = SCConvSimulator(self.SHAPE, self._cfg())
        x, w = make_inputs(seed=13)
        sim(x, w)
        sim(x, w)
        plan = sim.plan
        raw = plan.weight_seeds.size + plan.act_seeds.size
        unique = np.unique(
            np.concatenate([plan.weight_seeds.ravel(), plan.act_seeds.ravel()])
        )
        assert unique.size < raw  # moderate sharing reuses seeds
        assert len(seen) == 2
        for seeds in seen:
            np.testing.assert_array_equal(seeds, unique)

    @pytest.mark.parametrize("rng_kind", ["lfsr", "trng"])
    def test_reconfigured_forward_equals_a_fresh_simulator(self, rng_kind):
        cfg = self._cfg(rng_kind=rng_kind)
        sim = SCConvSimulator(self.SHAPE, cfg, padding=1)
        x, w = make_inputs(seed=14)
        for length in (32, 8, 32, 128):
            sim.reconfigure(stream_length=length, stream_length_pooling=length)
            fresh = SCConvSimulator(
                self.SHAPE,
                cfg.with_(stream_length=length, stream_length_pooling=length),
                padding=1,
            )
            fresh.set_call_index(sim.call_index)
            np.testing.assert_array_equal(sim(x, w), fresh(x, w))

    def test_pickled_simulator_gives_identical_outputs(self):
        import pickle

        sim = SCConvSimulator(self.SHAPE, self._cfg(rng_kind="trng"))
        sim.reconfigure(stream_length=16, stream_length_pooling=16)
        x, w = make_inputs(seed=15)
        sim(x, w)
        copy = pickle.loads(pickle.dumps(sim))
        assert copy.call_index == sim.call_index
        np.testing.assert_array_equal(copy(x, w), sim(x, w))
        for target in (sim, copy):
            target.reconfigure(stream_length=32, stream_length_pooling=32)
        np.testing.assert_array_equal(copy(x, w), sim(x, w))

    def test_weight_rows_are_narrow_and_read_only(self):
        sim = SCConvSimulator(self.SHAPE, self._cfg())
        rows = sim._state.rows
        assert rows.weight_rows.dtype == np.uint8
        for array in (rows.seeds, rows.weight_rows, rows.act_rows):
            assert not array.flags.writeable
