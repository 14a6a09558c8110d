"""Tests for the fused bit-kernel engine (:mod:`repro.sc.kernels`).

The load-bearing guarantee is bit-exactness: for every accumulation
mode, RNG source, and progressive setting, ``engine="fused"`` must
produce *identical* float outputs to the original per-output-channel
reference path — OR is associative and the stream lengths are powers of
two, so any evaluation order yields the same bits.
"""

import contextlib
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sc import kernels
from repro.sc.accumulate import AccumulationMode
from repro.sc.kernels import fused_conv_counts, group_structure
from repro.scnn.config import SCConfig
from repro.scnn.sim import SCConvSimulator, SCLinearSimulator, clear_table_cache

MODES = ("sc", "pbw", "pbhw", "fxp", "apc")


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


def run_both(cfg: SCConfig, x, w, kernel=(4, 3, 3, 3)):
    outs = {}
    for engine in ("reference", "fused"):
        sim = SCConvSimulator(kernel, cfg.with_(engine=engine))
        outs[engine] = sim(x, w)
    return outs["reference"], outs["fused"]


class TestBitExactness:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("rng_kind", ("lfsr", "trng"))
    @pytest.mark.parametrize("progressive", (False, True))
    def test_fused_matches_reference(self, mode, rng_kind, progressive):
        x, w = make_inputs(seed=hash((mode, rng_kind, progressive)) % 1000)
        cfg = SCConfig(
            stream_length=32,
            stream_length_pooling=32,
            accumulation=mode,
            rng_kind=rng_kind,
            progressive=progressive,
            # Frozen TRNG draws make the two engine runs see the same
            # streams; fresh draws would differ by construction.
            trng_eval_freeze=True,
        )
        ref, fused = run_both(cfg, x, w)
        np.testing.assert_array_equal(ref, fused)

    @pytest.mark.parametrize("mode", ("fxp", "apc"))
    @pytest.mark.parametrize("rng_kind", ("lfsr", "trng"))
    @pytest.mark.parametrize("progressive", (False, True))
    def test_table_path_matches_reference(self, mode, rng_kind, progressive):
        # 4 samples x 14 x 14 positions = 784 >= 0.75 * 32**2: both FXP
        # and APC layers take the product-count tables.
        from repro import obs

        x, w = make_inputs(seed=29, n=4, size=16)
        cfg = SCConfig(
            stream_length=32,
            stream_length_pooling=32,
            accumulation=mode,
            rng_kind=rng_kind,
            progressive=progressive,
            trng_eval_freeze=True,
        )
        obs.reset()
        ref, fused = run_both(cfg, x, w)
        layouts = [r["kernel_layout"] for r in obs.get_registry().profiles]
        assert layouts == [None, "table"]  # reference engine, then fused
        np.testing.assert_array_equal(ref, fused)

    @pytest.mark.parametrize("mode", MODES)
    def test_fused_matches_reference_multiword(self, mode):
        # Stream length > 64 exercises multi-word packed streams.
        x, w = make_inputs(seed=11)
        cfg = SCConfig(
            stream_length=128, stream_length_pooling=128, accumulation=mode
        )
        ref, fused = run_both(cfg, x, w)
        np.testing.assert_array_equal(ref, fused)

    def test_fused_matches_with_workers(self):
        x, w = make_inputs(seed=3, n=3, size=8)
        cfg = SCConfig(stream_length=32, stream_length_pooling=32)
        sim1 = SCConvSimulator((4, 3, 3, 3), cfg.with_(num_workers=1))
        sim2 = SCConvSimulator((4, 3, 3, 3), cfg.with_(num_workers=3))
        np.testing.assert_array_equal(sim1(x, w), sim2(x, w))

    def test_odd_kernel_count_apc_padding(self):
        # Cin*KH*KW odd forces the APC zero-stream pad slot.
        x, w = make_inputs(seed=5, cin=3, k=3)
        assert (3 * 3 * 3) % 2 == 1
        cfg = SCConfig(
            stream_length=32, stream_length_pooling=32, accumulation="apc"
        )
        ref, fused = run_both(cfg, x, w)
        np.testing.assert_array_equal(ref, fused)

    def test_linear_simulator_engines_agree(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, size=(3, 12)).astype(np.float32)
        w = rng.uniform(-0.5, 0.5, size=(5, 12)).astype(np.float32)
        for mode in MODES:
            cfg = SCConfig(
                stream_length=32, stream_length_pooling=32, accumulation=mode
            )
            ref = SCLinearSimulator(12, 5, cfg.with_(engine="reference"))(x, w)
            fused = SCLinearSimulator(12, 5, cfg.with_(engine="fused"))(x, w)
            np.testing.assert_array_equal(ref, fused)


class TestGroupStructure:
    @pytest.mark.parametrize("mode", MODES)
    def test_partition_covers_every_position(self, mode):
        cin, kh, kw = 3, 3, 3
        k = cin * kh * kw
        group_k, _ = group_structure(mode, cin, kh, kw)
        members = group_k.ravel()
        real = members[members < k]  # drop the APC pad sentinel
        assert sorted(real.tolist()) == list(range(k))

    def test_group_shapes(self):
        cin, kh, kw = 4, 3, 5
        k = cin * kh * kw
        assert group_structure("sc", cin, kh, kw)[0].shape == (1, k)
        assert group_structure("pbw", cin, kh, kw)[0].shape == (kw, cin * kh)
        assert group_structure("pbhw", cin, kh, kw)[0].shape == (kh * kw, cin)
        assert group_structure("fxp", cin, kh, kw)[0].shape == (k, 1)
        assert group_structure("apc", cin, kh, kw)[0].shape == (k // 2, 2)

    def test_pbw_groups_are_kernel_columns(self):
        # Group kw holds every (cin, kh) position of kernel column kw.
        cin, kh, kw = 2, 3, 3
        group_k, identity = group_structure("pbw", cin, kh, kw)
        assert not identity
        flat = np.arange(cin * kh * kw).reshape(cin, kh, kw)
        for col in range(kw):
            assert set(group_k[col]) == set(flat[:, :, col].ravel())

    def test_apc_odd_count_pads_with_sentinel(self):
        cin, kh, kw = 1, 3, 3  # 9 positions -> 5 pairs, one padded
        group_k, _ = group_structure("apc", cin, kh, kw)
        assert group_k.shape == (5, 2)
        assert group_k[-1, -1] == 9  # sentinel = all-zero stream

    def test_identity_flags(self):
        assert group_structure("sc", 2, 3, 3)[1]
        assert group_structure("fxp", 2, 3, 3)[1]
        assert not group_structure("pbw", 2, 3, 3)[1]


class TestFusedConvCounts:
    def _operands(self, mode="pbw", n=2, cin=2, cout=3, k=3, p=10, seed=0):
        from repro.sc.rng import LFSRSource
        from repro.scnn.sim import stream_table

        rng = np.random.default_rng(seed)
        bits = 5
        source = LFSRSource(bits)
        seeds = np.arange(1, 1 + cin * k * k + cout)
        table, unique = stream_table(source, bits, 32, seeds, False)
        act_rows = np.searchsorted(
            unique, seeds[: cin * k * k].reshape(cin, k, k)
        )
        cols = rng.integers(0, 1 << bits, size=(n, cin, k, k, p))
        wq = rng.integers(0, 1 << bits, size=(cout, cin, k, k))
        wrow = np.searchsorted(unique, seeds[cin * k * k :])
        wp = table[wrow[:, None, None, None] % table.shape[0], wq]
        wn = table[wrow[:, None, None, None] % table.shape[0], (wq + 3) % 32]
        return table, act_rows, cols, wp, wn

    def test_small_slab_budget_is_exact(self):
        # Chunking must not change results: the rule's geometry against
        # many tiny slabs (PBW's 6-member groups here get a budget of
        # four default slabs, 1 KiB).
        table, act_rows, cols, wp, wn = self._operands()
        default = fused_conv_counts(table, act_rows, cols, wp, wn, "pbw")
        with mock.patch.object(kernels, "DEFAULT_SLAB_BYTES", 256):
            tiny = fused_conv_counts(table, act_rows, cols, wp, wn, "pbw")
        np.testing.assert_array_equal(default, tiny)

    def test_counts_shape_and_dtype(self):
        table, act_rows, cols, wp, wn = self._operands(n=2, cout=3, p=10)
        out = fused_conv_counts(table, act_rows, cols, wp, wn, "sc")
        assert out.shape == (2, 3, 10)
        assert out.dtype == np.int64

    def test_bad_cols_rank_rejected(self):
        table, act_rows, cols, wp, wn = self._operands()
        with pytest.raises(ShapeError):
            fused_conv_counts(table, act_rows, cols[0], wp, wn, "sc")

    def test_mismatched_weights_rejected(self):
        table, act_rows, cols, wp, wn = self._operands()
        with pytest.raises(ShapeError):
            fused_conv_counts(table, act_rows, cols, wp[:, :1], wn, "sc")

    def test_mismatched_act_rows_rejected(self):
        table, act_rows, cols, wp, wn = self._operands()
        with pytest.raises(ShapeError):
            fused_conv_counts(table, act_rows[:1], cols, wp, wn, "sc")

    @pytest.mark.parametrize("mode", MODES)
    def test_modes_parse_from_enum(self, mode):
        table, act_rows, cols, wp, wn = self._operands()
        a = fused_conv_counts(table, act_rows, cols, wp, wn, mode)
        b = fused_conv_counts(
            table, act_rows, cols, wp, wn, AccumulationMode.parse(mode)
        )
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Execution plans and layouts
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.sc.kernels import (  # noqa: E402
    _MIN_SPATIAL_CHUNK,
    _TABLE_RATIO,
    _chunk_sizes,
    _plan,
    _souter_chunks,
)
from repro.sc.rng import LFSRSource  # noqa: E402
from repro.scnn.sim import stream_table  # noqa: E402
from repro.utils.bitops import popcount_packed  # noqa: E402


def _kernel_operands(n=2, cin=2, cout=3, k=3, p=10, bits=5, length=32,
                     seed=0, wn_offset=3):
    """Standalone fused-call operands (module-level twin of
    ``TestFusedConvCounts._operands`` for the new test classes)."""
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
        wrow[:, None, None, None] % table.shape[0],
        (wq + wn_offset) % (1 << bits),
    ]
    return table, act_rows, cols, wp, wn


def _oracle_counts(table, act_rows, cols, wp, wn, mode):
    """Brute-force reference: per-channel, per-group AND → OR → popcount.

    Deliberately the dumbest possible evaluation order — no slabs, no
    chunking, no layouts — so every fused variant has one fixed oracle.
    """
    n, cin, kh, kw, p = cols.shape
    k = cin * kh * kw
    words = table.shape[-1]
    cout = wp.shape[0]
    group_k, _ = group_structure(mode, cin, kh, kw)
    rows = np.asarray(act_rows).reshape(k)
    cols_f = np.asarray(cols).reshape(n, k, p)
    act = table[rows[None, :, None], cols_f]  # (N, K, P, words)
    out = np.zeros((n, cout, p), dtype=np.int64)
    for co in range(cout):
        for sign, w in ((1, wp), (-1, wn)):
            w_f = w.reshape(cout, k, words)[co]
            for grp in group_k:
                merged = np.zeros((n, p, words), dtype=table.dtype)
                for slot in grp:
                    if slot == k:  # APC zero-pad sentinel
                        continue
                    merged |= act[:, slot] & w_f[slot]
                out[:, co] += sign * popcount_packed(
                    merged[:, None]
                ).reshape(n, p)
    return out


class TestChunkSizesProperties:
    @given(
        n=st.integers(1, 8),
        m=st.integers(1, 64),
        g=st.integers(1, 32),
        s=st.integers(1, 32),
        words=st.integers(1, 4),
        p=st.integers(1, 512),
        slab_bytes=st.integers(1, 1 << 22),
        channel_block=st.integers(1, 64),
    )
    @settings(max_examples=200, deadline=None)
    def test_invariants(self, n, m, g, s, words, p, slab_bytes,
                        channel_block):
        pc, mb = _chunk_sizes(
            n, m, g, s, words, p, slab_bytes, channel_block=channel_block
        )
        per_unit = max(1, n * g * s * words * 8)
        # Bounds.
        assert 1 <= pc <= p
        assert 1 <= mb <= m
        # Budget: the slab fits unless the block is already minimal.
        assert mb == 1 or per_unit * mb * pc <= slab_bytes
        # Never a pathologically thin spatial chunk when the budget (at
        # mb == 1) would allow a wider one.
        if mb == 1:
            achievable = max(1, min(p, slab_bytes // per_unit))
            assert pc >= min(achievable, _MIN_SPATIAL_CHUNK)
        # Exact coverage: chunk stepping tiles the (m, p) grid.
        covered_p = sum(
            min(lo + pc, p) - lo for lo in range(0, p, pc)
        )
        covered_m = sum(
            min(lo + mb, m) - lo for lo in range(0, m, mb)
        )
        assert covered_p == p
        assert covered_m == m

    @given(
        n=st.integers(1, 8),
        m=st.integers(1, 64),
        k=st.integers(1, 256),
        words=st.integers(1, 4),
        p=st.integers(1, 512),
        slab_bytes=st.integers(1, 1 << 26),
        channel_block=st.integers(1, 64),
        shards=st.integers(1, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_souter_invariants(self, n, m, k, words, p, slab_bytes,
                               channel_block, shards):
        pc, mb = _souter_chunks(
            n, m, k, words, p, slab_bytes, channel_block, shards
        )
        per_unit = max(1, n * k * words * 8)
        assert 1 <= pc <= p
        assert 1 <= mb <= m
        # Budget: each shard's slab fits its equal part of the call's
        # budget (no hidden floor) unless the block is already minimal.
        assert mb == pc == 1 or per_unit * mb * pc <= slab_bytes // shards


def _natural_order(group_k: np.ndarray, k: int) -> bool:
    """``group_k[g, s] == s * G + g`` over exactly the ``k`` kernel
    positions: the operand order the ``s_outer`` kernel reads, with no
    pad sentinel."""
    g, s = group_k.shape
    return g * s == k and bool(
        np.array_equal(group_k, np.arange(k).reshape(s, g).T)
    )


class TestExecutionPlans:
    def test_heuristic_plan_valid_for_all_modes(self):
        for mode in MODES:
            members = group_structure(mode, 3, 3, 3)[0].shape[1]
            for p in (1, 31, 32, 100):
                layout, slab_bytes, block = _plan(
                    AccumulationMode.parse(mode), members, 4, p
                )
                assert layout in ("k_inner", "s_outer")
                assert slab_bytes >= 1 and block >= 1

    def test_heuristic_pbhw_uses_souter(self):
        assert _plan(AccumulationMode.PBHW, 32, 32, 64)[0] == "s_outer"

    def test_souter_only_in_natural_order(self):
        # The s_outer kernel reads operands in natural member-major
        # order, which APC's pairs are not in: the rule must never pick
        # it for a group structure in any other order.
        for cin, kh, kw in ((1, 1, 1), (3, 3, 3), (2, 5, 1)):
            natural = []
            for mode in MODES:
                group_k = group_structure(mode, cin, kh, kw)[0]
                in_order = _natural_order(group_k, cin * kh * kw)
                for p in (1, 32):
                    layout = _plan(
                        AccumulationMode.parse(mode), group_k.shape[1], 4, p
                    )[0]
                    assert layout == "k_inner" or in_order, mode
                natural.append(in_order)
            assert natural == [True, True, True, True, False]

    def test_tiny_chunks_with_souter_exact(self):
        table, act_rows, cols, wp, wn = _kernel_operands(seed=7)
        base = fused_conv_counts(table, act_rows, cols, wp, wn, "pbhw")
        # A 1-byte budget: one position and one channel per slab.
        with mock.patch.object(kernels, "_SOUTER_SLAB_BYTES", 1):
            tiny = fused_conv_counts(table, act_rows, cols, wp, wn, "pbhw")
        np.testing.assert_array_equal(tiny, base)


class TestOracleParity:
    @pytest.mark.parametrize("mode", MODES)
    def test_fused_matches_oracle(self, mode):
        operands = _kernel_operands(seed=11)
        want = _oracle_counts(*operands, mode)
        got = fused_conv_counts(*operands, mode)
        np.testing.assert_array_equal(got, want)

    def test_fxp_overlapping_polarities_match_oracle(self):
        # wn offset 3 makes wp and wn simultaneously non-zero at most
        # positions; FXP sweeps both stacked polarities like every mode.
        operands = _kernel_operands(seed=13, wn_offset=3)
        np.testing.assert_array_equal(
            fused_conv_counts(*operands, "fxp"),
            _oracle_counts(*operands, "fxp"),
        )

    def test_fxp_disjoint_polarities_match_oracle(self):
        # Split-unipolar weights: value 0 encodes the all-zero stream,
        # so zeroing wn wherever wp is non-zero makes the polarities
        # disjoint, as the simulator's quantized weights are.
        table, act_rows, cols, wp, wn = _kernel_operands(seed=17)
        wn = wn.copy()
        wn[wp.any(axis=-1)] = 0
        operands = (table, act_rows, cols, wp, wn)
        np.testing.assert_array_equal(
            fused_conv_counts(*operands, "fxp"),
            _oracle_counts(*operands, "fxp"),
        )

    @pytest.mark.parametrize(
        "mode, cin, kw, length, p, columns, slab_bytes",
        (
            # 3 * 3 * 1 = 9 products: the last APC pair takes the
            # zero-stream pad slot.
            ("apc", 3, 1, 32, 384, False, None),
            # wn offset 3 (the default): both polarities carry bits at
            # most positions, which FXP's old signed pass had to expand.
            ("fxp", 2, 3, 32, 384, False, None),
            # 128-bit streams: two words per stream.
            ("fxp", 2, 3, 128, 384, False, None),
            ("apc", 2, 3, 128, 400, False, None),
            # Whole value columns at 0 (the all-zero stream) and at the
            # top value, beside ordinary columns.
            ("fxp", 2, 3, 32, 384, True, None),
            ("apc", 2, 3, 32, 384, True, None),
            # A small budget on one shard: FXP builds its 18 tables 6
            # groups at a time, APC one table per block 6 first-member
            # values at a time (the last chunk holds 2), and both sum
            # rows over chunks of 125 of the 384 positions.
            ("fxp", 2, 3, 32, 384, False, 5000),
            ("apc", 2, 3, 32, 384, False, 5000),
        ),
    )
    def test_table_path_matches_oracle(
        self, mode, cin, kw, length, p, columns, slab_bytes
    ):
        table, act_rows, cols, wp, wn = _kernel_operands(
            n=2, cin=cin, p=p, length=length, seed=19
        )
        # Keep the first ``kw`` kernel columns.
        cols, act_rows = cols[:, :, :, :kw], act_rows[:, :, :kw]
        wp, wn = wp[:, :, :, :kw], wn[:, :, :, :kw]
        if columns:
            cols = cols.copy()
            cols[..., ::3] = 0
            cols[..., 1::3] = table.shape[1] - 1
        operands = (table, act_rows, cols, wp, wn)
        stats = {}
        # FXP and APC tables get a budget of four default slabs.
        default = slab_bytes // 4 if slab_bytes else kernels.DEFAULT_SLAB_BYTES
        with mock.patch.object(kernels, "DEFAULT_SLAB_BYTES", default):
            got = fused_conv_counts(
                *operands, mode, num_workers=1 if slab_bytes else 0,
                length=length, stats=stats,
            )
        assert stats["layout"] == "table"
        np.testing.assert_array_equal(got, _oracle_counts(*operands, mode))

    @pytest.mark.parametrize("words, layout", ((511, "table"), (512, "k_inner")))
    def test_long_streams_leave_the_tables(self, words, layout):
        # A table entry is at most 64 * words, which fits int16 up to
        # 511 words (there every row is added into the int32 sum at
        # once); 512-word streams run the sweep.
        operands = _kernel_operands(
            n=1, cin=1, cout=2, k=2, p=16, bits=2, length=64 * words,
            seed=47,
        )
        stats = {}
        got = fused_conv_counts(
            *operands, "fxp", length=64 * words, stats=stats
        )
        assert stats["layout"] == layout
        np.testing.assert_array_equal(got, _oracle_counts(*operands, "fxp"))


class TestTableShards:
    @pytest.mark.parametrize("mode", ("fxp", "apc"))
    def test_sharding_keeps_table_scratch_in_budget(self, mode):
        # Each table shard works within its part of the call's slab
        # budget and all shards add into one accumulator, so four
        # shards peak where one does (one accumulator per shard had
        # grown the peak 2.3x at this shape).
        operands = _kernel_operands(n=2, cin=2, cout=8, k=3, p=1024, seed=5)
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already tracing")
        peaks = {}
        for workers in (1, 4):
            stats = {}
            tracemalloc.start()
            try:
                # A table budget of 64 KiB (four default slabs).
                with mock.patch.object(kernels, "DEFAULT_SLAB_BYTES", 1 << 14):
                    fused_conv_counts(
                        *operands, mode, num_workers=workers, length=32,
                        stats=stats,
                    )
                peaks[workers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert stats["layout"] == "table"
            assert stats["shards"] == workers
        assert peaks[4] <= 1.15 * peaks[1]

    @pytest.mark.parametrize("mode", ("fxp", "apc"))
    def test_shared_accumulator_under_contention(self, mode):
        # 4096-bit streams flush a subtotal every 7 groups, so eight
        # shards keep adding whole-output subtotals into the one
        # accumulator while threads switch every microsecond; a lost
        # update would break equality with the serial call.
        operands = _kernel_operands(
            n=4, cin=16, cout=16, k=3, p=2048, bits=2, length=4096, seed=7
        )
        # A table budget of 8 MiB (four default slabs).
        slabs = mock.patch.object(kernels, "DEFAULT_SLAB_BYTES", 1 << 21)
        with slabs:
            want = fused_conv_counts(
                *operands, mode, num_workers=1, length=4096
            )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                stats = {}
                with slabs:
                    got = fused_conv_counts(
                        *operands, mode, num_workers=8, length=4096,
                        stats=stats,
                    )
                assert stats["layout"] == "table" and stats["shards"] == 8
                np.testing.assert_array_equal(got, want)
        finally:
            sys.setswitchinterval(interval)


class _DensityCase:
    """Shared operand pool for the hypothesis density tests (built once:
    stream-table construction dominates per-example cost otherwise)."""

    _cache = None

    @classmethod
    def operands(cls):
        if cls._cache is None:
            cls._cache = _kernel_operands(
                n=2, cin=2, cout=2, k=2, p=8, bits=4, length=16, seed=23
            )
        return cls._cache


class TestDensityPatterns:
    """Structured zero patterns the lane test's random draws do not
    make: a dead spatial half, a dead input channel, all-ones values
    and all-zero values (the early-out)."""

    @given(
        mode=st.sampled_from(MODES),
        density=st.floats(0.0, 1.0),
        pattern_seed=st.integers(0, 2**16),
        zero_chunk=st.sampled_from((None, "positions", "channels", "all")),
        ones=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identity_under_density_patterns(
        self, mode, density, pattern_seed, zero_chunk, ones
    ):
        table, act_rows, cols, wp, wn = _DensityCase.operands()
        rng = np.random.default_rng(pattern_seed)
        cols = cols.copy()
        if ones:
            cols[:] = table.shape[1] - 1  # all-ones value chunk
        cols[rng.random(cols.shape) < density] = 0
        if zero_chunk == "positions":
            cols[..., : cols.shape[-1] // 2] = 0  # all-zero spatial chunk
        elif zero_chunk == "channels":
            cols[:, 0] = 0  # one input channel entirely dead
        elif zero_chunk == "all":
            cols[:] = 0
        np.testing.assert_array_equal(
            fused_conv_counts(table, act_rows, cols, wp, wn, mode),
            _oracle_counts(table, act_rows, cols, wp, wn, mode),
        )


# ---------------------------------------------------------------------------
# Lane packing: two <=32-bit streams per uint64 word
# ---------------------------------------------------------------------------

from repro.sc.accumulate import accumulate_products  # noqa: E402
from repro.sc.kernels import stream_lanes  # noqa: E402
from repro.sc.streams import StreamBatch  # noqa: E402
from repro.utils import parallel  # noqa: E402


def _reference_engine_counts(table, act_rows, cols, wp, wn, mode, length):
    """Counts from the reference engine's per-channel reduction through
    ``accumulate_products``, over the flat output extent ``P``."""
    kernel = act_rows.shape
    act = table[act_rows, cols.transpose(0, 4, 1, 2, 3)]  # (N, P, *kernel, words)
    out = [
        accumulate_products(StreamBatch(act & wp[co], length), mode, kernel)
        - accumulate_products(StreamBatch(act & wn[co], length), mode, kernel)
        for co in range(wp.shape[0])
    ]
    return np.stack(out, axis=1)  # (N, Cout, P)


class TestLanePacking:
    @given(
        mode=st.sampled_from(MODES),
        length=st.sampled_from((8, 16, 32, 64, 128)),
        bits=st.sampled_from((2, 3, 4)),
        n=st.integers(1, 3),
        p=st.sampled_from((1, 2, 5, 8, 9, 64)),
        kernel=st.sampled_from(((1, 1, 1), (2, 1, 3), (2, 2, 2), (3, 3, 1))),
        cout=st.integers(1, 3),
        zero_share=st.sampled_from((0.0, 0.5, 0.9, 1.0)),
        share=st.sampled_from((1, 2, 3)),
        tiny_slabs=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_fused_matches_reference_engine(
        self, mode, length, bits, n, p, kernel, cout, zero_share, share,
        tiny_slabs, seed,
    ):
        """Every mode and lane count, on both sides of the table rule,
        with the rule's slab budgets or with 1-byte ones (one position
        and one channel per slab), at kernel shares of 1, 2 and 3 (forced
        through the CPU count, so coverage does not depend on the host)
        equals the reference engine."""
        cin, kh, kw = kernel
        k = cin * kh * kw
        rng = np.random.default_rng(seed)
        seeds = np.arange(1, 1 + k + cout)
        table, unique = stream_table(LFSRSource(bits), bits, length, seeds, False)
        act_rows = np.searchsorted(unique, seeds[:k].reshape(cin, kh, kw))
        cols = rng.integers(0, 1 << bits, size=(n, cin, kh, kw, p))
        cols[rng.random(cols.shape) < zero_share] = 0
        w_rows = np.searchsorted(unique, seeds[k:])[:, None, None, None]
        wq = rng.integers(0, 1 << bits, size=(cout, cin, kh, kw))
        wp = table[w_rows, wq]
        wn = table[w_rows, rng.integers(0, 1 << bits, size=wq.shape)]
        stats = {}
        slabs = (
            mock.patch.multiple(
                kernels, DEFAULT_SLAB_BYTES=1, _SOUTER_SLAB_BYTES=1
            )
            if tiny_slabs
            else contextlib.nullcontext()
        )
        with mock.patch.object(parallel, "cpu_count", return_value=share), slabs:
            got = fused_conv_counts(
                table, act_rows, cols, wp, wn, mode,
                num_workers=0,
                length=length,
                stats=stats,
            )
        want = _reference_engine_counts(
            table, act_rows, cols, wp, wn, mode, length
        )
        np.testing.assert_array_equal(got, want)
        if cols.any():
            members = group_structure(mode, cin, kh, kw)[0].shape[1]
            ratio = _TABLE_RATIO.get(members)
            table_path = ratio is not None and n * p >= ratio * (1 << bits) ** members
            assert (stats["layout"] == "table") == table_path
            assert stats["lanes"] == (2 if length <= 32 else 1)
            # The call uses the share unless the work grid has fewer
            # cells than the share.
            assert 1 <= stats["shards"] <= share
        else:
            # All-zero activations return zero counts without a kernel.
            assert stats == {"layout": None, "lanes": 0, "shards": 0}

    def test_stream_lanes_rule(self):
        assert stream_lanes(32) == 2
        assert stream_lanes(8) == 2
        assert stream_lanes(64) == 1
        assert stream_lanes(None) == 1
        # FXP's sweep packs two lanes like every mode.
        stats = {}
        fused_conv_counts(*_kernel_operands(seed=43), "fxp", length=32, stats=stats)
        assert stats["layout"] == "k_inner" and stats["lanes"] == 2

    def test_length_must_match_table_words(self):
        table, act_rows, cols, wp, wn = _kernel_operands()
        with pytest.raises(ShapeError):
            fused_conv_counts(table, act_rows, cols, wp, wn, "sc", length=128)

    def test_unknown_length_runs_one_lane(self):
        operands = _kernel_operands(seed=31)
        stats = {}
        fused_conv_counts(*operands, "pbw", stats=stats)
        assert stats["lanes"] == 1

    def test_lane_counters_exported(self):
        from repro import obs

        operands = _kernel_operands(seed=41)
        obs.reset()
        fused_conv_counts(*operands, "pbw", length=32)
        fused_conv_counts(*_kernel_operands(seed=41, length=64), "pbw", length=64)
        counters = obs.get_registry().counters()
        assert counters.get("sc.kernels.lanes.2") == 1
        assert counters.get("sc.kernels.lanes.1") == 1

    @pytest.mark.parametrize("mode, members", (("fxp", 1), ("apc", 2)))
    def test_table_counters_exported(self, mode, members):
        from repro import obs

        n, cin, k, p, cout, words = 2, 2, 3, 400, 3, 1
        operands = _kernel_operands(n=n, cin=cin, k=k, p=p, cout=cout, length=64)
        values = operands[0].shape[1]
        groups = cin * k * k // members
        obs.reset()
        stats = {}
        fused_conv_counts(*operands, mode, length=64, stats=stats)
        counters = obs.get_registry().counters()
        assert stats["layout"] == "table" and stats["lanes"] == 1
        assert counters.get("sc.kernels.layout.table") == 1
        assert counters.get("sc.kernels.lanes.1") == 1
        entries = groups * values**members * cout
        assert counters.get("sc.kernels.table_entries") == entries
        assert counters.get("sc.kernels.table_rows") == n * p * groups
        # Only the table build's words (64-bit streams, one lane): one
        # AND per member product, one popcount per stacked-polarity
        # entry, and ORs for pairs.
        built = 2 * entries * words
        assert counters.get("sc.kernels.and_words") == (
            groups * members * values * 2 * cout * words
        )
        assert counters.get("sc.kernels.popcount_words") == built
        assert counters.get("sc.kernels.or_words") == built * (members - 1)
