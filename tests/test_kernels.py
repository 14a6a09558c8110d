"""Tests for the fused bit-kernel engine (:mod:`repro.sc.kernels`).

The load-bearing guarantee is bit-exactness: for every accumulation
mode, RNG source, and progressive setting, ``engine="fused"`` must
produce *identical* float outputs to the original per-output-channel
reference path — OR is associative and the stream lengths are powers of
two, so any evaluation order yields the same bits.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.sc.accumulate import AccumulationMode
from repro.sc.kernels import (
    DEFAULT_SLAB_BYTES,
    ExecPlan,
    fused_conv_counts,
    group_structure,
)
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
        # Chunking must not change results: the default (heuristic) plan
        # against many tiny slabs.
        table, act_rows, cols, wp, wn = self._operands()
        default = fused_conv_counts(table, act_rows, cols, wp, wn, "pbw")
        tiny = fused_conv_counts(
            table, act_rows, cols, wp, wn, "pbw",
            plan=ExecPlan(slab_bytes=1024),
        )
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
# Execution plans, layouts, and the sparse path
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.sc.kernels import (  # noqa: E402
    _MIN_SPATIAL_CHUNK,
    _chunk_sizes,
    _natural_order,
    heuristic_plan,
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
        spatial_chunk=st.integers(0, 600),
    )
    @settings(max_examples=200, deadline=None)
    def test_invariants(self, n, m, g, s, words, p, slab_bytes,
                        channel_block, spatial_chunk):
        pc, mb = _chunk_sizes(
            n, m, g, s, words, p, slab_bytes,
            channel_block=channel_block, spatial_chunk=spatial_chunk,
        )
        per_unit = max(1, n * g * s * words * 8)
        # Bounds.
        assert 1 <= pc <= p
        assert 1 <= mb <= m
        # Budget: the slab fits unless the block is already minimal.
        assert mb == 1 or per_unit * mb * pc <= slab_bytes
        # Derived mode never picks a pathologically thin spatial chunk
        # when the budget (at mb == 1) would allow a wider one.
        if spatial_chunk == 0 and mb == 1:
            achievable = max(1, min(p, slab_bytes // per_unit))
            assert pc >= min(achievable, _MIN_SPATIAL_CHUNK)
        # An explicit spatial chunk is honored exactly (clipped to p).
        if spatial_chunk > 0:
            assert pc == min(p, spatial_chunk)
        # Exact coverage: chunk stepping tiles the (m, p) grid.
        covered_p = sum(
            min(lo + pc, p) - lo for lo in range(0, p, pc)
        )
        covered_m = sum(
            min(lo + mb, m) - lo for lo in range(0, m, mb)
        )
        assert covered_p == p
        assert covered_m == m


class TestExecutionPlans:
    def test_heuristic_plan_valid_for_all_modes(self):
        for mode in MODES:
            plan = heuristic_plan(mode, 2, 3, 3, 3, 4, 100, 1)
            assert isinstance(plan, ExecPlan)
            # The dense/sparse choice stays with the per-call density probe.
            assert plan.path == "auto"

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

    def test_heuristic_pbhw_uses_souter(self):
        plan = heuristic_plan("pbhw", 8, 32, 5, 5, 32, 64, 1)
        assert plan.layout == "s_outer"

    @pytest.mark.parametrize("mode", MODES)
    def test_explicit_plan_layouts_bit_identical(self, mode):
        table, act_rows, cols, wp, wn = _kernel_operands(seed=3)
        base = fused_conv_counts(
            table, act_rows, cols, wp, wn, mode,
            plan=ExecPlan(layout="k_inner", path="dense"),
        )
        for layout in ("auto", "s_outer"):
            for path in ("dense", "sparse", "auto"):
                got = fused_conv_counts(
                    table, act_rows, cols, wp, wn, mode,
                    plan=ExecPlan(layout=layout, path=path),
                )
                np.testing.assert_array_equal(got, base, err_msg=f"{layout}/{path}")

    def test_apc_souter_falls_back_silently(self):
        # APC's pair groups are not natural-order; an explicit s_outer
        # plan must fall back to k_inner, not crash or mis-compute.
        table, act_rows, cols, wp, wn = _kernel_operands(seed=5)
        base = fused_conv_counts(table, act_rows, cols, wp, wn, "apc")
        got = fused_conv_counts(
            table, act_rows, cols, wp, wn, "apc",
            plan=ExecPlan(layout="s_outer"),
        )
        np.testing.assert_array_equal(got, base)

    def test_natural_order_predicate(self):
        for mode, expected in (
            ("sc", True), ("pbw", True), ("pbhw", True),
            ("fxp", True), ("apc", False),
        ):
            group_k, _ = group_structure(mode, 3, 3, 3)
            assert _natural_order(group_k, 27) is expected, mode

    def test_tiny_chunks_with_souter_exact(self):
        table, act_rows, cols, wp, wn = _kernel_operands(seed=7)
        base = fused_conv_counts(table, act_rows, cols, wp, wn, "pbhw")
        tiny = fused_conv_counts(
            table, act_rows, cols, wp, wn, "pbhw",
            plan=ExecPlan(
                layout="s_outer", slab_bytes=1, spatial_chunk=3,
                channel_block=1,
            ),
        )
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
        # positions: the FXP signed-magnitude pass must expand those
        # into explicit (+1, wp)/(-1, wn) entries, not fall back.
        operands = _kernel_operands(seed=13, wn_offset=3)
        np.testing.assert_array_equal(
            fused_conv_counts(*operands, "fxp"),
            _oracle_counts(*operands, "fxp"),
        )

    def test_fxp_disjoint_polarities_match_oracle(self):
        # Split-unipolar weights: value 0 encodes the all-zero stream,
        # so zeroing wn wherever wp is non-zero gives the disjoint fast
        # path.
        table, act_rows, cols, wp, wn = _kernel_operands(seed=17)
        wn = wn.copy()
        wn[wp.any(axis=-1)] = 0
        operands = (table, act_rows, cols, wp, wn)
        np.testing.assert_array_equal(
            fused_conv_counts(*operands, "fxp"),
            _oracle_counts(*operands, "fxp"),
        )


class _SparseDenseCase:
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


class TestSparseDenseIdentity:
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
        table, act_rows, cols, wp, wn = _SparseDenseCase.operands()
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
        dense = fused_conv_counts(
            table, act_rows, cols, wp, wn, mode, plan=ExecPlan(path="dense")
        )
        sparse = fused_conv_counts(
            table, act_rows, cols, wp, wn, mode, plan=ExecPlan(path="sparse")
        )
        auto = fused_conv_counts(table, act_rows, cols, wp, wn, mode)
        np.testing.assert_array_equal(sparse, dense)
        np.testing.assert_array_equal(auto, dense)

    def test_sparsity_counters_exported(self):
        from repro import obs

        table, act_rows, cols, wp, wn = _kernel_operands(seed=29)
        cols = cols.copy()
        cols[..., ::2] = 0
        obs.reset()
        before = obs.get_registry().counters()
        fused_conv_counts(
            table, act_rows, cols, wp, wn, "fxp",
            plan=ExecPlan(path="sparse"),
        )
        counters = obs.get_registry().counters()
        if not obs.enabled():
            pytest.skip("telemetry disabled in this environment")
        nnz = counters.get("sc.kernels.nnz_words", 0)
        skipped = counters.get("sc.kernels.skipped_words", 0)
        assert nnz > before.get("sc.kernels.nnz_words", 0) or nnz > 0
        assert skipped > 0


# ---------------------------------------------------------------------------
# Lane packing: two <=32-bit streams per uint64 word
# ---------------------------------------------------------------------------

from unittest import mock  # noqa: E402

from repro.sc.kernels import stream_lanes  # noqa: E402
from repro.scnn.sim import _reduce_products  # noqa: E402
from repro.utils import parallel  # noqa: E402


def _reference_engine_counts(table, act_rows, cols, wp, wn, mode):
    """Counts from the reference engine's per-channel reduction
    (``repro.scnn.sim._reduce_products``), with the flat output extent
    ``P`` standing in for ``(OH, OW) = (P, 1)``."""
    mode = AccumulationMode.parse(mode)
    act = table[act_rows[None, :, :, :, None], cols][:, :, :, :, :, None]
    out = []
    for co in range(wp.shape[0]):
        pos = _reduce_products(act & wp[co][None, :, :, :, None, None], mode)
        neg = _reduce_products(act & wn[co][None, :, :, :, None, None], mode)
        out.append((pos - neg)[..., 0])  # (N, P)
    return np.stack(out, axis=1)


class TestLanePacking:
    @given(
        mode=st.sampled_from(MODES),
        length=st.sampled_from((8, 16, 32, 64, 128)),
        n=st.integers(1, 3),
        p=st.sampled_from((1, 2, 5, 8, 9)),
        kernel=st.sampled_from(((1, 1, 1), (2, 1, 3), (2, 2, 2), (3, 3, 1))),
        cout=st.integers(1, 3),
        zero_share=st.sampled_from((0.0, 0.5, 0.9)),
        share=st.sampled_from((1, 2, 3)),
        path=st.sampled_from(("dense", "sparse", "auto")),
        layout=st.sampled_from(("auto", "k_inner", "s_outer")),
        spatial_chunk=st.sampled_from((0, 1, 3)),
        channel_block=st.sampled_from((1, 4, 16, 64)),
        slab_bytes=st.sampled_from(
            (1, DEFAULT_SLAB_BYTES, 4 * DEFAULT_SLAB_BYTES)
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_fused_matches_reference_engine(
        self, mode, length, n, p, kernel, cout, zero_share, share, path,
        layout, spatial_chunk, channel_block, slab_bytes, seed,
    ):
        """Every mode, layout, lane count, path and slab geometry at
        kernel shares of 1, 2 and 3 (forced through the CPU count, so
        coverage does not depend on the host) equals the reference
        engine."""
        cin, kh, kw = kernel
        k = cin * kh * kw
        bits = 4
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
        with mock.patch.object(parallel, "cpu_count", return_value=share):
            got = fused_conv_counts(
                table, act_rows, cols, wp, wn, mode,
                num_workers=0,
                plan=ExecPlan(
                    slab_bytes=slab_bytes,
                    channel_block=channel_block,
                    spatial_chunk=spatial_chunk,
                    path=path,
                    layout=layout,
                ),
                length=length,
                stats=stats,
            )
        want = _reference_engine_counts(table, act_rows, cols, wp, wn, mode)
        np.testing.assert_array_equal(got, want)
        two_lanes = length <= 32 and mode != "fxp"
        assert stats["lanes"] == (2 if two_lanes else 1)
        assert stats["path"] in ("dense", "sparse")
        # Sparse calls run on the calling thread; dense ones use the share
        # unless the work grid has fewer cells than the share.
        assert 1 <= stats["shards"] <= (1 if stats["path"] == "sparse" else share)
        if stats["path"] == "dense":
            assert stats["nnz_words"] == stats["skipped_words"] == 0

    def test_stream_lanes_rule(self):
        assert stream_lanes("pbw", 32) == 2
        assert stream_lanes("sc", 8) == 2
        assert stream_lanes("pbw", 64) == 1
        assert stream_lanes("fxp", 32) == 1
        assert stream_lanes("apc", None) == 1

    def test_length_must_match_table_words(self):
        table, act_rows, cols, wp, wn = _kernel_operands()
        with pytest.raises(ShapeError):
            fused_conv_counts(table, act_rows, cols, wp, wn, "sc", length=128)

    def test_unknown_length_runs_one_lane(self):
        operands = _kernel_operands(seed=31)
        stats = {}
        fused_conv_counts(*operands, "pbw", stats=stats)
        assert stats["lanes"] == 1

    def test_sparse_words_halve_at_two_lanes(self):
        # Realized words count packed words: two lanes per word halve them.
        table, act_rows, cols, wp, wn = _kernel_operands(seed=37, p=16)
        cols = cols.copy()
        cols[..., ::2] = 0
        one, two = {}, {}
        plan = ExecPlan(path="sparse")
        fused_conv_counts(table, act_rows, cols, wp, wn, "sc", plan=plan, stats=one)
        fused_conv_counts(
            table, act_rows, cols, wp, wn, "sc", plan=plan, length=32, stats=two
        )
        total_one = one["nnz_words"] + one["skipped_words"]
        assert two["nnz_words"] + two["skipped_words"] == total_one // 2

    def test_lane_counters_exported(self):
        from repro import obs

        if not obs.enabled():
            pytest.skip("telemetry disabled in this environment")
        operands = _kernel_operands(seed=41)
        obs.reset()
        fused_conv_counts(*operands, "pbw", length=32)
        fused_conv_counts(*operands, "fxp", length=32)
        counters = obs.get_registry().counters()
        assert counters.get("sc.kernels.lanes.2") == 1
        assert counters.get("sc.kernels.lanes.1") == 1
