"""Cross-validation of the hardware row datapath against the algorithmic
SC simulator — the same streams, mapped pass-by-pass through the rows,
must yield identical outputs."""

import numpy as np
import pytest

from repro.arch.functional import RowDatapath, segmented_reference
from repro.arch.geo import GEO_ULP
from repro.errors import CompilationError, ShapeError
from repro.models.shapes import LayerShape
from repro.scnn.config import SCConfig
from repro.utils.bitops import pack_bits


def small_layer(cin=3, cout=4, kernel=3, size=6):
    return LayerShape(
        "conv", "conv", cin, cout, kernel, size, padding=0, pooled=False
    )


def operands(layer, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(2, layer.in_channels, layer.input_size,
                                layer.input_size)).astype(np.float32)
    w = rng.uniform(-0.4, 0.4, size=(layer.out_channels, layer.in_channels,
                                     layer.kernel, layer.kernel)).astype(np.float32)
    return x, w


class TestRowDatapath:
    @pytest.mark.parametrize("mode", ["sc", "pbw", "fxp"])
    def test_matches_algorithmic_simulator(self, mode):
        layer = small_layer()
        cfg = SCConfig(
            stream_length=32, stream_length_pooling=32, accumulation=mode
        )
        datapath = RowDatapath(layer, GEO_ULP, cfg)
        x, w = operands(layer, seed=1)
        hardware = datapath.run(x, w)
        reference = datapath.reference(x, w)
        np.testing.assert_array_equal(hardware, reference)

    def test_multiple_windows_per_pass(self):
        # kv = 27 on an 800-wide row: 29 windows per pass; the mapping
        # must tile all 16 output positions without gaps or overlap.
        layer = small_layer(cin=3, cout=2, kernel=3, size=6)
        cfg = SCConfig(stream_length=64, stream_length_pooling=64)
        datapath = RowDatapath(layer, GEO_ULP, cfg)
        assert datapath.mapping.windows_per_pass == 800 // 27
        x, w = operands(layer, seed=2)
        np.testing.assert_array_equal(
            datapath.run(x, w), datapath.reference(x, w)
        )

    def test_narrow_row_many_passes(self):
        # Force windows_per_pass == 1: every output gets its own pass.
        layer = small_layer(cin=3, cout=2, kernel=3, size=5)
        arch = GEO_ULP.with_(row_width=27)
        cfg = SCConfig(stream_length=32, stream_length_pooling=32)
        datapath = RowDatapath(layer, arch, cfg)
        assert datapath.mapping.windows_per_pass == 1
        x, w = operands(layer, seed=3)
        np.testing.assert_array_equal(
            datapath.run(x, w), datapath.reference(x, w)
        )

    def test_fresh_trng_draws_compare_the_same_streams(self):
        # Both sides draw at call index 0, round after round; the
        # reference leaves the simulator's cursor where it was.
        layer = small_layer()
        cfg = SCConfig(
            stream_length=32, stream_length_pooling=32, rng_kind="trng",
            trng_eval_freeze=False,
        )
        datapath = RowDatapath(layer, GEO_ULP, cfg)
        x, w = operands(layer, seed=4)
        for _ in range(3):
            np.testing.assert_array_equal(
                datapath.run(x, w), datapath.reference(x, w)
            )
        assert datapath._sim.call_index == 0

    def test_operand_shapes_rejected(self):
        layer = small_layer()
        cfg = SCConfig(stream_length=32, stream_length_pooling=32)
        datapath = RowDatapath(layer, GEO_ULP, cfg)
        x, w = operands(layer)
        with pytest.raises(ShapeError):
            datapath.run(x, w[:, :, :2, :2])
        with pytest.raises(ShapeError):
            datapath.run(x[:, :2], w)
        with pytest.raises(ShapeError):
            datapath.reference(x[:, :2], w)

    def test_split_kernel_rejected(self):
        layer = small_layer(cin=64, cout=2, kernel=5, size=8)  # kv=1600
        cfg = SCConfig(stream_length=32, stream_length_pooling=32)
        with pytest.raises(CompilationError):
            RowDatapath(layer, GEO_ULP, cfg)

    def test_fc_layer_rejected(self):
        fc = LayerShape("fc", "fc", 64, 10, 1, 1)
        with pytest.raises(CompilationError):
            RowDatapath(fc, GEO_ULP, SCConfig(stream_length=32,
                                              stream_length_pooling=32))


class TestSegmentedReference:
    def test_single_segment_is_plain_or(self):
        rng = np.random.default_rng(0)
        bits_pos = rng.integers(0, 2, size=(6, 64), dtype=np.uint8)
        bits_neg = np.zeros_like(bits_pos)
        pos = pack_bits(bits_pos)
        neg = pack_bits(bits_neg)
        value = segmented_reference(pos, neg, segments=1, length=64)
        expected = np.bitwise_or.reduce(bits_pos, axis=0).sum() / 64
        assert value == pytest.approx(expected)

    def test_more_segments_count_higher_for_dense_inputs(self):
        # Splitting an OR across segments recovers counts that a single
        # OR merges away — the accuracy benefit of partial sums.
        bits = np.ones((8, 32), dtype=np.uint8)
        pos = pack_bits(bits)
        neg = pack_bits(np.zeros_like(bits))
        one = segmented_reference(pos, neg, segments=1, length=32)
        four = segmented_reference(pos, neg, segments=4, length=32)
        assert four == pytest.approx(4 * one)

    def test_sign_channels_subtract(self):
        bits = np.ones((4, 16), dtype=np.uint8)
        packed = pack_bits(bits)
        value = segmented_reference(packed, packed, segments=2, length=16)
        assert value == 0.0
