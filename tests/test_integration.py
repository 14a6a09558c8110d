"""Cross-module integration tests: the full stack from streams to
training to the accelerator model, plus property tests on the performance
simulator's monotonicity invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import (
    GEO_ULP,
    STREAMS_128_128,
    STREAMS_32_64,
    compile_network,
    simulate,
)
from repro.datasets import load_pair, downscale
from repro.models import cnn4_sc, lenet5_sc
from repro.models.shapes import cnn4_shapes
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.scnn import SCConfig, evaluate, train_model
from repro.scnn.config import TABLE1_CONFIGS


class TestEndToEndSCTraining:
    """Small but real SC training runs exercising the whole scnn stack."""

    @pytest.fixture(scope="class")
    def data(self):
        train, test = load_pair("svhn", 192, 96, seed=0)
        return downscale(train, 2), downscale(test, 2)

    def test_sc_cnn_learns_above_chance(self, data):
        train, test = data
        cfg = SCConfig(
            stream_length=64, stream_length_pooling=32, accumulation="pbw"
        )
        model = cnn4_sc(cfg, input_size=16, width_mult=0.25, kernel_size=3, seed=1)
        result = train_model(model, train, test, epochs=6, batch_size=32, seed=0)
        assert result.test_accuracy > 0.2  # 10 classes, chance = 0.1

    def test_lfsr_eval_is_deterministic(self, data):
        _, test = data
        cfg = SCConfig(stream_length=32, stream_length_pooling=32)
        model = cnn4_sc(cfg, input_size=16, width_mult=0.25, kernel_size=3, seed=2)
        a = evaluate(model, test, batch_size=32)
        b = evaluate(model, test, batch_size=32)
        assert a == b

    def test_trng_eval_varies(self, data):
        _, test = data
        cfg = SCConfig(
            stream_length=32, stream_length_pooling=32, rng_kind="trng"
        )
        model = cnn4_sc(cfg, input_size=16, width_mult=0.25, kernel_size=3, seed=2)
        logits_a = model(Tensor(test.images[:8])).data
        logits_b = model(Tensor(test.images[:8])).data
        assert not np.array_equal(logits_a, logits_b)

    def test_lenet_sc_forward_backward(self):
        cfg = SCConfig(stream_length=32, stream_length_pooling=32)
        model = lenet5_sc(cfg, input_size=12, width_mult=0.5, kernel_size=3, seed=0)
        x = Tensor(np.random.default_rng(0).uniform(0, 1, (2, 1, 12, 12)))
        loss = F.cross_entropy(model(x), np.array([1, 3]))
        loss.backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads and all(np.isfinite(g).all() for g in grads)

    def test_table1_configs_all_simulate(self, data):
        _, test = data
        for label, cfg in TABLE1_CONFIGS.items():
            model = cnn4_sc(
                cfg, input_size=16, width_mult=0.25, kernel_size=3, seed=0
            )
            acc = evaluate(
                model,
                type(test)(test.images[:16], test.labels[:16]),
                batch_size=16,
            )
            assert 0.0 <= acc <= 1.0, label


class TestPerfSimProperties:
    def test_longer_streams_cost_more_cycles(self):
        layers = cnn4_shapes(32)
        short = simulate(layers, GEO_ULP, STREAMS_32_64)
        long_ = simulate(layers, GEO_ULP, STREAMS_128_128)
        assert long_.total_cycles > short.total_cycles

    @given(st.sampled_from([16, 32, 64, 128]))
    @settings(max_examples=8, deadline=None)
    def test_energy_positive_and_finite(self, sp):
        cfg = SCConfig(stream_length=2 * sp, stream_length_pooling=sp)
        report = simulate(cnn4_shapes(32), GEO_ULP, cfg)
        assert 0 < report.energy_per_frame_j < 1.0
        assert 0 < report.power_mw < 1e4

    @given(st.sampled_from([16, 32, 64]))
    @settings(max_examples=6, deadline=None)
    def test_more_rows_never_slower(self, rows):
        layers = cnn4_shapes(32)
        small = simulate(layers, GEO_ULP.with_(rows=rows), STREAMS_32_64)
        big = simulate(layers, GEO_ULP.with_(rows=2 * rows), STREAMS_32_64)
        assert big.total_cycles <= small.total_cycles

    def test_compiled_programs_cover_all_cycles(self):
        programs = compile_network(cnn4_shapes(32), GEO_ULP, STREAMS_32_64)
        report = simulate(cnn4_shapes(32), GEO_ULP, STREAMS_32_64)
        assert sum(p.total_cycles for p in programs) == report.total_cycles

    def test_disabling_skipping_costs_cycles(self):
        layers = cnn4_shapes(32)
        skip = simulate(layers, GEO_ULP, STREAMS_32_64)
        full = simulate(
            layers, GEO_ULP.with_(computation_skipping=False), STREAMS_32_64
        )
        # Without converter-side pooling, pooled layers must write back
        # 4X the values (the generation work is identical).
        assert full.total_cycles >= skip.total_cycles


class TestStackConsistency:
    def test_sc_layer_matches_raw_simulator(self):
        """The SCConv2d module's forward equals the raw simulator's output
        on the same (clipped) operands and seeds."""
        from repro.scnn.layers import SCConv2d

        cfg = SCConfig(stream_length=32, stream_length_pooling=32)
        layer = SCConv2d(3, 4, 3, cfg, padding=1, layer_index=0)
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, size=(2, 3, 6, 6)).astype(np.float32)
        expected = layer.simulator(
            np.clip(x, 0, 1), np.clip(layer.weight.data, -1, 1)
        )
        out = layer(Tensor(x)).data
        np.testing.assert_array_equal(out, expected)
