"""Tests for SC layers, straight-through training, and config swapping."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn import Adam
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.scnn import (
    SCConfig,
    SCConv2d,
    SCLinear,
    set_simulation,
    straight_through,
    swap_config,
)

CFG = SCConfig(stream_length=64, stream_length_pooling=64, accumulation="pbw")


class TestStraightThrough:
    def test_forward_value_is_sc(self):
        y_fp = Tensor(np.zeros((2, 2), dtype=np.float32), requires_grad=True)
        y_sc = np.ones((2, 2), dtype=np.float32)
        out = straight_through(y_fp, y_sc)
        np.testing.assert_array_equal(out.data, y_sc)

    def test_gradient_flows_to_fp(self):
        y_fp = Tensor(np.zeros((2, 2), dtype=np.float32), requires_grad=True)
        out = straight_through(y_fp, np.ones((2, 2), dtype=np.float32))
        (out * 3.0).sum().backward()
        np.testing.assert_allclose(y_fp.grad, np.full((2, 2), 3.0))


class TestNonFiniteValues:
    """NaN has no quantization level; ±inf saturates like any value
    outside the representable range."""

    def _layer_and_input(self):
        layer = SCConv2d(2, 3, 3, CFG, padding=1)
        x = np.random.default_rng(4).uniform(0, 1, size=(2, 2, 5, 5))
        return layer, x

    def test_nan_activation_raises_shape_error(self):
        layer, x = self._layer_and_input()
        x[0, 1, 2, 3] = x[1, 0, 0, 0] = np.nan
        with pytest.raises(ShapeError, match="2 of"):
            layer(Tensor(x))

    def test_all_nan_activation_raises_instead_of_reading_zero(self):
        layer, x = self._layer_and_input()
        with pytest.raises(ShapeError):
            layer(Tensor(np.full_like(x, np.nan)))

    def test_nan_weight_raises_shape_error(self):
        layer, x = self._layer_and_input()
        layer.weight.data[0, 0, 0, 0] = np.nan
        with pytest.raises(ShapeError, match="1 of"):
            layer(Tensor(x))

    def test_infinite_values_saturate(self):
        layer, x = self._layer_and_input()
        x[0, 0, :2] = np.inf
        x[1, 1, 3:] = -np.inf
        layer.weight.data[0, 0, 0, :] = (np.inf, -np.inf, 0.25)
        y_inf = layer(Tensor(x)).data
        layer.weight.data = np.clip(layer.weight.data, -1.0, 1.0)
        y_clipped = layer(Tensor(np.clip(x, 0.0, 1.0))).data
        np.testing.assert_array_equal(y_inf, y_clipped)


class TestSCConv2d:
    def test_forward_shape(self):
        layer = SCConv2d(3, 4, 3, CFG, padding=1)
        x = Tensor(np.random.default_rng(0).uniform(0, 1, size=(2, 3, 8, 8)))
        assert layer(x).shape == (2, 4, 8, 8)

    def test_simulation_toggle(self):
        layer = SCConv2d(3, 4, 3, CFG, padding=1)
        x = Tensor(np.random.default_rng(1).uniform(0, 1, size=(1, 3, 6, 6)))
        y_sc = layer(x).data
        layer.set_simulate(False)
        y_fp = layer(x).data
        assert not np.array_equal(y_sc, y_fp)

    def test_gradient_reaches_weights(self):
        layer = SCConv2d(2, 3, 3, CFG)
        x = Tensor(np.random.default_rng(2).uniform(0, 1, size=(1, 2, 5, 5)))
        layer(x).sum().backward()
        assert layer.weight.grad is not None
        assert np.abs(layer.weight.grad).sum() > 0

    def test_weights_stay_in_range_when_trained(self):
        layer = SCConv2d(2, 2, 3, CFG)
        layer.weight.data += 5.0  # push way out of range
        x = Tensor(np.random.default_rng(3).uniform(0, 1, size=(1, 2, 5, 5)))
        y = layer(x)
        # The simulation saw clipped weights: outputs bounded by kernel
        # volume regardless of the raw weight scale.
        assert np.all(np.abs(y.data) <= 2 * 3 * 3 + 1e-6)

    def test_eval_deterministic_with_lfsr(self):
        layer = SCConv2d(2, 2, 3, CFG)
        x = Tensor(np.random.default_rng(4).uniform(0, 1, size=(1, 2, 5, 5)))
        np.testing.assert_array_equal(layer(x).data, layer(x).data)


class TestSCLinear:
    def test_forward_shape_and_grad(self):
        layer = SCLinear(16, 4, CFG)
        x = Tensor(np.random.default_rng(5).uniform(0, 1, size=(3, 16)))
        out = layer(x)
        assert out.shape == (3, 4)
        out.sum().backward()
        assert layer.weight.grad is not None


class TestSwapConfig:
    def test_swap_changes_behaviour(self):
        layer = SCConv2d(2, 2, 3, CFG)
        x = Tensor(np.random.default_rng(6).uniform(0, 1, size=(1, 2, 5, 5)))
        y_before = layer(x).data.copy()
        swap_config(layer, CFG.with_(stream_length=32, stream_length_pooling=32))
        y_after = layer(x).data
        assert layer.cfg.stream_length == 32
        assert not np.array_equal(y_before, y_after)

    def test_swap_preserves_weights(self):
        layer = SCLinear(8, 2, CFG)
        w = layer.weight.data.copy()
        swap_config(layer, CFG.with_(rng_kind="trng"))
        np.testing.assert_array_equal(layer.weight.data, w)


class TestSetSimulation:
    def test_disables_all_sc_layers(self):
        from repro.nn.layers import Sequential, ReLU

        model = Sequential(SCConv2d(1, 2, 3, CFG), ReLU(), SCLinear(8, 2, CFG))
        set_simulation(model, False)
        assert not model[0].simulate
        assert not model[2].simulate
        set_simulation(model, True)
        assert model[0].simulate


class TestSCLayerLearns:
    def test_sc_linear_learns_simple_mapping(self):
        # A single SC linear layer must be able to fit a linearly
        # separable 2-class problem through the straight-through path.
        rng = np.random.default_rng(7)
        n = 64
        x = rng.uniform(0, 1, size=(n, 8)).astype(np.float32)
        y = (x[:, 0] + x[:, 1] > x[:, 2] + x[:, 3]).astype(np.int64)
        layer = SCLinear(8, 2, CFG, rng=rng)
        opt = Adam(layer.parameters(), lr=0.02)
        for _ in range(60):
            opt.zero_grad()
            loss = F.cross_entropy(layer(Tensor(x)), y)
            loss.backward()
            opt.step()
        acc = F.accuracy(layer(Tensor(x)), y)
        assert acc > 0.8
