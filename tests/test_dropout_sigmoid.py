"""Tests for Dropout and sigmoid additions to the NN substrate."""

import numpy as np
import pytest

from repro import nn
from repro.errors import ConfigurationError
from repro.nn.tensor import Tensor
from tests.test_tensor import check_gradient


class TestSigmoid:
    def test_values(self):
        x = Tensor(np.array([0.0, 100.0, -100.0]))
        y = x.sigmoid().data
        np.testing.assert_allclose(y, [0.5, 1.0, 0.0], atol=1e-6)

    def test_gradient_numeric(self):
        check_gradient(
            lambda t: t.sigmoid().sum(),
            np.random.default_rng(0).normal(size=(6,)),
        )

    def test_gradient_peak_at_zero(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        x.sigmoid().sum().backward()
        assert x.grad[0] == pytest.approx(0.25)


class TestDropout:
    def test_invalid_p_rejected(self):
        with pytest.raises(ConfigurationError):
            nn.Dropout(1.0)
        with pytest.raises(ConfigurationError):
            nn.Dropout(-0.1)

    def test_eval_mode_is_identity(self):
        layer = nn.Dropout(0.8, seed=0)
        layer.eval()
        x = Tensor(np.random.default_rng(1).normal(size=(4, 8)))
        np.testing.assert_array_equal(layer(x).data, x.data)

    def test_zero_p_is_identity_even_training(self):
        layer = nn.Dropout(0.0)
        x = Tensor(np.ones((4, 8)))
        np.testing.assert_array_equal(layer(x).data, x.data)

    def test_training_zeroes_about_p(self):
        layer = nn.Dropout(0.3, seed=2)
        x = Tensor(np.ones((100, 100)))
        y = layer(x).data
        dropped = (y == 0).mean()
        assert 0.25 < dropped < 0.35

    def test_inverted_scaling_preserves_mean(self):
        layer = nn.Dropout(0.5, seed=3)
        x = Tensor(np.ones((200, 200)))
        y = layer(x).data
        assert y.mean() == pytest.approx(1.0, abs=0.05)

    def test_gradient_masks_dropped_units(self):
        layer = nn.Dropout(0.5, seed=4)
        x = Tensor(np.ones((10, 10), dtype=np.float32), requires_grad=True)
        y = layer(x)
        y.sum().backward()
        # Gradient is 0 exactly where the activation was dropped.
        np.testing.assert_array_equal((x.grad == 0), (y.data == 0))

    def test_in_sequential_train_eval(self):
        model = nn.Sequential(nn.Linear(4, 4), nn.Dropout(0.5), nn.ReLU())
        model.eval()
        assert not model[1].training
        model.train()
        assert model[1].training
