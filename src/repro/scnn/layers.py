"""SC-aware network layers: simulated-SC forward, floating-point backward.

The paper's training methodology (Sec. IV): "We implement the forward pass
using both floating-point and simulated SC. Simulated SC is used to
compute output values, while the floating-point forward pass is used to
guide back propagation." That is a straight-through estimator at layer
granularity, implemented here as ``out = y_fp + stop_grad(y_sc - y_fp)``:
the forward *value* is the bit-true SC simulation, the gradient is the
ordinary convolution gradient. Under ``no_grad`` (evaluation, serving,
pool workers) there is no gradient to guide, so only the SC value is
computed. Determinstic LFSR generation makes the
fixed SC error learnable; TRNG makes it irreducible noise — which is the
whole point of Fig. 1.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from repro.errors import ConfigurationError
from repro.nn import functional as F
from repro.nn import init
from repro.nn.layers import Module
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.scnn.config import SCConfig
from repro.scnn.sim import SCConvSimulator, SCLinearSimulator


def straight_through(y_fp: Tensor, y_sc: np.ndarray) -> Tensor:
    """Value of ``y_sc``, gradient of ``y_fp``."""
    data = np.asarray(y_sc, dtype=np.float32)

    def backward(grad: np.ndarray) -> None:
        if y_fp.requires_grad:
            y_fp._accumulate(grad)

    return Tensor._make(data, (y_fp,), backward)


# -- SC value capture / injection (pooled minibatch execution) ---------------
#
# The SC forward is expensive; the FP forward and the backward pass are
# cheap. The minibatch pool (:mod:`repro.scnn.pool`) offloads the SC
# part to worker processes: the worker runs a full simulated forward
# under ``capture_sc_values`` (recording each SC layer's bit-true
# output, in traversal order), and the parent re-runs only the FP
# forward under ``inject_sc_values`` (substituting those outputs into
# the straight-through estimator, and advancing each simulator's call
# index exactly as if it had simulated locally). Because worker and
# parent start the batch from identical shipped state, the injected
# forward is bit-identical to an in-process simulated forward — pooled
# and in-process training produce the same weights.

_sc_tap = threading.local()


@contextlib.contextmanager
def capture_sc_values():
    """Record each SC layer's simulated output during forwards.

    Yields a list that fills with ``np.ndarray`` values in layer
    traversal order (one entry per SC-layer forward executed inside the
    ``with`` block).
    """
    captured: list[np.ndarray] = []
    _sc_tap.mode = "capture"
    _sc_tap.values = captured
    try:
        yield captured
    finally:
        _sc_tap.mode = None
        _sc_tap.values = None


@contextlib.contextmanager
def inject_sc_values(values):
    """Substitute pre-computed SC outputs instead of simulating.

    ``values`` must be the list captured by :func:`capture_sc_values`
    for the *same* model state and input; they are consumed in order.
    Each injection still advances the local simulator's call index
    (:meth:`~repro.scnn.sim.SCConvSimulator.skip_call`) so subsequent
    in-process forwards stay bit-identical to a never-pooled run.
    Exiting the block verifies every value was consumed.
    """
    pending = list(values)
    _sc_tap.mode = "inject"
    _sc_tap.values = pending
    try:
        yield
        if pending:
            raise ConfigurationError(
                f"{len(pending)} injected SC value(s) left unconsumed — "
                "model disagrees with the capturing forward"
            )
    finally:
        _sc_tap.mode = None
        _sc_tap.values = None


def _sc_value(module: "SCModule", x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One SC-layer output, honouring any active capture/inject tap."""
    mode = getattr(_sc_tap, "mode", None)
    if mode == "inject":
        if not _sc_tap.values:
            raise ConfigurationError(
                "ran out of injected SC values — model disagrees with "
                "the capturing forward"
            )
        y_sc = _sc_tap.values.pop(0)
        module.simulator.skip_call()
        return y_sc
    y_sc = module.simulator(x, w)
    if mode == "capture":
        _sc_tap.values.append(y_sc)
    return y_sc


class SCModule(Module):
    """Common state for SC layers: config, simulation toggle."""

    def __init__(self, cfg: SCConfig, role: str, layer_index: int):
        super().__init__()
        self.cfg = cfg
        self.role = role
        self.layer_index = layer_index
        self.simulate = True  # False -> pure FP forward (reference arm)

    def set_simulate(self, flag: bool) -> None:
        self.simulate = bool(flag)

    def _forward(self, x: Tensor, fp) -> Tensor:
        """The layer's output on clipped operands: the SC value with the
        gradient of ``fp(x, w)``, the FP surrogate.

        The surrogate only guides backpropagation, so under ``no_grad``
        it is not computed; with simulation off it is the output.
        """
        x_c = x.clip(0.0, 1.0)
        w_c = self.weight.clip(-1.0, 1.0)
        if not self.simulate:
            return fp(x_c, w_c)
        if not is_grad_enabled():
            return Tensor(_sc_value(self, x_c.data, w_c.data))
        y_fp = fp(x_c, w_c)
        return straight_through(y_fp, _sc_value(self, x_c.data, w_c.data))


class SCConv2d(SCModule):
    """Convolution executed on the simulated SC datapath.

    Activations are clipped to ``[0, 1]`` and weights to ``[-1, 1]``
    (the representable split-unipolar range; the clip gradients keep
    training inside it). The layer output is in linear units
    ``counts / stream_length``, so a fixed-point batch-norm after it
    recovers dynamic range exactly as in Sec. III-B.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        cfg: SCConfig,
        stride: int = 1,
        padding: int = 0,
        role: str = "plain",
        layer_index: int = 0,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(cfg, role, layer_index)
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Tensor(
            init.scaled_sc_uniform(shape, rng), requires_grad=True
        )
        self.simulator = SCConvSimulator(
            shape,
            cfg,
            role=role,
            layer_index=layer_index,
            stride=stride,
            padding=padding,
        )

    def forward(self, x: Tensor) -> Tensor:
        return self._forward(
            x,
            lambda x_c, w_c: F.conv2d(
                x_c, w_c, stride=self.stride, padding=self.padding
            ),
        )


class SCLinear(SCModule):
    """Fully-connected layer on the simulated SC datapath."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        cfg: SCConfig,
        role: str = "output",
        layer_index: int = 0,
        binary_groups: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(cfg, role, layer_index)
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.simulator = SCLinearSimulator(
            in_features,
            out_features,
            cfg,
            role=role,
            layer_index=layer_index,
            binary_groups=binary_groups,
        )
        self.weight = Tensor(
            init.scaled_sc_uniform((out_features, in_features), rng),
            requires_grad=True,
        )

    def forward(self, x: Tensor) -> Tensor:
        return self._forward(x, F.linear)


def set_simulation(model: Module, flag: bool) -> None:
    """Enable/disable the SC forward on every SC layer of ``model``."""
    for module in model.modules():
        if isinstance(module, SCModule):
            module.set_simulate(flag)


def _reconfigure_execution(model: Module, **kwargs) -> None:
    """Update in-place-reconfigurable knobs (engine / num_workers /
    batch_chunk / stream lengths) on every SC layer; stream-length
    changes reuse the simulators' cached per-width seed plans."""
    for module in model.modules():
        if isinstance(module, SCModule):
            module.cfg = module.cfg.with_(**kwargs)
            simulator = getattr(module, "simulator", None)
            if simulator is not None:
                simulator.reconfigure(**kwargs)


def set_engine(model: Module, engine: str) -> None:
    """Switch every SC layer between the ``"fused"`` and ``"reference"``
    execution engines (bit-identical outputs; see `repro.sc.kernels`)."""
    _reconfigure_execution(model, engine=engine)


def set_num_workers(model: Module, num_workers: int) -> None:
    """Set the fused-engine shard count on every SC layer (``0`` = the
    process's kernel share, split among the kernel calls running at once;
    see :func:`repro.utils.parallel.kernel_call`)."""
    _reconfigure_execution(model, num_workers=num_workers)


def set_stream_lengths(
    model: Module,
    stream_length: int | None = None,
    stream_length_pooling: int | None = None,
    output_stream_length: int | None = None,
) -> None:
    """Reconfigure stream lengths on every SC layer *in place*.

    This is SC's unique accuracy/latency knob (shorter streams = fewer
    bit-ops per MAC) exposed at model granularity — the serving layer
    uses it to shed load by degrading, then restoring, stream lengths.
    Unlike :func:`swap_config` nothing is rebuilt: each simulator swaps
    atomically onto a cached per-width seed plan, so the call is safe
    while other threads are mid-forward (they finish on the old tier).
    """
    kwargs = {
        key: value
        for key, value in (
            ("stream_length", stream_length),
            ("stream_length_pooling", stream_length_pooling),
            ("output_stream_length", output_stream_length),
        )
        if value is not None
    }
    if kwargs:
        _reconfigure_execution(model, **kwargs)


def swap_config(model: Module, cfg: SCConfig) -> None:
    """Replace the SC config of every SC layer (e.g. validate a
    TRNG-trained model with LFSR generation, as in the Fig. 1 mismatch
    experiment). Simulators are rebuilt; weights are untouched."""
    for module in model.modules():
        if isinstance(module, SCConv2d):
            module.cfg = cfg
            module.simulator = SCConvSimulator(
                tuple(module.weight.shape),
                cfg,
                role=module.role,
                layer_index=module.layer_index,
                stride=module.stride,
                padding=module.padding,
            )
        elif isinstance(module, SCLinear):
            module.cfg = cfg
            module.simulator = SCLinearSimulator(
                module.in_features,
                module.out_features,
                cfg,
                role=module.role,
                layer_index=module.layer_index,
                binary_groups=module.simulator.binary_groups,
            )
