"""One differential harness over the bit-true SC execution paths.

The same SC layer can be computed several ways from the same seed plan
and stream table: the fused kernels at the geometry their shape rule
picks, the reference engine, and, for a convolution whose kernel fits
one MAC row, the hardware row model
(:class:`repro.arch.functional.RowDatapath`). On the same input they must
agree bit for bit. The draws cover every accumulation mode, RNG kind,
sharing level and progressive setting, stream lengths of one and two
lanes and of one and two words, and inputs at the exact ends 0 and 1,
an all-zero batch (the kernels' early-out) and ±inf, which saturates
like any out-of-range value. NaN has no level: every path rejects it
with :class:`ShapeError`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.functional import RowDatapath
from repro.arch.geo import GEO_ULP
from repro.errors import ShapeError
from repro.models.shapes import LayerShape
from repro.scnn.config import SCConfig
from repro.scnn.sim import SCConvSimulator, SCLinearSimulator

MODES = ("sc", "pbw", "pbhw", "fxp", "apc")
EDGES = ("interior", "ends", "zeros", "inf", "nan-input", "nan-weight")

configs = st.builds(
    lambda mode, rng_kind, progressive, sharing, length, chunk: SCConfig(
        stream_length=length,
        stream_length_pooling=length,
        output_stream_length=length,
        accumulation=mode,
        rng_kind=rng_kind,
        progressive=progressive,
        sharing=sharing,
        batch_chunk=chunk,
        # Frozen TRNG draws give every path the same streams; fresh
        # draws differ between calls by design.
        trng_eval_freeze=True,
    ),
    mode=st.sampled_from(MODES),
    rng_kind=st.sampled_from(("lfsr", "sobol", "trng")),
    progressive=st.booleans(),
    sharing=st.sampled_from(("none", "moderate", "extreme")),
    # 8-32 bits pack two streams per word, 64 one, 128 take two words.
    length=st.sampled_from((8, 16, 32, 64, 128)),
    chunk=st.sampled_from((1, 16)),
)


def _operands(rng, x_shape, w_shape, edge):
    """Activations in [0, 1] and weights in [-1, 1] with ``edge``'s
    special values mixed in."""
    x = rng.uniform(0, 1, size=x_shape)
    w = rng.uniform(-1, 1, size=w_shape)
    if edge == "ends":
        x[rng.random(x_shape) < 0.3] = 0.0
        x[rng.random(x_shape) < 0.3] = 1.0
        w[rng.random(w_shape) < 0.2] = 0.0
        w[rng.random(w_shape) < 0.2] = rng.choice((-1.0, 1.0))
    elif edge == "zeros":
        x[:] = 0.0
    elif edge == "inf":
        x[rng.random(x_shape) < 0.2] = np.inf
        x[rng.random(x_shape) < 0.2] = -np.inf
        w[rng.random(w_shape) < 0.2] = np.inf
        w[rng.random(w_shape) < 0.2] = -np.inf
    elif edge == "nan-input":
        x.flat[rng.integers(x.size)] = np.nan
    elif edge == "nan-weight":
        w.flat[rng.integers(w.size)] = np.nan
    return x.astype(np.float32), w.astype(np.float32)


def _agree(paths, x, w):
    """Run every path on ``(x, w)`` and require one bit-identical answer.

    With ±inf operands each path must also equal its own answer on the
    clipped operands; with NaN every path must raise ``ShapeError``.
    """
    if np.isnan(x).any() or np.isnan(w).any():
        for path in paths.values():
            with pytest.raises(ShapeError):
                path(x, w)
        return
    outs = {name: path(x, w) for name, path in paths.items()}
    if np.isinf(x).any() or np.isinf(w).any():
        xc, wc = np.clip(x, 0, 1), np.clip(w, -1, 1)
        for name, path in paths.items():
            np.testing.assert_array_equal(outs[name], path(xc, wc), err_msg=name)
    first, *rest = outs
    for name in rest:
        np.testing.assert_array_equal(outs[name], outs[first], err_msg=name)


@given(
    cfg=configs,
    cin=st.integers(1, 3),
    cout=st.integers(1, 3),
    kernel=st.integers(1, 3),
    stride=st.integers(1, 2),
    padding=st.integers(0, 1),
    extra=st.integers(0, 3),
    n=st.integers(1, 3),
    windows=st.sampled_from((1, 2, 5, 100)),
    edge=st.sampled_from(EDGES),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=300, deadline=None)
def test_conv_paths_agree(
    cfg, cin, cout, kernel, stride, padding, extra, n, windows, edge, seed
):
    """Fused, reference and row-datapath convolutions agree bit for bit.

    ``windows`` output windows fit one row, so the row model splits the
    output positions into that many per pass.
    """
    size = max(kernel - 2 * padding, 1) + extra
    layer = LayerShape(
        "conv", "conv", cin, cout, kernel, size, stride=stride,
        padding=padding,
    )
    arch = GEO_ULP.with_(row_width=layer.kernel_volume * windows)
    paths = {
        engine: SCConvSimulator(
            (cout, cin, kernel, kernel), cfg.with_(engine=engine),
            stride=stride, padding=padding,
        )
        for engine in ("fused", "reference")
    }
    paths["row"] = RowDatapath(layer, arch, cfg).run
    x, w = _operands(
        np.random.default_rng(seed), (n, cin, size, size),
        (cout, cin, kernel, kernel), edge,
    )
    _agree(paths, x, w)


@given(
    cfg=configs,
    in_features=st.integers(1, 12),
    out_features=st.integers(1, 3),
    n=st.integers(1, 3),
    edge=st.sampled_from(EDGES),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_linear_paths_agree(cfg, in_features, out_features, n, edge, seed):
    """Fused and reference fully connected layers agree bit for bit."""
    paths = {
        engine: SCLinearSimulator(
            in_features, out_features, cfg.with_(engine=engine)
        )
        for engine in ("fused", "reference")
    }
    x, w = _operands(
        np.random.default_rng(seed), (n, in_features),
        (out_features, in_features), edge,
    )
    _agree(paths, x, w)
