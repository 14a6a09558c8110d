"""Functional (bit-true) model of the GEO MAC rows.

The performance simulator is analytic; this module executes a layer the
way the *hardware* does — pass by pass, window batch by window batch,
through the row geometry of a :class:`~repro.arch.geo.GeoArchConfig` —
producing actual output values. Its purpose is cross-validation: for any
layer whose kernel fits one MAC row, executing the mapped passes must
reproduce, bit for bit, what the algorithmic simulator
(:class:`~repro.scnn.sim.SCConvSimulator`) computes. This closes the loop
between `repro.scnn` (the training-time model) and `repro.arch` (the
hardware model): same seeds, same streams, same counts.

It also documents a real microarchitectural subtlety: when a kernel is
*split* across passes (near-memory partial sums), each segment is
OR-reduced separately and the converted counts are added in fixed point —
so the effective accumulation of a segmented layer is "OR within segment,
binary across segments", not one big OR. :func:`segmented_reference`
computes that reference.
"""

from __future__ import annotations

import math

import numpy as np

from repro.arch.dataflow import map_layer
from repro.arch.geo import GeoArchConfig
from repro.errors import CompilationError, ShapeError
from repro.models.shapes import LayerShape
from repro.nn.functional import conv_output_size, im2col
from repro.sc.formats import quantize_unipolar
from repro.sc.kernels import fused_conv_counts
from repro.scnn.config import SCConfig
from repro.scnn.sim import SCConvSimulator, stream_table


class RowDatapath:
    """Executes a convolution on the row fabric, pass by pass."""

    def __init__(
        self,
        layer: LayerShape,
        arch: GeoArchConfig,
        cfg: SCConfig,
        role: str = "plain",
    ):
        if layer.kind != "conv":
            raise CompilationError("RowDatapath models conv layers")
        self.layer = layer
        self.arch = arch
        self.cfg = cfg
        self.mapping = map_layer(layer, arch)
        if self.mapping.segments != 1:
            raise CompilationError(
                "RowDatapath covers kernels that fit one row; use "
                "segmented_reference for split kernels"
            )
        # Reuse the algorithmic simulator's seed plan and stream tables so
        # the comparison is apples to apples (same physical LFSR bank).
        self._sim = SCConvSimulator(
            (layer.out_channels, layer.in_channels, layer.kernel, layer.kernel),
            cfg,
            role=role,
            stride=layer.stride,
            padding=layer.padding,
        )

    def run(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Execute every pass of the mapping; returns (N, Cout, OH, OW)."""
        layer = self.layer
        kh = kw = layer.kernel
        cin, cout = layer.in_channels, layer.out_channels
        if x.ndim != 4 or x.shape[1] != cin:
            raise ShapeError(f"bad input shape {x.shape}")
        n = x.shape[0]
        oh = conv_output_size(x.shape[2], kh, layer.stride, layer.padding)
        ow = conv_output_size(x.shape[3], kw, layer.stride, layer.padding)

        sim = self._sim
        bits, length = sim.bits, sim.length
        q_act = quantize_unipolar(np.clip(x, 0, 1), bits)
        w_clipped = np.clip(weight, -1.0, 1.0)
        q_wpos = quantize_unipolar(np.maximum(w_clipped, 0.0), bits)
        q_wneg = quantize_unipolar(np.maximum(-w_clipped, 0.0), bits)

        all_seeds = np.concatenate(
            [sim.plan.weight_seeds.ravel(), sim.plan.act_seeds.ravel()]
        )
        from repro.scnn.sim import _build_source

        source = _build_source(sim.cfg, bits, sim.layer_index, 0)
        table, unique = stream_table(
            source, bits, length, all_seeds, sim.cfg.progressive
        )
        act_seed_idx = np.searchsorted(unique, sim.plan.act_seeds)
        wgt_rows = np.searchsorted(unique, sim.plan.weight_seeds)
        wp = table[wgt_rows, q_wpos]  # (Cout, Cin, KH, KW, words)
        wn = table[wgt_rows, q_wneg]

        windows = self.mapping.windows_per_pass
        out = np.full((n, cout, oh * ow), np.nan, dtype=np.float32)

        cols = im2col(
            q_act.astype(np.float32), kh, kw, layer.stride, layer.padding
        ).astype(np.int64)  # (N, Cin, KH, KW, OH, OW)
        cols = cols.reshape(n, cin, kh, kw, oh * ow)

        passes = math.ceil(oh * ow / windows)
        for p in range(passes):
            lo, hi = p * windows, min((p + 1) * windows, oh * ow)
            # Fill the activation SNG buffers for this window batch; the
            # same per-position seeds serve every window (broadcast).
            # The fused kernels compute every MAC row of the pass in one
            # sweep — exactly the hardware's row-parallel execution.
            signed = fused_conv_counts(
                table,
                act_seed_idx,
                cols[..., lo:hi],  # (N, Cin, KH, KW, Wb)
                wp,
                wn,
                self.cfg.accumulation,
                num_workers=self.cfg.num_workers,
            )  # (N, Cout, Wb)
            out[:, :, lo:hi] = (signed / length).astype(np.float32)
        if np.isnan(out).any():
            raise CompilationError("mapping left output positions uncovered")
        return out.reshape(n, cout, oh, ow)

    def reference(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """The algorithmic simulator's output on the same operands."""
        return self._sim(np.clip(x, 0, 1), np.clip(weight, -1, 1))


def segmented_reference(
    products_pos: np.ndarray,
    products_neg: np.ndarray,
    segments: int,
    length: int,
) -> np.ndarray:
    """Effective value of a kernel split across ``segments`` passes with
    near-memory partial-sum accumulation: each segment's product set is
    OR-reduced separately; converted counts add in fixed point.

    ``products_pos/neg``: packed product streams ``(K, words)`` for one
    output. Returns the signed value estimate.
    """
    from repro.utils.bitops import popcount_packed

    k = products_pos.shape[0]
    per_segment = math.ceil(k / segments)
    total = 0
    for s in range(segments):
        lo, hi = s * per_segment, min((s + 1) * per_segment, k)
        if lo >= hi:
            continue
        pos = np.bitwise_or.reduce(products_pos[lo:hi], axis=0)
        neg = np.bitwise_or.reduce(products_neg[lo:hi], axis=0)
        total += int(popcount_packed(pos[None])[0]) - int(
            popcount_packed(neg[None])[0]
        )
    return total / length
