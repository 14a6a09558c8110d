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
from repro.errors import CompilationError
from repro.models.shapes import LayerShape
from repro.scnn import sim as scnn_sim
from repro.scnn.config import SCConfig


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
        self._sim = scnn_sim.SCConvSimulator(
            (layer.out_channels, layer.in_channels, layer.kernel, layer.kernel),
            cfg,
            role=role,
            stride=layer.stride,
            padding=layer.padding,
        )

    def run(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Execute every pass of the mapping; returns (N, Cout, OH, OW).

        The operands are the simulator's own for its first forward (call
        index 0); running the datapath does not advance its cursor.
        """
        layer = self.layer
        self._sim._check_shapes(x, weight)
        state = self._sim._state
        table, act_rows, wp, wn, cols = self._sim._operands(state, 0, x, weight)
        n, cin, kh, kw, oh, ow = cols.shape
        cols = cols.reshape(n, cin, kh, kw, oh * ow)

        windows = self.mapping.windows_per_pass
        out = np.full((n, layer.out_channels, oh * ow), np.nan, dtype=np.float32)
        passes = math.ceil(oh * ow / windows)
        for p in range(passes):
            lo, hi = p * windows, min((p + 1) * windows, oh * ow)
            # Fill the activation SNG buffers for this window batch; the
            # same per-position seeds serve every window (broadcast).
            # The fused kernels compute every MAC row of the pass in one
            # sweep — exactly the hardware's row-parallel execution.
            signed = scnn_sim.fused_conv_counts(
                table,
                act_rows,
                cols[..., lo:hi],  # (N, Cin, KH, KW, Wb)
                wp,
                wn,
                state.cfg.accumulation,
                num_workers=state.cfg.num_workers,
                length=state.length,
            )  # (N, Cout, Wb)
            out[:, :, lo:hi] = (signed / state.length).astype(np.float32)
        if np.isnan(out).any():
            raise CompilationError("mapping left output positions uncovered")
        return out.reshape(n, layer.out_channels, oh, ow)

    def reference(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """The algorithmic simulator's output on the same operands, drawn
        at call index 0 as :meth:`run` is; the cursor does not move."""
        x, weight = np.clip(x, 0, 1), np.clip(weight, -1, 1)
        self._sim._check_shapes(x, weight)
        return self._sim._forward(self._sim._state, 0, x, weight)


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
