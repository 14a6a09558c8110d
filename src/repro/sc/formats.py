"""Stochastic number formats and fixed-point quantization.

GEO represents values in the *split-unipolar* format (following ACOUSTIC):
a signed value ``x`` in ``[-1, 1]`` is carried as two unipolar streams, one
for the positive part ``max(x, 0)`` and one for the negative part
``max(-x, 0)``; multiplication distributes over the four sign-channel
combinations and the final subtraction happens after output conversion.
This doubles the effective stream length (paper Sec. IV: "the actual
stream length used is double the specified value") but keeps OR-based
accumulation unscaled and sign-correct.

All stream generation works on *quantized* integer targets: an ``n``-bit
SNG compares an ``n``-bit value against the RNG, so values are first
quantized to ``[0, 2**n - 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ShapeError, StreamLengthError


def stream_bits(length: int) -> int:
    """LFSR width matching a stream length (paper: streams of length
    ``2**n`` use an ``n``-bit LFSR)."""
    if length < 2 or length & (length - 1):
        raise StreamLengthError(
            f"stream length must be a power of two >= 2, got {length}"
        )
    return int(length).bit_length() - 1


def quantize_unipolar(values: np.ndarray, bits: int) -> np.ndarray:
    """Quantize values in ``[0, 1]`` to integers in ``[0, 2**bits - 1]``.

    Values are clipped into range first (``±inf`` saturates like any
    out-of-range value); quantization is round-to-nearest so the SC value
    grid matches the fixed-point reference used by the paper's RMS-error
    comparison (Fig. 2). NaN has no level and raises :class:`ShapeError`.
    """
    if bits < 1:
        raise ConfigurationError(f"need at least 1 bit, got {bits}")
    levels = (1 << bits) - 1
    values = np.asarray(values, dtype=np.float64)
    nan = np.count_nonzero(np.isnan(values))
    if nan:
        raise ShapeError(f"{nan} of {values.size} values to quantize are NaN")
    clipped = np.clip(values, 0.0, 1.0)
    return np.rint(clipped * levels).astype(np.int64)


def dequantize_unipolar(q: np.ndarray, bits: int) -> np.ndarray:
    """Map quantized integers back to ``[0, 1]`` floats."""
    levels = (1 << bits) - 1
    return np.asarray(q, dtype=np.float64) / levels


@dataclass(frozen=True)
class SplitUnipolar:
    """A signed tensor split into positive/negative unipolar magnitudes.

    Attributes
    ----------
    pos, neg:
        Same-shape arrays with values in ``[0, 1]``; the represented value
        is ``pos - neg`` and at most one of the two is nonzero per element.
    """

    pos: np.ndarray
    neg: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.pos.shape

    def value(self) -> np.ndarray:
        return self.pos - self.neg


def split_unipolar(values: np.ndarray) -> SplitUnipolar:
    """Split signed values in ``[-1, 1]`` into the split-unipolar format.

    Values are clipped into range; clipping models the saturation of the
    SC representation (also what the paper's trained models learn around).
    """
    arr = np.clip(np.asarray(values, dtype=np.float64), -1.0, 1.0)
    return SplitUnipolar(pos=np.maximum(arr, 0.0), neg=np.maximum(-arr, 0.0))


def merge_unipolar(pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """Recombine split-unipolar channel estimates into a signed value."""
    return np.asarray(pos, dtype=np.float64) - np.asarray(neg, dtype=np.float64)


def bipolar_encode(values: np.ndarray) -> np.ndarray:
    """Classic bipolar encoding ``p = (x + 1) / 2`` (provided for
    completeness and comparison tests; GEO itself is split-unipolar)."""
    arr = np.clip(np.asarray(values, dtype=np.float64), -1.0, 1.0)
    return (arr + 1.0) / 2.0


def bipolar_decode(probs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`bipolar_encode`: ``x = 2p - 1``."""
    return 2.0 * np.asarray(probs, dtype=np.float64) - 1.0
