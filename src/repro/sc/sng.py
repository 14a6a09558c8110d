"""Stochastic number generators (SNGs), normal and progressive.

An SNG holds an n-bit target value in a buffer and compares it against an
n-bit random value every cycle; the comparator output is the stream bit
(paper Fig. 3a). The library convention is:

* targets are quantized integers in ``[0, 2**n - 1]``
  (:func:`repro.sc.formats.quantize_unipolar` with ``levels = 2**n - 1``),
* random values are integers in ``[1, 2**n - 1]`` (LFSR states never reach
  zero; the other sources are mapped into the same range),
* the stream bit is ``rand <= target``,

so over a full LFSR period of ``2**n - 1`` cycles a target ``q`` produces
exactly ``q`` ones — the "almost accurate generation" the paper relies on,
and the estimated value ``ones/period`` equals ``q / (2**n - 1)`` exactly.

The comparator is monotone in the target: each (generator, cycle) bit
turns on at one *threshold* target and stays on for every larger one.
:meth:`SNG.table` builds the streams of a whole target alphabet from
those thresholds, in memory proportional to the table it returns.

:class:`ProgressiveSNG` implements Sec. II-B: generation starts once the
2 most-significant bits of the target are in the buffer, with the lower
bits arriving in groups of 2 every 2 cycles (the unloaded tail reads as 0).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.sc.rng import RandomSource
from repro.sc.streams import StreamBatch
from repro.utils.bitops import WORD_BITS, pack_bits, packed_words

#: One set bit per position of a packed word.
_WORD_BIT = np.left_shift(np.uint64(1), np.arange(WORD_BITS, dtype=np.uint64))


def _validate_targets(targets: np.ndarray, bits: int) -> np.ndarray:
    targets = np.asarray(targets)
    if not np.issubdtype(targets.dtype, np.integer):
        raise ConfigurationError(
            "SNG targets must be quantized integers; use quantize_unipolar"
        )
    limit = (1 << bits) - 1
    if targets.size and (targets.min() < 0 or targets.max() > limit):
        raise ConfigurationError(
            f"targets out of range [0, {limit}] for {bits}-bit SNG"
        )
    return targets.astype(np.int64, copy=False)


class SNG:
    """Comparator-based stochastic number generator bank.

    Parameters
    ----------
    source:
        The random source shared by this generator bank.
    bits:
        Comparator/target width. Streams of length ``2**bits`` are the
        natural match (paper Sec. II-A), but any length can be generated.
    """

    def __init__(self, source: RandomSource, bits: int):
        if bits != source.width:
            raise ConfigurationError(
                f"SNG width {bits} must match RNG width {source.width}"
            )
        self.source = source
        self.bits = bits

    def generate(
        self,
        targets: np.ndarray,
        seeds: np.ndarray,
        length: int,
    ) -> StreamBatch:
        """Generate one stream per target.

        Parameters
        ----------
        targets:
            Quantized integer targets, any shape ``S``.
        seeds:
            Integer seed per target, broadcastable to ``S``. Equal seeds
            mean a *shared* RNG: those comparators see identical random
            values every cycle.
        length:
            Stream length in bits.
        """
        targets = _validate_targets(targets, self.bits)
        seeds = np.broadcast_to(np.asarray(seeds, dtype=np.int64), targets.shape)
        unique, inverse = np.unique(seeds.ravel(), return_inverse=True)
        bank = self.source.bank(unique, length)  # (U, L)
        rand = bank[inverse].reshape(targets.shape + (length,))
        bits = rand <= targets[..., None]
        return StreamBatch(pack_bits(bits), length)

    def thresholds(self, rand: np.ndarray) -> np.ndarray:
        """Smallest target whose stream bit each random value sets.

        ``rand`` is a bank ``(..., length)``; the bit is ``rand <=
        target``, so the threshold is ``rand`` itself.
        """
        return rand

    def table(self, seeds: np.ndarray, length: int) -> np.ndarray:
        """Packed streams of every target for each seed.

        Returns ``uint64`` words of shape ``(len(seeds), 2**bits,
        words)``; row ``[i, v]`` equals ``generate(v, seeds[i],
        length)``, and the bank is drawn once over ``seeds``, as
        :meth:`generate` draws it over its unique seeds.

        Each (seed, cycle) bit is scattered into the row of its
        threshold target, then the rows are OR-accumulated along the
        target axis, so every larger target inherits it. A threshold
        past ``2**bits - 1`` never fires.
        """
        seeds = np.asarray(seeds, dtype=np.int64)
        size = 1 << self.bits
        threshold = self.thresholds(self.source.bank(seeds, length))
        words = packed_words(length)
        table = np.zeros((seeds.size, size, words), dtype=np.uint64)
        for w in range(words):
            level = threshold[:, w * WORD_BITS : (w + 1) * WORD_BITS]
            row, t = np.nonzero(level < size)
            np.bitwise_or.at(table[:, :, w], (row, level[row, t]), _WORD_BIT[t])
        np.bitwise_or.accumulate(table, axis=1, out=table)
        return table


class ProgressiveSNG(SNG):
    """Progressive stream generation (paper Sec. II-B, Fig. 3b).

    Generation begins as soon as ``initial_bits`` most-significant bits of
    each target are loaded; every ``cycles_per_group`` cycles another
    ``bits_per_group`` bits arrive. Unloaded low bits read as zero, so the
    effective target value ramps up toward the true value, reaching it
    after ``cycles_per_group * ceil((bits - initial_bits) / bits_per_group)``
    cycles (at most 8 cycles for an 8-bit buffer with the default 2/2/2
    schedule, matching Fig. 2).
    """

    def __init__(
        self,
        source: RandomSource,
        bits: int,
        initial_bits: int = 2,
        bits_per_group: int = 2,
        cycles_per_group: int = 2,
    ):
        super().__init__(source, bits)
        if not 1 <= initial_bits <= bits:
            raise ConfigurationError(
                f"initial_bits must be in [1, {bits}], got {initial_bits}"
            )
        if bits_per_group < 1 or cycles_per_group < 1:
            raise ConfigurationError(
                "bits_per_group and cycles_per_group must be >= 1"
            )
        self.initial_bits = initial_bits
        self.bits_per_group = bits_per_group
        self.cycles_per_group = cycles_per_group

    def loaded_bits_schedule(self, length: int) -> np.ndarray:
        """Number of target bits visible at each cycle ``t`` in [0, length)."""
        t = np.arange(length)
        groups = t // self.cycles_per_group
        loaded = self.initial_bits + self.bits_per_group * groups
        return np.minimum(loaded, self.bits)

    def settle_cycles(self) -> int:
        """First cycle index at which the full target value is visible."""
        missing = self.bits - self.initial_bits
        if missing <= 0:
            return 0
        groups = -(-missing // self.bits_per_group)  # ceil division
        return groups * self.cycles_per_group

    def effective_targets(self, targets: np.ndarray, length: int) -> np.ndarray:
        """Per-cycle effective target values, shape ``S + (length,)``.

        At cycle ``t`` only the top ``loaded_bits_schedule(length)[t]`` bits
        of the target are in the buffer; the rest are zero-padded.
        """
        targets = _validate_targets(targets, self.bits)
        loaded = self.loaded_bits_schedule(length)
        low_zeros = self.bits - loaded  # (L,)
        masks = (~((np.int64(1) << low_zeros) - 1)) & ((1 << self.bits) - 1)
        return targets[..., None] & masks

    def thresholds(self, rand: np.ndarray) -> np.ndarray:
        """At cycle ``t`` the comparator sees the target with its low
        ``low[t]`` bits cleared, a multiple of ``2**low[t]``; ``rand``
        passes it once the target reaches ``rand`` rounded up to that
        multiple, which may lie past the alphabet."""
        low = self.bits - self.loaded_bits_schedule(rand.shape[-1])
        return ((rand + (1 << low) - 1) >> low) << low

    def generate(
        self,
        targets: np.ndarray,
        seeds: np.ndarray,
        length: int,
    ) -> StreamBatch:
        targets = _validate_targets(targets, self.bits)
        seeds = np.broadcast_to(np.asarray(seeds, dtype=np.int64), targets.shape)
        unique, inverse = np.unique(seeds.ravel(), return_inverse=True)
        bank = self.source.bank(unique, length)
        rand = bank[inverse].reshape(targets.shape + (length,))
        effective = self.effective_targets(targets, length)
        bits = rand <= effective
        return StreamBatch(pack_bits(bits), length)


class ShadowBufferedSNG:
    """Timing model of progressive shadow buffering (paper Sec. III-D).

    Functionally the streams are identical to :class:`ProgressiveSNG`; the
    value of shadow buffers is *latency*: while the current operands
    compute, the first ``initial_bits`` of the next operands are loaded
    into the shadow buffer, so the next generation phase starts immediately
    instead of stalling for a buffer reload. This class exposes the reload
    stall in cycles for the three buffering schemes, which the performance
    simulator consumes.
    """

    def __init__(self, sng: ProgressiveSNG, buffer_entries: int, load_width: int):
        if buffer_entries < 1 or load_width < 1:
            raise ConfigurationError(
                "buffer_entries and load_width must be >= 1"
            )
        self.sng = sng
        self.buffer_entries = buffer_entries
        self.load_width = load_width

    def _cycles_to_load(self, bits_per_entry: int) -> int:
        total_bits = self.buffer_entries * bits_per_entry
        return -(-total_bits // self.load_width)

    def reload_stall_cycles(self, scheme: str) -> int:
        """Stall between compute phases for a buffering ``scheme``.

        * ``"parallel"`` — classic SNG: all target bits load before
          generation starts; the full buffer reload is exposed.
        * ``"progressive"`` — generation starts after ``initial_bits`` are
          in; only that prefix of the reload is exposed (the rest overlaps
          with generation). This is the paper's 4X reload-latency saving
          for the default 2-of-8-bit schedule.
        * ``"shadow"`` — progressive + shadow buffers: the prefix was
          prefetched during the previous phase, so no stall remains.
        """
        if scheme == "parallel":
            return self._cycles_to_load(self.sng.bits)
        if scheme == "progressive":
            return self._cycles_to_load(self.sng.initial_bits)
        if scheme == "shadow":
            return 0
        raise ConfigurationError(f"unknown buffering scheme: {scheme!r}")

    def reload_speedup(self) -> float:
        """Reload-latency ratio of parallel over progressive buffering
        (the paper reports 4X for 2-of-8-bit progressive loading)."""
        progressive = self.reload_stall_cycles("progressive")
        if progressive == 0:
            return float("inf")
        return self.reload_stall_cycles("parallel") / progressive
