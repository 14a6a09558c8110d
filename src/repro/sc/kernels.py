"""Fused word-parallel bit-kernels for the SC convolution hot path.

Every accuracy experiment in the paper funnels through the bit-true SC
convolution, whose naive form materializes, for *each* output channel, a
full ``(N, Cin, KH, KW, OH, OW, words)`` product tensor, reduces it, and
throws it away. This module replaces that loop with fused streaming
kernels built around two observations:

1. Every partial-binary accumulation mode is the same computation with a
   different *OR-group structure*: partition the ``Cin*KH*KW`` kernel
   positions into ``G`` groups of ``S`` members, OR the AND-products
   within each group, popcount the merged words, and add the ``G`` group
   counts in fixed point (SC: one group of everything; PBW: one group
   per kernel column; PBHW: one group per ``(kh, kw)`` tap; FXP: every
   product its own group; APC: pairs). OR is associative and popcount is
   exact, so any evaluation order is bit-identical to the reference.

2. The activation gather does not depend on the output channel, so
   gathering once per spatial chunk and sweeping all (positive and
   negative, stacked) weight channels over it — in cache-blocked slabs
   written into preallocated buffers — removes the per-channel re-read
   and re-allocation of the activation tensor that dominates the naive
   loop. The gather lands directly in ``(N, P, G, S, words)`` layout
   (the OR-group permutation is baked into the gather indices), which
   makes the kernel-position axis the *contiguous inner axis* of both
   the AND and the OR-reduction: the AND's vectorized inner loop runs
   over the whole ``G*S*words`` block and the OR reads sequential
   memory. Product slabs are sized to stay cache-resident, so the full
   product tensor never round-trips through DRAM.

**Product-count tables** (DESIGN §3.1): a stream is fully determined by
its table row and quantized value, so a group of one or two members
(FXP singletons, APC pairs, PBHW taps over one or two input channels)
has a signed count that depends only on its members' values and the
output channel. When a call's positions
outnumber those ``V**S`` value combinations enough (:func:`_uses_tables`,
from the shape alone), each group's ``V**S x Cout`` int16 table of
counts is built once from the stream table and the weights, in
slab-bounded blocks, and the call sums the rows its activation values
select instead of sweeping every position's words. Such calls report
``layout="table"``; every other call runs the slab sweep below.

Two slab *layouts* cover complementary regimes (DESIGN §3.6):

* ``k_inner`` (default): the group permutation is baked into the gather
  as above, and AND/OR stream over the contiguous ``G*S*words`` inner
  block. Wins when OR groups are long (SC, PBW) or carry the APC
  sentinel padding.
* ``s_outer`` (PBHW): operands stay in **natural** member-major
  ``(S, G)`` order — no permutation copy at all — with the spatial axis
  innermost. The AND then broadcasts each weight word stride-0 over a
  long contiguous spatial run, and the OR-reduction runs over the
  *outermost* member axis in full ``G*Pc*words`` planes; both patterns
  match the per-channel reference loop's fast inner loops while keeping
  the fused engine's single activation gather. It needs the mode's
  OR-group permutation to be the identity on natural member-major order,
  which PBHW's taps are (as are SC's, PBW's and FXP's; APC's pairs are
  not).

A call's layout, slab budget and channel-block width come from one
private rule over its shape (:func:`_plan`); no caller chooses them.
The slab sweep runs every operand word whatever its value, as GEO's MAC
rows stream every bit; the one exception is a call whose activation
values are all zero (serving warm-up feeds such samples). Value 0
encodes the all-zero stream, which ANDs, ORs and popcounts to zero, so
that call returns zero counts without running a kernel.

**Lane packing** (DESIGN §3.1): a stream of length ``<= 32`` fills only
the low half of its ``uint64`` word, so with the stream length passed in
(``length=``, never inferred from table values) the kernels put output
positions ``2j`` and ``2j+1`` in the low and high 32-bit *lanes* of one
word and every AND, OR and popcount does two positions' work. Each lane
is gathered with a flat ``np.take`` on the existing one-word table (at
offsets ``row * 2**bits + value``) and combined as ``lo | hi << 32``; a
paired ``V x V`` table would be 32x the table size. Weights are
duplicated into both halves (``w | w << 32``), so lanes never mix. The
epilogue counts lane 0 as ``popcount(x & 0xFFFFFFFF)`` and lane 1 as
``popcount(x) - lane0``, summing both over the group axis, and counts
are unpacked to ``(N, Cout, P)`` before returning (an odd ``P`` pads
with value 0, whose count is dropped). A table call with one-lane-wide
streams builds its tables on ``uint32`` words, two streams per 64-bit
word of its slabs.

Sharding (``num_workers``, by default the process's kernel share) splits
the spatial axis (or the channel axis for pointwise/FC shapes) of a
sweep, or the groups of a table call, across the calling thread and the
shard helpers of :mod:`repro.utils.parallel`; numpy releases the GIL
inside the kernels, so threads scale without copying the stream tables.
Every shard works in buffers the calling thread allocates once per call
(:class:`_Scratch`, :class:`_TableScratch`). The ``s_outer`` and table
budgets are per call, split among the shards, and the shards of a table
call add into one shared accumulator, so such a call stays within the
memory of a serial one whatever its shard count.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.obs import get_registry
from repro.sc.accumulate import AccumulationMode
from repro.utils import bitops
from repro.utils.bitops import packed_words, popcount_packed
from repro.utils.parallel import kernel_call, parallel_map, shard_slices

#: Peak bytes one product slab may occupy. Deliberately cache-sized:
#: the slab is written by the AND and immediately consumed by the
#: OR-reduction and popcount, so keeping it resident in L2/L3 means the
#: product tensor never round-trips through DRAM — only the (much
#: smaller) activation gather and merged group words touch memory.
DEFAULT_SLAB_BYTES = 1 << 19

#: Preferred channel-block width: each channel block re-reads the same
#: gathered activation chunk, so wider blocks amortize that read; the
#: spatial chunk shrinks to keep the slab under budget.
_TARGET_CHANNEL_BLOCK = 16

#: Minimum spatial chunk before the channel block starts shrinking:
#: per-block ufunc dispatch is amortized over ``n * pc`` outer
#: iterations, so single-position chunks are pure overhead.
_MIN_SPATIAL_CHUNK = 8

#: OR-group sizes up to this bound merge via explicit sliced ORs;
#: ``ufunc.reduce`` over a short axis pays per-output setup costs that
#: dwarf the actual word operations (measured crossover ≈ 8 members).
_SMALL_GROUP_OR = 8

#: Slab budget of the ``s_outer`` layout (:func:`_plan`): that slab
#: spans the whole kernel-position extent per spatial column, so the
#: sweet spot (measured on the CNN-4 PBHW shapes) sits in L3, not L2 — a
#: tighter budget would shrink the spatial chunk below the long
#: contiguous runs the layout exists to create.
_SOUTER_SLAB_BYTES = 1 << 24

#: Bits per lane when two short streams share one ``uint64`` word.
LANE_BITS = 32

_LANE0_MASK = np.uint64((1 << LANE_BITS) - 1)

#: Product-count table rule (:func:`_uses_tables`), by OR-group size
#: ``S``: the table path runs when a call's ``N * P`` positions reach
#: this many times the ``V**S`` member-value combinations of one group.
#: Fitted where table and sweep times cross on slices of the
#: ``forward_offline`` FXP and APC calls (EXPERIMENTS "Product-count
#: tables"): a pair's table row replaces two products of the sweep, a
#: singleton's only one, so pairs pay off sooner. On one-channel PBHW
#: convs the tables beat the ``s_outer`` sweep from a ratio of 2, so
#: the singleton constant serves them too.
_TABLE_RATIO = {1: 3.0, 2: 0.75}


def _plan(
    mode: AccumulationMode, s: int, cout: int, p: int
) -> tuple[str, int, int]:
    """The layout, slab budget and channel-block width of every fused
    call: ``s`` is the call's OR-group size (:func:`group_structure`),
    ``p`` its output positions per sample, counted in packed words for a
    sweep. A call the table rule takes (:func:`_uses_tables`) uses only
    the slab budget, as its table-build budget. The slab constants are
    read at call time.

    Encodes what slab-geometry sweeps measured on reference hardware
    (see DESIGN §3.6). PBHW runs ``s_outer``. Other modes whose groups
    are *short* (at most ``_SMALL_GROUP_OR`` members) are
    popcount-output-bound — their ``(N, Mb, Pc, G)`` group-count tensor
    is large relative to the AND volume — and get wider channel blocks
    plus a bigger slab, so per-block ufunc dispatch and the epilogue
    amortize over more work. Most FXP and APC calls take the
    product-count tables instead, as do PBHW calls over one or two input
    channels; the short-group sweep is left with the calls the table
    rule skips (fc layers, small batches). Long-group modes (SC, PBW)
    keep the cache-tight historical geometry.
    """
    if mode is AccumulationMode.PBHW:
        # PBHW's many-short-groups structure loses the k_inner layout's
        # contiguity advantage; the s_outer layout restores the
        # reference loop's fast AND/OR patterns. The slab spans the
        # whole kernel extent, so it gets an L3-sized budget, and narrow
        # channel blocks measure fastest: wide ones blow the cache (see
        # DESIGN §3.6).
        block = 2 if s == 1 else 4 if p >= 32 else 1
        return "s_outer", _SOUTER_SLAB_BYTES, block
    if s <= _SMALL_GROUP_OR:
        # Short-group modes: group-count epilogue dominates; trade
        # cache tightness for fewer, wider blocks.
        return (
            "k_inner", 4 * DEFAULT_SLAB_BYTES,
            max(_TARGET_CHANNEL_BLOCK, 2 * cout),
        )
    return "k_inner", DEFAULT_SLAB_BYTES, _TARGET_CHANNEL_BLOCK


def group_structure(
    mode: AccumulationMode | str, cin: int, kh: int, kw: int
) -> tuple[np.ndarray, bool]:
    """OR-group structure of an accumulation mode.

    Returns ``(group_k, identity)`` where ``group_k`` has shape
    ``(G, S)``: row ``g`` lists the flat kernel indices (C-order over
    ``(Cin, KH, KW)``) whose AND-products are OR-merged into group ``g``.
    The sentinel index ``cin*kh*kw`` refers to an implicit all-zero
    stream (APC padding for odd product counts — OR-identity, popcount
    zero). ``identity`` is True when ``group_k`` is a plain reshape of
    ``arange(K)`` so callers can skip the gather copy.
    """
    mode = AccumulationMode.parse(mode)
    k = cin * kh * kw
    flat = np.arange(k, dtype=np.int64).reshape(cin, kh, kw)
    if mode is AccumulationMode.SC:
        return flat.reshape(1, k), True
    if mode is AccumulationMode.PBW:
        # OR over (Cin, KH) per kernel column; fixed point across KW.
        return np.ascontiguousarray(
            flat.transpose(2, 0, 1).reshape(kw, cin * kh)
        ), False
    if mode is AccumulationMode.PBHW:
        # OR over Cin per (kh, kw) tap; fixed point across KH*KW.
        return np.ascontiguousarray(
            flat.transpose(1, 2, 0).reshape(kh * kw, cin)
        ), False
    if mode is AccumulationMode.FXP:
        return flat.reshape(k, 1), True
    if mode is AccumulationMode.APC:
        # Pairs (2i, 2i+1) in flat C-order; odd tail pads with the zero
        # stream, matching the reference's separate leftover popcount.
        padded = k + (k % 2)
        idx = np.full(padded, k, dtype=np.int64)
        idx[:k] = np.arange(k)
        return idx.reshape(-1, 2), False
    raise ConfigurationError(f"unhandled accumulation mode {mode}")


def _chunk_sizes(
    n: int,
    m: int,
    g: int,
    s: int,
    words: int,
    p: int,
    slab_bytes: int,
    channel_block: int = _TARGET_CHANNEL_BLOCK,
) -> tuple[int, int]:
    """Spatial / channel-block chunk sizes keeping slabs under budget.

    The kernel-position block ``(G, S, words)`` is the contiguous inner
    axis, so chunking never shortens the vectorized inner loop; the
    channel block gets priority (it amortizes re-reads of the gathered
    activation chunk) and the spatial chunk absorbs the budget.

    Invariants (property-tested): ``1 <= pc <= p``, ``1 <= mb <= m``,
    the slab stays under ``slab_bytes`` unless a single ``(1, 1)`` unit
    already exceeds it, and ``pc >= min(p, _MIN_SPATIAL_CHUNK)``
    whenever ``mb`` has already been shrunk to 1.
    """
    per_unit = max(1, n * g * s * words * 8)  # bytes per (m=1, p=1)
    mb = min(m, max(1, channel_block))
    pc = slab_bytes // (per_unit * mb)
    while pc < _MIN_SPATIAL_CHUNK and mb > 1:
        # Tiny spatial chunks multiply per-block dispatch overhead;
        # trade channel-block width for spatial extent first.
        mb = max(1, mb // 2)
        pc = slab_bytes // (per_unit * mb)
    pc = max(1, pc)
    if pc >= p:
        # Spare budget: widen the channel block instead (FC shapes).
        pc = p
        mb = min(m, max(1, slab_bytes // (per_unit * pc)))
    return pc, mb


def _souter_chunks(
    n: int, m: int, k: int, words: int, p: int, slab_bytes: int,
    channel_block: int, shards: int = 1,
) -> tuple[int, int]:
    """Spatial / channel-block chunks for the ``s_outer`` layout.

    The slab spans the full kernel-position extent per spatial column
    (``per_unit = n * k * words * 8`` bytes). The budget is
    ``slab_bytes`` per call: a call sharded ``shards`` ways gives each
    shard an equal part, so sharding never multiplies the slab memory
    (the slabs live in the shared last-level cache anyway). The spatial
    chunk has priority (it sets the AND's stride-0 run length); the
    channel block shrinks first to fit. Invariants (property-tested):
    ``1 <= pc <= p``, ``1 <= mb <= m``, and the slab stays within the
    shard's budget unless ``mb == pc == 1``.
    """
    per_unit = max(1, n * k * words * 8)
    budget = slab_bytes // max(1, shards)
    mb = min(m, max(1, channel_block))
    pc = p
    while mb > 1 and per_unit * mb * pc > budget:
        mb //= 2
    while pc > 1 and per_unit * mb * pc > budget:
        pc = max(1, pc // 2)
    return pc, mb


def stream_lanes(length: int | None) -> int:
    """Streams packed per ``uint64`` word in one fused call: 2 when the
    stream fits in one lane (``length <= 32``), else 1. An unknown length
    (``None``) gets one lane."""
    return 1 if length is None or length > LANE_BITS else 2


def _lane_columns(cols_flat: np.ndarray, lanes: int) -> np.ndarray:
    """Pair output positions into lanes: ``(N, K, P)`` values become
    ``(N, K, ceil(P / lanes), lanes)``, position ``lanes * j + l`` in
    lane ``l`` of packed position ``j``. An odd tail pads with value 0
    (the all-zero stream); its counts are dropped on unpack."""
    n, k, p = cols_flat.shape
    tail = -p % lanes
    if tail:
        cols_flat = np.concatenate(
            [cols_flat, np.zeros((n, k, tail), dtype=cols_flat.dtype)], axis=2
        )
    return cols_flat.reshape(n, k, -1, lanes)


def _gather(
    table: np.ndarray,
    rows: np.ndarray,
    vals: np.ndarray,
    scratch: "_Scratch",
) -> np.ndarray:
    """Packed activation words ``table[rows, vals]`` with lanes combined.

    ``vals`` carries a trailing lane axis. Each lane is gathered by a flat
    ``np.take`` on the one-word-per-value table at ``row * 2**bits +
    value``; two lanes merge as ``lo | hi << 32``. The indices and words
    land in the shard's preallocated ``scratch`` buffers (contiguous
    prefix views of them), so a shard allocates nothing per chunk.
    """
    words = table.shape[-1]
    flat = table.reshape(-1, words)
    base = rows * table.shape[1]  # broadcasts against ``vals``
    shape = vals.shape[:-1]
    cells = vals.size // vals.shape[-1]
    index = scratch.index[:cells].reshape(shape)
    act = scratch.act[: cells * words].reshape(shape + (words,))
    np.add(base, vals[..., 0], out=index)
    # Indices are in range by construction; "clip" writes straight into
    # ``out``, where the default "raise" would fill a temporary copy.
    np.take(flat, index, axis=0, out=act, mode="clip")
    if vals.shape[-1] == 2:  # one-word streams only
        high = scratch.high[:cells].reshape(shape)
        np.add(base, vals[..., 1], out=index)
        np.take(flat[:, 0], index, out=high, mode="clip")
        high <<= np.uint64(LANE_BITS)
        act[..., 0] |= high
    return act


def _group_popcounts(merged: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Popcount of ``(..., words)`` merged words, summed over words.

    One-word streams with native popcount return the ufunc's ``uint8``
    counts as is (written into ``bits``), skipping an int64 intermediate
    per group word; callers widen when they reduce."""
    if merged.shape[-1] == 1 and bitops.USE_NATIVE_POPCOUNT and (
        bitops.HAS_NATIVE_POPCOUNT
    ):
        return np.bitwise_count(merged[..., 0], out=bits)
    return popcount_packed(merged)


def _lane_counts(
    merged: np.ndarray,
    bits: np.ndarray,
    axis: int,
    out: np.ndarray,
) -> None:
    """Per-lane popcounts of merged group words into ``out[..., lane]``,
    summed over the words and the group ``axis``. Lane 0 is
    ``popcount(x & 0xFFFFFFFF)``, lane 1 is ``popcount(x) - lane0``; two
    lanes clobber ``merged`` (always a scratch buffer)."""
    np.add.reduce(
        _group_popcounts(merged, bits), axis=axis, dtype=np.int64,
        out=out[..., -1],
    )
    if out.shape[-1] == 2:
        np.bitwise_and(merged, _LANE0_MASK, out=merged)
        np.add.reduce(
            _group_popcounts(merged, bits), axis=axis, dtype=np.int64,
            out=out[..., 0],
        )
        out[..., 1] -= out[..., 0]


def _grouped_gather_indices(
    rows_flat: np.ndarray,
    cols_lanes: np.ndarray,
    group_k: np.ndarray,
    identity: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Bake the OR-group permutation into the activation gather indices.

    Returns ``(rows_g, cols_g, zero_slots)``: table-row indices ``(K',)``
    and value indices ``(N, P', K', lanes)`` ordered so a single gather
    produces activations in ``(N, P', G, S, words)`` group layout with no
    second copy. ``zero_slots`` marks sentinel positions (APC padding)
    that must be cleared to the all-zero stream after the gather.
    """
    if identity:
        return rows_flat, cols_lanes.transpose(0, 2, 1, 3), None
    flat = group_k.reshape(-1)
    k = rows_flat.shape[0]
    zero_slots = flat == k
    safe = np.where(zero_slots, 0, flat)
    rows_g = rows_flat[safe]
    # Permute whole (P', lanes) rows first, then transpose: much cheaper
    # than fancy-indexing the middle axis of the transposed view.
    cols_g = np.ascontiguousarray(cols_lanes[:, safe].transpose(0, 2, 1, 3))
    return rows_g, cols_g, zero_slots if bool(zero_slots.any()) else None


def _grouped_weights(
    weights: np.ndarray, group_k: np.ndarray, pad: bool
) -> np.ndarray:
    """Rearrange packed weight streams ``(M, K, words)`` to group layout
    ``(M, G, S, words)``, appending the zero pad stream when needed."""
    if pad:
        zero = np.zeros(
            (weights.shape[0], 1, weights.shape[-1]), dtype=weights.dtype
        )
        weights = np.concatenate([weights, zero], axis=1)
    return np.ascontiguousarray(weights[:, group_k])


class _Scratch:
    """Buffers of one shard, allocated once per call on the
    calling thread and reused by every chunk of the shard.

    A helper thread that allocates its own chunk temporaries leaves them,
    freed, in its own malloc arena, which keeps that memory resident
    beside the calling thread's arena. Allocating the gather indices and
    words, the product slab, the merged group words and the popcount
    bytes here keeps a sharded call's peak memory that of a serial one.
    ``pc``/``mb`` are the shard's spatial and channel-block chunk sizes.
    """

    __slots__ = ("pc", "mb", "index", "act", "high", "slab", "merged", "bits")

    def __init__(
        self, kernel, n, g, s, words, lanes, span, slab_bytes, block, shards
    ):
        p_span, m_span = span
        m_total = m_span.stop - m_span.start
        p_total = p_span.stop - p_span.start
        if kernel is _souter_grouped_counts:
            pc, mb = _souter_chunks(
                n, m_total, g * s, words, p_total, slab_bytes, block, shards
            )
            slab = (n, mb, s, g, pc, words)
            merged = (n, mb, g, pc, words)
        else:
            pc, mb = _chunk_sizes(
                n, m_total, g, s, words, p_total, slab_bytes, block
            )
            slab = (n, mb, pc, g, s, words)
            merged = (n, mb, pc, g, words)
        cells = n * pc * g * s
        self.pc, self.mb = pc, mb
        self.index = np.empty(cells, dtype=np.int64)
        self.act = np.empty(cells * words, dtype=np.uint64)
        self.high = np.empty(cells, dtype=np.uint64) if lanes == 2 else None
        self.slab = np.empty(slab, dtype=np.uint64)
        self.merged = np.empty(merged, dtype=np.uint64) if s > 1 else None
        self.bits = np.empty(merged[:-1], dtype=np.uint8)


def _grouped_counts(
    table: np.ndarray,
    rows_g: np.ndarray,
    cols_g: np.ndarray,
    zero_slots: np.ndarray | None,
    w_g: np.ndarray,
    counts: np.ndarray,
    p_span: slice,
    m_span: slice,
    scratch: _Scratch,
) -> None:
    """Fill ``counts[:, m_span, p_span]`` for one shard (``k_inner``).

    ``counts`` is ``(N, M, P', lanes)`` over packed positions; both
    shard kernels share this signature. They work entirely in the
    caller-allocated ``scratch``; the slab is cache-sized, so
    products are written, OR-merged, and popcounted without touching
    DRAM.
    """
    n = cols_g.shape[0]
    words = table.shape[-1]
    g, s = w_g.shape[1:3]
    pc, mb = scratch.pc, scratch.mb
    for lo in range(p_span.start, p_span.stop, pc):
        hi = min(lo + pc, p_span.stop)
        width = hi - lo
        act = _gather(table, rows_g[None, None, :], cols_g[:, lo:hi], scratch)
        if zero_slots is not None:
            act[:, :, zero_slots] = 0
        # (N, Pc, K', words) -> broadcastable (N, 1, Pc, G, S, words)
        act_b = act.reshape(n, width, g, s, words)[:, None]
        for m_lo in range(m_span.start, m_span.stop, mb):
            m_hi = min(m_lo + mb, m_span.stop)
            m_width = m_hi - m_lo
            slab_view = scratch.slab[:, :m_width, :width]
            np.bitwise_and(
                act_b,
                w_g[m_lo:m_hi][None, :, None],
                out=slab_view,
            )
            if s == 1:
                merged_view = slab_view[:, :, :, :, 0]
            elif s <= _SMALL_GROUP_OR:
                # ufunc.reduce over a tiny axis pays per-output setup
                # costs; a handful of sliced ORs is much faster (APC).
                merged_view = scratch.merged[:, :m_width, :width]
                np.bitwise_or(
                    slab_view[:, :, :, :, 0],
                    slab_view[:, :, :, :, 1],
                    out=merged_view,
                )
                for i in range(2, s):
                    np.bitwise_or(
                        merged_view, slab_view[:, :, :, :, i], out=merged_view
                    )
            else:
                merged_view = scratch.merged[:, :m_width, :width]
                np.bitwise_or.reduce(slab_view, axis=4, out=merged_view)
            _lane_counts(
                merged_view,
                scratch.bits[:, :m_width, :width],
                3,
                counts[:, m_lo:m_hi, lo:hi],
            )


def _souter_grouped_counts(
    table: np.ndarray,
    rows_flat: np.ndarray,
    cols_lanes: np.ndarray,
    zero_slots: None,
    w_nat: np.ndarray,
    counts: np.ndarray,
    p_span: slice,
    m_span: slice,
    scratch: _Scratch,
) -> None:
    """Fill ``counts[:, m_span, p_span]`` with the ``s_outer`` layout.

    Operands are in natural member-major order: ``rows_flat``/
    ``cols_lanes`` as passed by the caller (no permutation gather) and
    weights reshaped to ``(M, S, G, words)``; natural order has no pad
    sentinels, so ``zero_slots`` is always ``None``. The product
    slab is ``(N, Mb, S, G, Pc, words)``: the AND broadcasts each
    weight word stride-0 over the contiguous ``Pc * words`` spatial
    run (the reference loop's fast pattern), and the OR-reduction runs
    over the member axis at position 2, reading and writing full
    ``G * Pc * words`` contiguous planes. ``S == 1`` skips the merge
    entirely — the slab view *is* the merged tensor.
    """
    n = cols_lanes.shape[0]
    words = table.shape[-1]
    s, g = w_nat.shape[1:3]
    pc, mb = scratch.pc, scratch.mb
    for lo in range(p_span.start, p_span.stop, pc):
        hi = min(lo + pc, p_span.stop)
        width = hi - lo
        act = _gather(
            table, rows_flat[None, :, None], cols_lanes[:, :, lo:hi], scratch
        )
        # (N, K, Pc, words) -> broadcastable (N, 1, S, G, Pc, words)
        act_b = act.reshape(n, 1, s, g, width, words)
        for m_lo in range(m_span.start, m_span.stop, mb):
            m_hi = min(m_lo + mb, m_span.stop)
            m_width = m_hi - m_lo
            slab_view = scratch.slab[:, :m_width, :, :, :width]
            np.bitwise_and(
                act_b,
                w_nat[m_lo:m_hi][None, :, :, :, None],
                out=slab_view,
            )
            if s == 1:
                merged_view = slab_view[:, :, 0]
            else:
                merged_view = scratch.merged[:, :m_width, :, :width]
                np.bitwise_or.reduce(slab_view, axis=2, out=merged_view)
            # (N, Mb, G, Pc, words) -> (N, Mb, Pc, lanes)
            _lane_counts(
                merged_view,
                scratch.bits[:, :m_width, :, :width],
                2,
                counts[:, m_lo:m_hi, lo:hi],
            )


def _uses_tables(
    n: int, p: int, values: int, groups: int, members: int, words: int
) -> bool:
    """The table rule, from the call's shape alone: OR groups of one or
    two members, ``N * P >= _TABLE_RATIO[S] * V**S``, and counts that fit
    the path's integers. Building a group's table costs about what the
    sweep spends on ``V**S`` positions; gathering a row from it is
    cheaper than the sweep's products at one position. A table entry is
    at most one stream's ``64 * words`` bits and must fit int16, a
    position's sum over the ``G`` groups int32; longer streams (512 words
    and more) or wider sums run the sweep."""
    ratio = _TABLE_RATIO.get(members)
    most = 64 * words
    return (
        ratio is not None
        and n * p >= ratio * values ** members
        and most <= np.iinfo(np.int16).max
        and groups * most <= np.iinfo(np.int32).max
    )


class _TableScratch:
    """Buffers of one table shard, allocated once per call on the calling
    thread (see :class:`_Scratch`), each within the shard's ``budget``.

    The shard's tables are built into ``tables`` ``gt`` groups at a time,
    their slabs ``gb`` groups and ``vb`` values of the first member at a
    time (``vb < V`` only when one group's slab would not fit): ``prod``
    holds the first member's products, ``prod2`` the second's, ``merged``
    their OR and ``bits`` the popcounts. Rows are then summed over chunks
    of ``pc`` positions of every sample: ``index`` holds a group's row
    indices, ``row`` its gathered rows and ``subtotal`` their int16 sum.
    """

    __slots__ = (
        "gb", "vb", "gt", "pc", "prod", "prod2", "merged", "bits", "tables",
        "index", "row", "subtotal",
    )

    def __init__(self, n, p, s, values, cout, words, dtype, groups, budget):
        m = 2 * cout
        rows = values ** (s - 1)  # table rows per first-member value
        unit = rows * m * words * dtype.itemsize  # slab bytes per value
        self.gb = gb = max(1, min(groups, budget // (values * unit)))
        self.vb = vb = max(1, min(values, budget // unit))
        table = 2 * values * rows * cout  # bytes of one int16 table
        self.gt = gt = max(1, min(groups, budget // table))
        # Bytes per position of every sample: int64 index, int16 row and
        # subtotal.
        self.pc = pc = max(1, min(p, budget // (n * (8 + 4 * cout))))
        self.prod = np.empty((gb, vb, m, words), dtype=dtype)
        self.prod2 = self.merged = None
        if s == 2:
            self.prod2 = np.empty((gb, values, m, words), dtype=dtype)
            self.merged = np.empty((gb, vb, values, m, words), dtype=dtype)
        self.bits = np.empty((gb, vb, rows, m), dtype=np.uint8)
        self.tables = np.empty((gt, values * rows, cout), dtype=np.int16)
        self.index = np.empty(n * pc, dtype=np.int64)
        self.row = np.empty(n * pc * cout, dtype=np.int16)
        self.subtotal = np.empty(n * pc * cout, dtype=np.int16)


def _build_tables(
    act: np.ndarray, w_g: np.ndarray, out: np.ndarray, scratch: _TableScratch
) -> None:
    """Signed counts of ``B`` groups' tables into ``out`` ``(B, V**S,
    Cout)`` int16.

    ``act`` ``(B, S, V, words)`` holds each member's stream at every
    value, ``w_g`` ``(B, S, 2*Cout, words)`` its stacked positive and
    negative weight streams. Row ``v1 * V + v2`` of a two-member table is
    ``popcount((a1[v1] & w1) | (a2[v2] & w2))``, positive minus negative
    channel — exactly the group count the sweep computes at a position
    whose member values are ``(v1, v2)``.
    """
    groups, s, values, words = act.shape
    m = w_g.shape[2]
    out = out.reshape(groups, values, values ** (s - 1), m // 2)
    for g_lo in range(0, groups, scratch.gb):
        g_hi = min(g_lo + scratch.gb, groups)
        b = g_hi - g_lo
        a, w = act[g_lo:g_hi], w_g[g_lo:g_hi]
        if s == 2:
            second = np.bitwise_and(
                a[:, 1, :, None], w[:, 1, None], out=scratch.prod2[:b]
            )
        for lo in range(0, values, scratch.vb):
            hi = min(lo + scratch.vb, values)
            first = np.bitwise_and(
                a[:, 0, lo:hi, None], w[:, 0, None],
                out=scratch.prod[:b, : hi - lo],
            )
            if s == 1:
                merged = first[:, :, None]
            else:
                merged = np.bitwise_or(
                    first[:, :, None], second[:, None],
                    out=scratch.merged[:b, : hi - lo],
                )
            counts = _group_popcounts(merged, scratch.bits[:b, : hi - lo])
            np.subtract(
                counts[..., : m // 2], counts[..., m // 2 :],
                out=out[g_lo:g_hi, lo:hi], dtype=np.int16,
            )


def _sum_rows(
    tables: np.ndarray,
    cols: np.ndarray,
    group_k: np.ndarray,
    values: int,
    flush: int,
    acc: np.ndarray,
    lock: threading.Lock,
    scratch: _TableScratch,
) -> None:
    """Add the rows ``cols`` ``(N, K, Pc)`` selects from a block of
    tables ``(B, V**S, Cout)`` into ``acc`` ``(N, Pc, Cout)``.

    Group ``b``'s row index ``v1 * V + v2`` is formed from its members
    ``group_k[b]``; the APC pad sentinel (member index ``K``) has a zero
    weight stream, so its value is 0. Rows are summed in int16 and added
    into the shared ``acc``, holding ``lock``, every ``flush`` groups (an
    entry is at most one stream's popcount) and before returning.
    """
    n, k, width = cols.shape
    shape = (n, width, tables.shape[2])
    index = scratch.index[: n * width].reshape(n, width)
    row = scratch.row[: index.size * shape[2]].reshape(shape)
    subtotal = scratch.subtotal[: row.size].reshape(shape)
    pending = 0
    for table, (first, *rest) in zip(tables, group_k):
        np.copyto(index, cols[:, first])
        for member in rest:
            index *= values
            if member < k:
                index += cols[:, member]
        # Indices are in range by construction (see ``_gather``).
        out = subtotal if pending == 0 else row
        np.take(table, index, axis=0, out=out, mode="clip")
        if pending:
            subtotal += row
        pending += 1
        if pending == flush:
            with lock:
                acc += subtotal
            pending = 0
    if pending:
        with lock:
            acc += subtotal


def _table_counts(
    act: np.ndarray,
    w_g: np.ndarray,
    cols_flat: np.ndarray,
    group_k: np.ndarray,
    g_span: slice,
    flush: int,
    acc: np.ndarray,
    lock: threading.Lock,
    scratch: _TableScratch,
) -> None:
    """Add the counts of groups ``g_span`` into ``acc`` ``(N, P, Cout)``:
    a block of ``scratch.gt`` tables at a time is built, then its rows
    are summed over chunks of ``scratch.pc`` positions."""
    p = cols_flat.shape[2]
    values = act.shape[2]
    for lo in range(g_span.start, g_span.stop, scratch.gt):
        hi = min(lo + scratch.gt, g_span.stop)
        tables = scratch.tables[: hi - lo]
        _build_tables(act[lo:hi], w_g[lo:hi], tables, scratch)
        for c_lo in range(0, p, scratch.pc):
            chunk = slice(c_lo, min(c_lo + scratch.pc, p))
            _sum_rows(
                tables, cols_flat[:, :, chunk], group_k[lo:hi], values,
                flush, acc[:, chunk], lock, scratch,
            )


def _table_conv_counts(
    table, rows_flat, cols_flat, wp, wn, group_k, workers, slab_bytes, lanes,
) -> tuple[np.ndarray, int]:
    """``(N, Cout, P)`` counts from product-count tables, sharded over
    groups; also returns the shard count.

    Shards add their groups' counts into one shared int32 accumulator,
    and each works in buffers within its part of the slab budget, so a
    sharded call stays within the memory of a serial one. With two lanes
    (streams of at most 32 bits, whose high half-words are zero) the
    tables are built on ``uint32`` words: two streams per 64-bit word of
    every slab."""
    n, k, p = cols_flat.shape
    g, s = group_k.shape
    cout = wp.shape[0]
    values, words = table.shape[1:]
    dtype = np.dtype(np.uint32 if lanes == 2 else np.uint64)
    wstack = np.concatenate(
        [wp.reshape(cout, k, words), wn.reshape(cout, k, words)], axis=0
    )
    # (G, S, 2*Cout, words); the pad sentinel gets the zero weight stream.
    w_g = np.ascontiguousarray(
        _grouped_weights(wstack, group_k, bool((group_k == k).any()))
        .transpose(1, 2, 0, 3),
        dtype=dtype,
    )
    # (G, S, V, words)
    act = table[np.append(rows_flat, rows_flat[0])[group_k]].astype(dtype)
    spans = shard_slices(g, workers)
    scratch = [
        _TableScratch(
            n, p, s, values, cout, words, dtype, span.stop - span.start,
            slab_bytes // len(spans),
        )
        for span in spans
    ]
    acc = np.zeros((n, p, cout), dtype=np.int32)
    flush = np.iinfo(np.int16).max // (64 * words)
    lock = threading.Lock()

    def run(shard: int) -> None:
        _table_counts(
            act, w_g, cols_flat, group_k, spans[shard], flush, acc, lock,
            scratch[shard],
        )

    parallel_map(run, range(len(spans)), workers)
    return acc.transpose(0, 2, 1).astype(np.int64, order="C"), len(spans)


def _count_kernel_ops(
    mode: AccumulationMode, layout: str, lanes: int,
    and_words: int, or_words: int, popcount_words: int,
    table_entries: int = 0, table_rows: int = 0,
) -> None:
    """Record the op mix of one fused call on the telemetry registry.

    Callers compute the word totals arithmetically from the call's
    geometry, so the accounting adds nothing to the inner loops; they
    count the words the kernels realize (two lanes halve a sweep's). A
    table call also counts the table entries it built and the rows it
    gathered. ``bit_ops`` is the 64-bit-word total scaled to single bit
    operations. A call with all-zero activations runs no kernel and
    records nothing.
    """
    reg = get_registry()
    reg.counter("sc.kernels.calls").add(1)
    reg.counter(f"sc.kernels.mode.{mode.value}").add(1)
    reg.counter(f"sc.kernels.layout.{layout}").add(1)
    reg.counter(f"sc.kernels.lanes.{lanes}").add(1)
    reg.counter("sc.kernels.and_words", unit="words").add(and_words)
    reg.counter("sc.kernels.or_words", unit="words").add(or_words)
    reg.counter("sc.kernels.popcount_words", unit="words").add(popcount_words)
    reg.counter("sc.kernels.bit_ops", unit="bits").add(
        64 * (and_words + or_words + popcount_words)
    )
    if layout == "table":
        reg.counter("sc.kernels.table_entries", unit="entries").add(
            table_entries
        )
        reg.counter("sc.kernels.table_rows", unit="rows").add(table_rows)


def _shard_spans(
    p: int, m: int, workers: int
) -> list[tuple[slice, slice]]:
    """Shard the (spatial, channel) work grid across workers.

    Wide spatial extents shard along P (each worker gathers a disjoint
    activation span — no redundant work); pointwise/FC shapes (tiny P)
    shard along the stacked channel axis instead.
    """
    if workers <= 1:
        return [(slice(0, p), slice(0, m))]
    if p >= workers:
        return [(ps, slice(0, m)) for ps in shard_slices(p, workers)]
    return [(slice(0, p), ms) for ms in shard_slices(m, workers)]


def fused_conv_counts(
    table: np.ndarray,
    act_rows: np.ndarray,
    cols: np.ndarray,
    wp: np.ndarray,
    wn: np.ndarray,
    mode: AccumulationMode | str,
    num_workers: int | None = 0,
    length: int | None = None,
    stats: dict | None = None,
) -> np.ndarray:
    """Signed product counts of a packed-stream SC convolution.

    Parameters
    ----------
    table:
        Packed stream table ``(rows, 2**bits, words)``.
    act_rows:
        ``(Cin, KH, KW)`` table-row index of each activation SNG.
    cols:
        ``(N, Cin, KH, KW, P)`` quantized activation value per kernel
        position and output position (``P`` = flattened output extent).
    wp, wn:
        Packed positive/negative weight streams
        ``(Cout, Cin, KH, KW, words)``.
    mode:
        Partial-binary accumulation mode.
    num_workers:
        Shard count (see :mod:`repro.utils.parallel`): ``0`` is the
        process's kernel share, split among the kernel calls running at
        once (:func:`repro.utils.parallel.kernel_call`), ``1`` serial.
    length:
        Stream length of ``table``. It sets the lane count
        (:func:`stream_lanes`): ``<= 32`` packs two output positions
        per word in a sweep, two streams per 64-bit word in a table
        build. ``None`` runs one lane.
    stats:
        Optional dict filled with this call's ``layout`` (``"table"``,
        ``"k_inner"`` or ``"s_outer"``), ``lanes`` and ``shards`` (the
        shards it ran as). A call whose ``cols`` are all zero runs no
        kernel: ``layout=None``, ``lanes=0``, ``shards=0``.

    Returns
    -------
    numpy.ndarray
        ``(N, Cout, P)`` int64 counts, positive minus negative channel —
        bit-identical to the reference per-channel reduction whichever
        layout, shard count or lane count executes it.
    """
    with kernel_call(num_workers) as workers:
        return _fused_conv_counts(
            table, act_rows, cols, wp, wn, mode, workers, length, stats,
        )


def _fused_conv_counts(
    table, act_rows, cols, wp, wn, mode, workers, length, stats,
) -> np.ndarray:
    """:func:`fused_conv_counts` with its shard count resolved."""
    mode = AccumulationMode.parse(mode)
    if cols.ndim != 5:
        raise ShapeError(f"cols must be (N, Cin, KH, KW, P), got {cols.shape}")
    n, cin, kh, kw, p = cols.shape
    if act_rows.shape != (cin, kh, kw):
        raise ShapeError(
            f"act_rows shape {act_rows.shape} != kernel {(cin, kh, kw)}"
        )
    if wp.shape != wn.shape or wp.shape[1:4] != (cin, kh, kw):
        raise ShapeError(
            f"weight shapes {wp.shape}/{wn.shape} incompatible with "
            f"kernel {(cin, kh, kw)}"
        )
    cout = wp.shape[0]
    values, words = table.shape[1:]
    if length is not None and packed_words(length) != words:
        raise ShapeError(
            f"stream length {length} does not fit a {words}-word table"
        )
    if not cols.any():
        # Value 0 encodes the all-zero stream, which ANDs, ORs and
        # popcounts to zero (serving warm-up feeds all-zero samples).
        if stats is not None:
            stats.update(layout=None, lanes=0, shards=0)
        return np.zeros((n, cout, p), dtype=np.int64)
    k = cin * kh * kw
    m = 2 * cout
    group_k, identity = group_structure(mode, cin, kh, kw)
    g, s = group_k.shape
    rows_flat = np.ascontiguousarray(act_rows, dtype=np.int64).reshape(k)
    cols_flat = np.ascontiguousarray(cols).reshape(n, k, p)

    lanes = stream_lanes(length)
    if _uses_tables(n, p, values, g, s, words):
        # Words of the table build; two lanes halve them, as in a sweep.
        entries = g * values ** s * cout
        built = 2 * entries * words // lanes
        _count_kernel_ops(
            mode, "table", lanes,
            and_words=g * s * values * m * words // lanes,
            or_words=built * (s - 1),
            popcount_words=built,
            table_entries=entries,
            table_rows=n * p * g,
        )
        counts, shards = _table_conv_counts(
            table, rows_flat, cols_flat, wp, wn, group_k, workers,
            _plan(mode, s, cout, p)[1], lanes,
        )
        if stats is not None:
            stats.update(layout="table", lanes=lanes, shards=shards)
        return counts

    cols_lanes = _lane_columns(cols_flat, lanes)  # (N, K, P', lanes)
    p_packed = cols_lanes.shape[2]
    layout, slab_bytes, block = _plan(mode, s, cout, p_packed)
    wstack = np.concatenate(
        [wp.reshape(cout, k, words), wn.reshape(cout, k, words)], axis=0
    )
    if lanes == 2:
        # Both lanes AND against the same weight stream.
        wstack = wstack | (wstack << np.uint64(LANE_BITS))
    zero_slots = None
    if layout == "s_outer":
        kernel = _souter_grouped_counts
        rows_g, cols_g = rows_flat, cols_lanes
        w_g = wstack.reshape(m, s, g, words)
    else:
        kernel = _grouped_counts
        pad = mode is AccumulationMode.APC and bool(k % 2)
        w_g = _grouped_weights(wstack, group_k, pad)
        rows_g, cols_g, zero_slots = _grouped_gather_indices(
            rows_flat, cols_lanes, group_k, identity
        )
    products = n * m * p_packed * g
    _count_kernel_ops(
        mode, layout, lanes,
        and_words=products * s * words,
        or_words=products * (s - 1) * words,
        popcount_words=products * words,
    )

    counts = np.empty((n, m, p_packed, lanes), dtype=np.int64)
    spans = _shard_spans(p_packed, m, workers)
    scratch = [
        _Scratch(
            kernel, n, g, s, words, lanes, span, slab_bytes, block, len(spans)
        )
        for span in spans
    ]

    def run(shard: int) -> None:
        p_span, m_span = spans[shard]
        kernel(
            table, rows_g, cols_g, zero_slots, w_g,
            counts, p_span, m_span, scratch[shard],
        )

    parallel_map(run, range(len(spans)), workers)
    del scratch  # freed before the unpack below allocates the result
    if stats is not None:
        stats.update(layout=layout, lanes=lanes, shards=len(spans))
    counts = counts.reshape(n, m, p_packed * lanes)[:, :, :p]
    return counts[:, :cout] - counts[:, cout:]
