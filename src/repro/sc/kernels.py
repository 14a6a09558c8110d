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

FXP additionally gets a signed-magnitude fast path: in split-unipolar
form at most one of the positive/negative weight streams per position is
non-zero, so one AND pass over the magnitude stream with a ±1 sign fold
does the work of two stacked passes. Positions where both polarities
carry bits (arbitrary ``wp``/``wn`` callers) expand into explicit
``(+1, wp)``/``(-1, wn)`` entries of the same signed pass, so FXP never
falls back to the stacked ``2*Cout`` sweep.

Two slab *layouts* cover complementary regimes (DESIGN §3.6):

* ``k_inner`` (default): the group permutation is baked into the gather
  as above, and AND/OR stream over the contiguous ``G*S*words`` inner
  block. Wins when OR groups are long (SC, PBW) or carry the APC
  sentinel padding.
* ``s_outer`` (PBHW default): operands stay in **natural** member-major
  ``(S, G)`` order — no permutation copy at all — with the spatial axis
  innermost. The AND then broadcasts each weight word stride-0 over a
  long contiguous spatial run, and the OR-reduction runs over the
  *outermost* member axis in full ``G*Pc*words`` planes; both patterns
  match the per-channel reference loop's fast inner loops while keeping
  the fused engine's single activation gather. Only valid when the
  mode's OR-group permutation is the identity on natural member-major
  order (SC/PBW/PBHW/FXP yes, APC no — checked, with silent fallback).

Slab budget, channel-block width, spatial chunk and layout are bundled
in a per-shape plan (:class:`ExecPlan`). A call takes an explicit
``plan=`` or gets :func:`heuristic_plan`'s rule for its layer shape.
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
with value 0, whose count is dropped). FXP keeps one lane per word: its
signed-magnitude pass is popcount-epilogue-bound (one group per product)
and measured no faster with two lanes.

Sharding (``num_workers``, by default the process's kernel share) splits
the spatial axis (or the channel axis for pointwise/FC shapes) of a
call across the calling thread and the shard helpers of
:mod:`repro.utils.parallel`; numpy releases the GIL inside the kernels,
so threads scale without copying the stream tables. Every shard works in
buffers the calling thread allocates once per call (:class:`_Scratch`),
and the ``s_outer`` slab budget is per call, so a sharded call peaks at
the memory of a serial one.
"""

from __future__ import annotations

from dataclasses import dataclass

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

#: Slab budget of :func:`heuristic_plan`'s ``s_outer`` plans: that slab
#: spans the whole kernel-position extent per spatial column, so the
#: sweet spot (measured on the CNN-4 PBHW shapes) sits in L3, not L2 — a
#: tighter budget would shrink the spatial chunk below the long
#: contiguous runs the layout exists to create.
_SOUTER_SLAB_BYTES = 1 << 24

#: Bits per lane when two short streams share one ``uint64`` word.
LANE_BITS = 32

_LANE0_MASK = np.uint64((1 << LANE_BITS) - 1)

_PLAN_LAYOUTS = ("auto", "k_inner", "s_outer")


@dataclass(frozen=True)
class ExecPlan:
    """One execution-geometry choice for :func:`fused_conv_counts`.

    Plans bundle every knob the slab sweep exposes. A call without an
    explicit plan runs :func:`heuristic_plan`'s choice for its layer
    shape; tests and benchmarks pass a plan to pin a geometry. The
    default-constructed plan reproduces the historical fixed geometry.

    Attributes
    ----------
    slab_bytes:
        Product-slab byte budget (cache-residency knob), split evenly
        among a call's shards in the ``s_outer`` layout.
    channel_block:
        Preferred stacked-channel block width ``Mb``; wider blocks
        amortize re-reads of the gathered activation chunk.
    spatial_chunk:
        Explicit spatial chunk width ``Pc``; ``0`` derives it from the
        slab budget (the historical behaviour).
    layout:
        Slab layout: ``"k_inner"`` (permuted gather, kernel positions
        contiguous) or ``"s_outer"`` (natural order, spatial axis
        innermost, OR over the outer member axis). ``"auto"`` picks
        ``s_outer`` for PBHW and ``k_inner`` otherwise; an explicit
        ``s_outer`` silently falls back to ``k_inner`` for modes whose
        group permutation is not natural-order (APC, and FXP's signed
        pass).
    """

    slab_bytes: int = DEFAULT_SLAB_BYTES
    channel_block: int = _TARGET_CHANNEL_BLOCK
    spatial_chunk: int = 0
    layout: str = "auto"

    def __post_init__(self):
        if self.slab_bytes < 1:
            raise ConfigurationError(
                f"slab_bytes must be >= 1, got {self.slab_bytes}"
            )
        if self.channel_block < 1:
            raise ConfigurationError(
                f"channel_block must be >= 1, got {self.channel_block}"
            )
        if self.spatial_chunk < 0:
            raise ConfigurationError(
                f"spatial_chunk must be >= 0 (0 = derive), got "
                f"{self.spatial_chunk}"
            )
        if self.layout not in _PLAN_LAYOUTS:
            raise ConfigurationError(
                f"unknown plan layout {self.layout!r} (expected one of "
                f"{_PLAN_LAYOUTS})"
            )


def heuristic_plan(
    mode: AccumulationMode | str,
    n: int,
    cin: int,
    kh: int,
    kw: int,
    cout: int,
    p: int,
    words: int,
) -> ExecPlan:
    """The plan of every fused call that passes no explicit ``plan``.

    Encodes what slab-geometry sweeps measured on reference hardware
    (see DESIGN §3.6): modes whose group structure produces *many short OR
    groups* (PBHW with few input channels, APC pairs, FXP singletons)
    are popcount-output-bound — their ``(N, Mb, Pc, G)`` group-count
    tensor is large relative to the AND volume — and prefer wider
    channel blocks plus a bigger slab so per-block ufunc dispatch and
    the ``sum(axis=3)`` epilogue amortize over more work. Long-group
    modes (SC, PBW) keep the cache-tight historical geometry.
    """
    mode = AccumulationMode.parse(mode)
    k = max(1, cin * kh * kw)
    if mode is AccumulationMode.SC:
        groups = 1
    elif mode is AccumulationMode.PBW:
        groups = kw
    elif mode is AccumulationMode.PBHW:
        groups = kh * kw
    elif mode is AccumulationMode.APC:
        groups = (k + 1) // 2
    else:  # FXP runs the signed-magnitude pass: one group per position
        groups = k
    members = max(1, k // max(1, groups))
    if mode is AccumulationMode.PBHW:
        # PBHW's many-short-groups structure loses the k_inner layout's
        # contiguity advantage; the s_outer layout restores the
        # reference loop's fast AND/OR patterns. The slab spans the
        # whole kernel extent, so it gets an L3-sized budget, and narrow
        # channel blocks measure fastest: wide ones blow the cache (see
        # DESIGN §3.6).
        if members == 1:
            block = 2
        elif p >= 32:
            block = 4
        else:
            block = 1
        return ExecPlan(
            slab_bytes=_SOUTER_SLAB_BYTES, channel_block=block,
            layout="s_outer",
        )
    if members <= _SMALL_GROUP_OR:
        # Short-group modes: group-count epilogue dominates; trade
        # cache tightness for fewer, wider blocks.
        return ExecPlan(
            slab_bytes=4 * DEFAULT_SLAB_BYTES,
            channel_block=max(_TARGET_CHANNEL_BLOCK, 2 * cout),
        )
    return ExecPlan()


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
    spatial_chunk: int = 0,
) -> tuple[int, int]:
    """Spatial / channel-block chunk sizes keeping slabs under budget.

    The kernel-position block ``(G, S, words)`` is the contiguous inner
    axis, so chunking never shortens the vectorized inner loop; the
    channel block gets priority (it amortizes re-reads of the gathered
    activation chunk) and the spatial chunk absorbs the budget.

    Invariants (property-tested): ``1 <= pc <= p``, ``1 <= mb <= m``,
    the slab stays under ``slab_bytes`` unless a single ``(1, 1)`` unit
    already exceeds it, and in derived mode (``spatial_chunk == 0``)
    ``pc >= min(p, _MIN_SPATIAL_CHUNK)`` whenever ``mb`` has already
    been shrunk to 1. An explicit ``spatial_chunk`` is honored exactly
    (clipped to ``p``) with ``mb`` shrunk to fit the budget.
    """
    per_unit = max(1, n * g * s * words * 8)  # bytes per (m=1, p=1)
    mb = min(m, max(1, channel_block))
    if spatial_chunk > 0:
        pc = min(p, spatial_chunk)
        while mb > 1 and per_unit * mb * pc > slab_bytes:
            mb = max(1, mb // 2)
        return pc, mb
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
    n: int, m: int, k: int, words: int, p: int, plan: ExecPlan,
    shards: int = 1,
) -> tuple[int, int]:
    """Spatial / channel-block chunks for the ``s_outer`` layout.

    The slab spans the full kernel-position extent per spatial column
    (``per_unit = n * k * words * 8`` bytes). The budget is
    ``plan.slab_bytes`` per call: a call sharded ``shards`` ways gives
    each shard an equal part, so sharding never multiplies the slab
    memory (the slabs live in the shared last-level cache anyway). The
    spatial chunk has priority (it sets the AND's stride-0 run length);
    the channel block shrinks first to fit. Invariants (property-tested):
    ``1 <= pc <= p``, ``1 <= mb <= m``, and the slab stays within the
    shard's budget unless ``mb == pc == 1``.
    """
    per_unit = max(1, n * k * words * 8)
    budget = plan.slab_bytes // max(1, shards)
    mb = min(m, max(1, plan.channel_block))
    pc = min(p, plan.spatial_chunk) if plan.spatial_chunk > 0 else p
    while mb > 1 and per_unit * mb * pc > budget:
        mb //= 2
    while pc > 1 and per_unit * mb * pc > budget:
        pc = max(1, pc // 2)
    return pc, mb


def _natural_order(group_k: np.ndarray, k: int) -> bool:
    """True when the OR-group permutation is the identity on natural
    member-major order — ``group_k[g, s] == s * G + g`` — so the
    ``s_outer`` layout can consume the operands with no permutation
    copy. Holds for SC/PBW/PBHW/FXP; APC's pair groups (and sentinel
    padding) break it."""
    g, s = group_k.shape
    if g * s != k:
        return False
    return bool(
        np.array_equal(group_k, np.arange(k, dtype=np.int64).reshape(s, g).T)
    )


def stream_lanes(mode: AccumulationMode | str, length: int | None) -> int:
    """Streams packed per ``uint64`` word in one fused call: 2 when the
    stream fits in one lane (``length <= 32``) and the mode is not FXP,
    else 1. An unknown length (``None``) gets one lane."""
    if length is None or length > LANE_BITS:
        return 1
    return 1 if AccumulationMode.parse(mode) is AccumulationMode.FXP else 2


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

    def __init__(self, kernel, n, g, s, words, lanes, span, plan, shards):
        p_span, m_span = span
        m_total = m_span.stop - m_span.start
        p_total = p_span.stop - p_span.start
        if kernel is _souter_grouped_counts:
            pc, mb = _souter_chunks(
                n, m_total, g * s, words, p_total, plan, shards
            )
            slab = (n, mb, s, g, pc, words)
            merged = (n, mb, g, pc, words)
        else:
            pc, mb = _chunk_sizes(
                n, m_total, g, s, words, p_total, plan.slab_bytes,
                channel_block=plan.channel_block,
                spatial_chunk=plan.spatial_chunk,
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
    group_weights: np.ndarray | None,
    scratch: _Scratch,
) -> None:
    """Fill ``counts[:, m_span, p_span]`` for one shard (``k_inner``).

    ``counts`` is ``(N, M, P', lanes)`` over packed positions; both
    shard kernels share this signature. They work entirely in the
    caller-allocated ``scratch``; the slab is cache-sized, so
    products are written, OR-merged, and popcounted without touching
    DRAM. When ``group_weights`` is given (signed-magnitude FXP path, one
    lane), group counts are combined as ``sum_g gw[m, g] * count_g``
    instead of a plain sum.
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
            bits = scratch.bits[:, :m_width, :width]
            if group_weights is None:
                _lane_counts(merged_view, bits, 3, counts[:, m_lo:m_hi, lo:hi])
            else:
                np.einsum(
                    "nmpg,mg->nmp",
                    _group_popcounts(merged_view, bits),  # (N, Mb, Pc, G)
                    group_weights[m_lo:m_hi],
                    dtype=np.int64,
                    out=counts[:, m_lo:m_hi, lo:hi, 0],
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
    group_weights: None,
    scratch: _Scratch,
) -> None:
    """Fill ``counts[:, m_span, p_span]`` with the ``s_outer`` layout.

    Operands are in natural member-major order: ``rows_flat``/
    ``cols_lanes`` as passed by the caller (no permutation gather) and
    weights reshaped to ``(M, S, G, words)``; natural order has no pad
    sentinels and FXP never runs here, so ``zero_slots`` and
    ``group_weights`` are always ``None``. The product
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


def _count_kernel_ops(
    mode: AccumulationMode, n: int, m: int, p: int, g: int, s: int,
    words: int, layout: str, lanes: int, fxp_overlap: int | None = None,
) -> None:
    """Record the op mix of one fused call on the telemetry registry.

    Word totals are computed arithmetically from the shard geometry
    (``AND`` over every ``(N, M, P', G, S)`` product word, ``S - 1`` ORs
    per group merge, one popcount word per merged group word), so the
    accounting adds nothing to the inner loops. ``p`` counts *packed*
    positions, so the totals are the words the kernels realize: two
    lanes halve them. ``bit_ops`` is the 64-bit-word total scaled to
    single bit operations. A call with all-zero activations runs no
    kernel and records nothing.
    """
    reg = get_registry()
    if not reg.enabled:
        return
    and_words = n * m * p * g * s * words
    or_words = n * m * p * g * (s - 1) * words
    popcount_words = n * m * p * g * words
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
    if fxp_overlap == 0:
        reg.counter("sc.kernels.fxp_fastpath").add(1)
    elif fxp_overlap:
        reg.counter("sc.kernels.fxp_mixed").add(1)


def _resolve_layout(
    plan: ExecPlan, mode: AccumulationMode, natural: bool
) -> str:
    """Concrete layout for this call (``auto`` resolution plus the
    natural-order fallback)."""
    layout = plan.layout
    if layout == "auto":
        layout = (
            "s_outer" if mode is AccumulationMode.PBHW else "k_inner"
        )
    if layout == "s_outer" and not natural:
        layout = "k_inner"
    return layout


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
    plan: ExecPlan | None = None,
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
    plan:
        Explicit :class:`ExecPlan`; ``None`` runs :func:`heuristic_plan`
        for this call's shape.
    length:
        Stream length of ``table``. It sets the lane count
        (:func:`stream_lanes`): ``<= 32`` packs two output positions
        per word. ``None`` runs one lane.
    stats:
        Optional dict filled with this call's ``layout``, ``lanes`` and
        ``shards`` (the shards it ran as). A call whose ``cols`` are all
        zero runs no kernel: ``layout=None``, ``lanes=0``, ``shards=0``.

    Returns
    -------
    numpy.ndarray
        ``(N, Cout, P)`` int64 counts, positive minus negative channel —
        bit-identical to the reference per-channel reduction whichever
        plan or lane count executes it.
    """
    with kernel_call(num_workers) as workers:
        return _fused_conv_counts(
            table, act_rows, cols, wp, wn, mode, workers, plan, length, stats,
        )


def _fused_conv_counts(
    table, act_rows, cols, wp, wn, mode, workers, plan, length, stats,
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
    words = table.shape[-1]
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
    lanes = stream_lanes(mode, length)
    k = cin * kh * kw
    rows_flat = np.ascontiguousarray(act_rows, dtype=np.int64).reshape(k)
    cols_flat = np.ascontiguousarray(cols).reshape(n, k, p)
    cols_lanes = _lane_columns(cols_flat, lanes)  # (N, K, P', lanes)
    p_packed = cols_lanes.shape[2]

    if plan is None:
        plan = heuristic_plan(mode, n, cin, kh, kw, cout, p_packed, words)

    group_weights = zero_slots = fxp_overlap = None
    if mode is AccumulationMode.FXP:
        rows_g, cols_g, w_g, group_weights = _fxp_operands(
            rows_flat, cols_lanes, wp, wn
        )
        fxp_overlap = rows_g.size - k
        m = cout
        g, s = w_g.shape[1:3]
        layout = "k_inner"
        kernel = _grouped_counts
    else:
        group_k, identity = group_structure(mode, cin, kh, kw)
        g, s = group_k.shape
        m = 2 * cout
        wstack = np.concatenate(
            [wp.reshape(cout, k, words), wn.reshape(cout, k, words)], axis=0
        )
        if lanes == 2:
            # Both lanes AND against the same weight stream.
            wstack = wstack | (wstack << np.uint64(LANE_BITS))
        layout = _resolve_layout(plan, mode, _natural_order(group_k, k))
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
    _count_kernel_ops(
        mode, n, m, p_packed, g, s, words, layout, lanes, fxp_overlap
    )

    counts = np.empty((n, m, p_packed, lanes), dtype=np.int64)
    spans = _shard_spans(p_packed, m, workers)
    scratch = [
        _Scratch(kernel, n, g, s, words, lanes, span, plan, len(spans))
        for span in spans
    ]

    def run(shard: int) -> None:
        p_span, m_span = spans[shard]
        kernel(
            table, rows_g, cols_g, zero_slots, w_g,
            counts, p_span, m_span, group_weights, scratch[shard],
        )

    parallel_map(run, range(len(spans)), workers)
    del scratch  # freed before the unpack below allocates the result
    if stats is not None:
        stats.update(layout=layout, lanes=lanes, shards=len(spans))
    counts = counts.reshape(n, m, p_packed * lanes)[:, :, :p]
    if mode is AccumulationMode.FXP:
        return counts
    return counts[:, :cout] - counts[:, cout:]


def _fxp_operands(
    rows_flat: np.ndarray,
    cols_lanes: np.ndarray,
    wp: np.ndarray,
    wn: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Operands of the signed-magnitude FXP pass (no stacked 2x channels).

    In split-unipolar form a weight position usually drives exactly one
    of the positive/negative streams (the other is all-zero), so
    ``pos_counts - neg_counts`` equals one pass over the magnitude
    stream ``wp | wn`` with a per-position sign fold. Positions where
    some output channel drives *both* streams no longer force a
    fallback: each such position expands into an explicit ``(+1, wp)``
    entry in the first ``K`` slots plus an appended ``(-1, wn)`` entry,
    so the single magnitude pass still computes ``pos - neg`` exactly
    with ``G = K + |overlap| <= 2K`` singleton groups — never the
    stacked ``2 * Cout`` channel sweep.

    Returns ``(rows_g, cols_g, w_g, sgn)``: gather rows ``(G,)``, values
    ``(N, P, G, 1)``, weights ``(Cout, G, 1, words)`` and signs
    ``(Cout, G)`` for the shard kernels' ``group_weights``.
    """
    k = rows_flat.shape[0]
    cout = wp.shape[0]
    words = wp.shape[-1]
    wp_flat = wp.reshape(cout, k, words)
    wn_flat = wn.reshape(cout, k, words)
    pos_nz = wp_flat.any(axis=-1)
    neg_nz = wn_flat.any(axis=-1)
    overlap = np.flatnonzero((pos_nz & neg_nz).any(axis=0))
    cols_t = cols_lanes.transpose(0, 2, 1, 3)  # (N, P, K, 1) view
    if overlap.size == 0:
        # Disjoint everywhere: wp | wn is exactly the non-zero channel.
        w_g = (wp_flat | wn_flat).reshape(cout, k, 1, words)
        sgn = pos_nz.astype(np.int64) - neg_nz.astype(np.int64)
        return rows_flat, cols_t, w_g, sgn
    dis = np.ones(k, dtype=bool)
    dis[overlap] = False
    # First K entries: magnitude stream at disjoint positions, the
    # positive stream at overlap positions (sign +1 — channels whose
    # wp is zero there contribute nothing). Appended entries carry
    # the negative stream of each overlap position with sign -1.
    w_first = np.where(dis[None, :, None], wp_flat | wn_flat, wp_flat)
    sgn_first = np.where(
        dis[None, :],
        pos_nz.astype(np.int64) - neg_nz.astype(np.int64),
        1,
    )
    w_g = np.concatenate(
        [w_first, wn_flat[:, overlap]], axis=1
    ).reshape(cout, k + overlap.size, 1, words)
    sgn = np.concatenate(
        [sgn_first, np.full((cout, overlap.size), -1, dtype=np.int64)],
        axis=1,
    )
    rows_g = np.concatenate([rows_flat, rows_flat[overlap]])
    cols_g = np.ascontiguousarray(
        np.concatenate([cols_t, cols_t[:, :, overlap]], axis=2)
    )
    return rows_g, cols_g, w_g, sgn
