"""Bit-true vectorized simulation of GEO's stochastic convolution.

The simulation reproduces, bit for bit, what the accelerator's datapath
computes: activation and weight SNGs (with the configured RNG kind,
seed-sharing plan, and optionally progressive loading) feed AND multipliers
whose product streams are accumulated with the configured partial-binary
mode, split-unipolar sign channels are counted separately and subtracted.

Key implementation trick: a stream is fully determined by ``(seed,
quantized value)``, and both alphabets are small (``<= 2**n`` values,
a few hundred shared seeds). Streams are therefore materialized through a
precomputed *stream table* ``(num_seeds, 2**n, words)`` and pure fancy
indexing — no per-element comparator loop. The table itself is built from
each (seed, cycle)'s comparator threshold (:meth:`repro.sc.sng.SNG.table`),
in memory proportional to the table. For deterministic LFSR sources
the tables are cached (LRU) across training steps; TRNG tables are rebuilt
every call, which is exactly the physical difference training exploits.

The table is consumed by one of two interchangeable, bit-identical
execution engines: the fused streaming kernels of
:mod:`repro.sc.kernels` (``SCConfig.engine == "fused"``, the default,
sharded across the process's CPU share via ``SCConfig.num_workers``) or the
original per-output-channel reduction (``engine == "reference"``), kept
for bit-exactness cross-checks.
"""

from __future__ import annotations

import ctypes
import functools
import platform
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, ShapeError
from repro.nn.functional import conv_output_size, im2col
from repro.sc.accumulate import AccumulationMode
from repro.sc.formats import quantize_unipolar
from repro.sc.kernels import fused_conv_counts
from repro.sc.rng import LFSRSource, RandomSource, SobolSource, TRNGSource
from repro.sc.sharing import SeedPlan, plan_seeds
from repro.sc.sng import SNG, ProgressiveSNG
from repro.scnn.config import SCConfig
from repro.utils.bitops import popcount_packed
from repro.utils.seeding import derive_seed

# LRU cache of deterministic stream tables: hits move the entry to the
# MRU end; overflow evicts only the LRU entry (the old behaviour dropped
# the whole cache, flushing every other layer's table on the 257th
# distinct key). The hit/miss/eviction counters live on the telemetry
# registry (`repro.obs`) — these counters stay live even with telemetry
# disabled, so `table_cache_stats()` keeps working under REPRO_OBS=0.
_TABLE_CACHE: OrderedDict[tuple, np.ndarray] = OrderedDict()
_TABLE_CACHE_LIMIT = 256
_TABLE_CACHE_BYTES = 0  # resident payload bytes, mirrored to the gauge

_CACHE_HITS = obs.counter("scnn.table_cache.hits")
_CACHE_MISSES = obs.counter("scnn.table_cache.misses")
_CACHE_EVICTIONS = obs.counter("scnn.table_cache.evictions")
_CACHE_BYTES_GAUGE = obs.gauge("scnn.table_cache.bytes", unit="bytes")


def clear_table_cache() -> None:
    """Drop cached LFSR stream tables and reset the hit/miss counters
    (tests / memory pressure). Thin wrapper over the `repro.obs`
    counter registry, kept for backward compatibility."""
    global _TABLE_CACHE_BYTES
    _TABLE_CACHE.clear()
    _TABLE_CACHE_BYTES = 0
    _CACHE_HITS.reset()
    _CACHE_MISSES.reset()
    _CACHE_EVICTIONS.reset()
    _CACHE_BYTES_GAUGE.reset()


def table_cache_stats() -> dict[str, int]:
    """Current stream-table cache counters (cacheable lookups only).

    Thin wrapper over the `repro.obs` counter registry; ``bytes`` is
    the resident payload size of every cached table."""
    return {
        "hits": int(_CACHE_HITS.value),
        "misses": int(_CACHE_MISSES.value),
        "evictions": int(_CACHE_EVICTIONS.value),
        "size": len(_TABLE_CACHE),
        "capacity": _TABLE_CACHE_LIMIT,
        "bytes": _TABLE_CACHE_BYTES,
    }


# glibc mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


@functools.cache
def _pin_malloc_parameters() -> None:
    """Fix glibc's mmap threshold at 32 MiB, its trim threshold at 64 MiB
    and its arena count at one, once per process; a no-op off glibc.

    glibc's dynamic rule starts mmapping chunks at 128 KiB and raises
    the threshold to the size of each larger mmapped chunk freed (up to
    32 MiB, the trim threshold following at twice that). Table builds
    free no large scratch, so left alone the thresholds stay at a few
    MB, and a forward's few-MB temporaries (quantized copies, im2col
    columns, kernel scratch) are handed back to the kernel and faulted
    in again on every call. Setting either parameter turns the dynamic
    rule off for both, so both are set, at the ceiling the rule would
    reach.

    With the freed scratch kept, each thread's own arena would keep its
    own copy: a serving process's footprint would then depend on which
    dispatch threads happened to run forwards. One arena lets every
    thread reuse the same freed memory; the GIL already serializes
    nearly every allocation. Threads that already hold an arena keep it.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_ARENA_MAX, 1)


def _build_source(cfg: SCConfig, bits: int, layer_index: int, call_index: int) -> RandomSource:
    if cfg.rng_kind == "lfsr":
        return LFSRSource(bits)
    if cfg.rng_kind == "sobol":
        return SobolSource(bits)
    root = derive_seed(cfg.root_seed, "trng", layer_index)
    if cfg.trng_eval_freeze:
        return TRNGSource(bits, root_seed=root, fresh_draws=False)
    return TRNGSource(bits, root_seed=(root + call_index) % 2**63)


def stream_table(
    source: RandomSource,
    bits: int,
    length: int,
    seeds: np.ndarray,
    progressive: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Packed stream table for every (seed, value) pair.

    Returns ``(table, index_of)`` where ``table`` has shape
    ``(num_unique_seeds, 2**bits, words)`` and ``index_of`` maps a raw seed
    array to a row index via ``np.searchsorted`` order.
    """
    global _TABLE_CACHE_BYTES
    unique = np.unique(seeds.ravel())
    cache_key = None
    if source.deterministic:
        cache_key = (
            type(source).__name__,
            bits,
            length,
            progressive,
            unique.tobytes(),
        )
        cached = _TABLE_CACHE.get(cache_key)
        if cached is not None:
            _TABLE_CACHE.move_to_end(cache_key)
            _CACHE_HITS.add(1)
            return cached, unique
        _CACHE_MISSES.add(1)
    _pin_malloc_parameters()
    reg = obs.get_registry()
    with reg.span(
        "sc.table_build", bits=bits, length=length, seeds=int(unique.size)
    ) as sp:
        sng = ProgressiveSNG(source, bits) if progressive else SNG(source, bits)
        table = sng.table(unique, length)  # (U, 2**bits, words)
        if reg.enabled:
            sp.attrs["bytes"] = table.nbytes
    if cache_key is not None:
        while len(_TABLE_CACHE) >= _TABLE_CACHE_LIMIT:
            _, evicted = _TABLE_CACHE.popitem(last=False)
            _TABLE_CACHE_BYTES -= evicted.nbytes
            _CACHE_EVICTIONS.add(1)
        _TABLE_CACHE[cache_key] = table
        _TABLE_CACHE_BYTES += table.nbytes
        _CACHE_BYTES_GAUGE.set(_TABLE_CACHE_BYTES)
    return table, unique


def _lookup(table: np.ndarray, unique: np.ndarray, seeds: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Fancy-index packed streams for seed/value arrays (broadcastable)."""
    rows = np.searchsorted(unique, seeds)
    return table[rows, q]


def _reduce_products(
    products: np.ndarray,
    mode: AccumulationMode,
) -> np.ndarray:
    """Accumulate product streams ``(n, Cin, KH, KW, OH, OW, words)`` into
    integer counts ``(n, OH, OW)`` under a partial-binary mode."""
    if mode is AccumulationMode.SC:
        merged = np.bitwise_or.reduce(
            products.reshape((products.shape[0], -1) + products.shape[4:]),
            axis=1,
        )
        return popcount_packed(merged)
    if mode is AccumulationMode.PBW:
        merged = np.bitwise_or.reduce(
            np.bitwise_or.reduce(products, axis=1), axis=1
        )  # (n, KW, OH, OW, words)
        return popcount_packed(merged).sum(axis=1, dtype=np.int64)
    if mode is AccumulationMode.PBHW:
        merged = np.bitwise_or.reduce(products, axis=1)  # (n, KH, KW, ...)
        return popcount_packed(merged).sum(axis=(1, 2), dtype=np.int64)
    if mode is AccumulationMode.FXP:
        return popcount_packed(products).sum(axis=(1, 2, 3), dtype=np.int64)
    if mode is AccumulationMode.APC:
        flat = products.reshape((products.shape[0], -1) + products.shape[4:])
        k = flat.shape[1]
        pairs = k // 2
        merged = flat[:, 0 : 2 * pairs : 2] | flat[:, 1 : 2 * pairs : 2]
        counts = popcount_packed(merged).sum(axis=1, dtype=np.int64)
        if k % 2:
            counts = counts + popcount_packed(flat[:, -1])
        return counts
    raise ConfigurationError(f"unhandled accumulation mode {mode}")


#: Execution-only knobs that can change without invalidating a
#: simulator's seed plan or stream tables.
_EXECUTION_KNOBS = frozenset({"engine", "num_workers", "batch_chunk"})

#: Stream-length knobs reconfigurable in place. Changing one swaps the
#: simulator onto a different (cached) seed plan and a different LRU
#: stream-table key — this is the serving layer's degrade-under-load
#: lever (trade accuracy for latency without rebuilding the model).
_STREAM_KNOBS = frozenset(
    {"stream_length", "stream_length_pooling", "output_stream_length"}
)


@dataclass(frozen=True)
class _ExecState:
    """Immutable snapshot of everything a forward pass reads from the
    simulator. :meth:`SCConvSimulator.reconfigure` swaps the whole
    object atomically, so a forward running concurrently in another
    thread sees either the old state or the new one — never a mix of
    (say) a new stream length with an old seed plan."""

    cfg: SCConfig
    length: int
    bits: int
    plan: SeedPlan


def _merge_kernel_stats(total: dict, call: dict) -> None:
    """Fold one fused call's stats into a forward's ``kernel_layout`` /
    ``lanes`` / ``shards``: a value that differs across batch chunks
    reads ``"mixed"``. A fused call never reports ``lanes=None``, so
    that marks the forward's first call."""
    first = total["lanes"] is None
    for key, name in (
        ("kernel_layout", "layout"),
        ("lanes", "lanes"),
        ("shards", "shards"),
    ):
        if first:
            total[key] = call[name]
        elif total[key] != call[name]:
            total[key] = "mixed"


class SCConvSimulator:
    """Bit-true SC forward for one convolution layer.

    The simulator is constructed once per layer (it owns the seed plan)
    and called every forward pass. ``call_index`` advances TRNG draws so
    non-deterministic sources genuinely differ between passes.

    Two execution engines produce bit-identical outputs:
    ``cfg.engine == "fused"`` (default) runs the cache-blocked streaming
    kernels of :mod:`repro.sc.kernels`, sharded per ``cfg.num_workers``
    (by default the process's kernel share); ``"reference"`` keeps the
    original per-output-channel reduction for cross-checks.
    """

    def __init__(
        self,
        kernel_shape: tuple[int, int, int, int],
        cfg: SCConfig,
        role: str = "plain",
        layer_index: int = 0,
        stride: int = 1,
        padding: int = 0,
    ):
        self.kernel_shape = kernel_shape
        self.role = role
        self.layer_index = layer_index
        self.stride = stride
        self.padding = padding
        self._call_index = 0
        self._lock = threading.Lock()  # guards: _state, _call_index
        self._plans: dict[int, SeedPlan] = {}  # per-LFSR-width plan cache
        self._state = _ExecState(
            cfg=cfg,
            length=cfg.length_for(role),
            bits=cfg.bits_for(role),
            plan=self._seed_plan(cfg, cfg.bits_for(role)),
        )

    def _seed_plan(self, cfg: SCConfig, bits: int) -> SeedPlan:
        """Seed plan for an LFSR width, cached so tier flips between
        stream lengths (serving degradation) don't re-plan every time.

        The plan is built against an LFSR-sized pool so the sharing
        limits ("up to the limit of availability of unique RNG seeds")
        are honored uniformly across RNG kinds.
        """
        plan = self._plans.get(bits)
        if plan is None:
            pool_source = LFSRSource(bits)
            plan = plan_seeds(
                cfg.sharing,
                self.kernel_shape,
                pool_source
                if cfg.rng_kind == "lfsr"
                else _build_source(cfg, bits, self.layer_index, 0),
                layer_index=self.layer_index,
                root_seed=cfg.root_seed,
            )
            self._plans[bits] = plan
        return plan

    # Read-only views onto the current execution state; each property
    # reads the atomically-swapped snapshot, so consecutive reads during
    # a concurrent reconfigure may disagree — forward passes therefore
    # capture ``self._state`` once instead of using these.

    @property
    def cfg(self) -> SCConfig:
        return self._state.cfg

    @property
    def length(self) -> int:
        return self._state.length

    @property
    def bits(self) -> int:
        return self._state.bits

    @property
    def plan(self) -> SeedPlan:
        return self._state.plan

    # -- call-index state (checkpointing / replicated execution) -------------

    @property
    def call_index(self) -> int:
        """Number of forwards drawn so far — the only mutable RNG cursor.

        TRNG sources derive their stream from ``(layer_index,
        call_index)``, so two simulators with equal config and equal
        call index produce bit-identical forwards. Training checkpoints
        persist this (:mod:`repro.scnn.ckpt`), and the minibatch pool
        ships it to workers so a respawned worker replays the exact
        draw the crashed one was making.
        """
        with self._lock:
            return self._call_index

    def set_call_index(self, value: int) -> None:
        if value < 0:
            raise ConfigurationError(
                f"call_index must be >= 0, got {value}"
            )
        with self._lock:
            self._call_index = int(value)

    def skip_call(self) -> None:
        """Advance the call index without running a forward.

        Used when a forward's SC values were computed elsewhere (a pool
        worker) and injected: the local cursor must advance exactly as
        if the forward had run here, so a later in-process forward draws
        the same streams either way.
        """
        with self._lock:
            self._call_index += 1

    def __getstate__(self) -> dict:
        """Pickle support: drop the (unpicklable) reconfigure lock.

        The process-pool serving backend (:mod:`repro.serve.backend`)
        ships whole models — simulators included — to worker processes;
        the worker's copy gets a fresh lock and the same seed plans and
        execution state, so its forwards are bit-identical to the
        parent's.
        """
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()  # guards: _state, _call_index

    def reconfigure(self, **kwargs) -> None:
        """Update execution knobs (engine, num_workers, batch_chunk) or
        stream lengths in place; anything else affecting streams/seeds
        (RNG kind, sharing, accumulation) needs a new simulator.

        Stream-length changes swap onto a cached per-width seed plan —
        this is the serving layer's degrade/restore lever. The swap is
        atomic: forwards running concurrently in other threads finish on
        the state they started with, later forwards see the new tier.
        """
        allowed = _EXECUTION_KNOBS | _STREAM_KNOBS
        bad = set(kwargs) - allowed
        if bad:
            raise ConfigurationError(
                f"only knobs {sorted(allowed)} can be reconfigured in "
                f"place, got {sorted(bad)}"
            )
        with self._lock:
            cfg = self._state.cfg.with_(**kwargs)
            bits = cfg.bits_for(self.role)
            self._state = _ExecState(
                cfg=cfg,
                length=cfg.length_for(self.role),
                bits=bits,
                plan=self._seed_plan(cfg, bits),
            )

    # -- forward ---------------------------------------------------------------

    def __call__(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Simulated SC convolution.

        Parameters
        ----------
        x:
            Activations ``(N, Cin, H, W)`` in ``[0, 1]`` (values outside
            are clipped — the representable unipolar range).
        weight:
            Weights ``(Cout, Cin, KH, KW)`` in ``[-1, 1]`` (clipped).

        Returns
        -------
        numpy.ndarray
            ``(N, Cout, OH, OW)`` float outputs in *linear units*:
            ``counts / stream_length``, positive minus negative channel.
        """
        cout, cin, kh, kw = self.kernel_shape
        if weight.shape != self.kernel_shape:
            raise ShapeError(
                f"weight shape {weight.shape} != kernel {self.kernel_shape}"
            )
        if x.ndim != 4 or x.shape[1] != cin:
            raise ShapeError(
                f"input shape {x.shape} incompatible with Cin={cin}"
            )

        # One atomic snapshot: a concurrent reconfigure() swaps
        # self._state, but this forward runs end to end on the state it
        # captured here (config, length, bits, and plan always agree).
        with self._lock:
            state = self._state
            call_index = self._call_index
            self._call_index += 1
        cfg, length, bits, plan = state.cfg, state.length, state.bits, state.plan

        source = _build_source(cfg, bits, self.layer_index, call_index)

        reg = obs.get_registry()
        mode = cfg.accumulation
        bytes_touched = 0
        # This forward's own kernel stats, returned by each fused call so
        # concurrent forwards never see each other's. They stay None on
        # the reference engine.
        kernel = {"kernel_layout": None, "lanes": None, "shards": None}
        with reg.span(
            "scnn.conv_forward",
            layer=self.layer_index,
            role=self.role,
            mode=mode.value,
            engine=cfg.engine,
            length=length,
        ) as sp:
            q_act_full = quantize_unipolar(x, bits)
            w_clipped = np.clip(weight, -1.0, 1.0)
            q_wpos = quantize_unipolar(np.maximum(w_clipped, 0.0), bits)
            q_wneg = quantize_unipolar(np.maximum(-w_clipped, 0.0), bits)

            # One table serves both operand kinds: the plan's seed pools are
            # disjoint, and the table is indexed by raw seed.
            all_seeds = np.concatenate(
                [plan.weight_seeds.ravel(), plan.act_seeds.ravel()]
            )
            table, unique = stream_table(
                source, bits, length, all_seeds, cfg.progressive
            )
            wp = _lookup(table, unique, plan.weight_seeds, q_wpos)
            wn = _lookup(table, unique, plan.weight_seeds, q_wneg)

            n = x.shape[0]
            oh = conv_output_size(x.shape[2], kh, self.stride, self.padding)
            ow = conv_output_size(x.shape[3], kw, self.stride, self.padding)
            out = np.empty((n, cout, oh, ow), dtype=np.float32)

            act_seed_idx = np.searchsorted(unique, plan.act_seeds)
            fused = cfg.engine == "fused"
            chunk = max(1, cfg.batch_chunk)
            # Levels are unrolled in the narrowest type that holds them
            # (uint8 up to 8 bits): the columns and the kernels' copies of
            # them are a forward's largest temporaries.
            levels = np.min_scalar_type((1 << bits) - 1)
            for start in range(0, n, chunk):
                xs = q_act_full[start : start + chunk]
                with reg.span("scnn.im2col"):
                    cols = im2col(
                        xs.astype(levels), kh, kw, self.stride, self.padding
                    )
                bytes_touched += cols.nbytes
                # cols: (nc, Cin, KH, KW, OH, OW)
                if fused:
                    nc = cols.shape[0]
                    call: dict = {}
                    with reg.span("scnn.engine", engine="fused"):
                        signed = fused_conv_counts(
                            table,
                            act_seed_idx,
                            cols.reshape(nc, cin, kh, kw, oh * ow),
                            wp,
                            wn,
                            mode,
                            num_workers=cfg.num_workers,
                            length=length,
                            stats=call,
                        )  # (nc, Cout, OH*OW)
                    _merge_kernel_stats(kernel, call)
                    out[start : start + chunk] = (
                        (signed / length)
                        .astype(np.float32)
                        .reshape(nc, cout, oh, ow)
                    )
                    continue
                with reg.span("scnn.engine", engine="reference"):
                    act = table[
                        act_seed_idx[None, :, :, :, None, None], cols
                    ]  # (nc, Cin, KH, KW, OH, OW, words)
                    bytes_touched += act.nbytes
                    for co in range(cout):
                        w_pos_c = wp[co][None, :, :, :, None, None, :]
                        w_neg_c = wn[co][None, :, :, :, None, None, :]
                        pos_counts = _reduce_products(act & w_pos_c, mode)
                        neg_counts = _reduce_products(act & w_neg_c, mode)
                        out[start : start + chunk, co] = (
                            (pos_counts - neg_counts) / length
                        ).astype(np.float32)
            if reg.enabled:
                sp.attrs.update(kernel)
        if reg.enabled:
            bytes_touched += table.nbytes + wp.nbytes + wn.nbytes + out.nbytes
            reg.counter(f"scnn.outputs.{mode.value}").add(out.size)
            reg.add_profile(
                {
                    "kind": "layer_forward",
                    "op": "conv",
                    "layer_index": self.layer_index,
                    "role": self.role,
                    "mode": mode.value,
                    "engine": cfg.engine,
                    "stream_length": length,
                    "bits": bits,
                    "kernel_shape": list(self.kernel_shape),
                    "batch": int(n),
                    "output_shape": [int(n), cout, oh, ow],
                    "bytes_touched": int(bytes_touched),
                    "wall_s": sp.wall_s,
                    "cpu_s": sp.cpu_s,
                    **kernel,
                }
            )
        return out


class SCLinearSimulator:
    """Bit-true SC forward for a fully-connected layer.

    The feature axis is folded into an equivalent kernel so the same
    partial-binary fabric applies: features are partitioned into
    ``binary_groups`` contiguous groups; accumulation is OR within each
    group and fixed point across groups (SC mode = 1 group, FXP = every
    product in fixed point).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        cfg: SCConfig,
        role: str = "output",
        layer_index: int = 0,
        binary_groups: int | None = None,
    ):
        mode = cfg.accumulation
        if binary_groups is None:
            if mode is AccumulationMode.SC:
                binary_groups = 1
            elif mode is AccumulationMode.FXP:
                binary_groups = in_features
            else:
                # PBW/PBHW/APC: the widest parallel counter up to the
                # target width that divides the feature count evenly.
                target = 32 if mode is AccumulationMode.PBHW else 8
                binary_groups = max(
                    g
                    for g in range(1, min(in_features, target) + 1)
                    if in_features % g == 0
                )
        if in_features % binary_groups:
            raise ConfigurationError(
                f"in_features {in_features} not divisible by "
                f"binary_groups {binary_groups}"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.binary_groups = binary_groups
        group_size = in_features // binary_groups
        # Kernel layout (Cin=group_size, KH=1, KW=binary_groups): with
        # KH=1, both PBW and PBHW accumulate OR within each group and
        # fixed point across the ``binary_groups`` axis — exactly the
        # row-segment fabric an FC layer maps onto.
        self._conv = SCConvSimulator(
            (out_features, group_size, 1, binary_groups),
            cfg,
            role=role,
            layer_index=layer_index,
        )

    def reconfigure(self, **kwargs) -> None:
        """Update execution knobs on the folded convolution simulator."""
        self._conv.reconfigure(**kwargs)

    @property
    def call_index(self) -> int:
        return self._conv.call_index

    def set_call_index(self, value: int) -> None:
        self._conv.set_call_index(value)

    def skip_call(self) -> None:
        self._conv.skip_call()

    def __call__(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """``x``: (N, F) in [0,1]; ``weight``: (Fout, F) in [-1,1]."""
        n = x.shape[0]
        g = self.binary_groups
        reg = obs.get_registry()
        gs = self.in_features // g
        # Features interleave into (group_size, 1, groups) kernels:
        # feature f -> (cin = f % gs ... ) use contiguous split: group i
        # holds features [i*gs, (i+1)*gs).
        x4 = x.reshape(n, g, gs).transpose(0, 2, 1).reshape(n, gs, 1, g)
        w4 = (
            weight.reshape(self.out_features, g, gs)
            .transpose(0, 2, 1)
            .reshape(self.out_features, gs, 1, g)
        )
        with reg.span(
            "scnn.linear_forward",
            in_features=self.in_features,
            out_features=self.out_features,
            groups=g,
        ):
            out = self._conv(x4, w4)
        return out.reshape(n, self.out_features)
