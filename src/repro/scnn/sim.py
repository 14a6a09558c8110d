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
sharded across the process's CPU share via ``SCConfig.num_workers``) or a
per-output-channel reduction through
:func:`repro.sc.accumulate.accumulate_products`, the one definition of
the five accumulation modes (``engine == "reference"``), kept for
bit-exactness cross-checks.
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
from repro.sc.accumulate import AccumulationMode, accumulate_products
from repro.sc.formats import quantize_unipolar
from repro.sc.kernels import fused_conv_counts
from repro.sc.rng import LFSRSource, RandomSource, SobolSource, TRNGSource
from repro.sc.sharing import SeedPlan, plan_seeds
from repro.sc.sng import SNG, ProgressiveSNG
from repro.sc.streams import StreamBatch
from repro.scnn.config import SCConfig
from repro.utils.seeding import derive_seed

# LRU cache of deterministic stream tables: hits move the entry to the
# MRU end; overflow evicts only the LRU entry (the old behaviour dropped
# the whole cache, flushing every other layer's table on the 257th
# distinct key). The hit/miss/eviction counters live on the telemetry
# registry (`repro.obs`), and `table_cache_stats()` reads them.
_TABLE_CACHE: OrderedDict[tuple, np.ndarray] = OrderedDict()
_TABLE_CACHE_LIMIT = 256
_TABLE_CACHE_BYTES = 0  # resident payload bytes, mirrored to the gauge

_CACHE_HITS = obs.counter("scnn.table_cache.hits")
_CACHE_MISSES = obs.counter("scnn.table_cache.misses")
_CACHE_EVICTIONS = obs.counter("scnn.table_cache.evictions")
_CACHE_BYTES_GAUGE = obs.gauge("scnn.table_cache.bytes", unit="bytes")


def clear_table_cache() -> None:
    """Empty the stream-table cache and reset its hit, miss and eviction
    counters and its bytes gauge (tests / memory pressure)."""
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
    A cluster router's process builds no table, so
    :class:`~repro.cluster.manager.ReplicaManager` calls this before the
    router's threads start.
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
class _SeedRows:
    """A seed plan resolved once against the stream table it indexes.

    GEO loads its weight SNG buffers once per layer and only streams
    activations (Sec. III-A), so nothing here changes between forwards:
    ``seeds`` are the plan's distinct seeds in ascending order (the
    table's rows), and ``weight_rows`` ``(Cout, Cin, KH, KW)`` and
    ``act_rows`` ``(Cin, KH, KW)`` are each SNG's row in that table.
    Weight rows use the narrowest unsigned type that holds a row index:
    serving keeps a plan per tier, and a LeNet-5 fully connected layer
    has 94,080 weight SNGs. All three arrays are read-only.
    """

    plan: SeedPlan
    seeds: np.ndarray
    weight_rows: np.ndarray
    act_rows: np.ndarray

    @classmethod
    def resolve(cls, plan: SeedPlan) -> "_SeedRows":
        # One table serves both operand kinds: the plan's seed pools are
        # disjoint, and the table is indexed by raw seed.
        seeds = np.unique(
            np.concatenate([plan.weight_seeds.ravel(), plan.act_seeds.ravel()])
        )
        weight_rows = np.searchsorted(seeds, plan.weight_seeds).astype(
            np.min_scalar_type(seeds.size - 1)
        )
        act_rows = np.searchsorted(seeds, plan.act_seeds)
        for array in (seeds, weight_rows, act_rows):
            array.setflags(write=False)
        return cls(plan, seeds, weight_rows, act_rows)


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
    rows: _SeedRows


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
    (by default the process's kernel share); ``"reference"`` reduces
    each output channel's products through
    :func:`repro.sc.accumulate.accumulate_products`, for cross-checks.
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
        self._plans: dict[int, _SeedRows] = {}  # per-LFSR-width plan cache
        self._state = self._exec_state(cfg)

    def _exec_state(self, cfg: SCConfig) -> _ExecState:
        bits = cfg.bits_for(self.role)
        return _ExecState(
            cfg=cfg,
            length=cfg.length_for(self.role),
            bits=bits,
            rows=self._seed_plan(cfg, bits),
        )

    def _seed_plan(self, cfg: SCConfig, bits: int) -> _SeedRows:
        """Seed plan for an LFSR width, resolved to its table rows and
        cached, so tier flips between stream lengths (serving
        degradation) neither re-plan nor re-resolve.

        The plan is built against an LFSR-sized pool so the sharing
        limits ("up to the limit of availability of unique RNG seeds")
        are honored uniformly across RNG kinds.
        """
        rows = self._plans.get(bits)
        if rows is None:
            pool_source = LFSRSource(bits)
            rows = _SeedRows.resolve(
                plan_seeds(
                    cfg.sharing,
                    self.kernel_shape,
                    pool_source
                    if cfg.rng_kind == "lfsr"
                    else _build_source(cfg, bits, self.layer_index, 0),
                    layer_index=self.layer_index,
                    root_seed=cfg.root_seed,
                )
            )
            self._plans[bits] = rows
        return rows

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
        return self._state.rows.plan

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
            self._state = self._exec_state(self._state.cfg.with_(**kwargs))

    # -- forward ---------------------------------------------------------------

    def _check_shapes(self, x: np.ndarray, weight: np.ndarray) -> None:
        """Raise :class:`ShapeError` unless ``weight`` has the kernel's
        shape, ``x`` is ``(N, Cin, H, W)`` with a non-empty output and
        neither holds NaN, before a forward takes its call index (so a
        rejected forward leaves the TRNG cursor where it was)."""
        if weight.shape != self.kernel_shape:
            raise ShapeError(
                f"weight shape {weight.shape} != kernel {self.kernel_shape}"
            )
        if x.ndim != 4 or x.shape[1] != self.kernel_shape[1]:
            raise ShapeError(
                f"input shape {x.shape} incompatible with "
                f"Cin={self.kernel_shape[1]}"
            )
        for size, kernel in zip(x.shape[2:], self.kernel_shape[2:]):
            conv_output_size(size, kernel, self.stride, self.padding)
        for name, values in (("input", x), ("weight", weight)):
            nan = np.count_nonzero(np.isnan(values))
            if nan:
                raise ShapeError(
                    f"{nan} of {values.size} {name} values are NaN"
                )

    def _operands(
        self, state: _ExecState, call_index: int, x: np.ndarray,
        weight: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Everything a forward on ``state`` drawn at ``call_index``
        feeds the engines: the stream table ``(rows, 2**bits, words)``,
        the activation SNGs' table rows ``(Cin, KH, KW)``, the packed
        positive and negative weight streams ``(Cout, Cin, KH, KW,
        words)``, and the quantized activations unrolled into ``(N, Cin,
        KH, KW, OH, OW)`` columns. The table rows come from the state's
        resolved plan; nothing here searches the seeds.

        ``x`` and ``weight`` are clipped to ``[0, 1]`` and ``[-1, 1]``
        (±inf saturates); :meth:`_check_shapes` has rejected NaN.
        """
        cfg, length, bits, rows = state.cfg, state.length, state.bits, state.rows
        _, _, kh, kw = self.kernel_shape
        q_act = quantize_unipolar(x, bits)
        w_clipped = np.clip(weight, -1.0, 1.0)
        q_wpos = quantize_unipolar(np.maximum(w_clipped, 0.0), bits)
        q_wneg = quantize_unipolar(np.maximum(-w_clipped, 0.0), bits)

        source = _build_source(cfg, bits, self.layer_index, call_index)
        table, _ = stream_table(
            source, bits, length, rows.seeds, cfg.progressive
        )
        wp = table[rows.weight_rows, q_wpos]
        wn = table[rows.weight_rows, q_wneg]
        # Levels are unrolled in the narrowest type that holds them
        # (uint8 up to 8 bits): the columns and the kernels' copies of
        # them are a forward's largest temporaries.
        levels = np.min_scalar_type((1 << bits) - 1)
        with obs.get_registry().span("scnn.im2col"):
            cols = im2col(
                q_act.astype(levels), kh, kw, self.stride, self.padding
            )
        return table, rows.act_rows, wp, wn, cols

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
        self._check_shapes(x, weight)

        # One atomic snapshot: a concurrent reconfigure() swaps
        # self._state, but this forward runs end to end on the state it
        # captured here (config, length, bits, and plan always agree).
        with self._lock:
            state = self._state
            call_index = self._call_index
            self._call_index += 1
        return self._forward(state, call_index, x, weight)

    def _forward(
        self, state: _ExecState, call_index: int, x: np.ndarray,
        weight: np.ndarray,
    ) -> np.ndarray:
        """:meth:`__call__`'s forward on ``state`` drawn at
        ``call_index``, on operands already shape-checked; the call
        index is left as it is."""
        cout, cin, kh, kw = self.kernel_shape
        cfg, length, bits = state.cfg, state.length, state.bits

        reg = obs.get_registry()
        mode = cfg.accumulation
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
            table, act_rows, wp, wn, cols = self._operands(
                state, call_index, x, weight
            )
            n, _, _, _, oh, ow = cols.shape
            bytes_touched = cols.nbytes
            out = np.empty((n, cout, oh, ow), dtype=np.float32)
            fused = cfg.engine == "fused"
            chunk = max(1, cfg.batch_chunk)
            for start in range(0, n, chunk):
                # (nc, Cin, KH, KW, OH, OW)
                cols_chunk = cols[start : start + chunk]
                nc = cols_chunk.shape[0]
                if fused:
                    call: dict = {}
                    with reg.span("scnn.engine", engine="fused"):
                        signed = fused_conv_counts(
                            table,
                            act_rows,
                            cols_chunk.reshape(nc, cin, kh, kw, oh * ow),
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
                    # Kernel axes last, as accumulate_products reads them.
                    act = table[
                        act_rows, cols_chunk.transpose(0, 4, 5, 1, 2, 3)
                    ]  # (nc, OH, OW, Cin, KH, KW, words)
                    bytes_touched += act.nbytes
                    for co in range(cout):
                        pos_counts = accumulate_products(
                            StreamBatch(act & wp[co], length), mode, (cin, kh, kw)
                        )
                        neg_counts = accumulate_products(
                            StreamBatch(act & wn[co], length), mode, (cin, kh, kw)
                        )
                        out[start : start + chunk, co] = (
                            (pos_counts - neg_counts) / length
                        ).astype(np.float32)
            sp.attrs.update(kernel)
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
        """``x``: (N, F) in [0,1]; ``weight``: (Fout, F) in [-1,1].

        Raises :class:`ShapeError` for any other operand shape."""
        if weight.shape != (self.out_features, self.in_features):
            raise ShapeError(
                f"weight shape {weight.shape} != "
                f"{(self.out_features, self.in_features)}"
            )
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"input shape {x.shape} incompatible with "
                f"in_features={self.in_features}"
            )
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
