"""Per-shape execution-plan autotuner with a persistent plan cache.

The fused engine (:mod:`repro.sc.kernels`) is sensitive to slab/chunk
geometry: the best ``slab_bytes`` / channel-block width / dense-vs-sparse
path depends on the layer shape, the accumulation mode's OR-group
structure, the stream length, and the activation density. This module
closes that loop:

* :func:`plan_for` maps one fused-call signature to an
  :class:`~repro.sc.kernels.ExecPlan`. On a cache miss it benchmarks a
  small candidate set on a subsampled probe of the real operands
  (spatial extent capped at :data:`PROBE_P`, batch at :data:`PROBE_N`),
  keeps the fastest plan, and stores it.
* Plans are keyed by ``(mode, layer shape, stream words, lanes per
  word, shard count, density bucket)`` — see :func:`plan_key`. The
  density bucket keeps sparse and dense workloads of the same shape from
  sharing a plan.
* :class:`PlanCache` holds plans in-process and optionally persists them
  as JSON (default ``~/.cache/geo-repro/plans.json``, override with the
  ``REPRO_PLAN_CACHE`` env var, disable disk with ``REPRO_PLAN_CACHE=off``).
  The file is versioned and stamped with :func:`kernel_code_hash`; a
  stale version or hash silently invalidates the whole file, so plans
  never outlive the kernel code that produced them.

Determinism notes: candidate probe order is shuffled with an RNG seeded
from the plan key (RPR001 — no unseeded randomness), and timing uses
``time.perf_counter`` which the wall-clock rule explicitly permits
(RPR002 forbids ``time.time``/``datetime.now``, not monotonic timers).
Tuning runs execute the real kernels, so telemetry op counters
(``sc.kernels.*``) include probe work; the tuner's own counters
(``sc.tuner.plan_hits`` / ``plan_misses`` / ``tunes``) let profiles
separate tuning overhead from steady state.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import get_registry
from repro.sc.kernels import DEFAULT_SLAB_BYTES, ExecPlan, stream_lanes
from repro.utils.atomic import atomic_write_json

__all__ = [
    "CACHE_VERSION",
    "PROBE_N",
    "PROBE_P",
    "PlanCache",
    "autotune_enabled",
    "candidate_plans",
    "clear_plan_cache",
    "get_plan_cache",
    "kernel_code_hash",
    "plan_for",
    "plan_key",
    "set_default_autotune",
    "set_plan_cache",
]

#: On-disk cache schema version; bump when the JSON layout changes.
CACHE_VERSION = 3

#: Default persistent cache location (see ``REPRO_PLAN_CACHE``).
DEFAULT_CACHE_PATH = "~/.cache/geo-repro/plans.json"

#: Probe subsampling caps: candidates are timed on at most this many
#: output positions / batch samples of the real operands.
PROBE_P = 256
PROBE_N = 2

#: Best-of repetitions per candidate timing.
TUNE_REPS = 3

_FALSEY = ("", "0", "off", "none", "false")


def kernel_code_hash() -> str:
    """SHA-256 over the kernel + tuner sources (cache invalidation key)."""
    from repro.sc import kernels

    digest = hashlib.sha256()
    for mod_file in (kernels.__file__, __file__):
        digest.update(Path(mod_file).read_bytes())
    return digest.hexdigest()[:16]


def plan_key(
    mode: str,
    n: int,
    cin: int,
    kh: int,
    kw: int,
    cout: int,
    p: int,
    words: int,
    zero_frac: float = 0.0,
    lanes: int = 1,
    shards: int = 1,
) -> str:
    """Stable cache key for one fused-call signature.

    The density bucket quantizes ``zero_frac`` into quarters so that
    dense and sparse traffic through the same layer tune independently
    without fragmenting the cache per exact density. ``lanes`` (streams
    per word, :func:`repro.sc.kernels.stream_lanes`) separates lengths
    that share a word count: 32 and 64 are both one word, but only 32
    runs the two-lane kernels. ``shards`` is the resolved shard count
    (:func:`repro.utils.parallel.resolve_shards`): each shard sees a
    smaller spatial extent, so a plan tuned serially need not win
    sharded.
    """
    bucket = min(3, int(max(0.0, min(1.0, zero_frac)) * 4))
    return (
        f"{mode}|n{n}|cin{cin}|kh{kh}|kw{kw}|cout{cout}"
        f"|p{p}|w{words}|l{lanes}|s{shards}|z{bucket}"
    )


class PlanCache:
    """Execution-plan store: in-process dict plus optional JSON file.

    The on-disk record is ``{"version", "kernel_hash", "plans"}``; a
    version or kernel-hash mismatch on load drops the file's contents
    (plans are cheap to re-tune, silently stale plans are not cheap to
    debug). ``hits`` / ``misses`` / ``tunes`` are plain ints so tests
    can assert cache behavior without the telemetry registry.
    """

    def __init__(self, path: str | os.PathLike | None = None):
        self._lock = threading.Lock()  # guards: _plans, _loaded, counters
        self._plans: dict[str, ExecPlan] = {}
        self._path = Path(path).expanduser() if path is not None else None
        self._loaded = path is None
        self.hits = 0
        self.misses = 0
        self.tunes = 0

    @property
    def path(self) -> Path | None:
        return self._path

    def _load_locked(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        try:
            record = json.loads(self._path.read_text())
        except (OSError, ValueError):
            return
        if not isinstance(record, dict):
            return
        if record.get("version") != CACHE_VERSION:
            return
        if record.get("kernel_hash") != kernel_code_hash():
            return
        for key, plan_dict in record.get("plans", {}).items():
            try:
                self._plans[key] = ExecPlan.from_dict(plan_dict)
            except (ConfigurationError, TypeError):
                continue

    def _save_locked(self) -> None:
        if self._path is None:
            return
        record = {
            "version": CACHE_VERSION,
            "kernel_hash": kernel_code_hash(),
            "plans": {k: v.to_dict() for k, v in self._plans.items()},
        }
        try:
            atomic_write_json(self._path, record)
        except OSError:
            # A read-only HOME must not break inference; plans simply
            # stay in-process.
            pass

    def lookup(self, key: str) -> ExecPlan | None:
        with self._lock:
            self._load_locked()
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
            else:
                self.hits += 1
            return plan

    def store(self, key: str, plan: ExecPlan) -> None:
        with self._lock:
            self._load_locked()
            self._plans[key] = plan
            self._save_locked()

    def note_tune(self) -> None:
        with self._lock:
            self.tunes += 1

    def __len__(self) -> int:
        with self._lock:
            self._load_locked()
            return len(self._plans)

    def clear(self, disk: bool = False) -> None:
        with self._lock:
            self._plans.clear()
            self._loaded = self._path is None
            if disk and self._path is not None:
                self._loaded = True
                try:
                    self._path.unlink(missing_ok=True)
                except OSError:
                    pass


_STATE_LOCK = threading.Lock()  # guards: _CACHE, _DEFAULT_AUTOTUNE
_CACHE: PlanCache | None = None
_DEFAULT_AUTOTUNE: bool | None = None


def _cache_path_from_env() -> str | None:
    raw = os.environ.get("REPRO_PLAN_CACHE")
    if raw is None:
        return DEFAULT_CACHE_PATH
    if raw.strip().lower() in _FALSEY:
        return None
    return raw


def get_plan_cache() -> PlanCache:
    """Process-wide plan cache (created lazily from ``REPRO_PLAN_CACHE``)."""
    global _CACHE
    with _STATE_LOCK:
        if _CACHE is None:
            _CACHE = PlanCache(_cache_path_from_env())
        return _CACHE


def set_plan_cache(cache: PlanCache | None) -> None:
    """Swap the process-wide cache (``None`` re-resolves from the env)."""
    global _CACHE
    with _STATE_LOCK:
        _CACHE = cache


def clear_plan_cache(disk: bool = False) -> None:
    """Drop all cached plans (and the JSON file when ``disk=True``)."""
    get_plan_cache().clear(disk=disk)


def set_default_autotune(value: bool | None) -> None:
    """Set the process-wide autotune default (``None`` = follow env)."""
    global _DEFAULT_AUTOTUNE
    with _STATE_LOCK:
        _DEFAULT_AUTOTUNE = value


def autotune_enabled(explicit: bool | None = None) -> bool:
    """Resolve the autotune switch: explicit > process default > env."""
    if explicit is not None:
        return explicit
    with _STATE_LOCK:
        if _DEFAULT_AUTOTUNE is not None:
            return _DEFAULT_AUTOTUNE
    return os.environ.get("REPRO_AUTOTUNE", "").strip().lower() not in _FALSEY


#: Modes whose OR-group permutation is natural member-major order, so
#: the ``s_outer`` layout applies (see ``repro.sc.kernels``).
_NATURAL_MODES = ("sc", "pbw", "pbhw", "fxp")


def candidate_plans(
    zero_frac: float = 0.0, mode: str | None = None
) -> list[ExecPlan]:
    """Candidate geometries tried on a cache miss.

    A small cross of slab budgets and channel-block widths on the dense
    ``k_inner`` path, narrow-block ``s_outer`` layouts for natural-order
    modes, plus sparse-path variants once the workload shows meaningful
    zero fraction. Kept small so a tuning pass stays cheap relative to
    one real layer forward.
    """
    cands = [
        ExecPlan(slab_bytes=DEFAULT_SLAB_BYTES // 2, path="dense"),
        ExecPlan(slab_bytes=DEFAULT_SLAB_BYTES, path="dense"),
        ExecPlan(slab_bytes=4 * DEFAULT_SLAB_BYTES, path="dense"),
        ExecPlan(
            slab_bytes=DEFAULT_SLAB_BYTES, channel_block=8, path="dense"
        ),
        ExecPlan(
            slab_bytes=DEFAULT_SLAB_BYTES, channel_block=32, path="dense"
        ),
        ExecPlan(
            slab_bytes=4 * DEFAULT_SLAB_BYTES, channel_block=32, path="dense"
        ),
    ]
    if mode is None or mode in _NATURAL_MODES:
        cands += [
            ExecPlan(channel_block=1, path="dense", layout="s_outer"),
            ExecPlan(channel_block=2, path="dense", layout="s_outer"),
            ExecPlan(channel_block=4, path="dense", layout="s_outer"),
        ]
    if zero_frac >= 0.3:
        cands += [
            ExecPlan(slab_bytes=DEFAULT_SLAB_BYTES, path="sparse"),
            ExecPlan(slab_bytes=4 * DEFAULT_SLAB_BYTES, path="sparse"),
        ]
    return cands


def _probe_operands(
    cols: np.ndarray,
) -> np.ndarray:
    """Subsample the activation columns to the probe size."""
    n = min(cols.shape[0], PROBE_N)
    p = min(cols.shape[-1], PROBE_P)
    if n == cols.shape[0] and p == cols.shape[-1]:
        return cols
    return np.ascontiguousarray(cols[:n, ..., :p])


def _tune(
    key: str,
    table: np.ndarray,
    act_rows: np.ndarray,
    cols: np.ndarray,
    wp: np.ndarray,
    wn: np.ndarray,
    mode,
    workers: int,
    zero_frac: float,
    length: int | None,
) -> ExecPlan:
    """Time every candidate on probe operands; return the fastest plan."""
    from repro.sc.kernels import fused_conv_counts

    probe_cols = _probe_operands(cols)
    cands = candidate_plans(zero_frac, mode=mode.value)
    seed = int.from_bytes(
        hashlib.sha256(key.encode()).digest()[:4], "little"
    )
    order = np.random.default_rng(seed).permutation(len(cands))
    best_plan = cands[int(order[0])]
    best_time = float("inf")
    for idx in order:
        plan = cands[int(idx)]
        elapsed = float("inf")
        for _ in range(TUNE_REPS):
            start = time.perf_counter()
            fused_conv_counts(
                table, act_rows, probe_cols, wp, wn, mode,
                num_workers=workers, plan=plan, length=length,
            )
            elapsed = min(elapsed, time.perf_counter() - start)
        if elapsed < best_time:
            best_time = elapsed
            best_plan = plan
    return best_plan


def plan_for(
    table: np.ndarray,
    act_rows: np.ndarray,
    cols: np.ndarray,
    wp: np.ndarray,
    wn: np.ndarray,
    mode,
    workers: int = 1,
    zero_frac: float = 0.0,
    length: int | None = None,
) -> ExecPlan:
    """Resolve the execution plan for one fused call, tuning on miss.

    ``workers`` is the call's resolved shard count; it is part of the
    key and the candidates are timed at it.

    Cache hits cost one dict lookup; misses run :func:`_tune` on probe
    operands and persist the winner, so the *second* call with the same
    signature pays zero tuning overhead (within or across processes
    when disk persistence is on).
    """
    from repro.sc.accumulate import AccumulationMode

    mode = AccumulationMode.parse(mode)
    n, cin, kh, kw, p = cols.shape
    key = plan_key(
        mode.value, n, cin, kh, kw, wp.shape[0], p,
        table.shape[-1], zero_frac, lanes=stream_lanes(mode, length),
        shards=workers,
    )
    cache = get_plan_cache()
    plan = cache.lookup(key)
    reg = get_registry()
    if plan is not None:
        if reg.enabled:
            reg.counter("sc.tuner.plan_hits").add(1)
        return plan
    if reg.enabled:
        reg.counter("sc.tuner.plan_misses").add(1)
        reg.counter("sc.tuner.tunes").add(1)
    plan = _tune(
        key, table, act_rows, cols, wp, wn, mode, workers, zero_frac, length
    )
    cache.note_tune()
    cache.store(key, plan)
    return plan
