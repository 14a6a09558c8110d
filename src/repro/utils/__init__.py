"""Shared low-level utilities: bit packing, seeding, worker pools,
atomic persistence, deterministic chaos injection, retry, and report
printing."""

from repro.utils.atomic import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    fsync_append,
)
from repro.utils.bitops import (
    HAS_NATIVE_POPCOUNT,
    pack_bits,
    unpack_bits,
    popcount,
    popcount_packed,
    packed_words,
)
from repro.utils.parallel import (
    cpu_count,
    iter_shards,
    parallel_map,
    resolve_shards,
    shard_slices,
    shutdown_pool,
)
from repro.utils.chaos import ACTIONS, CRASH_EXIT_CODE, ChaosConfig
from repro.utils.retry import RetryPolicy, call_with_retry
from repro.utils.seeding import SeedSequenceFactory, derive_seed
from repro.utils.report import Table, format_ratio

__all__ = [
    "ACTIONS",
    "CRASH_EXIT_CODE",
    "ChaosConfig",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "fsync_append",
    "HAS_NATIVE_POPCOUNT",
    "pack_bits",
    "unpack_bits",
    "popcount",
    "popcount_packed",
    "packed_words",
    "cpu_count",
    "iter_shards",
    "parallel_map",
    "resolve_shards",
    "shard_slices",
    "shutdown_pool",
    "RetryPolicy",
    "SeedSequenceFactory",
    "call_with_retry",
    "derive_seed",
    "Table",
    "format_ratio",
]
