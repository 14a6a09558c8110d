"""Thread pools for sharding bit-kernel work.

The fused SC kernels (:mod:`repro.sc.kernels`) spend essentially all of
their time inside numpy ufuncs and fancy indexing, which release the GIL,
so plain threads scale across cores without pickling the (large) packed
stream tables the way a process pool would. The helper threads live in
lazily created, module-level **shard pools**
(:class:`~concurrent.futures.ThreadPoolExecutor`, one per helper count,
never resized or shut down while the process computes) shared by every
caller in the process — creating a pool per forward pass would cost more
than the sharded work. The calling thread of :func:`parallel_map` always
runs one shard itself and takes back any shard no helper has started
yet, so a call finishes even when every helper is busy with another
caller's shards: a kernel call made from a serving dispatch thread
cannot deadlock.

``num_workers`` convention (used by :class:`repro.scnn.config.SCConfig`):

* ``1``  — serial execution on the calling thread;
* ``n>1`` — shard across ``n`` threads (the caller plus ``n - 1`` helpers);
* ``0``  — auto (the default): the process's **kernel share**,
  ``cpu_count() // busy siblings``, split evenly among the kernel calls
  running in the process at that moment (:func:`kernel_call`). Code that
  spawns compute processes declares how many of them it keeps busy at
  once (:func:`set_busy_siblings` in each child), so two busy replicas
  on two CPUs run their kernels serially instead of four threads
  fighting for two cores; two serving threads that forward at once in
  one process split its share the same way. The share applies to kernel
  shards only; each serving ``InferenceService`` runs one dispatch
  thread per CPU.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from repro import obs
from repro.errors import ConfigurationError

_T = TypeVar("_T")
_R = TypeVar("_R")

_SHARD_POOLS: dict[int, ThreadPoolExecutor] = {}
_BUSY_SIBLINGS = 1
_RUNNING_KERNELS = 0
_SHARD_LOCK = threading.Lock()  # guards: _SHARD_POOLS, _BUSY_SIBLINGS, _RUNNING_KERNELS


def cpu_count() -> int:
    """Usable CPU count (respects affinity masks where available)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def set_busy_siblings(count: int) -> None:
    """Declare how many compute processes, this one included, are kept
    busy at once. Process spawners call this in each child: a
    ``ReplicaManager`` passes its replica count, a serving
    ``ProcessPoolBackend`` its worker count, a ``MinibatchPool`` 1."""
    global _BUSY_SIBLINGS
    if count < 1:
        raise ConfigurationError(f"busy siblings must be >= 1, got {count}")
    with _SHARD_LOCK:
        _BUSY_SIBLINGS = int(count)


def kernel_share() -> int:
    """Kernel shards a call may use: ``cpu_count() // busy siblings``
    split among the kernel calls running in this process, at least 1."""
    with _SHARD_LOCK:
        split = _BUSY_SIBLINGS * max(1, _RUNNING_KERNELS)
    return max(1, cpu_count() // split)


@contextlib.contextmanager
def kernel_call(num_workers: int | None) -> Iterator[int]:
    """Count one kernel call as running for the ``with`` body and yield
    its shard count (:func:`resolve_shards`). With ``0``, a call that
    starts while others run gets ``kernel share // running calls``, so
    threads that compute at once do not oversubscribe the process."""
    global _RUNNING_KERNELS
    with _SHARD_LOCK:
        _RUNNING_KERNELS += 1
    try:
        yield resolve_shards(num_workers)
    finally:
        with _SHARD_LOCK:
            _RUNNING_KERNELS -= 1


def resolve_shards(num_workers: int | None) -> int:
    """Normalize a kernel ``num_workers`` knob to a shard count.

    ``None``/``1`` mean serial, ``0`` means the process's
    :func:`kernel_share`, any other positive value is taken literally.
    """
    if num_workers is None:
        return 1
    if num_workers < 0:
        raise ConfigurationError(
            f"num_workers must be >= 0 (0 = auto), got {num_workers}"
        )
    if num_workers == 0:
        return kernel_share()
    return int(num_workers)


def _shard_pool(helpers: int) -> ThreadPoolExecutor:
    """The shard pool with exactly ``helpers`` threads (created once)."""
    with _SHARD_LOCK:
        pool = _SHARD_POOLS.get(helpers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=helpers, thread_name_prefix="sc-kernel"
            )
            _SHARD_POOLS[helpers] = pool
        return pool


def shutdown_pool() -> None:
    """Tear down the shard pools (tests / interpreter shutdown)."""
    with _SHARD_LOCK:
        pools = list(_SHARD_POOLS.values())
        _SHARD_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)


def parallel_map(
    fn: Callable[[_T], _R],
    jobs: Sequence[_T],
    num_workers: int | None = 1,
) -> list[_R]:
    """Apply ``fn`` to every job, sharded across ``num_workers`` threads.

    Serial (no pool, no thread hop) when the resolved shard count
    (:func:`resolve_shards`) is 1 or there is at most one job. Otherwise
    jobs after the first go to a shard pool of ``workers - 1`` helpers
    and the **calling thread runs the first job itself**, then walks the
    rest in order: a job no helper has started yet is cancelled in the
    pool and run on the calling thread, a started one is waited for.
    Progress therefore never depends on a free helper. (A job is taken
    back only once one GIL switch interval has passed since submission,
    so a helper that was merely waking up still gets its job.)

    **Fail-fast**: the first exception propagates to the caller with its
    *original* traceback (the exception object raised inside the shard,
    not a wrapper), and jobs no helper has started are cancelled instead
    of running to completion. Jobs already executing when the failure
    lands do finish (threads cannot be preempted); their results are
    discarded. Cancelled jobs are counted on ``parallel.cancelled_shards``
    and jobs the caller took back on ``parallel.stolen_shards``.

    Each sharded call records on :mod:`repro.obs` its total shard time
    and two scaling health signals: the ``parallel.utilization`` gauge
    (busy time / ``workers x wall``, 1.0 = perfectly parallel) and
    ``parallel.shard_imbalance`` (slowest shard / mean shard, 1.0 =
    perfectly balanced).
    """
    workers = min(resolve_shards(num_workers), len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    pool = _shard_pool(workers - 1)
    reg = obs.get_registry()
    durations = [0.0] * len(jobs)

    def run_one(index: int) -> _R:
        t0 = time.perf_counter()
        result = fn(jobs[index])
        durations[index] = time.perf_counter() - t0
        return result

    t0 = time.perf_counter()
    futures = [pool.submit(run_one, i) for i in range(1, len(jobs))]
    # A helper woken by submit needs the GIL, which a running caller
    # hands over within one switch interval; a job still pending after
    # that is queued behind other callers' shards and is taken back.
    grace_until = t0 + sys.getswitchinterval()
    results: list = [None] * len(jobs)
    stolen = 0
    try:
        results[0] = run_one(0)
        for index, future in enumerate(futures, 1):
            grace = grace_until - time.perf_counter()
            if grace > 0:
                wait([future], timeout=grace)
            if future.cancel():
                stolen += 1
                results[index] = run_one(index)
            else:
                results[index] = future.result()
    except BaseException:
        cancelled = sum(1 for f in futures if not f.done() and f.cancel())
        if cancelled:
            reg.counter("parallel.cancelled_shards").add(cancelled)
        raise
    wall = time.perf_counter() - t0
    busy = sum(durations)
    reg.counter("parallel.tasks").add(len(jobs))
    reg.counter("parallel.stolen_shards").add(stolen)
    reg.counter("parallel.busy_seconds", unit="s").add(busy)
    if wall > 0.0:
        reg.gauge("parallel.utilization", unit="ratio").set(
            min(1.0, busy / (workers * wall))
        )
    if busy > 0.0:
        reg.gauge("parallel.shard_imbalance", unit="ratio").set(
            max(durations) * len(durations) / busy
        )
    return results


def shard_slices(total: int, parts: int) -> list[slice]:
    """Split ``range(total)`` into at most ``parts`` balanced slices."""
    if total < 0:
        raise ConfigurationError(f"total must be >= 0, got {total}")
    if parts < 1:
        raise ConfigurationError(f"parts must be >= 1, got {parts}")
    parts = min(parts, total) or (1 if total == 0 else parts)
    if total == 0:
        return []
    base, extra = divmod(total, parts)
    slices = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        slices.append(slice(start, start + size))
        start += size
    return slices


def iter_shards(items: Sequence[_T], parts: int) -> Iterable[Sequence[_T]]:
    """Yield balanced contiguous shards of ``items``."""
    for sl in shard_slices(len(items), parts):
        yield items[sl]
