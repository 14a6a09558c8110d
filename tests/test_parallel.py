"""Tests for the kernel shard pools (:mod:`repro.utils.parallel`)."""

import sys
import threading
from unittest import mock

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.utils import parallel
from repro.utils.parallel import (
    iter_shards,
    kernel_share,
    parallel_map,
    resolve_shards,
    set_busy_siblings,
    shard_slices,
    shutdown_pool,
)


@pytest.fixture
def siblings():
    """Restore the process's busy-sibling count after a test."""
    yield set_busy_siblings
    set_busy_siblings(1)


class TestResolveWorkers:
    """How a ``num_workers`` knob resolves to a shard count."""

    def test_none_and_one_are_serial(self):
        assert resolve_shards(None) == 1
        assert resolve_shards(1) == 1

    def test_zero_means_cpu_count(self):
        """A lone kernel call in a process with no busy siblings gets
        every CPU."""
        with mock.patch.object(parallel, "cpu_count", return_value=4):
            assert resolve_shards(0) == 4

    def test_explicit_count_passes_through(self):
        assert resolve_shards(5) == 5

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_shards(-1)


class TestKernelShare:
    def test_zero_shards_is_the_kernel_share(self):
        assert resolve_shards(0) == kernel_share()
        assert resolve_shards(1) == 1
        assert resolve_shards(3) == 3

    def test_share_divides_cpus_among_busy_siblings(self, siblings):
        with mock.patch.object(parallel, "cpu_count", return_value=4):
            assert kernel_share() == 4
            siblings(2)
            assert kernel_share() == 2
            assert resolve_shards(0) == 2
            siblings(8)
            assert kernel_share() == 1  # never below one shard

    def test_running_kernel_calls_split_the_share(self):
        """Kernel calls that run at once (two serving threads) split the
        share; an explicit count stays literal."""
        with mock.patch.object(parallel, "cpu_count", return_value=4):
            with parallel.kernel_call(0) as first:
                assert first == 4
                with parallel.kernel_call(0) as second:
                    assert second == 2
                    with parallel.kernel_call(3) as literal:
                        assert literal == 3
                assert kernel_share() == 4  # the others finished
            assert kernel_share() == 4

    def test_invalid_sibling_count_rejected(self):
        with pytest.raises(ConfigurationError):
            set_busy_siblings(0)

    def test_config_defaults_to_the_share(self):
        from repro.scnn.config import SCConfig

        assert SCConfig().num_workers == 0


class TestShardSlices:
    def test_covers_range_without_overlap(self):
        for total, parts in [(10, 3), (7, 7), (5, 9), (1, 1), (64, 4)]:
            slices = shard_slices(total, parts)
            seen = []
            for sl in slices:
                seen.extend(range(sl.start, sl.stop))
            assert seen == list(range(total))

    def test_balanced(self):
        sizes = [sl.stop - sl.start for sl in shard_slices(10, 3)]
        assert max(sizes) - min(sizes) <= 1

    def test_empty_total(self):
        assert shard_slices(0, 4) == []

    def test_invalid_args_rejected(self):
        with pytest.raises(ConfigurationError):
            shard_slices(-1, 2)
        with pytest.raises(ConfigurationError):
            shard_slices(4, 0)

    def test_iter_shards(self):
        shards = list(iter_shards(list(range(7)), 3))
        assert [len(s) for s in shards] == [3, 2, 2]
        assert [x for s in shards for x in s] == list(range(7))


class TestParallelMap:
    def test_serial_matches_threaded(self):
        jobs = list(range(20))
        assert parallel_map(lambda v: v * v, jobs, 1) == parallel_map(
            lambda v: v * v, jobs, 4
        )

    def test_preserves_order(self):
        assert parallel_map(str, [3, 1, 2], 3) == ["3", "1", "2"]

    def test_worker_exception_propagates(self):
        def boom(v):
            raise ValueError(f"job {v}")

        with pytest.raises(ValueError):
            parallel_map(boom, [1, 2], 2)

    def test_threads_actually_used(self):
        names = parallel_map(
            lambda _: threading.current_thread().name, list(range(8)), 2
        )
        assert any(name.startswith("sc-kernel") for name in names)

    def test_single_job_stays_serial(self):
        name = parallel_map(
            lambda _: threading.current_thread().name, [0], 8
        )[0]
        assert name == threading.current_thread().name

    def test_fail_fast_cancels_pending_shards(self):
        """A failing shard aborts the call without burning the backlog:
        shards not yet started are cancelled, not executed."""
        shutdown_pool()
        release = threading.Event()
        started = []

        def job(v):
            started.append(v)
            if v == 0:
                raise ValueError("shard 0 failed")
            release.wait(timeout=5)  # hold the other worker busy
            return v

        try:
            with pytest.raises(ValueError, match="shard 0"):
                parallel_map(job, list(range(32)), 2)
        finally:
            release.set()
        # Worker threads may grab a couple more shards between the
        # failure and the cancel sweep, but nowhere near the full 32.
        assert len(started) < 32
        shutdown_pool()

    def test_caller_runs_a_shard(self):
        names = parallel_map(
            lambda _: threading.current_thread().name, [0, 1], 2
        )
        assert names[0] == threading.current_thread().name

    def test_caller_takes_back_shards_of_busy_helpers(self):
        """With every helper blocked, the calling thread runs all shards
        itself instead of waiting."""
        release = threading.Event()
        blocker = threading.Event()

        def hold(_):
            blocker.set()
            release.wait(timeout=10)

        try:
            held = parallel._shard_pool(1).submit(hold, None)
            assert blocker.wait(timeout=5)
            names = parallel_map(
                lambda _: threading.current_thread().name, list(range(4)), 2
            )
        finally:
            release.set()
        held.result(timeout=5)
        assert set(names) == {threading.current_thread().name}

    def test_exception_is_original_object_with_worker_traceback(self):
        sentinel = KeyError("original")

        def boom(v):
            if v == 3:
                raise sentinel
            return v

        with pytest.raises(KeyError) as excinfo:
            parallel_map(boom, list(range(8)), 4)
        assert excinfo.value is sentinel  # not wrapped
        assert "boom" in [frame.name for frame in excinfo.traceback]


class TestDeadlockFreedom:
    def test_sharded_calls_from_dispatch_threads_finish(self):
        """Two threads, as two serving dispatch threads, each shard calls
        two ways at once, so they compete for one helper: helpers must
        never be the only way forward (the calls used to share one pool
        and wait forever), and a sharded fused kernel run off the main
        thread equals the serial one."""
        from repro.sc.kernels import fused_conv_counts

        rng = np.random.default_rng(3)
        words = (2, 3, 3, 3, 1)  # (Cout, Cin, KH, KW, words)
        operands = (
            rng.integers(0, 2**32, size=(4, 32, 1), dtype=np.uint64),
            rng.integers(0, 4, size=(3, 3, 3)),
            rng.integers(0, 32, size=(2, 3, 3, 3, 12)),
            rng.integers(0, 2**32, size=words, dtype=np.uint64),
            rng.integers(0, 2**32, size=words, dtype=np.uint64),
        )
        serial = fused_conv_counts(*operands, "pbw", num_workers=1)
        shutdown_pool()
        start = threading.Barrier(2)
        results = {}

        def task(k):
            start.wait(timeout=10)
            mapped = parallel_map(lambda v: (k, v), [0, 1], 2)
            counts = [
                fused_conv_counts(*operands, "pbw", num_workers=workers)
                for workers in (2, 4, 0)
            ]
            results[k] = mapped, counts

        threads = [
            threading.Thread(target=task, args=(k,)) for k in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        for k in range(2):
            mapped, counts = results[k]
            assert mapped == [(k, 0), (k, 1)]
            for sharded in counts:
                np.testing.assert_array_equal(sharded, serial)
        shutdown_pool()

    def test_concurrent_callers_run_every_job_once(self):
        """More callers than cores share one shard pool under a short
        switch interval, so helpers and callers race for queued jobs:
        every job runs exactly once and every call gets its own results
        (a job both taken back and run by a helper, or lost between
        them, would break the counts)."""
        callers, jobs, rounds = 6, 32, 10
        runs = [0] * (callers * jobs)
        lock = threading.Lock()
        wrong = []

        def job(index):
            with lock:
                runs[index] += 1
            return index

        def caller(k):
            mine = list(range(k * jobs, (k + 1) * jobs))
            for _ in range(rounds):
                if parallel_map(job, mine, 3) != mine:
                    wrong.append(k)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=caller, args=(k,))
                for k in range(callers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        assert wrong == []
        assert runs == [rounds] * len(runs)


class TestPool:
    def test_shard_pools_are_fixed_size_and_kept(self):
        shutdown_pool()
        parallel_map(lambda v: v, list(range(6)), 3)
        pool = parallel._shard_pool(2)
        assert pool._max_workers == 2
        parallel_map(lambda v: v, list(range(6)), 2)
        assert parallel._shard_pool(2) is pool  # other sizes add pools
        shutdown_pool()
