"""Shared plumbing for the repo benchmark.

Hermetic environment, the machine record, order statistics, process-tree
memory, and the declared metric set from ``BENCHMARK.json``. Importing
this module has no side effects; every workload module and entry script
in ``bench/`` imports it.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Environment switches that change what the program under test does.
#: They are unset for every run, so a developer's shell cannot leak an
#: autotuned plan, disabled telemetry, lock watching or pinned trace ids
#: into a measurement.
UNSET_ENV = ("REPRO_AUTOTUNE", "REPRO_OBS", "REPRO_LOCKWATCH", "REPRO_TRACE_SEED")

#: BLAS only computes the FP surrogate of each SC layer; the SC kernels'
#: parallelism is the repo's own ``num_workers``. OpenBLAS's default of
#: one spinning thread per CPU oversubscribes a small host whenever two
#: forwards overlap (serving, pooled training) and measured up to 1.8x
#: slower, at random, for CNN-4 on 2 CPUs. Runs pin it to one thread.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: multiprocessing's forkserver binds an AF_UNIX socket at
#: ``$TMPDIR/pymp-XXXXXXXX/listener-XXXXXXXX`` (32 characters past
#: TMPDIR); Linux caps socket paths at 107 bytes.
_MAX_TMPDIR_LEN = 107 - 32


class BenchError(RuntimeError):
    """A workload could not run (as opposed to running and failing)."""


@dataclass
class Outcome:
    """What one workload run measured.

    ``metrics`` maps metric names to values; names the workload does not
    produce are per-layer metrics of layers it does not exercise and
    read 0. ``layers`` is the additive per-layer table of a traced run:
    ``rows`` (mean ms per operation) sum to ``total_ms``.
    """

    attempted: int
    failed: int  # every failed check counts here
    metrics: dict[str, float]
    checks: list[str] = field(default_factory=list)  # failed-check notes
    layers: dict | None = None
    dumps: list[dict] = field(default_factory=list)  # Tracer.export()s

    @property
    def correct(self) -> bool:
        return self.failed == 0


def require_repro() -> None:
    """Put ``src/`` on the import path, or stop with a non-zero exit.

    The benchmark measures the checkout it sits in; without the package
    there is nothing to measure, and no result line may be printed.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"bench: no repro package under {SRC}; run from a repository "
            "checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


class RunDir:
    """Per-run scratch directory inside the checkout, removed on exit.

    It holds the plan cache, checkpoints and multiprocessing sockets, so
    a run reads and writes nothing outside its checkout (except when the
    checkout path is too long for a forkserver socket; then only the
    socket directory falls back to the system temp dir).
    """

    def __init__(self):
        base = ROOT / ".bench_tmp"
        base.mkdir(exist_ok=True)
        self.path = base / f"{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.path.mkdir()

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()  # only succeeds once no run uses it
        except OSError:
            pass

    def __enter__(self) -> "RunDir":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def make_hermetic(run_dir: Path) -> None:
    """Sanitize this process's environment before numpy or ``repro`` is
    imported. Child processes (servers, routers, pool workers) inherit it.
    """
    for name in UNSET_ENV:
        os.environ.pop(name, None)
    os.environ.update(PINNED_ENV)
    os.environ["REPRO_PLAN_CACHE"] = str(run_dir / "plans.json")
    paths = [str(SRC)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    if len(str(run_dir)) <= _MAX_TMPDIR_LEN:
        os.environ["TMPDIR"] = str(run_dir)
        tempfile.tempdir = None  # re-read TMPDIR on next use
        # This process's multiprocessing scratch dir is the run dir
        # itself (removed with it), not a pymp-* dir whose exit-time
        # finalizer would find it already gone.
        multiprocessing.current_process()._config["tempdir"] = str(run_dir)


def environment_record() -> dict:
    """The REPRO_* environment a run starts from, and what it changes."""
    return {
        "inherited": {
            name: value
            for name, value in sorted(os.environ.items())
            if name.startswith("REPRO_")
        },
        "unset_per_run": list(UNSET_ENV),
        "set_per_run": {
            **PINNED_ENV,
            "REPRO_PLAN_CACHE": "<run dir>/plans.json",
            "TMPDIR": "<run dir>",
            "PYTHONPATH": "src first",
        },
    }


def machine_record() -> dict:
    """Host facts a result depends on; stored beside every suite."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a repo dependency
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # an exported tree without .git
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "loadavg": list(os.getloadavg()),
        "env": environment_record(),
    }


# -- statistics -----------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def geomean(values) -> float:
    values = list(values)
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def spread(values) -> dict:
    """Median, quartiles and IQR as a share of the median.

    Quartiles follow ``statistics.quantiles(values, n=4)``; a single
    value has no spread.
    """
    values = [float(v) for v in values]
    mid = median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = mid
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / abs(mid) if mid else 0.0,
        "n": len(values),
        "values": values,
    }


# -- processes -------------------------------------------------------------


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (children, grandchildren, ...)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        # The command name may contain spaces; fields resume after ')'.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        nxt = children.get(frontier.pop(), [])
        found.extend(nxt)
        frontier.extend(nxt)
    return found


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of one live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of VmHWM over ``pid`` and its live descendants, in MB."""
    total = sum(vm_hwm_kb(p) for p in [pid, *descendants(pid)])
    return total / 1024.0


def wait_gone(pids, timeout_s: float = 15.0) -> None:
    """Wait for processes that are not our children to exit, then kill
    any that remain (orphaned pool workers or replicas)."""
    import signal

    deadline = time.monotonic() + timeout_s
    pending = set(pids)
    while pending and time.monotonic() < deadline:
        pending = {p for p in pending if _alive(p)}
        if pending:
            time.sleep(0.05)
    for pid in pending:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 5.0
    while pending and time.monotonic() < deadline:
        pending = {p for p in pending if _alive(p)}
        time.sleep(0.02)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def stop_multiprocessing_helpers() -> None:
    """Stop this process's forkserver and resource tracker, if started.

    The pool and the cluster start both lazily and they otherwise
    outlive them until interpreter exit; stopping them here lets a run
    wait for every process it caused to exist. (``_stop`` is the stdlib's
    own shutdown hook for these singletons.)
    """
    from multiprocessing import forkserver, resource_tracker

    server = getattr(forkserver, "_forkserver", None)
    if server is not None and getattr(server, "_forkserver_pid", None):
        server._stop()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None):
        tracker._stop()
