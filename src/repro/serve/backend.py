"""Execution backends for the serving dispatcher: in-thread and
supervised process pool.

The dispatcher (:class:`~repro.serve.service.InferenceService`) hands a
coalesced batch plus a target tier to a backend and gets logits back.
Two implementations share that contract:

* :class:`InThreadBackend` — the original path: the forward runs on the
  service's dispatch thread against the registry's model. Zero
  overhead, but a wedged or crashed forward takes the thread (or the
  process) with it, and numpy sections that hold the GIL serialize
  batches.
* :class:`ProcessPoolBackend` — a **supervised pool of worker
  processes**. Models are shipped to workers once (pickled whole, seed
  plans included, so worker forwards are bit-identical to in-process
  ones — see ``SCConvSimulator.__getstate__``), each batch is an RPC
  over a private pipe, and a supervisor thread health-checks workers
  with heartbeats and respawns any that crash, wedge, or fail a ping.
  A worker dying mid-batch surfaces as a
  :class:`~repro.errors.WorkerCrashError` (retryable) — the service's
  retry policy re-runs the batch on a healthy worker, so a crashed
  worker costs a retried batch, not a failed request.

Every pool call is one request, :meth:`ProcessPoolBackend.call`: the
worker runs a module-level ``task(entry, *args)`` against its cached
:class:`~repro.serve.registry.ModelEntry`. Serving's task runs
:meth:`ModelEntry.forward`, the same forward and tier flip the
in-thread backend runs; :class:`repro.scnn.pool.MinibatchPool` sends
its training forward through the same call.

Worker processes start via ``forkserver`` where available (Linux): the
fork server imports numpy + repro once, after which each (re)spawn is a
cheap fork of that clean, thread-free template — crucial for respawn
latency under chaos (a cold ``spawn`` re-imports numpy, ~seconds).
Elsewhere it falls back to ``spawn``.

Every backend validates results (shape + finiteness) before returning;
a malformed result raises :class:`~repro.errors.ResultCorruptionError`,
which is also retryable — recomputing is deterministic, so a healthy
worker's answer replaces the corrupt one.
"""

from __future__ import annotations

import multiprocessing
import os
import site
import threading
import time

import numpy as np

import repro
from repro import obs
from repro.obs import trace
from repro.errors import (
    ConfigurationError,
    ResultCorruptionError,
    ServeError,
    UnknownModelError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.serve.registry import ModelEntry
from repro.utils import parallel
from repro.utils.chaos import CRASH_EXIT_CODE, ChaosConfig

__all__ = [
    "ExecutionBackend",
    "InThreadBackend",
    "ProcessPoolBackend",
    "make_backend",
]

#: Supervisor heartbeat period for idle workers, and how long a ping
#: may go unanswered before the worker is killed.
_HEARTBEAT_INTERVAL_S = 0.5
_HEARTBEAT_TIMEOUT_S = 5.0
#: A worker not ready this long after its spawn is killed.
_SPAWN_TIMEOUT_S = 120.0
#: Longest wait for a worker to unpickle a shipped model.
_LOAD_TIMEOUT_S = 60.0
#: Longest wait for an idle worker before a call fails as a timeout.
_ACQUIRE_TIMEOUT_S = 30.0


def _validate_logits(
    logits, batch_size: int, model: str
) -> np.ndarray:
    """Result validation shared by every backend (the corruption gate)."""
    array = np.asarray(logits)
    if array.ndim < 1 or array.shape[0] != batch_size:
        raise ResultCorruptionError(
            f"model {model!r} returned shape {array.shape} for a batch "
            f"of {batch_size}"
        )
    if not np.issubdtype(array.dtype, np.floating):
        raise ResultCorruptionError(
            f"model {model!r} returned non-float dtype {array.dtype}"
        )
    if not np.isfinite(array).all():
        raise ResultCorruptionError(
            f"model {model!r} returned non-finite logits"
        )
    return array


class ExecutionBackend:
    """Contract between the dispatcher and an execution strategy."""

    name = "base"

    #: Batches the backend can usefully execute concurrently; the
    #: service sizes its dispatch parallelism to at least this.
    capacity = 1

    def start(self) -> "ExecutionBackend":
        return self

    def stop(self) -> None:
        pass

    def run(
        self,
        entry: ModelEntry,
        batch: np.ndarray,
        tier: int,
        timeout_s: float | None = None,
    ) -> tuple[np.ndarray, int]:
        raise NotImplementedError

    def stats(self) -> dict:
        return {"backend": self.name}

    def __enter__(self) -> "ExecutionBackend":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class InThreadBackend(ExecutionBackend):
    """Run batches on the calling dispatch thread.

    ``chaos`` injects the same fault model the process workers support —
    a chaos "crash" raises :class:`WorkerCrashError` instead of killing
    the process (there is no worker to kill), a "stall" sleeps on the
    dispatch thread, a "corrupt" NaN-fills the logits so the
    validation gate trips. This keeps the retry/breaker machinery fully
    testable without spawning processes. ``timeout_s`` is accepted but
    unenforceable in-thread (a thread cannot be preempted) — one more
    reason the process backend exists.
    """

    name = "thread"

    def __init__(self, chaos: ChaosConfig | None = None):
        self.chaos = chaos
        self._tasks = 0
        self._lock = threading.Lock()  # guards: _tasks

    def run(
        self,
        entry: ModelEntry,
        batch: np.ndarray,
        tier: int,
        timeout_s: float | None = None,
    ) -> tuple[np.ndarray, int]:
        with self._lock:
            self._tasks += 1
            task_index = self._tasks
        action = (
            self.chaos.decide(0, task_index) if self.chaos is not None
            else "none"
        )
        if action == "crash":
            obs.counter("serve.chaos_injected").add(1)
            raise WorkerCrashError(
                f"chaos: injected crash at task {task_index}"
            )
        if action == "stall":
            obs.counter("serve.chaos_injected").add(1)
            time.sleep(self.chaos.stall_s)
        logits, served_tier = entry.forward(batch, tier=tier)
        if action == "corrupt":
            obs.counter("serve.chaos_injected").add(1)
            logits = np.full_like(logits, np.nan)
        return (
            _validate_logits(logits, batch.shape[0], entry.name),
            served_tier,
        )

    def stats(self) -> dict:
        return {"backend": self.name, "tasks": self._tasks}


# -- process pool -------------------------------------------------------------

#: This process's pool-worker id, stamped on its ``worker.forward``
#: spans; :func:`_worker_main` sets it once when the worker starts.
_WORKER_ID = -1

#: The pid of the process that imported this module. A worker forked
#: from a warm forkserver template inherits the template's pid here; a
#: worker that had to import the module itself (a cold template, or the
#: spawn start method) finds its own.
_IMPORT_PID = os.getpid()


def _forward(
    entry: ModelEntry, batch: np.ndarray, tier: int
) -> tuple[np.ndarray, int]:
    """Serving task: :meth:`ModelEntry.forward` at ``tier``."""
    with obs.span(
        "worker.forward",
        model=entry.name,
        tier=tier,
        batch=int(batch.shape[0]),
        worker=_WORKER_ID,
    ):
        return entry.forward(batch, tier=tier)


def _worker_main(
    conn, worker_id: int, chaos_payload: dict | None, busy_workers: int = 1
) -> None:
    """Entry point of one pool worker process.

    ``busy_workers`` is how many pool workers compute at once; it sets
    this process's kernel share
    (:func:`repro.utils.parallel.set_busy_siblings`). The worker first
    sends ``("ready", worker_id, cold)``: ``cold`` is true when this
    process imported this module itself instead of inheriting it from
    its fork template. Then a single-threaded request loop over a
    private duplex pipe. Messages:

    * ``("load", name, model, tiers)`` → ``("loaded", name)`` — cache a
      model (pickled by the parent) as a :class:`ModelEntry` with its
      stream-length tier ladder;
    * ``("call", task, name, args, trace)`` → ``("ok", result, extra)``
      or ``("error", exception)`` — run the module-level
      ``task(entry, *args)`` against the named entry. ``trace`` is
      ``None`` for an untraced call, and ``extra`` is then ``None`` too.
      Otherwise ``trace`` is a :class:`~repro.obs.trace.TraceContext`
      dict: the task runs under that context and ``extra`` is
      ``{"spans": [...], "epoch_wall": t}``, the call's worker-side
      span records plus this registry's wall-clock epoch, so the parent
      can rebase their timeline and merge them into its trace;
    * ``("ping", n)`` → ``("pong", n)`` — supervisor heartbeat;
    * ``("stop",)`` / EOF — exit cleanly.

    Chaos injection happens *here*, inside the worker, exactly as a real
    fault would: a crash is a hard ``os._exit`` (no goodbye message — the
    parent sees the pipe close), a stall is a sleep while the parent's
    timeout clock runs, a corruption NaN-fills the result's first array
    on the wire (the logits when serving, the first SC layer's values in
    training).
    """
    from repro.scnn.layers import set_stream_lengths

    global _WORKER_ID
    _WORKER_ID = worker_id
    parallel.set_busy_siblings(busy_workers)
    chaos = (
        ChaosConfig.from_dict(chaos_payload) if chaos_payload else None
    )
    registry = obs.get_registry()
    entries: dict[str, ModelEntry] = {}
    task_index = 0
    conn.send(("ready", worker_id, os.getpid() == _IMPORT_PID))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            # KeyboardInterrupt: a terminal Ctrl-C signals the whole
            # process group — exit quietly, the parent coordinates
            # shutdown.
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "ping":
            conn.send(("pong", message[1]))
            continue
        if kind == "load":
            _, name, model, tiers = message
            # The parent pickled the model on whichever tier its copy
            # was on; put it on tier 0 so the entry's tier is true and
            # the first call's tier flip is never skipped.
            set_stream_lengths(model, **tiers[0])
            entries[name] = ModelEntry(
                name=name, model=model, input_shape=(), sc_config=None,
                tiers=tiers,
            )
            conn.send(("loaded", name))
            continue
        if kind != "call":  # pragma: no cover - protocol guard
            conn.send(("error", ServeError(f"unknown message {kind!r}")))
            continue
        _, task, name, args, trace_payload = message
        task_index += 1
        action = chaos.decide(worker_id, task_index) if chaos else "none"
        if action == "crash":
            os._exit(CRASH_EXIT_CODE)
        if action == "stall":
            time.sleep(chaos.stall_s)
        entry = entries.get(name)
        if entry is None:
            conn.send(
                ("error", UnknownModelError(f"{name!r} not loaded in worker"))
            )
            continue
        span_start = registry.span_count()
        profile_start = registry.profile_count()
        try:
            ctx = (
                trace.TraceContext.from_dict(trace_payload)
                if trace_payload
                else None
            )
            with trace.scope(ctx):
                result = task(entry, *args)
            if action == "corrupt" and result:
                result = [np.full_like(result[0], np.nan), *result[1:]]
            extra = None
            if ctx is not None:
                extra = {
                    "spans": registry.pop_spans_since(span_start),
                    "epoch_wall": registry.epoch_wall,
                }
            conn.send(("ok", result, extra))
        except Exception as error:  # noqa: BLE001 - shipped to the parent
            try:
                conn.send(("error", error))
            except Exception:  # unpicklable exception: ship the repr
                conn.send(("error", ServeError(repr(error))))
        finally:
            # Shipped or not, the call's records leave this registry: a
            # long-lived worker must not creep toward MAX_SPANS and
            # MAX_PROFILES and then silently drop a traced call's spans.
            registry.pop_spans_since(span_start)
            registry.pop_profiles_since(profile_start)


#: Handle lifecycle states.
_STARTING, _IDLE, _BUSY, _DEAD = "starting", "idle", "busy", "dead"


class _WorkerHandle:
    """Parent-side view of one pool worker."""

    __slots__ = (
        "id", "process", "conn", "state", "loaded", "spawned_at",
        "last_ping",
    )

    def __init__(self, worker_id: int, process, conn, now: float):
        self.id = worker_id
        self.process = process
        self.conn = conn
        self.state = _STARTING
        self.loaded: set[str] = set()
        self.spawned_at = now
        self.last_ping = now


def _export_import_path() -> None:
    """Put the directory holding the imported ``repro`` package on
    ``PYTHONPATH``, unless it is there already or is a site directory.

    The forkserver is a fresh interpreter whose ``sys.path`` comes from
    its environment: CPython 3.11's ``forkserver.main`` ignores the path
    it is handed, and skips a preload that fails to import. So when
    ``repro`` is importable here only through a runtime ``sys.path``
    insert, the fork template would hold neither numpy nor repro, and
    every worker (re)spawn would import both cold. The forkserver and
    every later child inherit the variable.
    """
    root = os.path.realpath(os.path.dirname(repro.__path__[0]))
    entries = [
        entry for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if entry
    ]
    known = [*entries, *site.getsitepackages(), site.getusersitepackages()]
    if root not in {os.path.realpath(entry) for entry in known}:
        os.environ["PYTHONPATH"] = os.pathsep.join([root, *entries])


def pool_context():
    """Best multiprocessing context for the pool (forkserver > spawn).

    The preload list MUST keep ``"__main__"`` (the stdlib default):
    forkserver children run spawn-style ``prepare()``, which re-imports
    the parent's main module unless the fork template already holds it.
    We append this module so the template also carries numpy + repro —
    a respawn is then a bare ``fork()`` of a warm, thread-free process
    (~tens of ms) instead of a cold interpreter re-importing numpy
    (~seconds), which is what keeps crash recovery cheap under chaos.
    The template can import this module only if the forkserver's path
    holds ``repro`` (:func:`_export_import_path`); each worker reports
    whether it found it there (``cold_spawns`` in
    :meth:`ProcessPoolBackend.stats`).
    """
    methods = multiprocessing.get_all_start_methods()
    if "forkserver" in methods:
        _export_import_path()
        ctx = multiprocessing.get_context("forkserver")
        try:
            ctx.set_forkserver_preload(["__main__", "repro.serve.backend"])
        except Exception:  # pragma: no cover - preload is best-effort
            pass
        return ctx
    return multiprocessing.get_context("spawn")


class ProcessPoolBackend(ExecutionBackend):
    """Supervised pool of worker processes with crash/wedge recovery.

    One private duplex pipe per worker; a worker is exclusively owned by
    one :meth:`call` while busy, so request/response matching is
    positional and a late answer can never be attributed to the wrong
    batch (a timed-out worker is *killed*, never reused). A supervisor
    thread closes the loop: it promotes freshly spawned workers to the
    idle set once they signal ready, heartbeats idle workers, reaps
    anything dead, and respawns replacements to hold the pool at
    ``num_workers``.

    ``busy_workers`` (default ``num_workers``) is how many workers the
    owner keeps computing at once; each worker's fused kernels shard
    across ``cpu_count() // busy_workers`` threads. Serving keeps every
    worker busy; a training pool that runs one batch at a time passes 1.
    """

    name = "process"

    def __init__(
        self,
        num_workers: int = 2,
        chaos: ChaosConfig | None = None,
        busy_workers: int | None = None,
    ):
        if num_workers < 1:
            raise ConfigurationError(
                f"num_workers must be >= 1, got {num_workers}"
            )
        self.num_workers = num_workers
        self.busy_workers = busy_workers or num_workers
        self.capacity = num_workers
        self.chaos = chaos
        self._ctx = pool_context()
        self._cond = threading.Condition()  # guards: _workers, _idle, _known_models, _next_id, _stopping, _started, _ping_seq, counters
        self._workers: dict[int, _WorkerHandle] = {}
        self._idle: list[int] = []
        #: Models any worker has ever loaded; the supervisor preloads
        #: them into respawned workers so a crash never puts a cold
        #: model transfer on a request's critical path.
        self._known_models: dict[str, ModelEntry] = {}
        self._next_id = 0
        self._stopping = False
        self._started = False
        self._supervisor: threading.Thread | None = None
        self._ping_seq = 0
        self.counters = {
            "spawned": 0,
            "respawned": 0,
            "crashes_detected": 0,
            "timeouts": 0,
            "heartbeat_failures": 0,
            "tasks": 0,
            "model_loads": 0,
            # Workers whose fork template lacked repro, so they
            # imported numpy and repro from cold.
            "cold_spawns": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ProcessPoolBackend":
        with self._cond:
            if self._started:
                return self
            self._started = True
            self._stopping = False
            for _ in range(self.num_workers):
                self._spawn_locked()
        deadline = time.monotonic() + _SPAWN_TIMEOUT_S
        with self._cond:
            while (
                not self._idle
                and not self._stopping
                and time.monotonic() < deadline
            ):
                self._promote_ready_locked()
                for handle in self._workers.values():
                    if (
                        handle.state == _STARTING
                        and not handle.process.is_alive()
                        and not handle.conn.poll(0)  # no racing "ready"
                    ):
                        self._mark_dead_locked(handle, crashed=True)
                if all(
                    handle.state == _DEAD
                    for handle in self._workers.values()
                ):
                    exitcodes = [
                        handle.process.exitcode
                        for handle in self._workers.values()
                    ]
                    raise ServeError(
                        "every pool worker died during startup "
                        f"(exitcodes {exitcodes}); when using spawn/"
                        "forkserver the owning script must be import-"
                        "safe (guard top-level work with "
                        "`if __name__ == '__main__':`)"
                    )
                self._cond.wait(timeout=0.05)
            if not self._idle and not self._stopping:
                raise ServeError(
                    "no pool worker became ready within "
                    f"{_SPAWN_TIMEOUT_S:.0f}s"
                )
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name="serve-supervisor", daemon=True
        )
        self._supervisor.start()
        return self

    def stop(self) -> None:
        with self._cond:
            self._stopping = True
            handles = list(self._workers.values())
            self._workers.clear()
            self._idle.clear()
            self._cond.notify_all()
        for handle in handles:
            try:
                if handle.state in (_IDLE, _STARTING):
                    handle.conn.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for handle in handles:
            handle.process.join(timeout=1.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if self._supervisor is not None:
            self._supervisor.join(timeout=2.0)
            self._supervisor = None
        with self._cond:
            self._started = False

    # -- worker management (callers hold self._cond where noted) -------------

    def _spawn_locked(self) -> _WorkerHandle:
        """Start one worker (cond held); it joins the idle set on ready."""
        worker_id = self._next_id
        self._next_id += 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        chaos_payload = (
            self.chaos.to_dict()
            if self.chaos is not None and self.chaos.active
            else None
        )
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, worker_id, chaos_payload, self.busy_workers),
            name=f"serve-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # parent keeps only its end
        handle = _WorkerHandle(
            worker_id, process, parent_conn, time.monotonic()
        )
        self._workers[worker_id] = handle
        self.counters["spawned"] += 1
        obs.counter("serve.workers_spawned").add(1)
        return handle

    def _promote_ready_locked(self) -> None:
        """Move starting workers that signalled readiness to idle."""
        for handle in self._workers.values():
            if handle.state != _STARTING:
                continue
            try:
                if handle.conn.poll(0):
                    message = handle.conn.recv()
                    if message[0] == "ready":
                        self.counters["cold_spawns"] += int(message[2])
                        handle.state = _IDLE
                        self._idle.append(handle.id)
                        self._cond.notify_all()
            except (EOFError, OSError):
                self._mark_dead_locked(handle, crashed=True)

    def _mark_dead_locked(
        self, handle: _WorkerHandle, crashed: bool = False
    ) -> None:
        if handle.state == _DEAD:
            return
        handle.state = _DEAD
        if handle.id in self._idle:
            self._idle.remove(handle.id)
        if crashed:
            self.counters["crashes_detected"] += 1
            obs.counter("serve.worker_crashes").add(1)

    def _retire(self, handle: _WorkerHandle, crashed: bool) -> None:
        """Kill and forget a worker (no cond held on entry)."""
        with self._cond:
            self._mark_dead_locked(handle, crashed=crashed)
            self._workers.pop(handle.id, None)
        if handle.process.is_alive():
            handle.process.terminate()
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def _supervise_loop(self) -> None:
        """Health-check and respawn until the backend stops."""
        while True:
            with self._cond:
                if self._stopping:
                    return
                self._promote_ready_locked()
                now = time.monotonic()
                for handle in list(self._workers.values()):
                    # Crash detection: the OS told us the process died.
                    if (
                        handle.state in (_IDLE, _STARTING)
                        and not handle.process.is_alive()
                    ):
                        self._mark_dead_locked(handle, crashed=True)
                    # Startup watchdog: never became ready.
                    elif (
                        handle.state == _STARTING
                        and now - handle.spawned_at > _SPAWN_TIMEOUT_S
                    ):
                        self._mark_dead_locked(handle, crashed=True)
                dead = [
                    h for h in self._workers.values() if h.state == _DEAD
                ]
                for handle in dead:
                    self._workers.pop(handle.id, None)
                # Hold the pool at num_workers (busy + idle + starting).
                missing = self.num_workers - len(self._workers)
                respawned = []
                for _ in range(missing):
                    respawned.append(self._spawn_locked())
                    self.counters["respawned"] += 1
                    obs.counter("serve.workers_respawned").add(1)
                known = dict(self._known_models)
                preload_due = [
                    h
                    for h in self._workers.values()
                    if h.state == _IDLE and set(known) - h.loaded
                ]
                for handle in preload_due:  # reserve before unlocking
                    handle.state = _BUSY
                    self._idle.remove(handle.id)
                ping_due = [
                    h
                    for h in self._workers.values()
                    if h.state == _IDLE
                    and now - h.last_ping >= _HEARTBEAT_INTERVAL_S
                ]
                for handle in ping_due:  # reserve before unlocking
                    handle.state = _BUSY
                    self._idle.remove(handle.id)
            for handle in dead:
                if handle.process.is_alive():  # pragma: no cover - racing exit
                    handle.process.terminate()
                try:
                    handle.conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
            for handle in preload_due:
                self._preload(handle, known)
            for handle in ping_due:
                self._heartbeat(handle)
            time.sleep(0.02)

    def _load_into(self, handle: _WorkerHandle, entry: ModelEntry) -> None:
        """Ship one model to a reserved worker (raises on failure)."""
        with obs.span(
            "serve.worker_load", model=entry.name, worker=handle.id
        ):
            handle.conn.send(("load", entry.name, entry.model, entry.tiers))
            reply = self._recv(handle, _LOAD_TIMEOUT_S)
        if reply != ("loaded", entry.name):
            raise WorkerCrashError(
                f"worker {handle.id} failed to load {entry.name!r}: "
                f"{reply!r}"
            )
        handle.loaded.add(entry.name)
        with self._cond:
            self.counters["model_loads"] += 1

    def _preload(self, handle: _WorkerHandle, known: dict) -> None:
        """Warm a reserved (typically respawned) worker with every known
        model, so a crash never costs a later request the transfer."""
        try:
            for name, entry in known.items():
                if name not in handle.loaded:
                    self._load_into(handle, entry)
        except (ServeError, OSError, BrokenPipeError, ValueError):
            self._retire(handle, crashed=True)
            with self._cond:
                self._cond.notify_all()
            return
        self._release(handle, healthy=True)

    def _heartbeat(self, handle: _WorkerHandle) -> None:
        """Ping one reserved idle worker; kill it if it fails the check."""
        with self._cond:
            self._ping_seq += 1
            seq = self._ping_seq
        ok = False
        try:
            handle.conn.send(("ping", seq))
            if handle.conn.poll(_HEARTBEAT_TIMEOUT_S):
                message = handle.conn.recv()
                ok = message == ("pong", seq)
        except (EOFError, OSError, BrokenPipeError):
            ok = False
        if ok:
            handle.last_ping = time.monotonic()
            with self._cond:
                if handle.state == _BUSY and not self._stopping:
                    handle.state = _IDLE
                    self._idle.append(handle.id)
                    self._cond.notify_all()
        else:
            with self._cond:
                self.counters["heartbeat_failures"] += 1
            obs.counter("serve.heartbeat_failures").add(1)
            self._retire(handle, crashed=True)

    # -- execution -----------------------------------------------------------

    def _acquire(self) -> _WorkerHandle:
        deadline = time.monotonic() + _ACQUIRE_TIMEOUT_S
        with self._cond:
            while True:
                if self._stopping:
                    raise ServeError("process-pool backend is stopping")
                self._promote_ready_locked()
                if self._idle:
                    handle = self._workers[self._idle.pop(0)]
                    handle.state = _BUSY
                    return handle
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise WorkerTimeoutError(
                        "no idle pool worker within "
                        f"{_ACQUIRE_TIMEOUT_S:.1f}s"
                    )
                self._cond.wait(timeout=min(remaining, 0.05))

    def _release(self, handle: _WorkerHandle, healthy: bool) -> None:
        if healthy:
            with self._cond:
                if self._stopping:
                    return
                handle.state = _IDLE
                handle.last_ping = time.monotonic()
                self._idle.append(handle.id)
                self._cond.notify_all()
        else:
            self._retire(handle, crashed=False)
            with self._cond:
                self._cond.notify_all()

    def _recv(self, handle: _WorkerHandle, timeout_s: float | None):
        """One response from a busy worker, or a typed failure."""
        try:
            if not handle.conn.poll(timeout_s):
                with self._cond:
                    self.counters["timeouts"] += 1
                obs.counter("serve.worker_timeouts").add(1)
                raise WorkerTimeoutError(
                    f"worker {handle.id} exceeded {timeout_s:.3f}s; killed"
                )
            return handle.conn.recv()
        except (EOFError, ConnectionResetError, BrokenPipeError, OSError):
            with self._cond:
                self.counters["crashes_detected"] += 1
            obs.counter("serve.worker_crashes").add(1)
            raise WorkerCrashError(
                f"worker {handle.id} died mid-request "
                f"(exitcode {handle.process.exitcode})"
            ) from None

    def call(
        self,
        entry: ModelEntry,
        task,
        args: tuple,
        check,
        timeout_s: float | None = None,
    ):
        """Run ``task(entry, *args)`` on a pool worker; return
        ``check(result)``.

        ``task`` is a module-level function (it is pickled by reference)
        and ``check`` validates its result in the parent. ``check`` runs
        before the worker counts as healthy, so a corrupt result
        (:class:`~repro.errors.ResultCorruptionError`) retires the
        worker. A crash, a timeout, or a corrupt result raises a
        retryable :class:`~repro.errors.ExecutionBackendError`; an
        exception the task raised is re-raised as is.
        """
        handle = self._acquire()
        healthy = False
        # The trace hop: ship the active context's child over the pipe
        # so worker-side spans join this request's trace; the reply then
        # carries them back for the parent registry to merge.
        ctx = trace.current()
        hop = ctx.child().to_dict() if ctx is not None else None
        try:
            if entry.name not in handle.loaded:
                self._load_into(handle, entry)
            with self._cond:
                self._known_models.setdefault(entry.name, entry)
            handle.conn.send(("call", task, entry.name, args, hop))
            reply = self._recv(handle, timeout_s)
            kind = reply[0]
            if kind == "error":
                healthy = True  # worker answered; it is fine
                error = reply[1]
                raise error if isinstance(error, Exception) else ServeError(
                    str(error)
                )
            if kind != "ok":
                raise WorkerCrashError(
                    f"worker {handle.id} broke protocol: {reply[0]!r}"
                )
            _, result, extra = reply
            result = check(result)
            healthy = True
            with self._cond:
                self.counters["tasks"] += 1
            if extra is not None:
                obs.get_registry().ingest_spans(
                    extra["spans"],
                    process=f"worker-{handle.id}",
                    epoch_wall=extra["epoch_wall"],
                )
            return result
        finally:
            self._release(handle, healthy)

    def run(
        self,
        entry: ModelEntry,
        batch: np.ndarray,
        tier: int,
        timeout_s: float | None = None,
    ) -> tuple[np.ndarray, int]:
        def check(result) -> tuple[np.ndarray, int]:
            logits, served_tier = result
            return (
                _validate_logits(logits, batch.shape[0], entry.name),
                served_tier,
            )

        return self.call(entry, _forward, (batch, tier), check, timeout_s)

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        with self._cond:
            states = {}
            for handle in self._workers.values():
                states[handle.state] = states.get(handle.state, 0) + 1
            return {
                "backend": self.name,
                "num_workers": self.num_workers,
                "start_method": self._ctx.get_start_method(),
                "worker_states": states,
                **self.counters,
            }


def make_backend(
    kind: str,
    num_workers: int = 2,
    chaos: ChaosConfig | None = None,
) -> ExecutionBackend:
    """Factory keyed by the CLI's ``--backend`` choice."""
    if kind == "thread":
        return InThreadBackend(chaos=chaos)
    if kind == "process":
        return ProcessPoolBackend(num_workers=num_workers, chaos=chaos)
    raise ConfigurationError(
        f"unknown backend {kind!r} (known: thread, process)"
    )
