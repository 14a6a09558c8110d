"""Replica lifecycle: spawn, supervise, respawn with warm migration.

Each **replica** is a full :mod:`repro.serve` stack in its own process:
model registry (warm tier ladders), inference service, and HTTP
frontend on an ephemeral port. The :class:`ReplicaManager` runs the
same supervision pattern as the PR 4 worker pool — private duplex pipe
per replica, ping/pong heartbeats, liveness polling, respawn on death —
one level up the stack, and feeds everything it learns into the
replica's :class:`~repro.cluster.health.ReplicaHealth`.

**Warm migration** is the respawn contract: a replica is only
*admitted* (made routable) once it reports ``ready``, and a replica
does not report ready until it has registered **and warmed** every
model in its placement set — the same set the dead incarnation owned,
because placement is rendezvous-hashed over stable replica ids. The
router therefore never sends a request to a replica that would serve it
cold; during the warmup gap the model's other placement copies carry
the traffic.

Replica processes come from the forkserver context
(:func:`repro.serve.backend.pool_context`), so a respawn is a fork of a
warm template holding numpy + repro rather than a cold interpreter.

The router's process never builds a stream table, so constructing a
manager pins its allocator the way a first table build pins a
replica's (:func:`repro.scnn.sim._pin_malloc_parameters`): before the
supervisor, the router's forwarders and its HTTP handlers start, so
they all share one malloc arena.
"""

from __future__ import annotations

import os
import signal as signal_module
import threading
import time
from dataclasses import dataclass

from repro import obs
from repro.errors import ServeError
from repro.cluster.health import HEARTBEAT_INTERVAL_S, ReplicaHealth
from repro.cluster.placement import PlacementRing
from repro.scnn.sim import _pin_malloc_parameters
from repro.serve.backend import pool_context
from repro.serve.policy import ServePolicy
from repro.utils import parallel

__all__ = ["ClusterModel", "ReplicaManager"]

#: Pipe-message tags (replica → manager).
_READY = "ready"
_PONG = "pong"

#: Longest wait for every replica to build, warm, and report its port.
_SPAWN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ClusterModel:
    """Picklable spec for one model the cluster serves.

    The module itself rides along (repro modules are plain
    numpy-backed objects, picklable by construction — the PR 4 worker
    pipes rely on the same property). ``weight`` is the model's WFQ
    share at the router.
    """

    name: str
    model: object  # repro.nn.layers.Module
    input_shape: tuple[int, ...]
    num_tiers: int = 3
    weight: float = 1.0


def _replica_main(
    conn,
    replica_id: str,
    models: "list[ClusterModel]",
    policy: "ServePolicy",
    host: str,
    trace_sample: int,
    busy_replicas: int = 1,
) -> None:
    """Replica process entry: build, warm, serve, answer heartbeats.

    ``busy_replicas`` (the manager's replica count) sets this process's
    kernel share: replicas serve at once, so each gets ``cpu_count() //
    busy_replicas`` kernel shards.

    The ``ready`` message is sent only after every model registered
    (``warm=True`` pre-executes all tiers) — the warm-migration
    admission gate. The loop then answers pings with the replica's
    self-reported state until told to stop, at which point it drains
    the HTTP server gracefully before exiting.
    """
    from repro.serve.registry import ModelRegistry
    from repro.serve.server import install_graceful_shutdown, make_server
    from repro.serve.service import InferenceService

    obs.reset()  # a fresh registry: this process's telemetry only
    parallel.set_busy_siblings(busy_replicas)
    registry = ModelRegistry()
    for spec in models:
        registry.register(
            spec.name,
            spec.model,
            input_shape=spec.input_shape,
            num_tiers=spec.num_tiers,
            warm=True,
        )
    service = InferenceService(registry, policy=policy).start()
    server = make_server(
        service, host=host, port=0, trace_sample=trace_sample
    )
    server.serve_background()
    install_graceful_shutdown(server, service)  # SIGTERM → drain → exit
    conn.send((_READY, replica_id, server.port))
    try:
        while True:
            if not conn.poll(0.5):
                continue
            message = conn.recv()
            if message[0] == "ping":
                conn.send(
                    (
                        _PONG,
                        message[1],
                        {
                            "draining": server.draining,
                            "pending": service.pending(),
                            "port": server.port,
                            "models": registry.names(),
                        },
                    )
                )
            elif message[0] == "stop":
                break
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # manager went away; fall through to shutdown
    server.drain(timeout_s=5.0)
    server.shutdown()
    service.stop()
    conn.close()


class _ReplicaHandle:
    """Manager-side bookkeeping for one replica process."""

    __slots__ = (
        "id", "process", "conn", "port", "spawned_at",
        "ping_seq", "respawns",
    )

    def __init__(self, replica_id: str, process, conn, now: float):
        self.id = replica_id
        self.process = process
        self.conn = conn
        self.port: "int | None" = None  # None until ready
        self.spawned_at = now
        self.ping_seq = 0
        self.respawns = 0


class ReplicaManager:
    """Spawns and supervises N serve replicas behind stable ids.

    ``models`` is the full cluster model set; each replica serves the
    subset the :class:`~repro.cluster.placement.PlacementRing` assigns
    it. The supervisor thread owns liveness, heartbeats, and respawn;
    the router only reads (`endpoint`, `placement`, `health`).
    """

    def __init__(
        self,
        models: "list[ClusterModel]",
        num_replicas: int = 2,
        replication: int = 2,
        policy: "ServePolicy | None" = None,
        host: str = "127.0.0.1",
        trace_sample: int = 0,
    ):
        if num_replicas < 1:
            raise ValueError(
                f"num_replicas must be >= 1, got {num_replicas}"
            )
        _pin_malloc_parameters()
        self.models = list(models)
        self.num_replicas = num_replicas
        self.policy = policy or ServePolicy()
        self.host = host
        self.trace_sample = trace_sample
        self.ring = PlacementRing(
            members=[f"r{i}" for i in range(num_replicas)],
            replication=min(replication, num_replicas),
        )
        self._ctx = pool_context()
        self._lock = threading.Lock()  # guards: _replicas, _stopping, _started
        self._replicas: dict[str, _ReplicaHandle] = {}
        self._health: dict[str, ReplicaHealth] = {}
        self._stopping = False
        self._started = False
        self._supervisor: "threading.Thread | None" = None
        self._spawned = obs.counter("cluster.replicas_spawned")
        self._respawned = obs.counter("cluster.replicas_respawned")
        self._deaths = obs.counter("cluster.replica_deaths")
        self._migrations = obs.counter("cluster.warm_migrations")

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ReplicaManager":
        with self._lock:
            if self._started:
                return self
            self._started = True
        for rid in self.ring.members():
            self._health[rid] = ReplicaHealth(rid)
            self._spawn(rid)
        self._wait_all_ready()
        self._supervisor = threading.Thread(
            target=self._supervise, name="cluster-supervisor", daemon=True
        )
        self._supervisor.start()
        return self

    def stop(self) -> None:
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
            handles = list(self._replicas.values())
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
            self._supervisor = None
        for handle in handles:
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 10.0
        for handle in handles:
            handle.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            try:
                handle.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "ReplicaManager":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- spawning ------------------------------------------------------------

    def _placement_set(self, rid: str) -> "list[ClusterModel]":
        names = self.ring.models_for(rid, [m.name for m in self.models])
        return [m for m in self.models if m.name in names]

    def _spawn(self, rid: str, respawn: bool = False) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_replica_main,
            args=(
                child_conn,
                rid,
                self._placement_set(rid),  # warm migration: full set rides along
                self.policy,
                self.host,
                self.trace_sample,
                self.num_replicas,
            ),
            name=f"cluster-{rid}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _ReplicaHandle(rid, process, parent_conn, time.monotonic())
        with self._lock:
            old = self._replicas.get(rid)
            if old is not None:
                handle.respawns = old.respawns + (1 if respawn else 0)
            self._replicas[rid] = handle
        self._spawned.add(1)
        if respawn:
            self._respawned.add(1)

    def _wait_all_ready(self) -> None:
        deadline = time.monotonic() + _SPAWN_TIMEOUT_S
        pending = set(self.ring.members())
        while pending and time.monotonic() < deadline:
            for rid in sorted(pending):
                with self._lock:
                    handle = self._replicas[rid]
                if handle.conn.poll(0.05):
                    self._consume(handle)
                if handle.port is not None:
                    pending.discard(rid)
        if pending:
            self.stop()
            raise ServeError(
                f"replicas never became ready: {sorted(pending)}"
            )

    # -- supervision ---------------------------------------------------------

    def _consume(self, handle: _ReplicaHandle) -> None:
        """Drain every queued pipe message from one replica."""
        health = self._health[handle.id]
        try:
            while handle.conn.poll(0):
                message = handle.conn.recv()
                if message[0] == _READY:
                    handle.port = message[2]
                    health.note_alive(True)
                    health.note_heartbeat()
                    health.note_admitted(True)
                    if handle.respawns:
                        # Readmitted with its placement set pre-warmed.
                        self._migrations.add(1)
                elif message[0] == _PONG:
                    state = message[2]
                    health.note_heartbeat(
                        draining=state.get("draining", False),
                        pending=state.get("pending", 0),
                    )
        except (EOFError, OSError):
            pass  # death is detected by the liveness poll below

    def _supervise(self) -> None:
        while True:
            with self._lock:
                if self._stopping:
                    return
                handles = list(self._replicas.values())
            for handle in handles:
                health = self._health[handle.id]
                if not handle.process.is_alive():
                    health.note_alive(False)
                    self._deaths.add(1)
                    try:
                        handle.conn.close()
                    except OSError:
                        pass
                    self._spawn(handle.id, respawn=True)
                    continue
                self._consume(handle)
                if handle.port is not None:
                    try:
                        handle.ping_seq += 1
                        handle.conn.send(("ping", handle.ping_seq))
                    except (BrokenPipeError, OSError):
                        health.note_alive(False)
            time.sleep(HEARTBEAT_INTERVAL_S)

    # -- router-facing queries -----------------------------------------------

    def health(self, rid: str) -> ReplicaHealth:
        return self._health[rid]

    def endpoint(self, rid: str) -> "str | None":
        """``http://host:port`` for a ready replica, else ``None``."""
        with self._lock:
            handle = self._replicas.get(rid)
        if handle is None or handle.port is None:
            return None
        return f"http://{self.host}:{handle.port}"

    def endpoints(self) -> dict[str, "str | None"]:
        return {rid: self.endpoint(rid) for rid in self.ring.members()}

    def placement(self, model: str) -> list[str]:
        return self.ring.placement(model)

    def kill_replica(self, rid: str) -> None:
        """SIGKILL a replica (chaos/testing); the supervisor respawns it."""
        with self._lock:
            handle = self._replicas.get(rid)
        if handle is None or handle.process.pid is None:
            return
        try:
            os.kill(handle.process.pid, signal_module.SIGKILL)
        except (ProcessLookupError, OSError):
            pass

    def wait_ready(
        self,
        rid: str,
        timeout_s: float = 30.0,
        min_respawns: "int | None" = None,
    ) -> bool:
        """Block until a (re)spawned replica is routable again.

        After a kill, pass ``min_respawns`` (the respawn count the
        rejoined incarnation must carry) — without it, a call racing the
        supervisor's death detection can observe the *old* handle still
        looking healthy and return before the respawn even starts.
        """
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                handle = self._replicas.get(rid)
            if (
                handle is not None
                and (min_respawns is None or handle.respawns >= min_respawns)
                and handle.port is not None
                and handle.process.is_alive()
                and self._health[rid].routable()
            ):
                return True
            time.sleep(0.02)
        return False

    def stats(self) -> dict:
        with self._lock:
            handles = {
                rid: {
                    "port": handle.port,
                    "pid": handle.process.pid,
                    "alive": handle.process.is_alive(),
                    "respawns": handle.respawns,
                }
                for rid, handle in self._replicas.items()
            }
        return {
            "replicas": {
                rid: {
                    **handles.get(rid, {}),
                    "health": self._health[rid].snapshot(),
                }
                for rid in self.ring.members()
            },
            "placement": self.ring.placements(
                [m.name for m in self.models]
            ),
            "replication": self.ring.replication,
        }
