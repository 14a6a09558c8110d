"""The cluster router: one HTTP frontend fanning out over N replicas.

Request path::

    POST /predict ──> per-model WFQ ──> forwarder threads ──> replica
         (admission: sub-queue bound → 429)   (ranked candidates,
                                               failover across the
                                               placement set)

:class:`RouterHTTPServer` is the replica's own frontend
(:mod:`repro.serve.server`) with the router's hooks, so both edges
speak one protocol and reject malformed requests, unknown models and
wrong shapes with the same typed 4xx before anything is queued; an
admitted request's body is forwarded untouched, and a replica's error
response is decoded back into its typed error
(:func:`repro.serve.client.error_from_http`). Scheduling between models
is weighted-fair (:mod:`repro.cluster.wfq`); candidates within a
model's placement set rank routable first (:mod:`repro.cluster.health`),
then by the router's inflight load on each, then by rendezvous
placement rank.

Failure handling distinguishes three classes per attempt:

* **transport failure** (connection refused/reset, timeout) — the
  replica is presumed bad: feed the breaker, fail over immediately.
* **backpressure** (replica 429/503: queue full, breaker open,
  draining) — the replica is *healthy but shedding*: fail over without
  penalising it.
* **request defect** (400/404/504) — no replica will answer
  differently: propagate to the client at once.

A full sweep with no winner backs off briefly and retries (respawn +
warm migration complete within a round or two), so killing a replica
under load loses zero accepted requests. Only when every round fails
does the client see :class:`~repro.errors.ReplicaUnavailableError`.

Tracing crosses the extra hop: an ``X-Repro-Trace`` request runs under
a child context at the router (``cluster.request`` /
``cluster.forward`` spans) and is forwarded with a further child hop,
so the replica's ``serve.request`` joins the same trace. ``GET
/tracez`` merges the router's recent traces with every replica's —
rebasing remote span clocks via each registry's ``epoch_wall`` and
prefixing remote process rows with ``replica-<id>`` — so one Chrome
trace shows router → replica → worker rows.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

from repro import obs
from repro.cluster.manager import ReplicaManager
from repro.cluster.wfq import make_scheduler
from repro.errors import (
    DeadlineExceededError,
    QueueFullError,
    ReplicaUnavailableError,
    ReproError,
    ServeError,
    UnknownModelError,
)
from repro.obs import trace
from repro.serve.client import BACKPRESSURE, error_from_http
from repro.serve.server import HTTPFrontend
from repro.serve.service import _Stat, _StatHistogram

__all__ = ["ClusterRouter", "RouterHTTPServer", "RouterPolicy", "make_router"]


#: Bound per model sub-queue; overflow → 429 at the router.
_MAX_QUEUE_PER_MODEL = 64
#: Per-attempt proxy timeout.
_REQUEST_TIMEOUT_S = 30.0
#: How long a queued request may wait for its answer end-to-end.
_QUEUE_WAIT_TIMEOUT_S = 30.0
#: Full candidate-sweep rounds before giving up (covers a respawn).
_FAILOVER_ROUNDS = 6
#: Backoff between sweeps (doubles per round, capped at 0.5 s).
_FAILOVER_BACKOFF_S = 0.05
#: Retry-After hint on the router's own queue-full and no-replica errors.
_RETRY_AFTER_S = 0.05


@dataclass(frozen=True)
class RouterPolicy:
    """Tunables for the cluster router."""

    #: ``"wfq"`` (weighted-fair, the default) or ``"fifo"`` (control arm).
    scheduler: str = "wfq"
    #: Concurrent proxied requests per replica (beyond it, the router
    #: prefers another candidate instead of piling on). The router runs
    #: replicas × this many forwarder threads.
    max_inflight_per_replica: int = 4


class _QueuedRequest:
    """One admitted request riding the scheduler."""

    __slots__ = ("body", "ctx", "event", "result", "error", "enqueued_at")

    def __init__(self, body: bytes, ctx, enqueued_at: float):
        self.body = body
        self.ctx = ctx
        self.event = threading.Event()
        self.result: "dict | list | None" = None
        self.error: "Exception | None" = None
        self.enqueued_at = enqueued_at

    def resolve(self, result) -> None:
        self.result = result
        self.event.set()

    def fail(self, error: Exception) -> None:
        self.error = error
        self.event.set()


class ClusterRouter:
    """Routes requests over a :class:`ReplicaManager`'s replicas."""

    def __init__(
        self,
        manager: ReplicaManager,
        policy: "RouterPolicy | None" = None,
    ):
        self.manager = manager
        self.policy = policy or RouterPolicy()
        self._input_shapes = {
            spec.name: tuple(spec.input_shape) for spec in manager.models
        }
        self.scheduler = make_scheduler(
            self.policy.scheduler,
            max_per_model=_MAX_QUEUE_PER_MODEL,
            weights={spec.name: spec.weight for spec in manager.models},
        )
        self._forwarder_count = (
            manager.num_replicas * self.policy.max_inflight_per_replica
        )
        self._inflight = {
            rid: threading.BoundedSemaphore(
                self.policy.max_inflight_per_replica
            )
            for rid in manager.ring.members()
        }
        self._load_lock = threading.Lock()  # guards: _inflight_load
        #: Requests currently proxied per replica; routable candidates
        #: are ranked least-loaded first so traffic spreads across a
        #: placement set instead of queueing on the primary's inflight
        #: slots.
        self._inflight_load = {rid: 0 for rid in manager.ring.members()}
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._accepted = _Stat("cluster.requests_accepted")
        self._completed = _Stat("cluster.requests_completed")
        self._failed = _Stat("cluster.requests_failed")
        self._rejected = _Stat("cluster.requests_rejected_queue_full")
        self._failovers = _Stat("cluster.failovers")
        self._sweep_retries = _Stat("cluster.sweep_retries")
        self._proxied = _Stat("cluster.requests_proxied")
        self._latency = _StatHistogram(
            "cluster.request_latency_ms", unit="ms"
        )
        self._latency_rolling = obs.rolling(
            "cluster.request_latency_ms", unit="ms"
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ClusterRouter":
        if self._threads:
            return self
        self._stop.clear()
        for i in range(self._forwarder_count):
            thread = threading.Thread(
                target=self._forward_loop,
                name=f"cluster-forward-{i}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        self._stop.set()
        for _, item in self.scheduler.close():
            item.fail(ServeError("router stopped"))
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads.clear()

    def __enter__(self) -> "ClusterRouter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request path --------------------------------------------------------

    def input_shape(self, model: str) -> tuple[int, ...]:
        """One sample's shape; raises :class:`UnknownModelError` for a
        model outside the cluster's model set."""
        try:
            return self._input_shapes[model]
        except KeyError:
            raise UnknownModelError(
                f"unknown model {model!r}; cluster serves "
                f"{sorted(self._input_shapes)}"
            ) from None

    def submit(self, model: str, body: bytes, ctx=None) -> _QueuedRequest:
        """Admit one request; raises :class:`UnknownModelError` for a
        model the cluster does not serve (so the scheduler only ever
        holds known names) and :class:`QueueFullError` when the model's
        sub-queue is at capacity."""
        self.input_shape(model)
        item = _QueuedRequest(body, ctx, time.monotonic())
        if not self.scheduler.offer(model, item):
            self._rejected.add(1)
            raise QueueFullError(
                f"router queue for model {model!r} at capacity "
                f"({self.scheduler.max_per_model}); retry later",
                retry_after_s=_RETRY_AFTER_S,
            )
        self._accepted.add(1)
        obs.gauge("cluster.queue_depth").set(self.scheduler.depth())
        return item

    def _candidates(self, model: str) -> list[tuple[str, str]]:
        """``(replica_id, endpoint)`` for the model's placement set,
        best first: routable, then least inflight load, then placement
        rank. Unroutable replicas stay listed (last) so a sweep can
        still probe them when the whole set looks down — the routable
        bit trails a replica's real state by up to a heartbeat."""
        with self._load_lock:
            load = dict(self._inflight_load)
        ranked = []
        for rank, rid in enumerate(self.manager.placement(model)):
            endpoint = self.manager.endpoint(rid)
            if endpoint is None:
                continue
            routable = self.manager.health(rid).routable()
            ranked.append(
                ((not routable, load.get(rid, 0), rank), rid, endpoint)
            )
        ranked.sort()
        return [(rid, endpoint) for _, rid, endpoint in ranked]

    def _proxy(self, endpoint: str, item: _QueuedRequest):
        """One attempt against one replica; returns the decoded JSON."""
        headers = {"Content-Type": "application/json"}
        if item.ctx is not None:
            headers[trace.TRACE_HEADER] = item.ctx.child().to_header()
        request = urllib.request.Request(
            f"{endpoint}/predict",
            data=item.body,
            headers=headers,
            method="POST",
        )
        self._proxied.add(1)
        try:
            with urllib.request.urlopen(
                request, timeout=_REQUEST_TIMEOUT_S
            ) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as err:
            raise error_from_http(err) from None

    def _forward_loop(self) -> None:
        while not self._stop.is_set():
            pulled = self.scheduler.next(timeout=0.1)
            if pulled is None:
                continue
            model, item = pulled
            obs.gauge("cluster.queue_depth").set(self.scheduler.depth())
            try:
                self._forward(model, item)
            except Exception as error:  # noqa: BLE001 - item must resolve
                self._failed.add(1)
                item.fail(error)

    def _forward(self, model: str, item: _QueuedRequest) -> None:
        """Route one request: ranked sweeps with failover."""
        deadline = item.enqueued_at + _QUEUE_WAIT_TIMEOUT_S
        with trace.scope(item.ctx):
            last_error: "Exception | None" = None
            backoff = _FAILOVER_BACKOFF_S
            rounds_left = _FAILOVER_ROUNDS
            while rounds_left > 0:
                done, last_error, saturated = self._sweep(
                    model, item, last_error
                )
                if done:
                    return
                if time.monotonic() >= deadline:
                    break
                if saturated and last_error is None:
                    # Every candidate was healthy but at its inflight
                    # cap — that is queueing, not failure: the 50 ms
                    # slot waits already paced this pass, so go again
                    # without consuming a failover round or backing
                    # off (a backed-off round here turns transient
                    # saturation into a half-second latency cliff).
                    continue
                rounds_left -= 1
                if rounds_left <= 0:
                    break
                self._sweep_retries.add(1)
                time.sleep(min(backoff, max(0.0, deadline - time.monotonic())))
                backoff = min(backoff * 2, 0.5)
            self._failed.add(1)
            item.fail(
                last_error
                if last_error is not None
                else ReplicaUnavailableError(
                    f"no healthy replica for model {model!r} "
                    f"(placement {self.manager.placement(model)})",
                    retry_after_s=_RETRY_AFTER_S,
                )
            )

    def _sweep(
        self, model: str, item: _QueuedRequest, last_error
    ) -> tuple[bool, "Exception | None", bool]:
        """One pass over the candidate list.

        Returns ``(resolved, last_error, saturated)`` — ``saturated``
        marks a pass where at least one healthy candidate was skipped
        only because its inflight slots were all taken, so the caller
        can re-sweep immediately instead of backing off.
        """
        saturated = False
        candidates = self._candidates(model)
        for rid, endpoint in candidates:
            health = self.manager.health(rid)
            if not health.allow():
                continue
            slot = self._inflight[rid]
            if not slot.acquire(timeout=0.05):
                health.refund()  # candidate saturated; probe unspent
                saturated = True
                continue
            with self._load_lock:
                self._inflight_load[rid] += 1
            try:
                with obs.span(
                    "cluster.forward", model=model, replica=rid
                ):
                    result = self._proxy(endpoint, item)
            except BACKPRESSURE as error:
                # Healthy but shedding: don't penalise, do fail over.
                health.note_result(True)
                self._failovers.add(1)
                last_error = error
                continue
            except (
                urllib.error.URLError, OSError, TimeoutError,
                http.client.HTTPException,
            ) as error:
                # Transport failure (a replica killed mid-reply truncates
                # it: IncompleteRead): the replica is presumed bad.
                health.note_result(False)
                self._failovers.add(1)
                obs.counter("cluster.transport_failures").add(1)
                last_error = ReplicaUnavailableError(
                    f"replica {rid} unreachable: {error}",
                    retry_after_s=_RETRY_AFTER_S,
                )
                continue
            except ReproError as error:
                # Request defect (400/404/504): every replica would
                # answer the same — propagate immediately.
                health.note_result(True)
                self._failed.add(1)
                item.fail(error)
                return True, last_error, saturated
            finally:
                with self._load_lock:
                    self._inflight_load[rid] -= 1
                slot.release()
            health.note_result(True)
            latency_ms = (time.monotonic() - item.enqueued_at) * 1e3
            self._completed.add(1)
            self._latency.observe(latency_ms)
            self._latency_rolling.observe(latency_ms)
            item.resolve(result)
            return True, last_error, saturated
        if not candidates:
            last_error = ReplicaUnavailableError(
                f"no ready replica for model {model!r}",
                retry_after_s=_RETRY_AFTER_S,
            )
        return False, last_error, saturated

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        return {
            "scheduler": {
                "kind": self.policy.scheduler,
                "depth": self.scheduler.depth(),
                "per_model": self.scheduler.depths(),
                "weights": dict(self.scheduler.weights),
            },
            "requests": {
                "accepted": self._accepted.value,
                "completed": self._completed.value,
                "failed": self._failed.value,
                "rejected_queue_full": self._rejected.value,
                "proxied": self._proxied.value,
                "failovers": self._failovers.value,
                "sweep_retries": self._sweep_retries.value,
            },
            "latency_ms": self._latency.to_dict(),
            "forwarders": self._forwarder_count,
            "cluster": self.manager.stats(),
        }

    def cluster_families(self) -> dict:
        """``cluster_*`` Prometheus families for ``/metrics``."""
        up_samples, health_samples, pending_samples = [], [], []
        for rid in self.manager.ring.members():
            health = self.manager.health(rid)
            snap = health.snapshot()
            up = 1.0 if snap["alive"] and snap["admitted"] else 0.0
            up_samples.append(({"replica": rid}, up))
            health_samples.append(
                ({"replica": rid}, float(snap["routable"]))
            )
            pending_samples.append(
                ({"replica": rid}, float(snap["pending"]))
            )
        # Every registered model gets a sample (0 when idle) so the
        # family is present in the exposition even on a quiet router.
        depths = {spec.name: 0 for spec in self.manager.models}
        depths.update(self.scheduler.depths())
        depth_samples = [
            ({"model": model}, float(depth))
            for model, depth in sorted(depths.items())
        ]
        placement_samples = [
            ({"model": spec.name}, float(len(self.manager.placement(spec.name))))
            for spec in self.manager.models
        ]
        return {
            "cluster_replica_up": {
                "type": "gauge",
                "help": "1 when the replica is alive and admitted to the ring.",
                "samples": up_samples,
            },
            "cluster_replica_health": {
                "type": "gauge",
                "help": "1 when the replica is routable: alive, admitted, "
                "not draining and heard from within the heartbeat timeout.",
                "samples": health_samples,
            },
            "cluster_replica_pending": {
                "type": "gauge",
                "help": "Self-reported pending requests per replica.",
                "samples": pending_samples,
            },
            "cluster_model_queue_depth": {
                "type": "gauge",
                "help": "Router scheduler depth per model.",
                "samples": depth_samples,
            },
            "cluster_placement_replicas": {
                "type": "gauge",
                "help": "Placement-set width per model.",
                "samples": placement_samples,
            },
        }

    def merged_traces(self, limit: int = 10) -> list[dict]:
        """Recent traces with every replica's spans merged in.

        Remote spans are rebased onto this process's registry epoch
        (wall-clock delta of the two epochs) and their ``process``
        field is prefixed ``replica-<id>`` — the replica frontend's own
        spans land on a ``replica-<id>`` row, its worker-pool spans on
        ``replica-<id>/worker-N`` rows.
        """
        local_epoch = obs.get_registry().epoch_wall
        merged: dict[str, list[dict]] = {}
        order: list[str] = []
        for entry in trace.recent_traces(limit=limit):
            merged[entry["trace_id"]] = list(entry["spans"])
            order.append(entry["trace_id"])
        for rid in self.manager.ring.members():
            endpoint = self.manager.endpoint(rid)
            if endpoint is None:
                continue
            try:
                with urllib.request.urlopen(
                    f"{endpoint}/tracez?limit={int(limit)}", timeout=5.0
                ) as response:
                    payload = json.loads(response.read())
            except (urllib.error.URLError, OSError, ValueError):
                continue  # a dead/racing replica just contributes nothing
            shift = payload.get("epoch_wall", local_epoch) - local_epoch
            for remote in payload.get("traces", ()):
                spans = []
                for span in remote.get("spans", ()):
                    span = dict(span)
                    span["start_s"] = span["start_s"] + shift
                    process = span.get("process", "")
                    span["process"] = (
                        f"replica-{rid}/{process}"
                        if process
                        else f"replica-{rid}"
                    )
                    spans.append(span)
                trace_id = remote["trace_id"]
                if trace_id not in merged:
                    if limit and len(merged) >= limit:
                        continue  # keep the response bounded
                    merged[trace_id] = []
                    order.append(trace_id)
                merged[trace_id].extend(spans)
        return [
            {
                "trace_id": trace_id,
                "span_count": len(merged[trace_id]),
                "spans": merged[trace_id],
            }
            for trace_id in order
        ]


class RouterHTTPServer(HTTPFrontend):
    """The shared frontend bound to one :class:`ClusterRouter`."""

    kind = "cluster"
    router: ClusterRouter

    def __init__(
        self,
        address,
        router: ClusterRouter,
        verbose: bool = False,
        trace_sample: int = 0,
    ):
        super().__init__(address, verbose, trace_sample)
        self.router = router

    def health(self) -> dict:
        manager = self.router.manager
        return {
            "status": "ok",
            "role": "router",
            "replicas": {
                rid: {
                    "endpoint": ep,
                    "routable": manager.health(rid).routable(),
                }
                for rid, ep in manager.endpoints().items()
            },
            "models": sorted(m.name for m in manager.models),
        }

    def stats(self) -> dict:
        return self.router.stats()

    def metric_families(self) -> dict:
        return self.router.cluster_families()

    def traces(self, limit: int) -> list[dict]:
        return self.router.merged_traces(limit=limit)

    def input_shape(self, model: str) -> tuple[int, ...]:
        return self.router.input_shape(model)

    def predict(self, model, inputs, deadline_s, body):
        router = self.router
        item = router.submit(model, body, ctx=trace.current())
        if not item.event.wait(_QUEUE_WAIT_TIMEOUT_S):
            raise DeadlineExceededError(
                f"router gave up after {_QUEUE_WAIT_TIMEOUT_S:.1f}s"
            )
        if item.error is not None:
            raise item.error
        return item.result


def make_router(
    router: ClusterRouter,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    trace_sample: int = 0,
) -> RouterHTTPServer:
    """Bind the router frontend (``port=0`` picks a free one)."""
    return RouterHTTPServer(
        (host, port), router, verbose=verbose, trace_sample=trace_sample
    )
