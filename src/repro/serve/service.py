"""The inference service: admission → micro-batch → dispatch → respond.

Each service runs its own dispatch threads, one per CPU and at least
one per backend worker. Each thread loops: pull a coalesced batch from
the :class:`~repro.serve.batcher.MicroBatcher`, run it, repeat. A thread
pulls only when it is free, so backlog stays in the batcher queue, where
it drives the degrade signal, deepens coalescing and stays subject to
expiry. Batches for *different* models execute concurrently while each
model's entry lock keeps its own forwards serial (tier flips can't land
mid-batch).

Execution itself goes through a pluggable
:class:`~repro.serve.backend.ExecutionBackend` — in-thread by default, a
supervised process pool when crash isolation / true multi-core batch
parallelism is wanted. The resilience chain around each batch is::

    breaker.allow()  →  admission           (CircuitOpenError when open)
    partition_expired → fail dead requests  (deadline passed post-release)
    call_with_retry(backend.run)            (crash/timeout/corruption retried)
    breaker.record_{success,failure}        (post-retry outcome)

Every request is accounted for exactly once, which the overload
acceptance test checks end to end::

    accepted == completed + expired + failed + in_flight + queued

Instrumentation (:mod:`repro.obs`): ``serve.queue_depth`` gauge,
``serve.batch_size`` / ``serve.batch_latency_ms`` /
``serve.request_latency_ms`` histograms plus rolling-window quantiles of
both latencies, per-stage spans (``serve.dispatch`` /
``serve.model_forward``), and counters for accepted / rejected /
expired / completed / failed / late / retried / circuit-open
rejections.

Tracing: a request admitted under an active
:class:`~repro.obs.trace.TraceContext` (the HTTP frontend installs one
per sampled request) carries it on the
:class:`~repro.serve.batcher.PendingRequest`; the dispatch thread re-enters
the first traced member's context for the batch — so ``serve.dispatch``
and everything under it (including worker-side spans shipped back over
the pipe) joins that request's trace — and stamps the span with the
full ``trace_ids`` list so a batch appears in *every* member's merged
trace.

SLOs: every finished request feeds a per-model
:class:`~repro.serve.slo.SLOTracker` (completed = available, completed
within the latency objective = good), which ``/stats`` and
``/metrics`` report. Only queue depth drives the degrade controller.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ExecutionBackendError,
    QueueFullError,
    ServeError,
    ShapeError,
)
from repro.obs import trace
from repro.obs.core import Counter, Histogram
from repro.serve.backend import ExecutionBackend, InThreadBackend
from repro.serve.batcher import MicroBatcher, PendingRequest
from repro.serve.breaker import BreakerPolicy, CircuitBreaker
from repro.serve.policy import DegradeController, ServePolicy
from repro.serve.registry import ModelEntry, ModelRegistry
from repro.serve.slo import SLOTracker
from repro.utils.parallel import cpu_count
from repro.utils.retry import call_with_retry

#: Latency histogram buckets (milliseconds).
_LATENCY_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000)
#: The per-model circuit breaker: 5 consecutive failed batches open it
#: for 5 s.
BREAKER = BreakerPolicy()


class _Stat:
    """Per-service counter that mirrors into the global obs registry.

    Service statistics must be scoped to one :class:`InferenceService`
    (two services — or two tests — must not share totals), while fleet
    telemetry wants the process-wide ``serve.*`` counters. One ``add``
    feeds both.
    """

    __slots__ = ("local", "global_")

    def __init__(self, name: str):
        self.local = Counter(name)
        self.global_ = obs.counter(name)

    def add(self, amount: int = 1) -> None:
        self.local.add(amount)
        self.global_.add(amount)

    @property
    def value(self) -> int | float:
        return self.local.value


class _StatHistogram:
    """Per-service histogram mirrored into the global obs registry."""

    __slots__ = ("local", "global_")

    def __init__(self, name: str, bounds=None, unit: str = "count"):
        kwargs = {} if bounds is None else {"bounds": bounds}
        self.local = Histogram(name, unit=unit, **kwargs)
        self.global_ = obs.histogram(name, unit=unit, **kwargs)

    def observe(self, value: int | float) -> None:
        self.local.observe(value)
        self.global_.observe(value)

    def to_dict(self) -> dict:
        return self.local.to_dict()


@dataclass(frozen=True)
class PredictResult:
    """One request's answer plus its serving context."""

    model: str
    outputs: np.ndarray  # per-sample logits (num_classes,)
    tier: int  # stream-length tier the forward ran at
    degraded: bool  # tier > 0 — shorter-than-native streams
    latency_s: float  # enqueue -> response
    late: bool  # completed after its deadline (still delivered)

    @property
    def argmax(self) -> int:
        return int(np.argmax(self.outputs))

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "outputs": self.outputs.tolist(),
            "argmax": self.argmax,
            "tier": self.tier,
            "degraded": self.degraded,
            "latency_ms": self.latency_s * 1e3,
            "late": self.late,
        }


class InferenceService:
    """Batched SC inference over a :class:`ModelRegistry`."""

    def __init__(
        self,
        registry: ModelRegistry,
        policy: ServePolicy | None = None,
        clock=time.monotonic,
        backend: ExecutionBackend | None = None,
    ):
        self.registry = registry
        self.policy = policy or ServePolicy()
        self.clock = clock
        self.backend = backend if backend is not None else InThreadBackend()
        self.batcher = MicroBatcher(
            max_batch=self.policy.max_batch,
            max_wait_s=self.policy.max_wait_s,
            max_queue=self.policy.max_queue,
            clock=clock,
        )
        self._controllers: dict[str, DegradeController] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._in_flight = 0
        # One thread per CPU, and enough to keep every backend worker
        # busy: a process pool of N workers needs N batches in flight
        # even on a 1-CPU box.
        self._dispatch_parallelism = max(cpu_count(), self.backend.capacity)
        self._state_lock = threading.Lock()  # guards: _in_flight, _breakers, _controllers, _slo_trackers
        self._slo_trackers: dict[str, SLOTracker] = {}
        self._stop = threading.Event()
        self._dispatchers: list[threading.Thread] = []
        self._accepted = _Stat("serve.requests_accepted")
        self._rejected = _Stat("serve.requests_rejected_queue_full")
        self._rejected_open = _Stat("serve.requests_rejected_circuit_open")
        self._expired = _Stat("serve.requests_expired")
        self._deadline_expired = _Stat("serve.deadline_expired")
        self._completed = _Stat("serve.requests_completed")
        self._failed = _Stat("serve.requests_failed")
        self._late = _Stat("serve.requests_late")
        self._batches = _Stat("serve.batches_dispatched")
        self._retries = _Stat("serve.batch_retries")
        self._batch_hist = _StatHistogram("serve.batch_size", unit="requests")
        self._latency_hist = _StatHistogram(
            "serve.request_latency_ms", bounds=_LATENCY_BUCKETS, unit="ms"
        )
        self._batch_latency_hist = _StatHistogram(
            "serve.batch_latency_ms", bounds=_LATENCY_BUCKETS, unit="ms"
        )
        # Rolling-window quantiles back the live /metrics view: the
        # histograms above are cumulative since start, these answer
        # "what is p99 *right now*" over the last minute.
        self._latency_rolling = obs.rolling(
            "serve.request_latency_ms", unit="ms"
        )
        self._batch_latency_rolling = obs.rolling(
            "serve.batch_latency_ms", unit="ms"
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "InferenceService":
        if self._dispatchers:
            return self
        self.backend.start()
        self._stop.clear()
        self._dispatchers = [
            threading.Thread(
                target=self._dispatch_loop,
                name=f"serve-dispatch-{i}",
                daemon=True,
            )
            for i in range(self._dispatch_parallelism)
        ]
        for thread in self._dispatchers:
            thread.start()
        return self

    def stop(self) -> None:
        """Stop dispatching: running batches finish (waiting up to 5 s in
        all), then queued requests fail with :class:`ServeError`."""
        self._stop.set()
        deadline = time.monotonic() + 5.0
        for thread in self._dispatchers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        self._dispatchers = []
        for request in self.batcher.drain():
            self._failed.add(1)
            request.future.set_exception(ServeError("service stopped"))
        self.backend.stop()

    def __enter__(self) -> "InferenceService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request path --------------------------------------------------------

    def submit(
        self,
        model: str,
        x: np.ndarray,
        deadline_s: float | None = -1.0,
    ) -> "tuple[PendingRequest, ModelEntry]":
        """Admit one sample; returns the pending request (with future).

        ``deadline_s`` is relative to now; the sentinel ``-1.0`` selects
        the policy default, ``None`` disables the deadline. Raises
        :class:`UnknownModelError` / :class:`ShapeError` /
        :class:`CircuitOpenError` / :class:`QueueFullError` — admission
        failures are synchronous, so a rejected request never consumes
        queue space, and both backpressure errors carry a
        ``retry_after_s`` hint.
        """
        entry = self.registry.get(model)
        sample = np.asarray(x, dtype=np.float32)
        if sample.shape != entry.input_shape:
            raise ShapeError(
                f"sample shape {sample.shape} != model {model!r} "
                f"input shape {entry.input_shape}"
            )
        breaker = self._breaker(model)
        if not breaker.allow():
            self._rejected_open.add(1)
            raise CircuitOpenError(
                f"circuit open for model {model!r} "
                f"({breaker.to_dict()['consecutive_failures']} consecutive "
                "failures); retry later",
                retry_after_s=breaker.retry_after_s(),
            )
        if deadline_s == -1.0:
            deadline_s = self.policy.default_deadline_s
        now = self.clock()
        request = PendingRequest(
            model=model,
            x=sample,
            enqueued_at=now,
            deadline_at=None if deadline_s is None else now + deadline_s,
            trace=trace.current(),  # carried across the dispatch hop
        )
        if not self.batcher.offer(request):
            breaker.refund()  # the admitted probe never ran
            self._rejected.add(1)
            raise QueueFullError(
                f"queue at capacity ({self.policy.max_queue}); retry later",
                retry_after_s=self.policy.retry_after_s(),
            )
        self._accepted.add(1)
        return request, entry

    def predict(
        self,
        model: str,
        x: np.ndarray,
        deadline_s: float | None = -1.0,
    ) -> PredictResult:
        """Synchronous single-sample inference (waits on the future)."""
        request, _ = self.submit(model, x, deadline_s)
        return request.future.result()

    def predict_many(
        self,
        model: str,
        xs: np.ndarray,
        deadline_s: float | None = -1.0,
    ) -> list[PredictResult]:
        """Submit a multi-sample request; the batcher re-coalesces the
        samples (possibly with other clients') and results come back in
        input order. Raises the first per-sample failure."""
        requests = [self.submit(model, x, deadline_s)[0] for x in xs]
        return [r.future.result() for r in requests]

    # -- dispatch ------------------------------------------------------------

    def _controller(self, entry: ModelEntry) -> DegradeController:
        with self._state_lock:
            controller = self._controllers.get(entry.name)
            if controller is None:
                controller = DegradeController(
                    self.policy, entry.max_tier, clock=self.clock
                )
                self._controllers[entry.name] = controller
            return controller

    def _breaker(self, name: str) -> CircuitBreaker:
        with self._state_lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = CircuitBreaker(name, BREAKER, clock=self.clock)
                self._breakers[name] = breaker
            return breaker

    def _record_outcome(
        self, model: str, latency_ms: float, ok: bool
    ) -> None:
        with self._state_lock:
            tracker = self._slo_trackers.get(model)
            if tracker is None:
                tracker = SLOTracker(model, clock=self.clock)
                self._slo_trackers[model] = tracker
        tracker.record(latency_ms, ok)

    def _dispatch_loop(self) -> None:
        # Threads overlap batches of different models (and, with a
        # process backend, batches of the same model across workers);
        # the entry lock keeps in-thread forwards serial.
        while not self._stop.is_set():
            batch, expired = self.batcher.next_batch(timeout=0.05)
            self._fail_expired(expired)
            if not batch:
                continue
            with self._state_lock:
                self._in_flight += len(batch)
            self._run_batch(batch)

    def _fail_expired(
        self, expired: list[PendingRequest], at_dequeue: bool = False
    ) -> None:
        for request in expired:
            self._expired.add(1)
            if at_dequeue:
                self._deadline_expired.add(1)
            self._record_outcome(request.model, 0.0, ok=False)
            request.future.set_exception(
                DeadlineExceededError(
                    "deadline elapsed after "
                    f"{self.clock() - request.enqueued_at:.3f}s "
                    f"{'at dequeue' if at_dequeue else 'in queue'}"
                )
            )

    def _execute(
        self, entry: ModelEntry, stacked: np.ndarray, tier: int
    ) -> tuple[np.ndarray, int]:
        """One batch through the backend, retrying transient failures."""

        def attempt() -> tuple[np.ndarray, int]:
            with obs.span("serve.model_forward", model=entry.name):
                return self.backend.run(
                    entry,
                    stacked,
                    tier,
                    timeout_s=self.policy.batch_timeout_s,
                )

        def on_retry(error: BaseException, _attempt: int, _delay: float):
            self._retries.add(1)
            obs.counter(
                f"serve.retry_cause.{type(error).__name__}"
            ).add(1)

        return call_with_retry(
            attempt,
            policy=self.policy.retry,
            retry_on=(ExecutionBackendError,),
            on_retry=on_retry,
        )

    def _run_batch(self, batch: list[PendingRequest]) -> None:
        entry = self.registry.get(batch[0].model)
        breaker = self._breaker(entry.name)
        try:
            # A deadline can pass between batch release and execution.
            # Fail those now instead of burning a forward whose result
            # nobody can use.
            live, dead = MicroBatcher.partition_expired(batch, self.clock())
            if dead:
                self._fail_expired(dead, at_dequeue=True)
            if not live:
                return
            target = self._controller(entry).observe(self.batcher.depth())
            self._batches.add(1)
            self._batch_hist.observe(len(live))
            # A batch joins the trace of every traced member: it runs
            # under the first one's child context (so spans below —
            # including worker-side spans shipped back over the pipe —
            # share its trace id) and the dispatch span lists all of
            # them, so the merger finds the batch from any member.
            traced = [r.trace for r in live if r.trace is not None]
            batch_ctx = traced[0].child() if traced else None
            with trace.scope(batch_ctx), obs.span(
                "serve.dispatch",
                model=entry.name,
                batch=len(live),
                **(
                    {"trace_ids": [t.trace_id for t in traced]}
                    if traced
                    else {}
                ),
            ):
                stacked = np.stack([r.x for r in live])
                started = self.clock()
                logits, tier = self._execute(entry, stacked, target)
                batch_ms = (self.clock() - started) * 1e3
                self._batch_latency_hist.observe(batch_ms)
                self._batch_latency_rolling.observe(batch_ms)
                breaker.record_success()
                now = self.clock()
                for i, request in enumerate(live):
                    latency = now - request.enqueued_at
                    late = (
                        request.deadline_at is not None
                        and now > request.deadline_at
                    )
                    if late:
                        self._late.add(1)
                    self._completed.add(1)
                    self._latency_hist.observe(latency * 1e3)
                    self._latency_rolling.observe(latency * 1e3)
                    self._record_outcome(
                        request.model, latency * 1e3, ok=True
                    )
                    request.future.set_result(
                        PredictResult(
                            model=entry.name,
                            outputs=logits[i],
                            tier=tier,
                            degraded=tier > 0,
                            latency_s=latency,
                            late=late,
                        )
                    )
        except Exception as error:  # noqa: BLE001 - futures must resolve
            breaker.record_failure()
            for request in batch:
                if not request.future.done():
                    self._failed.add(1)
                    self._record_outcome(request.model, 0.0, ok=False)
                    request.future.set_exception(error)
        finally:
            with self._state_lock:
                self._in_flight -= len(batch)

    # -- introspection -------------------------------------------------------

    def pending(self) -> int:
        """Requests still owed an answer: queued plus in flight.

        Zero means every admitted request has resolved — the signal a
        draining server waits on before exiting.
        """
        with self._state_lock:
            in_flight = self._in_flight
        return in_flight + self.batcher.depth()

    def stats(self) -> dict:
        """Point-in-time service statistics (the ``/stats`` payload).

        ``accounting.balanced`` asserts conservation: every accepted
        request is completed, expired, failed, still queued, or in
        flight — nothing is ever silently dropped.
        """
        with self._state_lock:
            in_flight = self._in_flight
            breakers = dict(self._breakers)
            slo_trackers = dict(self._slo_trackers)
        queued = self.batcher.depth()
        accepted = self._accepted.value
        completed = self._completed.value
        expired = self._expired.value
        failed = self._failed.value
        models = {}
        for name in self.registry.names():
            entry = self.registry.get(name)
            models[name] = {
                "tier": entry.tier,
                "max_tier": entry.max_tier,
                "tier_lengths": entry.tiers[entry.tier],
                "input_shape": list(entry.input_shape),
            }
        return {
            "models": models,
            "queue": {
                "depth": queued,
                "capacity": self.policy.max_queue,
                "max_batch": self.policy.max_batch,
                "max_wait_ms": self.policy.max_wait_s * 1e3,
            },
            "requests": {
                "accepted": accepted,
                "rejected_queue_full": self._rejected.value,
                "rejected_circuit_open": self._rejected_open.value,
                "completed": completed,
                "expired": expired,
                "failed": failed,
                "late": self._late.value,
                "in_flight": in_flight,
            },
            "batches": {
                "dispatched": self._batches.value,
                "size": self._batch_hist.to_dict(),
            },
            "latency_ms": self._latency_hist.to_dict(),
            "resilience": {
                "backend": self.backend.stats(),
                "dispatch_parallelism": self._dispatch_parallelism,
                "batch_retries": self._retries.value,
                "deadline_expired_at_dequeue": self._deadline_expired.value,
                "batch_latency_ms": self._batch_latency_hist.to_dict(),
                "breakers": {
                    name: breaker.to_dict()
                    for name, breaker in breakers.items()
                },
            },
            "slo": {
                name: tracker.snapshot()
                for name, tracker in sorted(slo_trackers.items())
            },
            "accounting": {
                "balanced": accepted
                == completed + expired + failed + in_flight + queued,
            },
        }

    def slo_snapshots(self) -> list[dict]:
        """Per-model SLO snapshots (the ``/metrics`` exporter's input)."""
        with self._state_lock:
            trackers = [
                tracker
                for _, tracker in sorted(self._slo_trackers.items())
            ]
        return [tracker.snapshot() for tracker in trackers]
