"""Dynamic micro-batcher: bounded queue + compatible-request coalescing.

Requests accumulate in a bounded FIFO; the dispatcher pulls *batches*,
where a batch is up to ``max_batch`` requests for the same model,
released as soon as either the batch is full or the oldest member has
waited ``max_wait_s`` (the classic size-or-time micro-batching rule —
the software analogue of GEO filling a MAC row with windows before
firing one pass).

The queue is the admission-control point: :meth:`MicroBatcher.offer`
refuses when the queue is at capacity, which callers surface as
backpressure (:class:`~repro.errors.QueueFullError`) instead of letting
latency grow without bound.

Release and expiry time comes from an injectable monotonic ``clock`` so
the coalescing/flush/expiry logic is unit-testable with a fake clock and
no sleeps; the blocking :meth:`next_batch` is a thin condition-variable
wrapper over the pure :meth:`poll` whose timeout runs on the real clock.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.obs.trace import TraceContext

_REQUEST_IDS = itertools.count()


@dataclass
class PendingRequest:
    """One queued inference request (a single sample)."""

    model: str
    x: np.ndarray  # per-sample input, e.g. (C, H, W)
    enqueued_at: float
    deadline_at: float | None  # absolute clock time, None = no deadline
    future: Future = field(default_factory=Future)
    id: int = field(default_factory=lambda: next(_REQUEST_IDS))
    trace: TraceContext | None = None  # request's trace identity, if traced

    def expired(self, now: float) -> bool:
        return self.deadline_at is not None and now >= self.deadline_at


class MicroBatcher:
    """Thread-safe size-or-time request coalescer with a bounded queue."""

    def __init__(
        self,
        max_batch: int = 8,
        max_wait_s: float = 0.005,
        max_queue: int = 64,
        clock=time.monotonic,
    ):
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ConfigurationError(f"max_queue must be >= 1, got {max_queue}")
        if max_wait_s < 0:
            raise ConfigurationError(f"max_wait_s must be >= 0, got {max_wait_s}")
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.max_queue = max_queue
        self.clock = clock
        self._queue: deque[PendingRequest] = deque()
        self._cond = threading.Condition()  # guards: _queue
        self._depth_gauge = obs.gauge("serve.queue_depth")

    # -- producer side -------------------------------------------------------

    def offer(self, request: PendingRequest) -> bool:
        """Enqueue; returns False (admission refused) when full."""
        with self._cond:
            if len(self._queue) >= self.max_queue:
                return False
            self._queue.append(request)
            self._depth_gauge.set(len(self._queue))
            self._cond.notify()
        return True

    def depth(self) -> int:
        with self._cond:
            return len(self._queue)

    # -- consumer side -------------------------------------------------------

    def poll(
        self, now: float | None = None
    ) -> tuple[list[PendingRequest] | None, list[PendingRequest]]:
        """Non-blocking release check; returns ``(batch, expired)``.

        ``expired`` — requests whose deadline passed while queued; they
        are removed unconditionally so a stale request can never occupy
        a batch slot (the caller fails their futures).

        ``batch`` — ``None`` unless release is due; otherwise up to
        ``max_batch`` requests for the *oldest* request's model, in
        arrival order (requests for other models keep their place).
        Release is due when that model already has a full batch queued,
        or the oldest request has waited ``max_wait_s``, or its deadline
        would expire before another wait could complete.
        """
        if now is None:
            now = self.clock()
        with self._cond:
            return self._poll_locked(now)

    def next_batch(
        self, timeout: float | None = None
    ) -> tuple[list[PendingRequest] | None, list[PendingRequest]]:
        """Blocking :meth:`poll`: waits (up to ``timeout``) for a batch.

        Returns as soon as a batch releases or a queued request expires,
        or with ``(None, [])`` once ``timeout`` seconds have passed on
        the *real* clock (``time.monotonic``), so a dispatch thread
        returns even under a fake clock that never advances. Release and
        expiry read the injected clock, as :meth:`poll` does.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                now = self.clock()
                batch, expired = self._poll_locked(now)
                if batch is not None or expired:
                    return batch, expired
                waits = []
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None, []
                    waits.append(remaining)
                if self._queue:
                    head = self._queue[0]
                    waits.append(
                        head.enqueued_at + self.max_wait_s - now
                    )
                    if head.deadline_at is not None:
                        waits.append(head.deadline_at - now)
                wait = min(waits) if waits else None
                if wait is not None and wait <= 0:
                    continue  # release condition just became due
                self._cond.wait(wait)

    def _poll_locked(self, now: float):
        """:meth:`poll` body for callers already holding the condition."""
        expired = [r for r in self._queue if r.expired(now)]
        for request in expired:
            self._queue.remove(request)
        batch = None
        if self._queue:
            head = self._queue[0]
            same_model = [
                r for r in self._queue if r.model == head.model
            ][: self.max_batch]
            if (
                len(same_model) >= self.max_batch
                or now - head.enqueued_at >= self.max_wait_s
                or (
                    head.deadline_at is not None
                    and head.deadline_at - now <= self.max_wait_s
                )
            ):
                for request in same_model:
                    self._queue.remove(request)
                batch = same_model
        self._depth_gauge.set(len(self._queue))
        return batch, expired

    @staticmethod
    def partition_expired(
        batch: list[PendingRequest], now: float
    ) -> tuple[list[PendingRequest], list[PendingRequest]]:
        """Split a released batch into ``(live, expired)`` at dequeue time.

        :meth:`poll` prunes requests that expire *while queued*, but a
        deadline can also pass between batch release and execution. The
        dispatch thread calls this immediately before forwarding so an
        already-dead request is failed as expired (counted
        ``serve.deadline_expired`` in obs) instead of burning an SC
        forward whose result nobody can use.
        """
        live = [r for r in batch if not r.expired(now)]
        expired = [r for r in batch if r.expired(now)]
        return live, expired

    def drain(self) -> list[PendingRequest]:
        """Remove and return everything queued (service shutdown)."""
        with self._cond:
            drained = list(self._queue)
            self._queue.clear()
            self._depth_gauge.set(0)
            return drained
