"""Serving policy: admission limits, execution retry, and degrade
-under-load hysteresis.

:class:`ServePolicy` is the one knob bundle a deployment tunes: the
knobs some caller sets. The model circuit breaker
(:data:`repro.serve.service.BREAKER`) and the SLO objectives
(:mod:`repro.serve.slo`) are module constants, and the dispatch thread
count follows the host and the backend. The
:class:`DegradeController` turns queue depth into stream-length tier
decisions. Each tier halves every stream length, so under overload the
service sheds *precision* before it sheds *requests*, and every
degraded response is flagged with the tier it was computed at.

Queue depth is the only signal, with classic watermark + cooldown
hysteresis:

* depth ``>=`` ``degrade_high_watermark`` → step one tier *down*
  (shorter streams), at most once per ``cooldown_s``;
* depth ``<=`` ``degrade_low_watermark`` → step one tier *up*, also
  cooldown-gated, so a brief dip doesn't flap the service back into the
  slow configuration it just escaped.

Latency and SLO burn do not vote. A late request at an empty queue is
not overload, and a shorter stream answers from a configuration the
model was never trained for; the SLO tracker is telemetry only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs
from repro.errors import ConfigurationError
from repro.utils.retry import RetryPolicy


@dataclass(frozen=True)
class ServePolicy:
    """Tunables of one service instance (all durations in seconds)."""

    max_batch: int = 8  # micro-batch coalescing ceiling
    max_wait_s: float = 0.005  # oldest-request flush timer
    max_queue: int = 64  # admission control: queue bound
    default_deadline_s: float | None = 2.0  # per-request deadline fallback
    degrade_high_watermark: int = 16  # queue depth that degrades
    degrade_low_watermark: int = 2  # queue depth that recovers
    cooldown_s: float = 0.25  # min time between tier changes
    # -- execution resilience ------------------------------------------------
    batch_timeout_s: float | None = 10.0  # per-attempt execution timeout
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self):
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if self.max_queue < self.max_batch:
            raise ConfigurationError(
                f"max_queue ({self.max_queue}) must be >= max_batch "
                f"({self.max_batch}) or batches can never fill"
            )
        if self.max_wait_s < 0 or self.cooldown_s < 0:
            raise ConfigurationError("durations must be >= 0")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ConfigurationError("default_deadline_s must be positive")
        if not 0 <= self.degrade_low_watermark < self.degrade_high_watermark:
            raise ConfigurationError(
                "need 0 <= degrade_low_watermark < degrade_high_watermark, "
                f"got {self.degrade_low_watermark} / "
                f"{self.degrade_high_watermark}"
            )
        if self.batch_timeout_s is not None and self.batch_timeout_s <= 0:
            raise ConfigurationError("batch_timeout_s must be positive or None")

    def retry_after_s(self) -> float:
        """Client backoff hint for queue-full rejections.

        Two flush intervals: after one flush the queue has drained a
        batch, after two a retry is very likely to be admitted even if
        other clients refilled part of the freed space. Floored so a
        zero-wait batcher still tells clients to pause instead of
        hot-spinning the admission path.
        """
        return max(2.0 * self.max_wait_s, 0.01)


class DegradeController:
    """Watermark/cooldown hysteresis over one model's tier ladder.

    Pure decision logic: :meth:`observe` maps ``(queue depth, now)`` to
    the tier the model *should* be on; the caller applies it. Keeping
    the clock injectable makes the hysteresis testable without sleeps.
    """

    def __init__(
        self,
        policy: ServePolicy,
        max_tier: int,
        clock=time.monotonic,
    ):
        self.policy = policy
        self.max_tier = max_tier
        self.clock = clock
        self.tier = 0
        self._last_change: float | None = None
        self.transitions = 0

    def observe(self, depth: int, now: float | None = None) -> int:
        """Update and return the target tier for one queue-depth sample."""
        if now is None:
            now = self.clock()
        if self.max_tier == 0:
            return self.tier
        if (
            self._last_change is not None
            and now - self._last_change < self.policy.cooldown_s
        ):
            return self.tier
        if (
            depth >= self.policy.degrade_high_watermark
            and self.tier < self.max_tier
        ):
            self.tier += 1
            self._last_change = now
            self.transitions += 1
            obs.counter("serve.degrade_transitions").add(1)
        elif depth <= self.policy.degrade_low_watermark and self.tier > 0:
            self.tier -= 1
            self._last_change = now
            self.transitions += 1
            obs.counter("serve.recover_transitions").add(1)
        return self.tier
