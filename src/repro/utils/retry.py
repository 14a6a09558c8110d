"""Retry with exponential backoff + jitter: the one retry loop the repo uses.

Every resilience consumer shares this module so their behaviour is
identical and tested once:

* a serving dispatch thread retries a failed batch execution (crashed /
  stalled / corrupting worker — :mod:`repro.serve.backend`), and
  :class:`repro.scnn.pool.MinibatchPool` a failed training forward;
* :class:`repro.serve.client.HTTPClient` retries backpressure responses
  (429 queue-full, 503 circuit-open), honouring the server's
  ``Retry-After`` hint.

Design constraints, all test-driven:

* **Deterministic under test** — jitter comes from an injectable
  ``random.Random``; sleeping goes through an injectable ``sleep``
  callable, so unit tests capture the exact delay sequence without
  sleeping. The backoff's growth (:data:`MULTIPLIER`) and randomized
  share (:data:`JITTER`) are module constants; a caller sets only the
  attempt count and the delay bounds.
* **Server hints are floors, not replacements** — when a caught
  exception carries a ``retry_after_s`` attribute (queue-full /
  circuit-open backpressure), the next delay is at least that value:
  backing off *less* than the server asked for just burns the next
  attempt.
* **The last error propagates unchanged** — exhaustion re-raises the
  final exception with its original traceback rather than wrapping it,
  so callers' ``except`` clauses keep working across the retry boundary.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.errors import ConfigurationError

_R = TypeVar("_R")

#: Growth of the backoff delay from one attempt to the next.
MULTIPLIER = 2.0
#: Fraction of each backoff delay that is randomized.
JITTER = 0.5


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for one retryable operation.

    ``max_attempts`` counts *total* tries (1 = no retry). Delay before
    attempt ``k`` (k >= 2) is ``base_delay_s * MULTIPLIER**(k-2)``
    capped at ``max_delay_s``, then jittered: the final delay is drawn
    uniformly from ``[delay * (1 - JITTER), delay]`` ("equal jitter"
    shrinks, never grows, so the cap still holds).
    """

    max_attempts: int = 3
    base_delay_s: float = 0.01
    max_delay_s: float = 0.25

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ConfigurationError("delays must be >= 0")
        if self.max_delay_s < self.base_delay_s:
            raise ConfigurationError(
                f"max_delay_s ({self.max_delay_s}) must be >= base_delay_s "
                f"({self.base_delay_s})"
            )

    def delay_for(self, attempt: int, rng: random.Random | None = None) -> float:
        """Backoff delay taken *after* a failed ``attempt`` (1-based)."""
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        delay = min(
            self.base_delay_s * MULTIPLIER ** (attempt - 1),
            self.max_delay_s,
        )
        if JITTER > 0.0 and delay > 0.0:
            rng = rng if rng is not None else random
            delay *= 1.0 - JITTER * rng.random()
        return delay


def call_with_retry(
    fn: Callable[[], _R],
    policy: RetryPolicy | None = None,
    retry_on: tuple[type[BaseException], ...] = (Exception,),
    rng: random.Random | None = None,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Callable[[BaseException, int, float], None] | None = None,
) -> _R:
    """Call ``fn`` until it succeeds or the policy is exhausted.

    Only exceptions matching ``retry_on`` are retried; anything else
    propagates immediately (a deterministic model error does not become
    N deterministic model errors). ``on_retry(error, attempt, delay)``
    fires before each backoff sleep — the serving layer uses it to count
    retries into telemetry.

    If the caught exception exposes a ``retry_after_s`` attribute (the
    backpressure errors do), the backoff delay is floored to it.
    """
    policy = policy or RetryPolicy()
    attempt = 0
    while True:
        attempt += 1
        try:
            return fn()
        except retry_on as error:
            if attempt >= policy.max_attempts:
                raise
            delay = policy.delay_for(attempt, rng)
            hint = getattr(error, "retry_after_s", None)
            if hint is not None:
                delay = max(delay, float(hint))
            if on_retry is not None:
                on_retry(error, attempt, delay)
            if delay > 0.0:
                sleep(delay)
