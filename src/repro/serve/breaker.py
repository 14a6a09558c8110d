"""Per-model circuit breaker: shed load fast when a model keeps failing.

Retries (:mod:`repro.utils.retry`) paper over *isolated* faults — one
crashed worker costs one re-run. When a model fails *repeatedly* (bad
checkpoint, poisoned input shape, every worker dying on it), retrying
every request multiplies the damage: each doomed request burns
``max_attempts`` batch executions plus backoff sleeps before failing.
The breaker converts that into an immediate, cheap
:class:`~repro.errors.CircuitOpenError` at admission time.

Classic three-state machine, evaluated under an injectable clock so the
transitions are unit-testable without sleeps:

* **closed** — requests flow; ``failure_threshold`` *consecutive* batch
  failures trip it open (a single success resets the streak — SC
  forwards are deterministic enough that interleaved successes mean the
  model basically works).
* **open** — admission rejects instantly with ``retry_after_s`` set to
  the time remaining until a probe is allowed.
* **half-open** — after ``reset_s``, up to :data:`HALF_OPEN_PROBES`
  requests are admitted as probes; one probe batch succeeding closes
  the breaker, one failing reopens it (and restarts the ``reset_s``
  timer).

Two policies are in use: the serving model breaker
(:data:`repro.serve.service.BREAKER`, 5 failures / 5 s) and the cluster
replica breaker (:data:`repro.cluster.health.BREAKER`, 3 failures /
2 s).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro import obs
from repro.errors import ConfigurationError

#: Breaker states (the ``state`` property returns one of these).
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

#: Probe requests admitted while half-open.
HALF_OPEN_PROBES = 1


@dataclass(frozen=True)
class BreakerPolicy:
    """Circuit-breaker tunables (one instance shared by every model)."""

    failure_threshold: int = 5  # consecutive batch failures that trip it
    reset_s: float = 5.0  # open -> half-open delay

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.reset_s < 0:
            raise ConfigurationError(f"reset_s must be >= 0, got {self.reset_s}")


class CircuitBreaker:
    """Breaker state machine for one model."""

    def __init__(
        self,
        name: str,
        policy: BreakerPolicy | None = None,
        clock=time.monotonic,
    ):
        self.name = name
        self.policy = policy or BreakerPolicy()
        self.clock = clock
        self._lock = threading.Lock()  # guards: _state, _consecutive_failures, _opened_at, _probes_in_flight, trips
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probes_in_flight = 0
        self.trips = 0  # closed/half-open -> open transitions

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """Admission check: may a new request for this model enter?

        Also advances open -> half-open when ``reset_s`` has elapsed
        (state transitions happen on observation, not on a timer thread).
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            now = self.clock()
            if self._state == OPEN:
                if now - self._opened_at < self.policy.reset_s:
                    return False
                self._state = HALF_OPEN
                self._probes_in_flight = 0
            # HALF_OPEN: admit a bounded number of probes.
            if self._probes_in_flight >= HALF_OPEN_PROBES:
                return False
            self._probes_in_flight += 1
            return True

    def retry_after_s(self) -> float:
        """Seconds until the breaker will next admit a probe (0 if it
        already would)."""
        with self._lock:
            if self._state != OPEN:
                return 0.0
            return max(
                0.0, self.policy.reset_s - (self.clock() - self._opened_at)
            )

    def refund(self) -> None:
        """Return an admission granted by :meth:`allow` whose request
        never reached execution (e.g. it then failed queue admission) —
        otherwise a lost half-open probe slot could block all further
        probes until some other batch resolves."""
        with self._lock:
            if self._state == HALF_OPEN and self._probes_in_flight > 0:
                self._probes_in_flight -= 1

    def record_success(self) -> None:
        """A batch for this model completed (post-retry) successfully."""
        with self._lock:
            self._consecutive_failures = 0
            if self._state != CLOSED:
                self._state = CLOSED
                self._probes_in_flight = 0
                obs.counter("serve.breaker_closes").add(1)
                obs.gauge(f"serve.breaker_open.{self.name}").set(0)

    def record_failure(self) -> None:
        """A batch for this model failed after exhausting its retries."""
        with self._lock:
            self._consecutive_failures += 1
            tripped = False
            if self._state == HALF_OPEN:
                tripped = True  # the probe failed: straight back to open
            elif (
                self._state == CLOSED
                and self._consecutive_failures >= self.policy.failure_threshold
            ):
                tripped = True
            if tripped:
                self._state = OPEN
                self._opened_at = self.clock()
                self._probes_in_flight = 0
                self.trips += 1
                obs.counter("serve.breaker_trips").add(1)
                obs.gauge(f"serve.breaker_open.{self.name}").set(1)
            if self._state == CLOSED:
                obs.gauge(f"serve.breaker_open.{self.name}").set(0)

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "trips": self.trips,
                "retry_after_s": (
                    max(
                        0.0,
                        self.policy.reset_s
                        - (self.clock() - self._opened_at),
                    )
                    if self._state == OPEN
                    else 0.0
                ),
            }
