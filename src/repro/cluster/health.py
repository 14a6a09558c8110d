"""Replica routability: liveness, admission, draining, heartbeat age.

The router asks one question per replica: may a request go here now?
:class:`ReplicaHealth` answers it with :meth:`~ReplicaHealth.routable`,
a bit built from what the supervisor already learns:

* **Liveness** — the supervisor's process check; a dead replica also
  loses its admission.
* **Admission** — set once a (re)spawned replica reports ``ready``,
  i.e. after it warmed its whole placement set.
* **Draining** — self-reported in each heartbeat pong.
* **Heartbeat age** — a replica not heard from within
  :data:`HEARTBEAT_TIMEOUT_S` is unroutable.

Every routable replica runs the same bit-true forward, so the router
ranks a model's placement set by this bit, then by its own inflight
load, then by placement rank; each replica's degrade controller acts on
its own queue depth. Proxy outcomes feed a per-replica
:class:`~repro.serve.breaker.CircuitBreaker`, which gates each attempt
(:meth:`~ReplicaHealth.allow`) without changing the ranking.
"""

from __future__ import annotations

import threading
import time

from repro.serve.breaker import BreakerPolicy, CircuitBreaker

__all__ = ["ReplicaHealth"]

#: Supervisor heartbeat period (pipe ping → pong).
HEARTBEAT_INTERVAL_S = 0.25
#: A heartbeat at least this old makes the replica unroutable.
HEARTBEAT_TIMEOUT_S = 2.0
#: Per-replica breaker over proxy outcomes. Trips faster than the model
#: breakers (3 vs 5): a replica refusing connections is a cheaper, more
#: certain signal than a flaky model forward.
BREAKER = BreakerPolicy(failure_threshold=3, reset_s=2.0)


class ReplicaHealth:
    """Live routing state for one replica."""

    def __init__(self, replica_id: str, clock=time.monotonic):
        self.replica_id = replica_id
        self.clock = clock
        self.breaker = CircuitBreaker(
            f"replica:{replica_id}", BREAKER, clock=clock
        )
        self._lock = threading.Lock()  # guards: _alive, _admitted, _draining, _last_heartbeat, _pending
        self._alive = False
        self._admitted = False
        self._draining = False
        self._last_heartbeat: "float | None" = None
        self._pending = 0

    # -- signal feeds (supervisor + router call these) -----------------------

    def note_alive(self, alive: bool) -> None:
        """Process-level liveness from the supervisor's poll."""
        with self._lock:
            self._alive = alive
            if not alive:
                self._admitted = False

    def note_admitted(self, admitted: bool = True) -> None:
        """Replica finished (re)warming and may take traffic again."""
        with self._lock:
            self._admitted = admitted

    def note_heartbeat(self, draining: bool = False, pending: int = 0) -> None:
        """One heartbeat pong with the replica's self-reported state."""
        with self._lock:
            self._last_heartbeat = self.clock()
            self._draining = draining
            self._pending = pending

    def note_result(self, ok: bool) -> None:
        """One proxied request's outcome against this replica."""
        if ok:
            self.breaker.record_success()
        else:
            self.breaker.record_failure()

    # -- routing queries ------------------------------------------------------

    def allow(self) -> bool:
        """Breaker gate: may the router send this replica a request?"""
        return self.breaker.allow()

    def refund(self) -> None:
        """Hand back an ``allow()`` the router ended up not using (it
        picked another candidate); keeps half-open probe accounting
        exact."""
        self.breaker.refund()

    def routable(self) -> bool:
        """Alive, admitted, not draining, and heard from within
        :data:`HEARTBEAT_TIMEOUT_S`."""
        with self._lock:
            return (
                self._alive
                and self._admitted
                and not self._draining
                and self._last_heartbeat is not None
                and self.clock() - self._last_heartbeat < HEARTBEAT_TIMEOUT_S
            )

    def snapshot(self) -> dict:
        with self._lock:
            last = self._last_heartbeat
            state = {
                "alive": self._alive,
                "admitted": self._admitted,
                "draining": self._draining,
                "heartbeat_age_s": (
                    None if last is None else self.clock() - last
                ),
                "pending": self._pending,
            }
        state["routable"] = self.routable()
        state["breaker"] = self.breaker.to_dict()
        return state
