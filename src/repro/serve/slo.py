"""SLO tracking: per-model objectives and multi-window burn rates.

An SLO here is two service-level indicators over rolling time windows:

* **latency** — the fraction of requests answered within
  :data:`LATENCY_OBJECTIVE_MS` (a request that fails also misses latency);
* **availability** — the fraction of requests answered successfully
  (failed, expired, or shed requests are unavailability).

Each SLI has an error budget ``1 - target``; the **burn rate** is how
fast the service is spending it (observed error fraction / budget — 1.0
means "exactly on budget", 14 means "paging-level incident"). Following
the standard multi-window rule, a breach requires the burn to exceed the
threshold over **both** a short and a long window: the short window makes
detection fast, the long window stops a single slow batch from paging.
Both windows are rolling per-second count buckets, so the tracker is
O(window seconds) in memory regardless of request rate, and the clock is
injectable so burn math is testable without sleeps. The objectives and
windows are module constants, the same for every model: no caller ever
set them.

The tracker is telemetry only: the dispatcher feeds every request
outcome in (:meth:`SLOTracker.record`), ``/stats`` reports each
model's snapshot, and the HTTP frontend exports :func:`slo_families`
on ``/metrics``, which ``geo-repro top`` renders. It does not drive
degradation; queue depth alone does
(:class:`~repro.serve.policy.DegradeController`).
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = [
    "SLOTracker",
    "objectives",
    "slo_families",
]

#: Objectives and burn windows of every tracked model (durations in
#: seconds).
LATENCY_OBJECTIVE_MS = 250.0  # a "good" request answers within
LATENCY_TARGET = 0.99  # fraction that must be good
AVAILABILITY_TARGET = 0.999  # fraction that must succeed
SHORT_WINDOW_S = 60.0  # fast-detection burn window
LONG_WINDOW_S = 300.0  # confirmation burn window
FAST_BURN_THRESHOLD = 14.0  # breach when BOTH windows exceed


def objectives() -> dict:
    """The objectives a snapshot reports under ``"policy"``."""
    return {
        "latency_objective_ms": LATENCY_OBJECTIVE_MS,
        "latency_target": LATENCY_TARGET,
        "availability_target": AVAILABILITY_TARGET,
        "short_window_s": SHORT_WINDOW_S,
        "long_window_s": LONG_WINDOW_S,
        "fast_burn_threshold": FAST_BURN_THRESHOLD,
    }


class _WindowedCounts:
    """Good/bad event counts in per-second buckets over a bounded span.

    Not thread-safe on its own — the owning tracker's lock covers it.
    """

    __slots__ = ("max_window_s", "_buckets")

    def __init__(self, max_window_s: float):
        self.max_window_s = max_window_s
        self._buckets: deque[list] = deque()  # [second, good, bad]

    def record(self, ok: bool, now: float) -> None:
        second = int(now)
        if self._buckets and self._buckets[-1][0] == second:
            bucket = self._buckets[-1]
        else:
            bucket = [second, 0, 0]
            self._buckets.append(bucket)
            self._prune(now)
        bucket[1 if ok else 2] += 1

    def _prune(self, now: float) -> None:
        horizon = int(now) - int(self.max_window_s) - 1
        while self._buckets and self._buckets[0][0] < horizon:
            self._buckets.popleft()

    def totals(self, window_s: float, now: float) -> tuple[int, int]:
        """``(good, bad)`` over the trailing ``window_s`` seconds."""
        horizon = int(now) - int(window_s)
        good = bad = 0
        for second, g, b in self._buckets:
            if second > horizon:
                good += g
                bad += b
        return good, bad


def _burn(good: int, bad: int, budget: float) -> float:
    total = good + bad
    if total == 0:
        return 0.0
    return (bad / total) / budget


class SLOTracker:
    """Rolling burn-rate computation for one model's SLOs."""

    def __init__(self, model: str, clock=time.monotonic):
        self.model = model
        self.clock = clock
        self._lock = threading.Lock()  # guards: _latency, _availability, _requests
        self._latency = _WindowedCounts(LONG_WINDOW_S)
        self._availability = _WindowedCounts(LONG_WINDOW_S)
        self._requests = 0

    def record(
        self, latency_ms: float, ok: bool, now: float | None = None
    ) -> None:
        """One finished request: ``ok`` = the caller got a usable answer
        (failed/expired/shed requests pass ``ok=False``; their
        ``latency_ms`` is ignored for the latency SLI)."""
        if now is None:
            now = self.clock()
        within = ok and latency_ms <= LATENCY_OBJECTIVE_MS
        with self._lock:
            self._requests += 1
            self._latency.record(within, now)
            self._availability.record(ok, now)

    def burn_rates(self, now: float | None = None) -> dict:
        """Per-SLI, per-window burn rates (1.0 = spending budget exactly
        as fast as the objective allows)."""
        if now is None:
            now = self.clock()
        out: dict = {}
        with self._lock:
            for sli, counts, budget in (
                ("latency", self._latency, 1.0 - LATENCY_TARGET),
                ("availability", self._availability, 1.0 - AVAILABILITY_TARGET),
            ):
                out[sli] = {
                    "short": _burn(*counts.totals(SHORT_WINDOW_S, now), budget),
                    "long": _burn(*counts.totals(LONG_WINDOW_S, now), budget),
                }
        return out

    def burn_rate(self, now: float | None = None) -> float:
        """The alert signal: worst SLI's **both-windows** burn.

        ``min(short, long)`` per SLI implements the multi-window AND (a
        burst only counts once the long window confirms it); ``max``
        across SLIs pages on whichever objective is in more trouble.
        """
        rates = self.burn_rates(now)
        return max(
            min(windows["short"], windows["long"])
            for windows in rates.values()
        )

    def breaching(self, now: float | None = None) -> bool:
        return self.burn_rate(now) >= FAST_BURN_THRESHOLD

    def snapshot(self, now: float | None = None) -> dict:
        if now is None:
            now = self.clock()
        rates = self.burn_rates(now)
        with self._lock:
            requests = self._requests
            short_lat = self._latency.totals(SHORT_WINDOW_S, now)
            short_avail = self._availability.totals(SHORT_WINDOW_S, now)
        return {
            "model": self.model,
            "policy": objectives(),
            "requests": requests,
            "short_window": {
                "latency_good": short_lat[0],
                "latency_bad": short_lat[1],
                "availability_good": short_avail[0],
                "availability_bad": short_avail[1],
            },
            "burn_rates": rates,
            "burn_rate": max(
                min(w["short"], w["long"]) for w in rates.values()
            ),
            "breaching": self.breaching(now),
        }


def slo_families(snapshots: list[dict]) -> dict[str, dict]:
    """Prometheus families for :meth:`SLOTracker.snapshot` payloads, in
    the ``extra_families`` shape of
    :func:`repro.obs.export.render_prometheus`."""
    burn_samples = []
    breach_samples = []
    objective_samples = []
    for snap in snapshots:
        model = snap["model"]
        for sli, windows in snap["burn_rates"].items():
            for window, value in windows.items():
                burn_samples.append(
                    ({"model": model, "sli": sli, "window": window}, value)
                )
        breach_samples.append(({"model": model}, int(snap["breaching"])))
        objective_samples.append(
            (
                {"model": model},
                snap["policy"]["latency_objective_ms"],
            )
        )
    return {
        "serve_slo_burn_rate": {
            "type": "gauge",
            "help": "error-budget burn rate (1.0 = on budget)",
            "samples": burn_samples,
        },
        "serve_slo_breaching": {
            "type": "gauge",
            "help": "1 when both burn windows exceed the fast threshold",
            "samples": breach_samples,
        },
        "serve_slo_latency_objective_ms": {
            "type": "gauge",
            "help": "latency objective per model",
            "samples": objective_samples,
        },
    }
