"""Telemetry primitives: spans, counters, gauges, per-layer profiles.

One module-level :class:`Registry` collects everything the simulators,
kernels, training loop, and performance model emit:

* **Spans** — nestable context-manager timers recording wall *and*
  per-thread CPU time. Nesting is tracked per thread (a span opened in a
  worker thread roots its own stack), so traces from ``parallel_map``
  shards interleave without corrupting the caller's stack.
* **Counters** — monotonic totals (bit-ops executed, popcount words,
  cache hits, pool tasks). Counter objects are live even when telemetry
  is disabled: they are plain lock-protected adds, and the backward
  compatible :func:`repro.scnn.sim.table_cache_stats` is built on them.
  Instrumentation *sites* on hot paths still gate their updates on
  :func:`enabled` so the disabled mode stays an overhead-free path.
* **Gauges** — last-value-wins measurements with a running max
  (pool utilization, shard imbalance, resident cache bytes).
* **Profiles** — free-form per-layer/per-epoch record dicts (shape,
  mode, stream length, bytes touched, timings) appended by the
  simulators; dropped entirely in disabled mode.

Disabled-mode contract (``REPRO_OBS=0`` in the environment, or
:func:`set_enabled` / :func:`enabled_scope`): :func:`span` returns a
shared module-level no-op span, :func:`add_profile` discards its record,
and instrumented call sites skip their counter arithmetic — the hot path
runs the same ufunc sequence it would without telemetry.
"""

from __future__ import annotations

import math
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "RollingWindow",
    "SpanRecord",
    "add_profile",
    "counter",
    "enabled",
    "enabled_scope",
    "gauge",
    "get_registry",
    "histogram",
    "reset",
    "rolling",
    "set_enabled",
    "span",
]

#: Environment switch: ``REPRO_OBS=0`` starts the process disabled.
ENV_FLAG = "REPRO_OBS"

#: Completed-span retention cap; overflow increments ``dropped_spans``
#: instead of growing without bound during long training runs.
MAX_SPANS = 200_000

#: Profile-record retention cap (same rationale).
MAX_PROFILES = 50_000


def _env_enabled() -> bool:
    return os.environ.get(ENV_FLAG, "1").strip().lower() not in (
        "0", "false", "off", "no",
    )


class Counter:
    """Monotonic telemetry total (int or float amounts)."""

    __slots__ = ("name", "unit", "_value", "_lock")

    def __init__(self, name: str, unit: str = "count"):
        self.name = name
        self.unit = unit
        self._value = 0
        self._lock = threading.Lock()  # guards: _value

    def add(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value} {self.unit})"


class Gauge:
    """Last-value-wins measurement with a running maximum."""

    __slots__ = ("name", "unit", "_value", "_max", "_lock")

    def __init__(self, name: str, unit: str = "value"):
        self.name = name
        self.unit = unit
        self._value = 0.0
        self._max = 0.0
        self._lock = threading.Lock()  # guards: _value, _max

    def set(self, value: int | float) -> None:
        with self._lock:
            self._value = value
            if value > self._max:
                self._max = value

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value

    @property
    def max(self) -> int | float:
        with self._lock:
            return self._max

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0
            self._max = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value} {self.unit})"


#: Default histogram bucket upper bounds (last bucket is +inf). Powers of
#: two suit the two quantities the serving layer measures — batch sizes
#: and queue depths — without configuration.
DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class Histogram:
    """Fixed-bucket distribution: counts per bucket plus sum/count/min/max.

    Buckets are defined by ascending upper bounds; a value lands in the
    first bucket whose bound is ``>= value``, with one implicit overflow
    bucket at the end. Like counters, histograms are live even when
    telemetry is disabled (plain lock-protected arithmetic); hot call
    sites should gate on :func:`enabled` themselves if they care.
    """

    __slots__ = ("name", "unit", "bounds", "_counts", "_sum", "_count",
                 "_min", "_max", "_lock")

    def __init__(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
        unit: str = "count",
    ):
        self.name = name
        self.unit = unit
        self.bounds = tuple(sorted(bounds))
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._min = None
        self._max = None
        self._lock = threading.Lock()  # guards: _counts, _sum, _count, _min, _max

    def observe(self, value: int | float) -> None:
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float | None:
        """Estimated ``q``-th percentile (0..100) from the bucket counts.

        Linear interpolation inside the bucket holding the target rank,
        using the observed min/max as the outermost edges; ``None`` on an
        empty histogram. The estimate's resolution is the bucket width —
        good enough for dashboards and benchmark gates, which compare
        against thresholds far wider than a bucket.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            if self._count == 0:
                return None
            target = (q / 100.0) * self._count
            cumulative = 0
            lower = float(self._min)
            for index, count in enumerate(self._counts):
                upper = (
                    float(self.bounds[index])
                    if index < len(self.bounds)
                    else float(self._max)
                )
                if count:
                    if cumulative + count >= target:
                        fraction = (target - cumulative) / count
                        low = max(lower, float(self._min))
                        high = min(max(upper, low), float(self._max))
                        return low + fraction * (high - low)
                    cumulative += count
                lower = upper
            return float(self._max)  # pragma: no cover - rounding fallback

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._count = 0
            self._min = None
            self._max = None

    def to_dict(self) -> dict:
        with self._lock:
            payload = {
                "unit": self.unit,
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
                "min": self._min,
                "max": self._max,
                "mean": self._sum / self._count if self._count else 0.0,
            }
        # Estimated percentiles ride along for dashboards / benchmark
        # gates (computed outside the lock: percentile() re-acquires it).
        payload["p50"] = self.percentile(50)
        payload["p95"] = self.percentile(95)
        payload["p99"] = self.percentile(99)
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}: n={self.count})"


#: Sample cap per rolling window; oldest samples fall off first so one
#: hot metric cannot hold an unbounded deque.
MAX_ROLLING_SAMPLES = 4096

#: Default sliding-window width for rolling aggregates (seconds).
DEFAULT_ROLLING_WINDOW_S = 60.0


class RollingWindow:
    """Sliding-time quantile aggregate: p50/p95/p99 over the last N seconds.

    Cumulative histograms answer "since the process started"; live
    dashboards and SLO math need "over the last minute". Samples are
    ``(timestamp, value)`` pairs in a deque; anything older than
    ``window_s`` (or beyond :data:`MAX_ROLLING_SAMPLES`) is pruned on
    every observe/snapshot. Quantiles are exact nearest-rank over the
    surviving samples. The clock is injectable so window expiry is
    testable without sleeps.
    """

    __slots__ = ("name", "unit", "window_s", "maxlen", "clock",
                 "_samples", "_lock")

    def __init__(
        self,
        name: str,
        window_s: float = DEFAULT_ROLLING_WINDOW_S,
        unit: str = "value",
        maxlen: int = MAX_ROLLING_SAMPLES,
        clock=time.monotonic,
    ):
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        self.name = name
        self.unit = unit
        self.window_s = float(window_s)
        self.maxlen = int(maxlen)
        self.clock = clock
        self._samples: list[tuple[float, float]] = []
        self._lock = threading.Lock()  # guards: _samples

    def _prune_locked(self, now: float) -> None:
        horizon = now - self.window_s
        samples = self._samples
        drop = 0
        for t, _ in samples:
            if t >= horizon:
                break
            drop += 1
        overflow = len(samples) - drop - self.maxlen
        if overflow > 0:
            drop += overflow
        if drop:
            del samples[:drop]

    def observe(self, value: int | float, now: float | None = None) -> None:
        if now is None:
            now = self.clock()
        with self._lock:
            self._samples.append((now, float(value)))
            self._prune_locked(now)

    @staticmethod
    def _quantile(ordered: list[float], q: float) -> float:
        rank = max(0, min(len(ordered) - 1,
                          math.ceil(q / 100.0 * len(ordered)) - 1))
        return ordered[rank]

    def snapshot(self, now: float | None = None) -> dict:
        """Windowed aggregates as plain data (count/mean/p50/p95/p99)."""
        if now is None:
            now = self.clock()
        with self._lock:
            self._prune_locked(now)
            values = [v for _, v in self._samples]
        payload: dict = {
            "unit": self.unit,
            "window_s": self.window_s,
            "count": len(values),
        }
        if not values:
            payload.update(
                {"mean": None, "min": None, "max": None,
                 "p50": None, "p95": None, "p99": None}
            )
            return payload
        values.sort()
        payload.update(
            {
                "mean": sum(values) / len(values),
                "min": values[0],
                "max": values[-1],
                "p50": self._quantile(values, 50),
                "p95": self._quantile(values, 95),
                "p99": self._quantile(values, 99),
            }
        )
        return payload

    def reset(self) -> None:
        with self._lock:
            self._samples.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RollingWindow({self.name}: window={self.window_s}s)"


@dataclass
class SpanRecord:
    """One completed span."""

    name: str
    path: str  # "/"-joined chain of enclosing span names (this one last)
    start_s: float  # seconds since the registry epoch
    wall_s: float
    cpu_s: float  # per-thread CPU time (time.thread_time)
    depth: int
    thread: str
    attrs: dict = field(default_factory=dict)
    error: str | None = None
    process: str = ""  # "" = this process; workers label their spans

    def to_dict(self) -> dict:
        record = {
            "name": self.name,
            "path": self.path,
            "start_s": self.start_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "depth": self.depth,
            "thread": self.thread,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        if self.error is not None:
            record["error"] = self.error
        if self.process:
            record["process"] = self.process
        return record


class _NoopSpan:
    """Shared do-nothing span returned while telemetry is disabled."""

    __slots__ = ()
    wall_s = 0.0
    cpu_s = 0.0

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class _Span:
    """Active span: context manager pushing onto the thread's stack."""

    __slots__ = ("_registry", "name", "attrs", "_t0", "_c0", "path",
                 "depth", "wall_s", "cpu_s")

    def __init__(self, registry: "Registry", name: str, attrs: dict):
        self._registry = registry
        self.name = name
        self.attrs = attrs
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def __enter__(self) -> "_Span":
        stack = self._registry._stack()
        parent_path = stack[-1].path if stack else ""
        self.path = f"{parent_path}/{self.name}" if parent_path else self.name
        self.depth = len(stack)
        stack.append(self)
        self._t0 = time.perf_counter()
        self._c0 = time.thread_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = time.thread_time() - self._c0
        stack = self._registry._stack()
        # Exception-safe unwind: remove *this* span even if an inner
        # span leaked (e.g. a generator abandoned mid-iteration).
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # pragma: no cover - defensive unwind
            stack.remove(self)
        # Request-scoped tracing (repro.obs.trace): with a context
        # active on this thread, the span joins that trace — attrs carry
        # the trace id plus the propagated parent span id, which the
        # cross-process merger uses as its join key.
        attrs = self.attrs
        ctx = self._registry.current_trace_context()
        if ctx is not None:
            attrs = {
                **attrs,
                "trace_id": ctx.trace_id,
                "parent_span_id": ctx.span_id,
            }
        self._registry._record_span(
            SpanRecord(
                name=self.name,
                path=self.path,
                start_s=self._t0 - self._registry.epoch_perf,
                wall_s=self.wall_s,
                cpu_s=self.cpu_s,
                depth=self.depth,
                thread=threading.current_thread().name,
                attrs=attrs,
                error=None if exc_type is None else exc_type.__name__,
            )
        )
        return False


class Registry:
    """Process-wide telemetry store (one module-level instance)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()  # guards: spans, profiles, dropped_spans, dropped_profiles, _counters, _gauges, _histograms, _rollings
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._rollings: dict[str, RollingWindow] = {}
        self.spans: list[SpanRecord] = []
        self.profiles: list[dict] = []
        self.dropped_spans = 0
        self.dropped_profiles = 0
        self._local = threading.local()
        self.epoch_perf = time.perf_counter()
        self.epoch_wall = time.time()

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **attrs):
        """Context-manager timer; no-op singleton when disabled."""
        if not self.enabled:
            return NOOP_SPAN
        return _Span(self, name, attrs)

    def _record_span(self, record: SpanRecord) -> None:
        with self._lock:
            if len(self.spans) >= MAX_SPANS:
                self.dropped_spans += 1
            else:
                self.spans.append(record)

    # -- request tracing (driven by repro.obs.trace) -------------------------

    def current_trace_context(self):
        """The thread's active trace context, or ``None``.

        The object is owned by :mod:`repro.obs.trace`; this module only
        needs its ``trace_id`` / ``span_id`` attributes when stamping
        span records, so there is no import cycle.
        """
        return getattr(self._local, "trace_ctx", None)

    def set_trace_context(self, ctx) -> None:
        """Install/clear (``None``) the thread's trace context."""
        self._local.trace_ctx = ctx

    def span_count(self) -> int:
        with self._lock:
            return len(self.spans)

    def pop_spans_since(self, start: int) -> list[dict]:
        """Remove and return (as dicts) every span recorded at index
        ``start`` onward — how a pool worker ships one request's spans
        back to the parent without growing its own registry forever."""
        with self._lock:
            taken = [s.to_dict() for s in self.spans[start:]]
            del self.spans[start:]
        return taken

    def ingest_spans(
        self,
        records: list[dict],
        process: str,
        epoch_wall: float | None = None,
    ) -> int:
        """Merge span dicts exported by *another* process's registry.

        ``epoch_wall`` is the remote registry's wall-clock epoch; remote
        ``start_s`` offsets are rebased onto this registry's epoch so
        merged spans share one timeline (same-host wall clocks, so skew
        is bounded by clock resolution, not NTP drift). Returns the
        number of spans actually ingested (the :data:`MAX_SPANS` cap
        still applies; overflow counts as dropped).
        """
        shift = 0.0 if epoch_wall is None else epoch_wall - self.epoch_wall
        ingested = 0
        with self._lock:
            for record in records:
                if len(self.spans) >= MAX_SPANS:
                    self.dropped_spans += len(records) - ingested
                    break
                self.spans.append(
                    SpanRecord(
                        name=record["name"],
                        path=record["path"],
                        start_s=record["start_s"] + shift,
                        wall_s=record["wall_s"],
                        cpu_s=record["cpu_s"],
                        depth=record["depth"],
                        thread=record["thread"],
                        attrs=dict(record.get("attrs", {})),
                        error=record.get("error"),
                        process=process,
                    )
                )
                ingested += 1
        return ingested

    # -- counters / gauges ---------------------------------------------------

    def counter(self, name: str, unit: str = "count") -> Counter:
        """Get-or-create a live counter (live even when disabled)."""
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter(name, unit)
            return c

    def gauge(self, name: str, unit: str = "value") -> Gauge:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                g = self._gauges[name] = Gauge(name, unit)
            return g

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
        unit: str = "count",
    ) -> Histogram:
        """Get-or-create a live histogram (live even when disabled)."""
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram(name, bounds, unit)
            return h

    def histograms(self) -> dict[str, dict]:
        with self._lock:
            items = list(self._histograms.items())
        return {name: h.to_dict() for name, h in items}

    def rolling(
        self,
        name: str,
        window_s: float = DEFAULT_ROLLING_WINDOW_S,
        unit: str = "value",
    ) -> RollingWindow:
        """Get-or-create a live rolling window (live even when disabled)."""
        with self._lock:
            r = self._rollings.get(name)
            if r is None:
                r = self._rollings[name] = RollingWindow(
                    name, window_s=window_s, unit=unit
                )
            return r

    def rollings(self) -> dict[str, dict]:
        with self._lock:
            items = list(self._rollings.items())
        return {name: r.snapshot() for name, r in items}

    def counters(self) -> dict[str, int | float]:
        """Plain ``name -> value`` snapshot of every counter."""
        with self._lock:
            return {name: c.value for name, c in self._counters.items()}

    def gauges(self) -> dict[str, dict]:
        with self._lock:
            return {
                name: {"value": g.value, "max": g.max, "unit": g.unit}
                for name, g in self._gauges.items()
            }

    # -- profiles ------------------------------------------------------------

    def add_profile(self, record: dict) -> None:
        """Append a per-layer/per-epoch profile dict (dropped when
        disabled — the disabled-mode contract is 'profile absent')."""
        if not self.enabled:
            return
        with self._lock:
            if len(self.profiles) >= MAX_PROFILES:
                self.dropped_profiles += 1
            else:
                self.profiles.append(record)

    def profile_count(self) -> int:
        with self._lock:
            return len(self.profiles)

    def pop_profiles_since(self, start: int) -> list[dict]:
        """Remove and return every profile recorded at index ``start``
        onward (see :meth:`pop_spans_since`)."""
        with self._lock:
            taken = self.profiles[start:]
            del self.profiles[start:]
        return taken

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Clear spans/profiles and zero every counter and gauge *in
        place* (modules hold references to their counters)."""
        with self._lock:
            self.spans.clear()
            self.profiles.clear()
            self.dropped_spans = 0
            self.dropped_profiles = 0
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
            rollings = list(self._rollings.values())
        for c in counters:
            c.reset()
        for g in gauges:
            g.reset()
        for h in histograms:
            h.reset()
        for r in rollings:
            r.reset()
        self.epoch_perf = time.perf_counter()
        self.epoch_wall = time.time()

    def snapshot(self) -> dict:
        """Everything the exporters serialize, as plain data."""
        with self._lock:
            spans = [s.to_dict() for s in self.spans]
            profiles = [dict(p) for p in self.profiles]
            dropped_spans = self.dropped_spans
            dropped_profiles = self.dropped_profiles
            counters = dict(self._counters)
        return {
            "meta": {
                "enabled": self.enabled,
                "epoch_wall": self.epoch_wall,
                "dropped_spans": dropped_spans,
                "dropped_profiles": dropped_profiles,
            },
            "counters": {
                name: {"value": c.value, "unit": c.unit}
                for name, c in counters.items()
            },
            "gauges": self.gauges(),
            "histograms": self.histograms(),
            "rollings": self.rollings(),
            "spans": spans,
            "profiles": profiles,
        }


_REGISTRY = Registry(enabled=_env_enabled())


def get_registry() -> Registry:
    """The process-wide registry."""
    return _REGISTRY


def enabled() -> bool:
    """Whether spans/profiles are being recorded."""
    return _REGISTRY.enabled


def set_enabled(flag: bool) -> None:
    """Enable/disable telemetry at runtime (overrides ``REPRO_OBS``)."""
    _REGISTRY.enabled = bool(flag)


@contextmanager
def enabled_scope(flag: bool):
    """Temporarily force telemetry on/off (tests, overhead checks)."""
    saved = _REGISTRY.enabled
    _REGISTRY.enabled = bool(flag)
    try:
        yield _REGISTRY
    finally:
        _REGISTRY.enabled = saved


def span(name: str, **attrs):
    return _REGISTRY.span(name, **attrs)


def counter(name: str, unit: str = "count") -> Counter:
    return _REGISTRY.counter(name, unit)


def gauge(name: str, unit: str = "value") -> Gauge:
    return _REGISTRY.gauge(name, unit)


def histogram(
    name: str,
    bounds: tuple[float, ...] = DEFAULT_BUCKETS,
    unit: str = "count",
) -> Histogram:
    return _REGISTRY.histogram(name, bounds, unit)


def rolling(
    name: str,
    window_s: float = DEFAULT_ROLLING_WINDOW_S,
    unit: str = "value",
) -> RollingWindow:
    return _REGISTRY.rolling(name, window_s, unit)


def add_profile(record: dict) -> None:
    _REGISTRY.add_profile(record)


def reset() -> None:
    _REGISTRY.reset()
