"""In-memory span recorder for the traced benchmark run.

The traced run attributes time to the repo's layers by wrapping calls
into each layer's public functions from the benchmark's own files; no
code under ``src/`` changes. A span records its name, start, duration,
self time (duration minus the part its child spans cover), parent and
attributes. Spans stay in memory and are written out when the run ends:
as a Chrome trace (``chrome://tracing`` / Perfetto) and as the per-layer
means the result line reports.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path


class Tracer:
    """Thread-aware span stack plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()  # guards: spans
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        #: Seconds of tracer bookkeeping not covered by any span
        #: (attribute probes); counted into the overhead estimate.
        self.probe_s = 0.0
        #: perf_counter -> wall-clock offset, for merging processes.
        self.wall_offset = time.time() - time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs) -> "_Span":
        return _Span(self, name, attrs)

    def record(self, name: str, start: float, duration: float, **attrs) -> None:
        """Add a span timed elsewhere (e.g. a client request)."""
        with self._lock:
            self.spans.append(
                {
                    "id": len(self.spans),
                    "name": name,
                    "start": start,
                    "dur": duration,
                    "self": duration,
                    "parent": None,
                    "tid": threading.get_ident(),
                    "attrs": attrs,
                }
            )

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, attrs_fn=None) -> None:
        """Replace ``owner.attr`` by a timing wrapper until uninstall().

        ``attrs_fn(*args, **kwargs)`` may return span attributes; it runs
        before the timed call.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            attrs = attrs_fn(*args, **kwargs) if attrs_fn is not None else {}
            with _Span(self, name, attrs):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def closed(self) -> list[dict]:
        """Every finished span (a span still open has no duration)."""
        with self._lock:
            return [s for s in self.spans if "dur" in s]

    def by_name(self, name: str) -> list[dict]:
        return [s for s in self.closed() if s["name"] == name]

    def export(self, process: str) -> dict:
        """Plain-data dump (shipped across processes as JSON)."""
        return {
            "process": process,
            "pid": os.getpid(),
            "wall_offset": self.wall_offset,
            "spans": self.closed(),
            "probe_s": self.probe_s,
        }


class _Span:
    """One timed region; a child adds its duration to the parent's
    covered time so self time falls out when the parent closes."""

    __slots__ = ("tracer", "record", "parent", "start", "covered")

    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer = tracer
        self.record = {"name": name, "attrs": attrs}

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        stack = tracer._stack()
        self.parent = stack[-1] if stack else None
        self.record["parent"] = (
            self.parent.record["id"] if self.parent is not None else None
        )
        self.record["tid"] = threading.get_ident()
        with tracer._lock:
            self.record["id"] = len(tracer.spans)
            tracer.spans.append(self.record)
        stack.append(self)
        self.covered = 0.0
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        duration = time.perf_counter() - self.start
        self.tracer._stack().pop()
        if self.parent is not None:
            self.parent.covered += duration
        self.record["start"] = self.start
        self.record["dur"] = duration
        self.record["self"] = duration - self.covered
        return False


def span_cost_s(samples: int = 2000) -> float:
    """Measured cost of one wrapped call's bookkeeping on this host."""
    tracer = Tracer()

    def nothing():
        return None

    holder = type("Holder", (), {"fn": staticmethod(nothing)})
    start = time.perf_counter()
    for _ in range(samples):
        holder.fn()
    bare = time.perf_counter() - start
    tracer.wrap(holder, "fn", "calibrate")
    start = time.perf_counter()
    for _ in range(samples):
        holder.fn()
    wrapped = time.perf_counter() - start
    tracer.uninstall()
    return max(0.0, (wrapped - bare) / samples)


def write_chrome_trace(path: Path, dumps: list[dict]) -> Path:
    """One Chrome trace with a process row per dump (see Tracer.export)."""
    events = []
    origin = min(
        (d["wall_offset"] + s["start"] for d in dumps for s in d["spans"]),
        default=0.0,
    )
    for index, dump in enumerate(dumps):
        pid = dump.get("pid", index)
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": dump["process"]},
            }
        )
        for span in dump["spans"]:
            events.append(
                {
                    "name": span["name"],
                    "ph": "X",
                    "pid": pid,
                    "tid": span["tid"],
                    "ts": (dump["wall_offset"] + span["start"] - origin) * 1e6,
                    "dur": span["dur"] * 1e6,
                    "args": span["attrs"],
                }
            )
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return path
