"""Request-scoped trace contexts that survive process hops.

A :class:`TraceContext` is the identity one request carries across the
serving stack: a **trace id** naming the request end to end, and a
**span id** naming the hop that produced the context (the parent of
whatever spans are recorded under it). The context travels:

* between threads/processes explicitly — the HTTP client puts it in the
  ``X-Repro-Trace`` header (:data:`TRACE_HEADER`), the frontend parses
  it back, the dispatcher stores it on the pending request, and the
  process-pool pipe protocol ships it to the worker;
* within a thread implicitly — :func:`scope` installs the context on
  the :class:`~repro.obs.core.Registry`'s thread-local state, and every
  :func:`repro.obs.span` closed under it is stamped with ``trace_id`` /
  ``parent_span_id`` attrs.

Ids are derived through :func:`repro.utils.seeding.derive_seed` (BLAKE2b
over a label path), not OS entropy: with :func:`set_trace_root` pinned,
a test's trace ids are bit-reproducible. Each process draws from its
own root, derived from its PID at import and again in every forked
child, so replicas and pool workers forked from one template never
mint the same id sequence.

:func:`collect_trace` / :func:`recent_traces` are the query side — the
serve frontend's ``/tracez`` endpoint and the per-request Chrome-trace
merger (:func:`repro.obs.export.write_request_trace`) are thin wrappers
over them.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs.core import get_registry
from repro.utils.seeding import derive_seed

__all__ = [
    "TRACE_HEADER",
    "TraceContext",
    "collect_trace",
    "current",
    "new_trace",
    "recent_traces",
    "scope",
    "set_trace_root",
]

#: HTTP header carrying ``<trace_id>-<span_id>`` between client and
#: frontend (and echoed back on the response).
TRACE_HEADER = "X-Repro-Trace"

#: Spans scanned (from the newest backward) when grouping traces; keeps
#: ``/tracez`` latency bounded on a long-lived registry near MAX_SPANS.
MAX_TRACE_SCAN = 20_000


@dataclass(frozen=True)
class TraceContext:
    """One request's trace identity at one hop."""

    trace_id: str  # 16 hex chars, constant across every hop
    span_id: str  # 16 hex chars, the hop that owns this context
    parent_span_id: str | None = None  # the previous hop's span_id

    def child(self) -> "TraceContext":
        """Context for the next hop: same trace, fresh span id."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=_ALLOCATOR.next_hex("span"),
            parent_span_id=self.span_id,
        )

    def to_header(self) -> str:
        return f"{self.trace_id}-{self.span_id}"

    @classmethod
    def from_header(cls, value: str | None) -> "TraceContext | None":
        """Parse a ``X-Repro-Trace`` value; ``None`` on absent/malformed
        input (a bad header degrades to an untraced request, never a
        request failure)."""
        if not value:
            return None
        parts = value.strip().split("-")
        if len(parts) != 2:
            return None
        trace_id, span_id = parts
        if not (_is_hex_id(trace_id) and _is_hex_id(span_id)):
            return None
        return cls(trace_id=trace_id, span_id=span_id)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceContext":
        return cls(
            trace_id=payload["trace_id"],
            span_id=payload["span_id"],
            parent_span_id=payload.get("parent_span_id"),
        )


def _is_hex_id(value: str) -> bool:
    if not value or len(value) > 32:
        return False
    try:
        int(value, 16)
    except ValueError:
        return False
    return True


class _IdAllocator:
    """Deterministic id source: BLAKE2b(root, label, counter) as hex."""

    def __init__(self, root: int):
        self._root = root
        self._counter = 0
        self._lock = threading.Lock()  # guards: _root, _counter

    def reseed(self, root: int) -> None:
        with self._lock:
            self._root = int(root)
            self._counter = 0

    def next_hex(self, label: str) -> str:
        with self._lock:
            self._counter += 1
            n = self._counter
            root = self._root
        return f"{derive_seed(root, 'obs.trace', label, n):016x}"


def _seed_from_pid() -> None:
    """Give this process its own id root, derived from its PID.

    Runs at import and in every forked child: a forked child (a
    forkserver's replica or pool worker) would otherwise inherit its
    template's root and counter and mint the template's ids. A fresh
    allocator also replaces a lock another thread may have held at the
    fork.
    """
    global _ALLOCATOR
    _ALLOCATOR = _IdAllocator(derive_seed(0, "obs.trace.pid", os.getpid()))


_seed_from_pid()
if hasattr(os, "register_at_fork"):  # Unix; spawned children re-import
    os.register_at_fork(after_in_child=_seed_from_pid)


def set_trace_root(root: int) -> None:
    """Pin the id-derivation root (and restart its counter) — tests use
    this to make trace/span ids bit-reproducible."""
    _ALLOCATOR.reseed(root)


def new_trace() -> TraceContext:
    """Start a fresh trace (new trace id + root span id)."""
    return TraceContext(
        trace_id=_ALLOCATOR.next_hex("trace"),
        span_id=_ALLOCATOR.next_hex("span"),
    )


def current() -> TraceContext | None:
    """The calling thread's active context (``None`` outside a scope)."""
    return get_registry().current_trace_context()


@contextmanager
def scope(ctx: TraceContext | None):
    """Install ``ctx`` as the thread's trace context for the block.

    Nested scopes restore the outer context on exit; ``ctx=None`` is a
    true no-op passthrough (convenient at call sites that may or may not
    have a context).
    """
    registry = get_registry()
    saved = registry.current_trace_context()
    registry.set_trace_context(ctx if ctx is not None else saved)
    try:
        yield ctx
    finally:
        registry.set_trace_context(saved)


def _span_matches(record: dict, trace_id: str) -> bool:
    attrs = record.get("attrs", {})
    if attrs.get("trace_id") == trace_id:
        return True
    # Batch-level spans serve several requests at once; they carry every
    # member's trace id in a list attr instead of a single trace_id.
    return trace_id in attrs.get("trace_ids", ())


def collect_trace(trace_id: str) -> list[dict]:
    """Every recorded span belonging to ``trace_id`` (as dicts, in
    record order, frontend and ingested worker spans alike)."""
    snap_spans = [
        s.to_dict()
        for s in get_registry().spans[-MAX_TRACE_SCAN:]
    ]
    return [r for r in snap_spans if _span_matches(r, trace_id)]


def recent_traces(limit: int = 10) -> list[dict]:
    """The newest ``limit`` traces, each with its member spans.

    Returns ``[{"trace_id", "span_count", "wall_s", "spans"}, ...]``,
    most recent first. Only the last :data:`MAX_TRACE_SCAN` spans are
    scanned, so a trace older than the retention window may come back
    partial — acceptable for a live debug endpoint.
    """
    recent = [s.to_dict() for s in get_registry().spans[-MAX_TRACE_SCAN:]]
    grouped: dict[str, list[dict]] = {}
    order: list[str] = []  # by last-seen span, oldest trace first
    for record in recent:
        attrs = record.get("attrs", {})
        ids = []
        if "trace_id" in attrs:
            ids.append(attrs["trace_id"])
        ids.extend(attrs.get("trace_ids", ()))
        for trace_id in ids:
            if trace_id in grouped:
                order.remove(trace_id)
            else:
                grouped[trace_id] = []
            order.append(trace_id)
            if record not in grouped[trace_id]:
                grouped[trace_id].append(record)
    traces = []
    for trace_id in reversed(order[-limit:] if limit else order):
        spans = grouped[trace_id]
        traces.append(
            {
                "trace_id": trace_id,
                "span_count": len(spans),
                "wall_s": sum(
                    s["wall_s"] for s in spans if s["depth"] == 0
                ),
                "spans": spans,
            }
        )
    return traces
