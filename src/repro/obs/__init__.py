"""Lightweight always-on telemetry: spans, counters, gauges, profiles,
rolling windows, and request-scoped traces.

Usage::

    from repro import obs

    with obs.span("train.epoch", epoch=3):
        ...
    obs.counter("sc.kernels.bit_ops").add(n_bits)
    obs.rolling("serve.latency_ms").observe(lat_ms)   # last 60 s
    obs.add_profile({"kind": "layer_forward", ...})

    print(obs.summary_tree())
    obs.export_profile("out/run1")   # run1.jsonl + run1.trace.json
    text = obs.render_prometheus()   # GET /metrics body

Request tracing (cross-thread and cross-process)::

    from repro.obs import trace

    ctx = trace.new_trace()
    with trace.scope(ctx):
        with obs.span("serve.request"):   # stamped with ctx's trace id
            ...
    obs.write_request_trace("req.trace.json", ctx.trace_id)

See :mod:`repro.obs.core` for the primitives and :mod:`repro.obs.trace`
for trace-context propagation.
"""

from repro.obs import trace
from repro.obs.core import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    RollingWindow,
    SpanRecord,
    add_profile,
    counter,
    gauge,
    get_registry,
    histogram,
    reset,
    rolling,
    span,
)
from repro.obs.export import (
    export_profile,
    parse_prometheus,
    read_jsonl,
    render_prometheus,
    summary_tree,
    write_chrome_trace,
    write_jsonl,
    write_request_trace,
    write_spans_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "RollingWindow",
    "SpanRecord",
    "add_profile",
    "counter",
    "export_profile",
    "gauge",
    "get_registry",
    "histogram",
    "parse_prometheus",
    "read_jsonl",
    "render_prometheus",
    "reset",
    "rolling",
    "span",
    "summary_tree",
    "trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_request_trace",
    "write_spans_trace",
]
