"""Telemetry exporters: JSONL, Chrome trace, Prometheus text, summary.

Views of one :class:`~repro.obs.core.Registry` snapshot:

* :func:`write_jsonl` — one self-describing JSON object per line
  (``meta`` / ``counter`` / ``gauge`` / ``span`` / ``profile``), the
  machine-readable artifact CI uploads and sweeps post-process.
* :func:`write_chrome_trace` — a ``chrome://tracing`` / Perfetto
  compatible trace (``X`` complete events per span, ``C`` counter
  events at the end). Spans ingested from worker processes
  (:meth:`Registry.ingest_spans`) land on their own ``pid`` rows, so a
  cross-process request reads as one timeline.
* :func:`write_request_trace` — the per-request merger: only the spans
  belonging to one trace id (frontend + batcher + worker), one file.
* :func:`render_prometheus` — the registry in Prometheus text
  exposition format (v0.0.4): counters as ``_total``, gauges, bucketed
  histograms, rolling windows as summaries with ``quantile`` labels.
  :func:`parse_prometheus` is the matching reader the ``geo-repro top``
  dashboard and the CI smoke gate are built on.
* :func:`summary_tree` — a plain-text aggregation of spans by nesting
  path with call counts and wall/CPU totals, followed by the counters
  and gauges; what ``--profile`` runs print to the terminal.

:func:`export_profile` bundles the JSONL + Chrome formats under one base
path (``<base>.jsonl`` + ``<base>.trace.json``) — the ``--profile PATH``
flags of the experiments CLI and the benchmarks call it.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.obs.core import get_registry

__all__ = [
    "export_profile",
    "parse_prometheus",
    "read_jsonl",
    "render_prometheus",
    "summary_tree",
    "write_chrome_trace",
    "write_jsonl",
    "write_request_trace",
    "write_spans_trace",
]


def write_jsonl(path: str | Path) -> Path:
    """Write the registry snapshot as JSON-lines; returns the path."""
    snap = get_registry().snapshot()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(json.dumps({"type": "meta", **snap["meta"]}) + "\n")
        for name, c in sorted(snap["counters"].items()):
            fh.write(
                json.dumps({"type": "counter", "name": name, **c}) + "\n"
            )
        for name, g in sorted(snap["gauges"].items()):
            fh.write(json.dumps({"type": "gauge", "name": name, **g}) + "\n")
        for name, h in sorted(snap.get("histograms", {}).items()):
            fh.write(
                json.dumps({"type": "histogram", "name": name, **h}) + "\n"
            )
        for name, r in sorted(snap.get("rollings", {}).items()):
            fh.write(
                json.dumps({"type": "rolling", "name": name, **r}) + "\n"
            )
        for record in snap["spans"]:
            fh.write(json.dumps({"type": "span", **record}) + "\n")
        for record in snap["profiles"]:
            fh.write(json.dumps({"type": "profile", **record}) + "\n")
    return path


def read_jsonl(path: str | Path) -> dict[str, list[dict]]:
    """Parse a :func:`write_jsonl` file back into records-by-type."""
    grouped: dict[str, list[dict]] = {
        "meta": [], "counter": [], "gauge": [], "histogram": [],
        "rolling": [], "span": [], "profile": [],
    }
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            grouped.setdefault(record.pop("type"), []).append(record)
    return grouped


def _span_events(spans: list[dict]) -> tuple[list[dict], float]:
    """Chrome events for span dicts: one ``pid`` per source process
    (``""`` = this one), one ``tid`` per thread within it, plus the
    naming metadata events. Returns ``(events, end_ts_us)``."""
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    events: list[dict] = []
    end_ts = 0.0
    for record in spans:
        process = record.get("process", "")
        pid = pids.setdefault(process, len(pids))
        tid = tids.setdefault((process, record["thread"]), len(tids))
        ts = record["start_s"] * 1e6
        dur = record["wall_s"] * 1e6
        end_ts = max(end_ts, ts + dur)
        event = {
            "name": record["name"],
            "cat": "span",
            "ph": "X",
            "ts": ts,
            "dur": dur,
            "pid": pid,
            "tid": tid,
            "args": {
                **record.get("attrs", {}),
                "cpu_s": record["cpu_s"],
                "path": record["path"],
            },
        }
        if record.get("error"):
            event["args"]["error"] = record["error"]
        events.append(event)
    for process, pid in pids.items():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": process or "main"},
            }
        )
    for (process, thread), tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pids[process],
                "tid": tid,
                "args": {"name": thread},
            }
        )
    return events, end_ts


def write_chrome_trace(path: str | Path) -> Path:
    """Write a ``chrome://tracing``-loadable trace; returns the path.

    Spans become ``ph: "X"`` complete events (microsecond timestamps
    relative to the registry epoch, one ``pid`` row per source process
    and one ``tid`` per thread); counters land as a single ``ph: "C"``
    sample at the trace end so the totals are visible on the timeline.
    """
    snap = get_registry().snapshot()
    events, end_ts = _span_events(snap["spans"])
    for name, c in sorted(snap["counters"].items()):
        events.append(
            {
                "name": name,
                "cat": "counter",
                "ph": "C",
                "ts": end_ts,
                "pid": 0,
                "args": {name.rsplit(".", 1)[-1]: c["value"]},
            }
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
    )
    return path


def write_spans_trace(
    path: str | Path,
    spans: list[dict],
    metadata: dict | None = None,
) -> Path:
    """Chrome trace from an explicit span list (one ``pid`` row per
    source process). The escape hatch for mergers that assemble spans
    from several registries/processes themselves — the cluster router's
    ``/tracez`` merge renders through this."""
    events, _ = _span_events(spans)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload: dict = {"traceEvents": events, "displayTimeUnit": "ms"}
    if metadata:
        payload["metadata"] = metadata
    path.write_text(json.dumps(payload))
    return path


def write_request_trace(path: str | Path, trace_id: str) -> Path:
    """Merged Chrome trace for **one request**: only the spans stamped
    with ``trace_id`` — the frontend's request span, the dispatcher's
    batch spans that included it, and the worker-process spans ingested
    over the pipe — on per-process ``pid`` rows sharing one timeline."""
    from repro.obs.trace import collect_trace

    spans = collect_trace(trace_id)
    return write_spans_trace(path, spans, metadata={"trace_id": trace_id})


def export_profile(base: str | Path) -> tuple[Path, Path]:
    """Write ``<base>.jsonl`` + ``<base>.trace.json`` for one run."""
    base = Path(base)
    if base.suffix in (".jsonl", ".json"):
        base = base.with_suffix("")
    jsonl = write_jsonl(base.with_suffix(".jsonl"))
    trace = write_chrome_trace(base.with_suffix(".trace.json"))
    return jsonl, trace


# -- Prometheus text exposition (v0.0.4) --------------------------------------

#: Characters legal in a Prometheus metric name.
_METRIC_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: One exposition sample line: name, optional {labels}, value.
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$"
)

_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def metric_name(name: str) -> str:
    """Registry name → Prometheus family name (dots become underscores)."""
    return _METRIC_NAME_RE.sub("_", name)


def _escape_label(value) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


_LABEL_ESCAPE_RE = re.compile(r"\\(.)")


def _unescape_label(value: str) -> str:
    # Left-to-right so an escaped backslash never re-combines with the
    # following character (e.g. "\\n" is backslash + n, not a newline).
    return _LABEL_ESCAPE_RE.sub(
        lambda m: "\n" if m.group(1) == "n" else m.group(1), value
    )


def _labels_text(labels: dict[str, str] | None) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{_escape_label(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def _number(value) -> str:
    if value is None:
        return "NaN"
    return repr(float(value))


def render_prometheus(extra_families: dict[str, dict] | None = None) -> str:
    """The registry as Prometheus text exposition (the ``/metrics`` body).

    Counters render as ``<name>_total``, gauges as-is (plus a
    ``<name>_max`` gauge family for the running maximum), histograms in
    the native bucketed form (cumulative ``_bucket{le=...}`` + ``_sum``
    + ``_count``, with estimated p50/p95/p99 as companion gauges), and
    rolling windows as ``<name>_window`` summaries (``quantile`` labels
    over the sliding window). Registry retention overflow is exported as
    ``obs_dropped_spans_total`` / ``obs_dropped_profiles_total`` so span
    loss is visible to scrapers instead of silent. Only the metric
    objects and the retention counts are read, never the span log, so a
    scrape costs the same at any number of retained spans.

    ``extra_families`` appends caller-computed families (the serve
    frontend uses this for SLO burn rates):
    ``{family: {"type": "gauge", "help": str, "samples":
    [(labels_dict_or_None, value), ...]}}``.
    """
    registry = get_registry()
    snap = registry.metric_families()
    retention = registry.retention()
    lines: list[str] = []

    def family(name: str, kind: str, help_text: str | None = None) -> None:
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    for name, c in sorted(snap["counters"].items()):
        fam = metric_name(name) + "_total"
        family(fam, "counter", f"repro counter ({c['unit']})")
        lines.append(f"{fam} {_number(c['value'])}")
    for name, g in sorted(snap["gauges"].items()):
        fam = metric_name(name)
        family(fam, "gauge", f"repro gauge ({g['unit']})")
        lines.append(f"{fam} {_number(g['value'])}")
        family(fam + "_max", "gauge")
        lines.append(f"{fam}_max {_number(g['max'])}")
    for name, h in sorted(snap.get("histograms", {}).items()):
        fam = metric_name(name)
        family(fam, "histogram", f"repro histogram ({h['unit']})")
        cumulative = 0
        for bound, count in zip(h["bounds"], h["counts"]):
            cumulative += count
            lines.append(
                f'{fam}_bucket{{le="{float(bound)}"}} {cumulative}'
            )
        lines.append(f'{fam}_bucket{{le="+Inf"}} {h["count"]}')
        lines.append(f"{fam}_sum {_number(h['sum'])}")
        lines.append(f"{fam}_count {h['count']}")
        for q in ("p50", "p95", "p99"):
            if h.get(q) is not None:
                family(f"{fam}_{q}", "gauge")
                lines.append(f"{fam}_{q} {_number(h[q])}")
    for name, r in sorted(snap.get("rollings", {}).items()):
        fam = metric_name(name) + "_window"
        family(
            fam, "summary",
            f"sliding {r['window_s']:g}s window ({r['unit']})",
        )
        for q, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            if r.get(key) is not None:
                lines.append(f'{fam}{{quantile="{q}"}} {_number(r[key])}')
        mean = r.get("mean") or 0.0
        lines.append(f"{fam}_sum {_number(mean * r['count'])}")
        lines.append(f"{fam}_count {r['count']}")
    family(
        "obs_dropped_spans_total", "counter",
        "spans discarded after the retention cap",
    )
    lines.append(f"obs_dropped_spans_total {retention['dropped_spans']}")
    family(
        "obs_dropped_profiles_total", "counter",
        "profile records discarded after the retention cap",
    )
    lines.append(
        f"obs_dropped_profiles_total {retention['dropped_profiles']}"
    )
    family("obs_spans", "gauge", "span records currently retained")
    lines.append(f"obs_spans {retention['spans']}")
    for fam, spec in sorted((extra_families or {}).items()):
        family(fam, spec.get("type", "gauge"), spec.get("help"))
        for labels, value in spec.get("samples", ()):
            lines.append(f"{fam}{_labels_text(labels)} {_number(value)}")
    return "\n".join(lines) + "\n"


def parse_prometheus(
    text: str,
) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Parse text exposition back into ``{family: [(labels, value)]}``.

    Strict enough to act as the CI smoke gate: a line that is neither a
    comment nor a well-formed sample raises ``ValueError``.
    """
    families: dict[str, list[tuple[dict[str, str], float]]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(
                f"line {lineno} is not valid Prometheus exposition: "
                f"{line!r}"
            )
        name, labels_body, value_text = match.groups()
        labels = (
            {
                key: _unescape_label(raw)
                for key, raw in _LABEL_RE.findall(labels_body)
            }
            if labels_body
            else {}
        )
        try:
            value = float(value_text)
        except ValueError:
            if value_text not in ("NaN", "+Inf", "-Inf"):
                raise ValueError(
                    f"line {lineno}: bad sample value {value_text!r}"
                ) from None
            value = float(value_text.replace("Inf", "inf"))
        families.setdefault(name, []).append((labels, value))
    return families


def _format_amount(value: int | float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}"
    value = int(value)
    if value >= 10_000_000:
        return f"{value / 1e6:.1f}M"
    if value >= 10_000:
        return f"{value / 1e3:.1f}k"
    return str(value)


def summary_tree() -> str:
    """Aggregate spans by nesting path into an indented text tree."""
    snap = get_registry().snapshot()
    # Aggregate by full path so repeated spans (batches, layers) fold
    # into one line with a call count.
    order: list[str] = []
    agg: dict[str, dict] = {}
    for record in snap["spans"]:
        path = record["path"]
        if path not in agg:
            agg[path] = {"calls": 0, "wall": 0.0, "cpu": 0.0,
                         "name": record["name"], "errors": 0}
            order.append(path)
        entry = agg[path]
        entry["calls"] += 1
        entry["wall"] += record["wall_s"]
        entry["cpu"] += record["cpu_s"]
        if record.get("error"):
            entry["errors"] += 1
    # Parents first: sort by path component chain, keeping first-seen
    # order among siblings.
    rank = {path: i for i, path in enumerate(order)}
    ordered = sorted(
        agg, key=lambda p: tuple(rank.get("/".join(p.split("/")[:i + 1]), 0)
                                 for i in range(p.count("/") + 1))
    )
    lines = ["spans (calls, wall, cpu):"]
    if not ordered:
        lines.append("  (none recorded)")
    for path in ordered:
        entry = agg[path]
        depth = path.count("/")
        err = f" errors={entry['errors']}" if entry["errors"] else ""
        lines.append(
            f"  {'  ' * depth}{entry['name']:<28s} x{entry['calls']:<6d} "
            f"{entry['wall'] * 1e3:10.2f} ms {entry['cpu'] * 1e3:10.2f} ms"
            f"{err}"
        )
    counters = snap["counters"]
    lines.append("counters:")
    if not counters:
        lines.append("  (none)")
    for name, c in sorted(counters.items()):
        lines.append(f"  {name:<36s} {_format_amount(c['value']):>12s} "
                     f"{c['unit']}")
    gauges = snap["gauges"]
    if gauges:
        lines.append("gauges (last / max):")
        for name, g in sorted(gauges.items()):
            lines.append(
                f"  {name:<36s} {_format_amount(g['value']):>12s} /"
                f" {_format_amount(g['max'])} {g['unit']}"
            )
    histograms = snap.get("histograms", {})
    if histograms:
        lines.append("histograms (count / mean / max):")
        for name, h in sorted(histograms.items()):
            lines.append(
                f"  {name:<36s} {_format_amount(h['count']):>12s} /"
                f" {h['mean']:.3g} / {_format_amount(h['max'] or 0)}"
                f" {h['unit']}"
            )
    rollings = snap.get("rollings", {})
    live = {n: r for n, r in rollings.items() if r["count"]}
    if live:
        lines.append("rolling windows (count / p50 / p95 / p99):")
        for name, r in sorted(live.items()):
            lines.append(
                f"  {name:<36s} {_format_amount(r['count']):>12s} /"
                f" {r['p50']:.3g} / {r['p95']:.3g} / {r['p99']:.3g}"
                f" {r['unit']} over {r['window_s']:g}s"
            )
    if snap["profiles"]:
        lines.append(f"profiles: {len(snap['profiles'])} records "
                     "(see the JSONL export)")
    meta = snap["meta"]
    if meta["dropped_spans"] or meta["dropped_profiles"]:
        # Retention-cap overflow must be visible in the human summary:
        # a truncated trace silently reads as "the run was that short".
        lines.append(
            f"DROPPED: {meta['dropped_spans']} spans, "
            f"{meta['dropped_profiles']} profiles past the retention cap "
            "(raise MAX_SPANS/MAX_PROFILES or export more often)"
        )
    return "\n".join(lines)
