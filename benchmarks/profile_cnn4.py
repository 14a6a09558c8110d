#!/usr/bin/env python3
"""A small profiled CNN-4 forward: the telemetry smoke artifact.

Runs one bit-true CNN-4 forward pass, exports the telemetry
(:mod:`repro.obs`) as ``<base>.jsonl`` + ``<base>.trace.json``, prints the
span/counter summary tree, and *validates* the artifacts: both files
must parse as JSON, the trace must contain per-layer
``scnn.conv_forward`` spans, and the bit-op / stream-table-cache
counters must be nonzero. CI runs this and uploads the files as
workflow artifacts; it exits nonzero if any check fails.

Run: ``PYTHONPATH=src python benchmarks/profile_cnn4.py
[--profile out/cnn4_profile]``
"""

import argparse
import json
from pathlib import Path

import numpy as np

from repro import obs
from repro.models.cnn4 import cnn4_sc
from repro.scnn.config import SCConfig


def run_forward(batch: int, input_size: int, stream_length: int) -> None:
    cfg = SCConfig(
        stream_length=stream_length,
        stream_length_pooling=stream_length,
    )
    model = cnn4_sc(
        cfg, num_classes=10, in_channels=1, input_size=input_size, seed=7
    )
    x = (
        np.random.default_rng(3)
        .uniform(0, 1, size=(batch, 1, input_size, input_size))
        .astype(np.float32)
    )
    with obs.span("profile_cnn4.forward", batch=batch, size=input_size):
        model(x)


def validate(jsonl: Path, trace: Path) -> list[str]:
    """Return a list of failed-check descriptions (empty = all good)."""
    failures: list[str] = []
    records = obs.read_jsonl(jsonl)  # raises on malformed lines
    trace_doc = json.loads(trace.read_text())
    events = trace_doc.get("traceEvents", [])
    if not any(e.get("name") == "scnn.conv_forward" for e in events):
        failures.append("no scnn.conv_forward span in the Chrome trace")
    if not any(r["name"] == "scnn.conv_forward" for r in records["span"]):
        failures.append("no scnn.conv_forward span in the JSONL export")
    if not any(r["kind"] == "layer_forward" for r in records["profile"]):
        failures.append("no layer_forward profile record")
    counters = {r["name"]: r["value"] for r in records["counter"]}
    for name in ("sc.kernels.bit_ops", "scnn.table_cache.misses"):
        if counters.get(name, 0) <= 0:
            failures.append(f"counter {name} is zero or missing")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile", default="cnn4_profile", metavar="PATH",
        help="artifact base path (writes PATH.jsonl + PATH.trace.json)",
    )
    parser.add_argument("--batch", type=int, default=4)
    parser.add_argument("--input-size", type=int, default=16)
    parser.add_argument("--stream-length", type=int, default=32)
    args = parser.parse_args()

    obs.reset()
    run_forward(args.batch, args.input_size, args.stream_length)
    jsonl, trace = obs.export_profile(args.profile)
    print(obs.summary_tree())
    print(f"wrote {jsonl} and {trace}")

    failures = validate(jsonl, trace)
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("profile artifacts valid: per-layer spans and nonzero "
              "bit-op/cache counters present")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
