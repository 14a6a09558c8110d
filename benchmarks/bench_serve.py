"""Benchmark: the serving stack — micro-batching on vs off under load.

Drives a warmed CNN-4 SC service with closed-loop client threads at
three offered-load levels (1, 4, and 16 concurrent clients) and times
every request end to end, once with the micro-batcher enabled
(``max_batch=16``) and once effectively disabled (``max_batch=1``).
Per-level results: p50/p95/p99 latency and sustained throughput, plus
the batch-size histogram the batcher actually achieved.

The claim under test is the serving analogue of GEO's execution-stage
amortization: one coalesced SC forward over N samples shares stream
tables, seed plans, and im2col setup that N singleton forwards would
each pay for, so at high offered load batching must clear **>= 2x** the
unbatched throughput. The full report is written to
``BENCH_serve.json`` at the repository root.

A third ``traced`` arm replays the batched configuration with live
observability switched on: 1-in-``TRACE_EVERY`` requests carry a trace
context (mirroring the server's ambient sampling default) while a
scraper thread renders the Prometheus exposition — rolling windows,
SLO burn rates and all — every ``SCRAPE_INTERVAL_S``. The recorded
``tracing_overhead`` ratios (traced vs batched, per percentile) back
the claim that sampling-based tracing costs <2% on batched p99.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serve.py [--requests N] \
        [--profile PATH]

or through pytest (``pytest benchmarks/bench_serve.py``).
"""

import argparse
import json
import platform
import threading
import time
from pathlib import Path

import numpy as np

from repro import obs, serve
from repro.models.cnn4 import cnn4_sc
from repro.scnn.config import SCConfig

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

#: Workload: the tiny CNN-4 used across the benchmark suite.
IN_CHANNELS, INPUT_SIZE, STREAM_LENGTH, WIDTH_MULT = 1, 16, 64, 0.5

#: Offered load = closed-loop client concurrency.
LOADS = (1, 4, 16)

MAX_BATCH = 16

#: The traced arm samples 1-in-N requests, matching the HTTP server's
#: ambient ``trace_sample`` default.
TRACE_EVERY = 16

#: Scraper-thread poll period in the traced arm.
SCRAPE_INTERVAL_S = 0.2


def _build_service(batching: bool) -> serve.InferenceService:
    cfg = SCConfig(
        stream_length=STREAM_LENGTH, stream_length_pooling=STREAM_LENGTH
    )
    model = cnn4_sc(
        cfg,
        num_classes=10,
        in_channels=IN_CHANNELS,
        input_size=INPUT_SIZE,
        width_mult=WIDTH_MULT,
        seed=7,
    )
    registry = serve.ModelRegistry()
    # num_tiers=1: no degrade ladder, so the arms compare batching alone.
    registry.register(
        "cnn4", model, input_shape=(IN_CHANNELS, INPUT_SIZE, INPUT_SIZE),
        num_tiers=1,
    )
    policy = serve.ServePolicy(
        max_batch=MAX_BATCH if batching else 1,
        max_wait_s=0.002 if batching else 0.0,
        max_queue=128,
        default_deadline_s=None,  # measure latency, don't shed it
    )
    return serve.InferenceService(registry, policy)


def _drive(
    service: serve.InferenceService,
    clients: int,
    requests_per_client: int,
    trace_every: int = 0,
) -> dict:
    """Closed loop: each client thread sends back-to-back requests.

    With ``trace_every=N``, each thread wraps every Nth request in a
    fresh trace context, so the batcher/backend span machinery runs on
    the sampled fraction exactly as it would for live traffic.
    """
    from repro.obs import trace

    rng = np.random.default_rng(11)
    x = rng.uniform(
        0, 1, size=(IN_CHANNELS, INPUT_SIZE, INPUT_SIZE)
    ).astype(np.float32)
    latencies: list[float] = []
    lock = threading.Lock()

    def client(offset):
        mine = []
        for i in range(requests_per_client):
            # Offset per thread so the sampled requests spread across
            # the run instead of all landing on the contended start.
            if trace_every and (i + offset) % trace_every == 0:
                with trace.scope(trace.new_trace()):
                    result = service.predict("cnn4", x)
            else:
                result = service.predict("cnn4", x)
            mine.append(result.latency_s)
        with lock:
            latencies.extend(mine)

    threads = [
        threading.Thread(target=client, args=(n,)) for n in range(clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0

    lat_ms = np.sort(np.asarray(latencies)) * 1e3
    return {
        "clients": clients,
        "requests": len(latencies),
        "wall_s": wall,
        "throughput_rps": len(latencies) / wall,
        "latency_ms": {
            "p50": float(np.percentile(lat_ms, 50)),
            "p95": float(np.percentile(lat_ms, 95)),
            "p99": float(np.percentile(lat_ms, 99)),
            "mean": float(lat_ms.mean()),
            "max": float(lat_ms.max()),
        },
    }


def _scrape_loop(service, stop: threading.Event) -> int:
    """The /metrics scraper a live deployment would run alongside."""
    from repro.serve.slo import slo_families

    scrapes = 0
    while not stop.wait(SCRAPE_INTERVAL_S):
        obs.render_prometheus(
            extra_families=slo_families(service.slo_snapshots())
        )
        scrapes += 1
    return scrapes


def _measure_tracing_overhead(
    requests_per_client: int, reps: int = 5
) -> dict:
    """Paired A/B at the top load level: what does sampled tracing cost?

    Cross-arm ratios are too noisy to resolve a few percent — the
    batched baseline's own p99 moves ~10% between full-bench runs on a
    shared machine. So this measurement interleaves untraced and traced
    drives on the *same warmed service* (cancelling service-state and
    machine drift) and compares **medians over ``reps`` repetitions**.
    The scraper thread runs only during the traced drives, matching the
    ``traced`` arm's definition: overhead covers span machinery plus
    live /metrics polling.
    """
    service = _build_service(batching=True)
    clients = LOADS[-1]
    with service:
        _drive(service, clients, requests_per_client)  # warm-up, discarded
        plain: list[dict] = []
        traced: list[dict] = []
        for _ in range(reps):
            plain.append(_drive(service, clients, requests_per_client))
            stop = threading.Event()
            scraper = threading.Thread(
                target=_scrape_loop, args=(service, stop), daemon=True
            )
            scraper.start()
            try:
                traced.append(
                    _drive(
                        service, clients, requests_per_client,
                        trace_every=TRACE_EVERY,
                    )
                )
            finally:
                stop.set()
                scraper.join(timeout=5.0)

    def median(levels: list[dict], p: str) -> float:
        return float(np.median([lv["latency_ms"][p] for lv in levels]))

    return {
        "method": f"paired medians over {reps} interleaved reps, "
        f"{clients} clients, same warmed service",
        "latency_ratio_minus_one": {
            p: median(traced, p) / median(plain, p) - 1.0
            for p in ("p50", "p95", "p99")
        },
        "baseline_median_ms": {
            p: median(plain, p) for p in ("p50", "p95", "p99")
        },
        "traced_median_ms": {
            p: median(traced, p) for p in ("p50", "p95", "p99")
        },
    }


def run_serve_bench(requests_per_client: int = 12) -> dict:
    arms: dict[str, dict] = {}
    for arm, batching, trace_every in (
        ("batched", True, 0),
        ("unbatched", False, 0),
        ("traced", True, TRACE_EVERY),
    ):
        service = _build_service(batching)
        with service:
            stop = threading.Event()
            scraper = None
            if trace_every:
                scraper = threading.Thread(
                    target=_scrape_loop, args=(service, stop), daemon=True
                )
                scraper.start()
            try:
                levels = [
                    _drive(
                        service, clients, requests_per_client,
                        trace_every=trace_every,
                    )
                    for clients in LOADS
                ]
            finally:
                stop.set()
                if scraper is not None:
                    scraper.join(timeout=5.0)
            stats = service.stats()
        arms[arm] = {
            "max_batch": service.policy.max_batch,
            "trace_every": trace_every,
            "levels": levels,
            "batch_size_hist": stats["batches"]["size"],
            "stats": stats["requests"],
            "accounting_balanced": stats["accounting"]["balanced"],
        }

    speedups = {}
    for batched_level, unbatched_level in zip(
        arms["batched"]["levels"], arms["unbatched"]["levels"]
    ):
        speedups[f"clients_{batched_level['clients']}"] = (
            batched_level["throughput_rps"]
            / unbatched_level["throughput_rps"]
        )

    overhead = _measure_tracing_overhead(requests_per_client)

    return {
        "benchmark": "serve_microbatching",
        "config": {
            "model": "cnn4_sc",
            "in_channels": IN_CHANNELS,
            "input_size": INPUT_SIZE,
            "width_mult": WIDTH_MULT,
            "stream_length": STREAM_LENGTH,
            "loads_clients": list(LOADS),
            "requests_per_client": requests_per_client,
            "max_batch_batched": MAX_BATCH,
            "trace_every": TRACE_EVERY,
            "scrape_interval_s": SCRAPE_INTERVAL_S,
        },
        "machine": {
            "platform": platform.platform(),
            "numpy": np.__version__,
        },
        "arms": arms,
        "throughput_speedup_batched_vs_unbatched": speedups,
        "tracing_overhead": overhead,
    }


def render(report: dict) -> str:
    rows = [
        f"{'arm':10s} {'clients':>7s} {'rps':>8s} {'p50':>8s} "
        f"{'p95':>8s} {'p99':>8s}"
    ]
    for arm in ("batched", "unbatched", "traced"):
        for level in report["arms"][arm]["levels"]:
            lat = level["latency_ms"]
            rows.append(
                f"{arm:10s} {level['clients']:7d} "
                f"{level['throughput_rps']:8.1f} {lat['p50']:7.1f}ms "
                f"{lat['p95']:7.1f}ms {lat['p99']:7.1f}ms"
            )
    speedups = report["throughput_speedup_batched_vs_unbatched"]
    rows.append(
        "batched vs unbatched throughput: "
        + ", ".join(f"{k.split('_')[1]} clients {v:.2f}x"
                    for k, v in speedups.items())
    )
    hist = report["arms"]["batched"]["batch_size_hist"]
    rows.append(
        f"batched arm batch sizes: mean {hist['mean']:.1f}, "
        f"max {hist['max']}"
    )
    oh = report["tracing_overhead"]["latency_ratio_minus_one"]
    rows.append(
        f"tracing overhead at {LOADS[-1]} clients (paired medians): "
        + "  ".join(f"{p} {oh[p]:+.1%}" for p in ("p50", "p95", "p99"))
    )
    return "\n".join(rows)


def _write(report: dict) -> None:
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")


def test_serve_bench(once):
    report = once(run_serve_bench)
    print()
    print(render(report))
    _write(report)
    # Core acceptance: at the highest offered load, micro-batching must
    # at least double throughput over batch-size-1 dispatch.
    top = f"clients_{LOADS[-1]}"
    assert report["throughput_speedup_batched_vs_unbatched"][top] >= 2.0
    # Every request in both arms is accounted for (none dropped).
    for arm in report["arms"].values():
        assert arm["accounting_balanced"]
        assert arm["stats"]["failed"] == 0
        assert arm["stats"]["expired"] == 0
    # The batcher actually coalesced under load.
    assert report["arms"]["batched"]["batch_size_hist"]["max"] > 1
    # Sampled tracing must stay cheap. The design target is <2% on
    # batched p99; the CI gate is deliberately looser because even the
    # paired-median p99 over a few hundred requests is noisy on shared
    # runners — the committed BENCH_serve.json records the measured
    # number.
    overhead = report["tracing_overhead"]["latency_ratio_minus_one"]
    assert overhead["p99"] < 0.10, overhead


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--requests", type=int, default=12,
        help="requests per client thread at each load level",
    )
    parser.add_argument(
        "--profile", default=None, metavar="PATH",
        help="export telemetry as PATH.jsonl + PATH.trace.json and "
        "print the span/counter summary tree",
    )
    cli_args = parser.parse_args()
    if cli_args.profile:
        obs.reset()
    result = run_serve_bench(requests_per_client=cli_args.requests)
    print(render(result))
    _write(result)
    print(f"wrote {OUTPUT}")
    if cli_args.profile:
        jsonl, trace = obs.export_profile(cli_args.profile)
        print()
        print(obs.summary_tree())
        print(f"wrote {jsonl} and {trace}")
