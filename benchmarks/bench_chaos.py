"""Benchmark: the serving stack under deterministic fault injection.

Drives a warmed CNN-4 SC service on the **supervised process-pool
backend** (:class:`repro.serve.ProcessPoolBackend`) with closed-loop
client threads, once clean and once under chaos (5% worker crashes + 5%
stalls per batch attempt, seeded and replayable —
:class:`repro.serve.ChaosConfig`). A crashed worker takes the batch
attempt with it; the dispatcher's retry policy re-runs the batch while
the supervisor respawns the worker in the background.

Claims under test (the resilience acceptance gates):

* **availability** — under chaos the service still answers ``>= 99.9%``
  of well-formed, in-deadline requests (crashes cost retries, not
  failures);
* **bounded latency** — chaos-arm p99 stays within ``3x`` the clean
  -arm p99 (recovery is cheap: forkserver respawn + one backoff);
* **determinism parity** — the process backend returns bit-identical
  logits to the in-thread backend for the same samples (models ship to
  workers with their seed plans; SC forwards are LFSR-deterministic);
* **conservation** — both arms keep the service's request accounting
  balanced (nothing silently dropped, even mid-crash).

The full report is written to ``BENCH_chaos.json`` at the repository
root. Run standalone::

    PYTHONPATH=src python benchmarks/bench_chaos.py [--smoke] \
        [--clients N] [--requests N] [--profile PATH]

or through pytest (``pytest benchmarks/bench_chaos.py``).
"""

import argparse
import json
import platform
import threading
import time
from pathlib import Path

import numpy as np

from repro import obs, serve
from repro.errors import ReproError
from repro.models.cnn4 import cnn4_sc
from repro.scnn.config import SCConfig
from repro.utils.retry import RetryPolicy

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"

#: Workload: the tiny CNN-4 used across the benchmark suite.
IN_CHANNELS, INPUT_SIZE, STREAM_LENGTH, WIDTH_MULT = 1, 16, 64, 0.5

#: Fault injection for the chaos arm: the acceptance-gate rates. The
#: seed is chosen so both initial workers draw a crash within their
#: first few tasks — every run (smoke included) exercises real crash
#: recovery instead of depending on batch-count luck.
CHAOS = serve.ChaosConfig(
    crash_rate=0.05, stall_rate=0.05, stall_s=0.03, seed=22
)

NUM_WORKERS = 2
DEADLINE_S = 10.0

#: Gates (mirrored in test_chaos_bench and EXPERIMENTS.md).
MIN_SERVED_FRACTION = 0.999
MAX_P99_RATIO = 3.0


def _build_registry() -> serve.ModelRegistry:
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
    # num_tiers=1: no degrade ladder, so both arms (and the parity
    # check) always execute at the native stream lengths.
    registry.register(
        "cnn4", model, input_shape=(IN_CHANNELS, INPUT_SIZE, INPUT_SIZE),
        num_tiers=1,
    )
    return registry


def _build_service(
    registry: serve.ModelRegistry, chaos: serve.ChaosConfig | None
) -> serve.InferenceService:
    backend = serve.ProcessPoolBackend(num_workers=NUM_WORKERS, chaos=chaos)
    policy = serve.ServePolicy(
        max_batch=8,
        max_wait_s=0.002,
        max_queue=128,
        default_deadline_s=DEADLINE_S,
        batch_timeout_s=2.0,  # converts a wedged worker into a retry
        # Tight backoff: a crashed batch re-runs almost immediately (the
        # surviving worker picks it up while the supervisor respawns).
        retry=RetryPolicy(max_attempts=4, base_delay_s=0.002, max_delay_s=0.05),
    )
    return serve.InferenceService(registry, policy=policy, backend=backend)


def _drive(
    service: serve.InferenceService, clients: int, requests_per_client: int
) -> dict:
    """Closed loop: each client thread sends back-to-back requests."""
    rng = np.random.default_rng(11)
    xs = rng.uniform(
        0, 1, size=(clients, IN_CHANNELS, INPUT_SIZE, INPUT_SIZE)
    ).astype(np.float32)
    latencies: list[float] = []
    failures: list[str] = []
    lock = threading.Lock()

    def client(idx: int):
        mine, errs = [], []
        for _ in range(requests_per_client):
            try:
                result = service.predict("cnn4", xs[idx])
                mine.append(result.latency_s)
            except ReproError as error:
                errs.append(type(error).__name__)
        with lock:
            latencies.extend(mine)
            failures.extend(errs)

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0

    sent = clients * requests_per_client
    lat_ms = np.sort(np.asarray(latencies)) * 1e3 if latencies else np.array([])
    percentile = lambda q: float(np.percentile(lat_ms, q)) if len(lat_ms) else None  # noqa: E731
    return {
        "clients": clients,
        "requests_sent": sent,
        "requests_served": len(latencies),
        "served_fraction": len(latencies) / sent,
        "failures": sorted(set(failures)),
        "failure_count": len(failures),
        "wall_s": wall,
        "throughput_rps": len(latencies) / wall,
        "latency_ms": {
            "p50": percentile(50),
            "p95": percentile(95),
            "p99": percentile(99),
            "mean": float(lat_ms.mean()) if len(lat_ms) else None,
            "max": float(lat_ms.max()) if len(lat_ms) else None,
        },
    }


def _parity_check(registry: serve.ModelRegistry, samples: int = 4) -> dict:
    """Bit-identical logits: in-thread backend vs clean process pool."""
    rng = np.random.default_rng(23)
    xs = rng.uniform(
        0, 1, size=(samples, IN_CHANNELS, INPUT_SIZE, INPUT_SIZE)
    ).astype(np.float32)
    outputs = {}
    for kind in ("thread", "process"):
        backend = serve.make_backend(kind, num_workers=NUM_WORKERS)
        policy = serve.ServePolicy(
            max_batch=1, max_wait_s=0.0, default_deadline_s=None
        )
        service = serve.InferenceService(
            registry, policy=policy, backend=backend
        )
        with service:
            outputs[kind] = np.stack(
                [service.predict("cnn4", x).outputs for x in xs]
            )
    identical = bool(np.array_equal(outputs["thread"], outputs["process"]))
    return {
        "samples": samples,
        "bit_identical": identical,
        "max_abs_diff": float(
            np.max(np.abs(outputs["thread"] - outputs["process"]))
        ),
    }


def run_chaos_bench(clients: int = 8, requests_per_client: int = 15) -> dict:
    registry = _build_registry()
    arms: dict[str, dict] = {}
    for arm, chaos in (("baseline", None), ("chaos", CHAOS)):
        service = _build_service(registry, chaos)
        with service:
            # Warm both pool workers (ship + load the model) so the
            # measured distribution is steady state, not first-request
            # model transfer.
            warm = np.zeros(
                (IN_CHANNELS, INPUT_SIZE, INPUT_SIZE), dtype=np.float32
            )
            for _ in range(2 * NUM_WORKERS):
                try:
                    service.predict("cnn4", warm)
                except ReproError:
                    pass  # chaos can hit warmup too; the drive still runs
            level = _drive(service, clients, requests_per_client)
            stats = service.stats()
        resilience = stats["resilience"]
        arms[arm] = {
            "chaos": chaos.to_dict() if chaos else None,
            "load": level,
            "stats": stats["requests"],
            "batch_retries": resilience["batch_retries"],
            "deadline_expired_at_dequeue": resilience[
                "deadline_expired_at_dequeue"
            ],
            "backend": resilience["backend"],
            "breakers": resilience["breakers"],
            "accounting_balanced": stats["accounting"]["balanced"],
        }

    p99_base = arms["baseline"]["load"]["latency_ms"]["p99"]
    p99_chaos = arms["chaos"]["load"]["latency_ms"]["p99"]
    return {
        "benchmark": "serve_chaos",
        "config": {
            "model": "cnn4_sc",
            "in_channels": IN_CHANNELS,
            "input_size": INPUT_SIZE,
            "width_mult": WIDTH_MULT,
            "stream_length": STREAM_LENGTH,
            "num_workers": NUM_WORKERS,
            "clients": clients,
            "requests_per_client": requests_per_client,
            "deadline_s": DEADLINE_S,
            "chaos": CHAOS.to_dict(),
            "gates": {
                "min_served_fraction": MIN_SERVED_FRACTION,
                "max_p99_ratio": MAX_P99_RATIO,
            },
        },
        "machine": {
            "platform": platform.platform(),
            "numpy": np.__version__,
        },
        "arms": arms,
        "p99_ratio_chaos_vs_baseline": (
            p99_chaos / p99_base if p99_base else None
        ),
        "parity": _parity_check(registry),
    }


def render(report: dict) -> str:
    rows = [
        f"{'arm':10s} {'served':>12s} {'rps':>8s} {'p50':>8s} "
        f"{'p95':>8s} {'p99':>8s} {'retries':>8s} {'respawns':>9s}"
    ]
    for arm in ("baseline", "chaos"):
        data = report["arms"][arm]
        load, lat = data["load"], data["load"]["latency_ms"]
        rows.append(
            f"{arm:10s} {load['requests_served']:5d}/{load['requests_sent']:<6d} "
            f"{load['throughput_rps']:8.1f} {lat['p50']:7.1f}ms "
            f"{lat['p95']:7.1f}ms {lat['p99']:7.1f}ms "
            f"{data['batch_retries']:8d} "
            f"{data['backend']['respawned']:9d}"
        )
    ratio = report["p99_ratio_chaos_vs_baseline"]
    parity = report["parity"]
    rows.append(
        f"chaos p99 / baseline p99: {ratio:.2f}x (gate <= "
        f"{report['config']['gates']['max_p99_ratio']:.1f}x)"
    )
    rows.append(
        f"thread vs process parity: bit_identical={parity['bit_identical']} "
        f"(max |diff| {parity['max_abs_diff']:.3g})"
    )
    return "\n".join(rows)


def _write(report: dict) -> None:
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")


def test_chaos_bench(once):
    report = once(run_chaos_bench)
    print()
    print(render(report))
    _write(report)
    chaos_load = report["arms"]["chaos"]["load"]
    # Availability gate: chaos costs retries, not answers.
    assert chaos_load["served_fraction"] >= MIN_SERVED_FRACTION
    # Latency gate: fault recovery keeps the tail bounded.
    assert report["p99_ratio_chaos_vs_baseline"] <= MAX_P99_RATIO
    # The chaos arm actually injected and recovered from faults.
    assert report["arms"]["chaos"]["backend"]["respawned"] > 0
    assert report["arms"]["chaos"]["batch_retries"] > 0
    # Determinism parity across backends.
    assert report["parity"]["bit_identical"]
    # Conservation in both arms.
    for arm in report["arms"].values():
        assert arm["accounting_balanced"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--clients", type=int, default=8, help="closed-loop client threads"
    )
    parser.add_argument(
        "--requests", type=int, default=15, help="requests per client thread"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fast run for CI (2 clients x 8 requests); still "
        "checks the availability/parity/accounting gates",
    )
    parser.add_argument(
        "--profile", default=None, metavar="PATH",
        help="export telemetry as PATH.jsonl + PATH.trace.json and "
        "print the span/counter summary tree",
    )
    cli_args = parser.parse_args()
    if cli_args.profile:
        obs.reset()
    clients, requests = cli_args.clients, cli_args.requests
    if cli_args.smoke:
        clients, requests = 2, 8
    result = run_chaos_bench(clients=clients, requests_per_client=requests)
    print(render(result))
    _write(result)
    print(f"wrote {OUTPUT}")
    failed = []
    if result["arms"]["chaos"]["load"]["served_fraction"] < MIN_SERVED_FRACTION:
        failed.append("served_fraction")
    if not result["parity"]["bit_identical"]:
        failed.append("parity")
    if not cli_args.smoke and (
        result["p99_ratio_chaos_vs_baseline"] > MAX_P99_RATIO
    ):
        # The p99 gate needs enough samples to be meaningful; smoke runs
        # check availability + parity only.
        failed.append("p99_ratio")
    if cli_args.profile:
        jsonl, trace = obs.export_profile(cli_args.profile)
        print()
        print(obs.summary_tree())
        print(f"wrote {jsonl} and {trace}")
    if failed:
        raise SystemExit(f"chaos gates failed: {', '.join(failed)}")
