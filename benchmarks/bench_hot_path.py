"""Benchmark: the SC simulation hot path — fused engine vs reference.

Times the CNN-4 forward pass (batch 8, 16x16 inputs, 64-bit streams) in
every accumulation mode under four arms:

* ``seed``      — ``engine="reference"`` with the byte-LUT popcount:
  the hot path exactly as it existed before the fused engine landed
  (the pre-PR baseline the speedup target is measured against).
* ``reference`` — ``engine="reference"`` with the native
  ``np.bitwise_count`` popcount (isolates the popcount switch).
* ``fused``     — the fused bit-kernel engine, single worker.
* ``fused_mt``  — the fused engine sharded across every available CPU
  (what ``num_workers=0`` resolves to in a process with no busy
  siblings; on a single-CPU machine this arm documents, rather than
  shows, thread scaling).

Both fused arms run the kernels' own geometry rule for each layer
shape.

Each arm is warmed first (stream tables are built and cached on the
warm-up call) and the best of ``reps`` runs is kept — the interesting
quantity is the achievable per-forward cost, not scheduler noise.
Results, speedups, their geometric mean across modes, and the stream
table cache counters are written to ``BENCH_hot_path.json`` at the
repository root so future PRs can track the hot path.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_hot_path.py [--reps N] \
        [--profile PATH]

or through pytest (``pytest benchmarks/bench_hot_path.py``).
``--profile`` exports the run's telemetry (``PATH.jsonl`` +
``PATH.trace.json``, see :mod:`repro.obs`) and prints the span/counter
summary tree, so a bench run records *where* the time goes, not just
how much of it there is.
"""

import argparse
import json
import math
import platform
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.models.cnn4 import cnn4_sc
from repro.scnn.config import SCConfig
from repro.scnn.sim import clear_table_cache, table_cache_stats
from repro.utils import bitops
from repro.utils.parallel import cpu_count

MODES = ("sc", "pbw", "pbhw", "fxp", "apc")
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_hot_path.json"

#: CNN-4 forward the arms are timed on.
BATCH, IN_CHANNELS, INPUT_SIZE, STREAM_LENGTH = 8, 1, 16, 64


def _forward_time(engine: str, mode: str, native: bool, workers: int,
                  reps: int) -> float:
    """Best-of-``reps`` seconds for one CNN-4 forward pass."""
    saved = bitops.USE_NATIVE_POPCOUNT
    bitops.USE_NATIVE_POPCOUNT = native and bitops.HAS_NATIVE_POPCOUNT
    try:
        cfg = SCConfig(
            stream_length=STREAM_LENGTH,
            stream_length_pooling=STREAM_LENGTH,
            accumulation=mode,
            engine=engine,
            num_workers=workers,
        )
        model = cnn4_sc(
            cfg,
            num_classes=10,
            in_channels=IN_CHANNELS,
            input_size=INPUT_SIZE,
            seed=7,
        )
        x = (
            np.random.default_rng(3)
            .uniform(0, 1, size=(BATCH, IN_CHANNELS, INPUT_SIZE, INPUT_SIZE))
            .astype(np.float32)
        )
        model(x)  # warm-up: builds and caches the stream tables
        best = math.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            model(x)
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        bitops.USE_NATIVE_POPCOUNT = saved


def run_hot_path(reps: int = 5) -> dict:
    """Time every (mode, arm) pair and assemble the report dict."""
    clear_table_cache()
    ncpu = cpu_count()
    arms = {
        "seed": dict(engine="reference", native=False, workers=1),
        "reference": dict(engine="reference", native=True, workers=1),
        "fused": dict(engine="fused", native=True, workers=1),
        "fused_mt": dict(engine="fused", native=True, workers=ncpu),
    }
    times = {
        mode: {
            arm: _forward_time(mode=mode, reps=reps, **knobs)
            for arm, knobs in arms.items()
        }
        for mode in MODES
    }

    speedups = {
        mode: {
            "fused_vs_seed": times[mode]["seed"] / times[mode]["fused"],
            "fused_vs_reference": (
                times[mode]["reference"] / times[mode]["fused"]
            ),
            "fused_mt_vs_fused": (
                times[mode]["fused"] / times[mode]["fused_mt"]
            ),
        }
        for mode in MODES
    }

    def geomean(key: str) -> float:
        return math.exp(
            sum(math.log(speedups[m][key]) for m in MODES) / len(MODES)
        )

    machine = {
        "cpus": ncpu,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "native_popcount": bool(bitops.HAS_NATIVE_POPCOUNT),
    }
    if ncpu <= 1:
        machine["multicore_note"] = (
            "bench host exposes a single vCPU: the fused_mt arm measures "
            "sharding overhead, not scaling (EXPERIMENTS.md 'Multi-core "
            "kernels' has a 2-CPU run)."
        )

    return {
        "benchmark": "cnn4_forward",
        "config": {
            "batch": BATCH,
            "in_channels": IN_CHANNELS,
            "input_size": INPUT_SIZE,
            "stream_length": STREAM_LENGTH,
            "reps_best_of": reps,
        },
        "machine": machine,
        "seconds_per_forward": times,
        "speedups": speedups,
        "geomean": {
            "fused_vs_seed": geomean("fused_vs_seed"),
            "fused_vs_reference": geomean("fused_vs_reference"),
            "fused_mt_vs_fused": geomean("fused_mt_vs_fused"),
        },
        "table_cache": table_cache_stats(),
        "telemetry": {"counters": obs.get_registry().counters()},
        "notes": (
            "'seed' is the pre-fused hot path (reference engine + byte-LUT "
            "popcount). Worker scaling (fused_mt) requires >1 CPU; on a "
            "single-CPU machine it measures sharding overhead instead."
        ),
    }


def render(report: dict) -> str:
    rows = [
        f"{'mode':6s} {'seed':>8s} {'refnat':>8s} {'fused':>8s} "
        f"{'fused_mt':>8s} {'vs seed':>8s} {'vs ref':>8s}"
    ]
    for mode in MODES:
        t = report["seconds_per_forward"][mode]
        s = report["speedups"][mode]
        rows.append(
            f"{mode:6s} {t['seed'] * 1e3:7.1f}ms {t['reference'] * 1e3:7.1f}ms "
            f"{t['fused'] * 1e3:7.1f}ms {t['fused_mt'] * 1e3:7.1f}ms "
            f"{s['fused_vs_seed']:7.2f}x {s['fused_vs_reference']:7.2f}x"
        )
    g = report["geomean"]
    rows.append(
        f"geomean fused vs seed: {g['fused_vs_seed']:.2f}x, "
        f"vs reference(native): {g['fused_vs_reference']:.2f}x, "
        f"fused_mt vs fused: {g['fused_mt_vs_fused']:.2f}x "
        f"({report['machine']['cpus']} CPU(s))"
    )
    cache = report["table_cache"]
    rows.append(
        f"table cache: {cache['hits']} hits / {cache['misses']} misses "
        f"({cache['size']}/{cache['capacity']} entries)"
    )
    return "\n".join(rows)


def _write(report: dict) -> None:
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")


def test_hot_path(once):
    report = once(run_hot_path)
    print()
    print(render(report))
    _write(report)
    # The fused engine must beat the pre-PR hot path decisively on the
    # popcount-bound modes and never lose overall. (The hard paper-target
    # of >=3x geomean is recorded in the JSON; asserting a softer bound
    # keeps the suite robust to noisy shared-CPU boxes.)
    assert report["geomean"]["fused_vs_seed"] > 1.5
    for mode in ("fxp", "apc"):
        assert report["speedups"][mode]["fused_vs_seed"] > 3.0
    cache = report["table_cache"]
    assert cache["hits"] > 0  # warmed tables were reused across arms


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--reps", type=int, default=5,
        help="best-of repetitions per (mode, arm) pair",
    )
    parser.add_argument(
        "--profile", default=None, metavar="PATH",
        help="export telemetry as PATH.jsonl + PATH.trace.json and "
        "print the span/counter summary tree",
    )
    cli_args = parser.parse_args()
    if cli_args.profile:
        obs.reset()
    result = run_hot_path(reps=cli_args.reps)
    print(render(result))
    _write(result)
    print(f"wrote {OUTPUT}")
    if cli_args.profile:
        jsonl, trace = obs.export_profile(cli_args.profile)
        print()
        print(obs.summary_tree())
        print(f"wrote {jsonl} and {trace}")
