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
* ``tuned``     — the fused engine with ``autotune=True``: execution
  plans resolved by :mod:`repro.sc.tuner` against a fresh in-process
  plan cache. The first forward pays the tuning; the report records it
  separately (``autotune.first_forward_s``) so the steady-state column
  demonstrates that a plan-cache hit has zero tuning overhead.

A kernel-level **density sweep** then times the dense slab sweep vs the
``path="auto"`` plan on one representative conv shape at 0%/50%/90%
activation-value sparsity per accumulation mode — the sparse path's
skip-mask win is only visible on sparse operands, and the CNN-4 forward
above does not let us pin activation density.

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
from repro.sc import tuner
from repro.sc.kernels import ExecPlan, fused_conv_counts
from repro.scnn.config import SCConfig
from repro.scnn.sim import clear_table_cache, stream_table, table_cache_stats
from repro.sc.rng import LFSRSource
from repro.utils import bitops
from repro.utils.parallel import cpu_count

MODES = ("sc", "pbw", "pbhw", "fxp", "apc")
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_hot_path.json"

#: CNN-4 forward the arms are timed on.
BATCH, IN_CHANNELS, INPUT_SIZE, STREAM_LENGTH = 8, 1, 16, 64

#: Activation-value zero fractions of the kernel-level density sweep.
DENSITIES = (0.0, 0.5, 0.9)

#: Density-sweep operand shape: a mid-size conv layer (past the sparse
#: path's measured crossover) with 64-bit streams.
SWEEP_SHAPE = dict(n=4, cin=16, cout=32, k=5, p=196, bits=6)


def _forward_time(engine: str, mode: str, native: bool, workers: int,
                  reps: int, autotune: bool = False) -> tuple[float, float]:
    """``(first, best-of-reps)`` seconds for one CNN-4 forward pass.

    ``first`` is the first post-table-warm-up forward — for the tuned
    arm that call pays the plan tuning, so the pair separates tuning
    overhead from steady state.
    """
    saved = bitops.USE_NATIVE_POPCOUNT
    bitops.USE_NATIVE_POPCOUNT = native and bitops.HAS_NATIVE_POPCOUNT
    try:
        cfg = SCConfig(
            stream_length=STREAM_LENGTH,
            stream_length_pooling=STREAM_LENGTH,
            accumulation=mode,
            engine=engine,
            num_workers=workers,
            autotune=autotune,
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
        if autotune:
            # Warm the stream tables *without* tuning so the measured
            # first forward isolates plan-tuning overhead.
            model_cold = cnn4_sc(
                cfg.with_(autotune=False),
                num_classes=10,
                in_channels=IN_CHANNELS,
                input_size=INPUT_SIZE,
                seed=7,
            )
            model_cold(x)
        else:
            model(x)  # warm-up: builds and caches the stream tables
        t0 = time.perf_counter()
        model(x)
        first = time.perf_counter() - t0
        best = math.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            model(x)
            best = min(best, time.perf_counter() - t0)
        return first, best
    finally:
        bitops.USE_NATIVE_POPCOUNT = saved


def _sweep_operands(mode: str, density: float):
    """Synthetic fused-call operands at a pinned activation density."""
    n, cin, cout, k, p, bits = (
        SWEEP_SHAPE[key] for key in ("n", "cin", "cout", "k", "p", "bits")
    )
    rng = np.random.default_rng(int(density * 100) + 17)
    source = LFSRSource(bits)
    seeds = np.arange(1, 1 + cin * k * k + cout)
    table, unique = stream_table(source, bits, STREAM_LENGTH, seeds, False)
    act_rows = np.searchsorted(unique, seeds[: cin * k * k].reshape(cin, k, k))
    cols = rng.integers(1, 1 << bits, size=(n, cin, k, k, p))
    cols[rng.random(cols.shape) < density] = 0
    wq = rng.integers(0, 1 << bits, size=(cout, cin, k, k))
    wrow = np.searchsorted(unique, seeds[cin * k * k:])
    wp = table[wrow[:, None, None, None] % table.shape[0], wq]
    wn = table[
        wrow[:, None, None, None] % table.shape[0], (wq + 3) % (1 << bits)
    ]
    return table, act_rows, cols, wp, wn


def run_density_sweep(reps: int = 3) -> dict:
    """Time dense-forced vs auto plans across modes and densities.

    Bit-identity of the two paths is asserted on every cell; the
    ``auto_vs_dense`` speedup shows where the sparse path engages (its
    group-level threshold keeps long-group modes dense — a speedup of
    ~1.0 there is the *correct* outcome, not a missing win).
    """
    sweep: dict[str, dict] = {}
    for mode in MODES:
        sweep[mode] = {}
        for density in DENSITIES:
            operands = _sweep_operands(mode, density)
            # Serial: the sweep compares paths, and sparse calls never
            # shard, so a sharded dense arm would measure threads instead.
            dense = fused_conv_counts(
                *operands, mode, num_workers=1, plan=ExecPlan(path="dense")
            )
            auto = fused_conv_counts(*operands, mode, num_workers=1)
            if not np.array_equal(dense, auto):
                raise AssertionError(
                    f"sparse/dense mismatch: mode={mode} density={density}"
                )
            cell = {}
            for label, plan in (
                ("dense_s", ExecPlan(path="dense")),
                ("auto_s", None),
            ):
                best = math.inf
                for _ in range(reps):
                    t0 = time.perf_counter()
                    fused_conv_counts(
                        *operands, mode, num_workers=1, plan=plan
                    )
                    best = min(best, time.perf_counter() - t0)
                cell[label] = best
            cell["auto_vs_dense"] = cell["dense_s"] / cell["auto_s"]
            sweep[mode][f"{density:.2f}"] = cell
    return sweep


def run_hot_path(reps: int = 5) -> dict:
    """Time every (mode, arm) pair and assemble the report dict."""
    clear_table_cache()
    ncpu = cpu_count()
    arms = {
        "seed": dict(engine="reference", native=False, workers=1),
        "reference": dict(engine="reference", native=True, workers=1),
        "fused": dict(engine="fused", native=True, workers=1),
        "fused_mt": dict(engine="fused", native=True, workers=ncpu),
        "tuned": dict(engine="fused", native=True, workers=1, autotune=True),
    }
    # The tuned arm measures against a fresh in-process plan cache so
    # the recorded first-forward cost is real tuning, not disk reuse.
    plan_cache = tuner.PlanCache(None)
    tuner.set_plan_cache(plan_cache)
    times: dict[str, dict[str, float]] = {mode: {} for mode in MODES}
    autotune_report: dict[str, dict[str, float]] = {}
    try:
        for mode in MODES:
            for arm, knobs in arms.items():
                first, best = _forward_time(mode=mode, reps=reps, **knobs)
                times[mode][arm] = best
                if arm == "tuned":
                    autotune_report[mode] = {
                        "first_forward_s": first,
                        "steady_forward_s": best,
                    }
        plan_cache_stats = {
            "plans": len(plan_cache),
            "hits": plan_cache.hits,
            "misses": plan_cache.misses,
            "tunes": plan_cache.tunes,
        }
    finally:
        tuner.set_plan_cache(None)

    speedups = {
        mode: {
            "fused_vs_seed": times[mode]["seed"] / times[mode]["fused"],
            "fused_vs_reference": (
                times[mode]["reference"] / times[mode]["fused"]
            ),
            "fused_mt_vs_fused": (
                times[mode]["fused"] / times[mode]["fused_mt"]
            ),
            "tuned_vs_fused": times[mode]["fused"] / times[mode]["tuned"],
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
            "tuned_vs_fused": geomean("tuned_vs_fused"),
        },
        "autotune": {
            "per_mode": autotune_report,
            "plan_cache": plan_cache_stats,
        },
        "density_sweep": {
            "shape": dict(SWEEP_SHAPE, stream_length=STREAM_LENGTH),
            "results": run_density_sweep(),
        },
        "table_cache": table_cache_stats(),
        "telemetry": {
            "enabled": obs.enabled(),
            "counters": obs.get_registry().counters(),
        },
        "notes": (
            "'seed' is the pre-fused hot path (reference engine + byte-LUT "
            "popcount). Worker scaling (fused_mt) requires >1 CPU; on a "
            "single-CPU machine it measures sharding overhead instead. "
            "The density sweep runs serially. "
            "'tuned' resolves plans through repro.sc.tuner against a fresh "
            "in-process cache; autotune.first_forward_s carries the one-time "
            "tuning cost, the steady column runs entirely on plan-cache "
            "hits. density_sweep times the dense slab sweep vs the auto "
            "path on synthetic operands at pinned activation sparsity."
        ),
    }


def render(report: dict) -> str:
    rows = [
        f"{'mode':6s} {'seed':>8s} {'refnat':>8s} {'fused':>8s} "
        f"{'fused_mt':>8s} {'tuned':>8s} {'vs seed':>8s} {'vs ref':>8s}"
    ]
    for mode in MODES:
        t = report["seconds_per_forward"][mode]
        s = report["speedups"][mode]
        rows.append(
            f"{mode:6s} {t['seed'] * 1e3:7.1f}ms {t['reference'] * 1e3:7.1f}ms "
            f"{t['fused'] * 1e3:7.1f}ms {t['fused_mt'] * 1e3:7.1f}ms "
            f"{t['tuned'] * 1e3:7.1f}ms "
            f"{s['fused_vs_seed']:7.2f}x {s['fused_vs_reference']:7.2f}x"
        )
    g = report["geomean"]
    rows.append(
        f"geomean fused vs seed: {g['fused_vs_seed']:.2f}x, "
        f"vs reference(native): {g['fused_vs_reference']:.2f}x, "
        f"tuned vs fused: {g['tuned_vs_fused']:.2f}x "
        f"({report['machine']['cpus']} CPU(s))"
    )
    pc = report["autotune"]["plan_cache"]
    rows.append(
        f"plan cache: {pc['plans']} plans, {pc['hits']} hits / "
        f"{pc['misses']} misses, {pc['tunes']} tunes"
    )
    rows.append("density sweep (auto vs forced-dense speedup):")
    for mode in MODES:
        cells = report["density_sweep"]["results"][mode]
        line = "  ".join(
            f"zf={density}: {cell['auto_vs_dense']:5.2f}x"
            for density, cell in cells.items()
        )
        rows.append(f"  {mode:6s} {line}")
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
    # Plan-cache reuse: every shape tuned exactly once (on the recorded
    # first forward), every later resolution was a hit.
    pc = report["autotune"]["plan_cache"]
    assert pc["tunes"] == pc["misses"]
    assert pc["hits"] > 0
    # The sparse path must pull its weight where it engages: at 90%
    # activation sparsity at least one mode runs >= 1.5x the dense sweep.
    at_90 = [
        cells["0.90"]["auto_vs_dense"]
        for cells in report["density_sweep"]["results"].values()
    ]
    assert max(at_90) >= 1.5


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
