"""Workload ``forward_offline``: in-process bit-true CNN-4 inference.

CNN-4 at width 1.0 on 3x32x32 cifar10-like synthetic images, batch 16,
streams 32-64 (the paper's operating point), in all five accumulation
modes taking turns batch by batch. There is no HTTP and no pool, so kernel
plan changes show here and nowhere else; the net is exactly
``cnn4_shapes(32, 3)``, so measured per-layer time lines up with
perfsim's modeled cycles for the same layers.
"""

from __future__ import annotations

import os
import time

import numpy as np

from common import Outcome, geomean, median, tree_peak_rss_mb
from tracer import Tracer

MODES = ("sc", "pbw", "pbhw", "fxp", "apc")
BATCH = 16
BATCHES = 4  # distinct input batches, cycled
STREAMS = {"stream_length": 64, "stream_length_pooling": 32}
LAYERS = ("conv1", "conv2", "conv3", "fc")  # SC layer_index order
#: perfsim's cycles for cnn4_shapes(32, 3) on GEO_ULP at 32-64, recorded
#: when the benchmark was defined. Any change is flagged.
MODELED_CYCLES = {"conv1": 9464, "conv2": 18944, "conv3": 9472, "fc": 268}


def _build(mode: str):
    from repro.models import cnn4_sc
    from repro.scnn.config import SCConfig

    cfg = SCConfig(**STREAMS, accumulation=mode)
    model = cnn4_sc(cfg, num_classes=10, in_channels=3, input_size=32, seed=0)
    model.eval()
    return model


def _forward(model, x: np.ndarray) -> np.ndarray:
    from repro.nn.tensor import Tensor, no_grad

    with no_grad():
        return model(Tensor(x)).data


def _setup(sample: np.ndarray) -> tuple[float, dict]:
    """Build every mode's model and warm its seed plans and stream
    tables with one single-sample forward, from a cold table cache."""
    from repro.scnn.sim import clear_table_cache

    clear_table_cache()
    start = time.perf_counter()
    models = {}
    for mode in MODES:
        models[mode] = _build(mode)
        _forward(models[mode], sample)
    return time.perf_counter() - start, models


def install_sim_wrappers(tracer: Tracer, probe_zero_share: dict | None = None):
    """Time the SC simulator's stages (module globals of repro.scnn.sim).

    ``probe_zero_share``, when given, receives the value-level zero share
    of the first kernel call per (mode, layer index).
    """
    import repro.scnn.sim as sim
    from repro.sc.accumulate import AccumulationMode

    def conv_attrs(simulator, *args, **kwargs):
        return {
            "layer": simulator.layer_index,
            "mode": simulator.cfg.accumulation.value,
        }

    def kernel_attrs(table, act_rows, cols, wp, wn, mode, *args, **kwargs):
        mode = AccumulationMode.parse(mode).value
        stack = tracer._stack()
        layer = stack[-1].record["attrs"].get("layer") if stack else None
        key = (mode, layer)
        if probe_zero_share is not None and key not in probe_zero_share:
            start = time.perf_counter()
            probe_zero_share[key] = 1.0 - np.count_nonzero(cols) / cols.size
            tracer.probe_s += time.perf_counter() - start
        return {"mode": mode, "layer": layer}

    tracer.wrap(sim.SCConvSimulator, "__call__", "sim.conv", conv_attrs)
    tracer.wrap(sim, "quantize_unipolar", "sim.quantize")
    tracer.wrap(sim, "stream_table", "sim.stream_table")
    tracer.wrap(sim, "im2col", "sim.im2col")
    tracer.wrap(sim, "fused_conv_counts", "kernel", kernel_attrs)


def _kernel_words() -> tuple[int, int]:
    from repro import obs

    return (
        int(obs.counter("sc.kernels.nnz_words", unit="words").value),
        int(obs.counter("sc.kernels.skipped_words", unit="words").value),
    )


def _modeled() -> dict:
    from repro.arch.geo import GEO_ULP
    from repro.arch.perfsim import simulate
    from repro.models import cnn4_shapes
    from repro.scnn.config import SCConfig

    report = simulate(cnn4_shapes(32, 3), GEO_ULP, SCConfig(**STREAMS))
    return {layer.name: layer for layer in report.layers}


def run(seed: int, seconds: float, trace: bool, setups: int) -> Outcome:
    from repro.datasets.synthetic import SyntheticImages
    from repro.scnn.layers import set_engine

    images, _ = SyntheticImages("cifar10", seed=seed).sample(BATCHES * BATCH)
    batches = images.reshape(BATCHES, BATCH, 3, 32, 32)
    setup_s = []
    for _ in range(setups):
        elapsed, models = _setup(batches[0][:1])
        setup_s.append(elapsed)

    tracer = Tracer() if trace else None
    zero_share: dict = {}
    if tracer is not None:
        install_sim_wrappers(tracer, zero_share)
    words_before = _kernel_words()
    times: dict[str, list[float]] = {mode: [] for mode in MODES}
    first: dict[str, np.ndarray] = {}
    deadline = time.perf_counter() + seconds
    try:
        # Modes take turns batch by batch, so a slow stretch of the host
        # lands on every mode alike instead of on one mode's window.
        while not first or time.perf_counter() < deadline:
            for mode in MODES:
                x = batches[len(times[mode]) % BATCHES]
                start = time.perf_counter()
                if tracer is not None:
                    with tracer.span("forward", mode=mode):
                        out = _forward(models[mode], x)
                else:
                    out = _forward(models[mode], x)
                times[mode].append(time.perf_counter() - start)
                first.setdefault(mode, out)
    finally:
        if tracer is not None:
            tracer.uninstall()
    words_after = _kernel_words()
    peak_rss_mb = tree_peak_rss_mb(os.getpid())

    # Correctness: fused first batch == reference engine on the whole
    # batch (the 8-bit batch norm quantizes per tensor, so a sample's
    # logits depend on its batch); modeled cycles exactly as recorded.
    checks, failed = [], 0
    for mode in MODES:
        set_engine(models[mode], "reference")
        if not np.array_equal(_forward(models[mode], batches[0]), first[mode]):
            failed += 1
            checks.append(f"{mode}: fused batch differs from reference engine")
    modeled = _modeled()
    cycles = {name: modeled[name].cycles for name in LAYERS}
    if cycles != MODELED_CYCLES:
        failed += 1
        checks.append(f"perfsim cycles {cycles} != recorded {MODELED_CYCLES}")

    # Per mode, the median batch: robust to host stalls that a total
    # over the run would absorb.
    rates = {m: BATCH / median(t) for m, t in times.items()}
    metrics = {
        "setup_s": median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "throughput_per_s": geomean(rates.values()),
        "latency_p50_ms": geomean(median(t) * 1e3 for t in times.values()),
    }
    for mode, rate in rates.items():
        metrics[f"images_per_s.{mode}"] = rate
    for name in LAYERS:
        metrics[f"layer.{name}.modeled_cycles"] = modeled[name].cycles
        metrics[f"layer.{name}.modeled_stall_cycles"] = modeled[name].stall_cycles
    nnz = words_after[0] - words_before[0]
    skipped = words_after[1] - words_before[1]
    metrics["kernel.skipped_word_share"] = (
        skipped / (nnz + skipped) if nnz + skipped else 0.0
    )
    outcome = Outcome(
        attempted=sum(len(t) for t in times.values()) + 1,  # +1: perfsim
        failed=failed,
        metrics=metrics,
        checks=checks,
    )
    if tracer is not None:
        _attribute(tracer, zero_share, outcome)
    return outcome


def _attribute(tracer: Tracer, zero_share: dict, outcome: Outcome) -> None:
    """Per-layer means (ms per forward batch) from the traced run."""
    forwards = tracer.by_name("forward")
    per_mode = {m: sum(1 for s in forwards if s["attrs"]["mode"] == m) for m in MODES}
    n = len(forwards)

    def total(name: str, key: str = "dur", **match) -> float:
        return sum(
            s[key]
            for s in tracer.by_name(name)
            if all(s["attrs"].get(k) == v for k, v in match.items())
        )

    rows = {
        "sim.quantize": total("sim.quantize") / n * 1e3,
        "sim.stream_table": total("sim.stream_table") / n * 1e3,
        "sim.im2col": total("sim.im2col") / n * 1e3,
        "kernel": total("kernel") / n * 1e3,
        "sim.other": total("sim.conv", "self") / n * 1e3,
        "nn.fp": total("forward", "self") / n * 1e3,
    }
    metrics = outcome.metrics
    for name in ("sim.quantize", "sim.stream_table", "sim.im2col", "sim.other", "nn.fp"):
        metrics[f"{name}_ms"] = rows[name]
    for mode in MODES:
        metrics[f"kernel.ms.{mode}"] = total("kernel", mode=mode) / per_mode[mode] * 1e3
    for index, name in enumerate(LAYERS):
        metrics[f"layer.{name}.measured_ms"] = (
            total("sim.conv", layer=index, mode="pbw") / per_mode["pbw"] * 1e3
        )
        metrics[f"kernel.zero_share.{name}"] = zero_share.get(("pbw", index), 0.0)
    outcome.layers = {
        "op": "forward batch (CNN-4, batch 16, all five modes)",
        "total_ms": total("forward") / n * 1e3,
        "rows": rows,
    }
    outcome.dumps.append(tracer.export("bench forward_offline"))
