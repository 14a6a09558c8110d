"""Workload ``train_pooled``: pooled SC training steps with checkpoints.

The ``geo-repro train`` model (CNN-4 width 0.25, kernel 3, 16x16
svhn-like inputs, streams 64/64) trained by ``train_model`` at batch 32
with a 2-worker ``MinibatchPool`` and ``checkpoint_every=1`` (the CLI
default). One step is the ROADMAP's training step: pooled SC forward,
FP forward and backward, optimizer, fsync'd checkpoint. Steps are timed
between consecutive ``on_batch`` calls; the run stops by requesting
preemption at the deadline, so no final evaluation is timed.

Correctness: the first pooled steps' losses must equal the same steps
run in-process from the same initial state.
"""

from __future__ import annotations

import os
import pickle
import time
from itertools import zip_longest
from pathlib import Path

import numpy as np

from common import Outcome, median, percentile, tree_peak_rss_mb
from tracer import Tracer

BATCH = 32
TRAIN_SAMPLES = 1024  # 32 steps per epoch; epochs repeat until the deadline
CHECKED_STEPS = 4
INPUT_SHAPE = (3, 16, 16)


def _model():
    from repro.models import cnn4_sc
    from repro.scnn.config import SCConfig

    cfg = SCConfig(stream_length=64, stream_length_pooling=64)
    return cnn4_sc(cfg, input_size=16, width_mult=0.25, kernel_size=3, seed=1)


def _data(seed: int):
    from repro.datasets import downscale, load_pair

    train_set, test_set = load_pair("svhn", TRAIN_SAMPLES, BATCH, seed=seed)
    return downscale(train_set, 2), downscale(test_set, 2)


class _LossTap:
    """Records the first losses ``train_model`` computes (it calls
    ``repro.nn.functional.cross_entropy`` through the module)."""

    def __init__(self, limit: int):
        self.limit = limit
        self.losses: list[float] = []

    def __enter__(self) -> "_LossTap":
        import repro.nn.functional as F

        self._original = F.cross_entropy

        def cross_entropy(logits, labels):
            loss = self._original(logits, labels)
            if len(self.losses) < self.limit:
                self.losses.append(float(loss.data))
            return loss

        F.cross_entropy = cross_entropy
        return self

    def __exit__(self, *exc) -> None:
        import repro.nn.functional as F

        F.cross_entropy = self._original


def _train(model, data, seed: int, ckpt, on_batch, pool=None) -> None:
    """``train_model`` until ``on_batch`` requests preemption."""
    from repro.errors import TrainingInterrupted
    from repro.scnn import train_model

    try:
        train_model(
            model, *data, epochs=1_000_000, batch_size=BATCH, seed=seed,
            checkpoint_path=ckpt, checkpoint_every=1, pool=pool,
            on_batch=on_batch,
        )
    except TrainingInterrupted:
        return
    raise RuntimeError("training ended without reaching the deadline")


def _install_wrappers(tracer: Tracer) -> None:
    import repro.scnn.train as train
    from repro.nn.optim import Adam
    from repro.scnn.pool import MinibatchPool

    tracer.wrap(MinibatchPool, "sc_values", "pool.sc_values")
    tracer.wrap(Adam, "step", "train.optimizer")
    tracer.wrap(train, "save_train_checkpoint", "train.checkpoint")


def run(
    seed: int, seconds: float, trace: bool, setups: int, run_dir: Path
) -> Outcome:
    from repro.scnn import MinibatchPool, request_preemption, rng_state_dict

    data = _data(seed)
    setup_s, pool = [], None
    for _ in range(setups):
        if pool is not None:
            pool.stop()
        start = time.perf_counter()
        model = _model()
        pool = MinibatchPool(model, input_shape=INPUT_SHAPE, num_workers=2).start()
        setup_s.append(time.perf_counter() - start)

    tracer = Tracer() if trace else None
    steps: list[float] = []
    marks = [time.perf_counter()]
    deadline = marks[0] + seconds

    def on_batch(epoch: int, batches: int) -> None:
        now = time.perf_counter()
        steps.append(now - marks[-1])
        marks.append(now)
        if now >= deadline:
            request_preemption()

    try:
        if tracer is not None:
            _install_wrappers(tracer)
        with _LossTap(CHECKED_STEPS) as pooled_losses:
            marks[0] = time.perf_counter()
            _train(model, data, seed, run_dir / "pooled.npz", on_batch, pool)
        peak_rss_mb = tree_peak_rss_mb(os.getpid())
        stats = pool.stats()
        payload_kb = len(pickle.dumps(
            {"model": model.state_dict(), "rng": rng_state_dict(model)}
        )) / 1024
    finally:
        if tracer is not None:
            tracer.uninstall()
        pool.stop()

    with _LossTap(CHECKED_STEPS) as local_losses:
        def stop_after_checked(epoch: int, batches: int) -> None:
            if batches >= CHECKED_STEPS:
                request_preemption()

        _train(_model(), data, seed, run_dir / "local.npz", stop_after_checked)
    failed = sum(
        a != b
        for a, b in zip_longest(pooled_losses.losses, local_losses.losses)
    )
    checks = [] if not failed else [
        f"pooled losses {pooled_losses.losses} != in-process "
        f"{local_losses.losses}"
    ]

    step_ms = np.asarray(steps) * 1e3
    metrics = {
        "setup_s": median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "throughput_per_s": BATCH * len(steps) / sum(steps),
        "latency_p50_ms": median(step_ms),
        "step_p95_ms": percentile(step_ms, 95),
        "pool.payload_kb": payload_kb,
        "pool.retries": stats["retries"],
        "pool.fallbacks": stats["fallbacks"],
    }
    outcome = Outcome(
        attempted=len(steps), failed=failed, metrics=metrics, checks=checks
    )
    if tracer is not None:
        total_s = marks[-1] - marks[0]
        n = len(steps)

        def mean_ms(name: str) -> float:
            return sum(s["dur"] for s in tracer.by_name(name)) / n * 1e3

        rows = {
            "pool.sc_values": mean_ms("pool.sc_values"),
            "train.optimizer": mean_ms("train.optimizer"),
            "train.checkpoint": mean_ms("train.checkpoint"),
        }
        rows["train.fp"] = total_s / n * 1e3 - sum(rows.values())
        for name, value in rows.items():
            metrics[f"{name}_ms"] = value
        outcome.layers = {
            "op": "training step (batch 32)",
            "total_ms": total_s / n * 1e3,
            "rows": rows,
        }
        outcome.dumps.append(tracer.export("bench train_pooled"))
    return outcome
