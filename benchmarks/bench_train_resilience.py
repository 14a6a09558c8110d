"""Benchmark: fault-tolerant training — checkpoint overhead, kill/resume
parity, and crash-surviving pooled minibatch execution.

Four arms over the same small CNN-4 SC training run:

* **baseline** — plain in-process training, no checkpointing;
* **checkpointed** — atomic checkpoints every ``CHECKPOINT_EVERY``
  batches plus every epoch end; the interesting number is the wall-time
  overhead vs baseline (gate: ``<= 5%``);
* **resume** — the run is preempted mid-epoch, then resumed from its
  checkpoint; the gate is **bit-identical parity** with baseline (same
  losses, same accuracies, same final weights, bit for bit);
* **pooled_chaos** — SC forwards run on the supervised process pool
  under 5 % injected worker crashes
  (:class:`repro.utils.chaos.ChaosConfig`); gates: zero runs and zero
  batches lost, and bit-identical parity with baseline (crashes cost
  retries, not results).

The full report is written to ``BENCH_train.json`` at the repository
root. Run standalone::

    PYTHONPATH=src python benchmarks/bench_train_resilience.py [--smoke]

or through pytest (``pytest benchmarks/bench_train_resilience.py``).
"""

import argparse
import json
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.datasets import downscale, load_pair
from repro.errors import TrainingInterrupted
from repro.models.cnn4 import cnn4_sc
from repro.scnn import (
    MinibatchPool,
    SCConfig,
    read_resume_marker,
    request_preemption,
    train_model,
)
from repro.utils.chaos import ChaosConfig

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_train.json"

#: Workload: the small CNN-4 used across the benchmark suite. Full
#: scale widens the model so the SC forward dominates the checkpoint
#: -overhead measurement (checkpoint cost is fixed per save).
TRAIN_SAMPLES, TEST_SAMPLES, INPUT_SIZE = 96, 48, 16

#: Checkpoint cadence for the overhead arm (batches).
CHECKPOINT_EVERY = 3

#: Fault injection for the pooled arm: the acceptance-gate rate. The
#: seed is chosen so the 12-batch full run draws two real worker
#: crashes — every run exercises crash recovery, not batch-count luck.
CHAOS = ChaosConfig(crash_rate=0.05, seed=0)
NUM_WORKERS = 2

#: Gates (mirrored in test_train_resilience_bench and EXPERIMENTS.md).
MAX_CHECKPOINT_OVERHEAD = 0.05
MAX_RUNS_LOST = 0


def _scale(smoke: bool) -> dict:
    return {
        "epochs": 1 if smoke else 2,
        "batch_size": 16,
        "stream_length": 16 if smoke else 64,
        "width_mult": 0.25 if smoke else 0.5,
        "seed": 0,
        "eval_every": 1,
    }


def _load_data():
    train, test = load_pair("svhn", TRAIN_SAMPLES, TEST_SAMPLES, seed=0)
    return downscale(train, 2), downscale(test, 2)


def _build_model(scale: dict):
    cfg = SCConfig(
        stream_length=scale["stream_length"],
        stream_length_pooling=scale["stream_length"],
    )
    return cnn4_sc(
        cfg,
        input_size=INPUT_SIZE,
        width_mult=scale["width_mult"],
        kernel_size=3,
        seed=1,
    )


def _train_kwargs(scale: dict) -> dict:
    return {
        key: scale[key]
        for key in ("epochs", "batch_size", "seed", "eval_every")
    }


def _params(model) -> dict:
    return model.state_dict()


def _bit_identical(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def _parity(result, model, ref_result, ref_params) -> dict:
    return {
        "losses_equal": result.losses == ref_result.losses,
        "train_accuracy_equal": (
            result.train_accuracy == ref_result.train_accuracy
        ),
        "test_accuracy_equal": (
            result.test_accuracy == ref_result.test_accuracy
        ),
        "params_bit_identical": _bit_identical(_params(model), ref_params),
    }


def run_train_bench(smoke: bool = False) -> dict:
    scale = _scale(smoke)
    train, test = _load_data()
    kw = _train_kwargs(scale)
    batches_per_epoch = -(-TRAIN_SAMPLES // scale["batch_size"])
    total_batches = batches_per_epoch * scale["epochs"]
    interrupt_at = (0, max(1, batches_per_epoch // 2))

    # -- baseline -------------------------------------------------------------
    baseline_model = _build_model(scale)
    t0 = time.perf_counter()
    baseline = train_model(baseline_model, train, test, **kw)
    baseline_s = time.perf_counter() - t0
    ref_params = _params(baseline_model)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        # -- checkpointed (overhead) ------------------------------------------
        ckpt_model = _build_model(scale)
        t0 = time.perf_counter()
        ckpt_result = train_model(
            ckpt_model,
            train,
            test,
            checkpoint_path=tmp / "overhead.npz",
            checkpoint_every=CHECKPOINT_EVERY,
            **kw,
        )
        checkpointed_s = time.perf_counter() - t0
        overhead = max(0.0, checkpointed_s / baseline_s - 1.0)

        # -- kill mid-epoch, resume -------------------------------------------
        resume_ckpt = tmp / "resume.npz"
        victim = _build_model(scale)

        def preempt(epoch, batches):
            if (epoch, batches) == interrupt_at:
                request_preemption()

        interrupted = False
        try:
            train_model(
                victim,
                train,
                test,
                checkpoint_path=resume_ckpt,
                on_batch=preempt,
                **kw,
            )
        except TrainingInterrupted:
            interrupted = True
        marker = read_resume_marker(resume_ckpt)
        resumed_model = _build_model(scale)
        resumed = train_model(
            resumed_model,
            train,
            test,
            checkpoint_path=resume_ckpt,
            resume=True,
            **kw,
        )
        resume_arm = {
            "interrupted_at": {
                "epoch": interrupt_at[0],
                "batch": interrupt_at[1],
            },
            "marker": marker,
            "marker_cleared": read_resume_marker(resume_ckpt) is None,
            "parity": _parity(resumed, resumed_model, baseline, ref_params),
        }
        assert interrupted, "preemption hook never fired"

    # -- pooled under chaos ---------------------------------------------------
    pooled_model = _build_model(scale)
    t0 = time.perf_counter()
    with MinibatchPool(
        pooled_model,
        input_shape=(3, INPUT_SIZE, INPUT_SIZE),
        num_workers=NUM_WORKERS,
        chaos=CHAOS,
    ) as pool:
        pooled = train_model(pooled_model, train, test, pool=pool, **kw)
        pool_stats = pool.stats()
    pooled_s = time.perf_counter() - t0
    batches_lost = total_batches - (
        pool_stats["pooled"] + pool_stats["fallbacks"]
    )
    pooled_parity = _parity(pooled, pooled_model, baseline, ref_params)
    runs_lost = 0 if all(pooled_parity.values()) else 1

    return {
        "benchmark": "train_resilience",
        "config": {
            "model": "cnn4_sc",
            "train_samples": TRAIN_SAMPLES,
            "test_samples": TEST_SAMPLES,
            "input_size": INPUT_SIZE,
            "checkpoint_every": CHECKPOINT_EVERY,
            "chaos": CHAOS.to_dict(),
            "num_workers": NUM_WORKERS,
            "smoke": smoke,
            **scale,
            "gates": {
                "max_checkpoint_overhead": MAX_CHECKPOINT_OVERHEAD,
                "max_runs_lost": MAX_RUNS_LOST,
            },
        },
        "machine": {
            "platform": platform.platform(),
            "numpy": np.__version__,
        },
        "arms": {
            "baseline": {
                "wall_s": baseline_s,
                "losses": baseline.losses,
                "test_accuracy": baseline.test_accuracy,
            },
            "checkpointed": {
                "wall_s": checkpointed_s,
                "overhead": overhead,
                "losses_equal": ckpt_result.losses == baseline.losses,
            },
            "resume": resume_arm,
            "pooled_chaos": {
                "wall_s": pooled_s,
                "parity": pooled_parity,
                "batches": pool_stats["batches"],
                "pooled": pool_stats["pooled"],
                "retries": pool_stats["retries"],
                "fallbacks": pool_stats["fallbacks"],
                "degraded": pool_stats["degraded"],
                "crashes_detected": pool_stats["backend"][
                    "crashes_detected"
                ],
                "respawned": pool_stats["backend"]["respawned"],
                "batches_lost": batches_lost,
                "runs_lost": runs_lost,
            },
        },
    }


def render(report: dict) -> str:
    arms = report["arms"]
    resume = arms["resume"]["parity"]
    pooled = arms["pooled_chaos"]
    rows = [
        f"baseline      {arms['baseline']['wall_s']:7.2f}s",
        f"checkpointed  {arms['checkpointed']['wall_s']:7.2f}s  "
        f"overhead {100 * arms['checkpointed']['overhead']:.2f}% "
        f"(gate <= {100 * report['config']['gates']['max_checkpoint_overhead']:.0f}%)",
        f"resume        parity: losses={resume['losses_equal']} "
        f"acc={resume['test_accuracy_equal']} "
        f"params={resume['params_bit_identical']}",
        f"pooled+chaos  {pooled['wall_s']:7.2f}s  "
        f"crashes={pooled['crashes_detected']} retries={pooled['retries']} "
        f"fallbacks={pooled['fallbacks']} batches_lost={pooled['batches_lost']} "
        f"runs_lost={pooled['runs_lost']} "
        f"params={pooled['parity']['params_bit_identical']}",
    ]
    return "\n".join(rows)


def _write(report: dict) -> None:
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")


def test_train_resilience_bench(once):
    report = once(run_train_bench)
    print()
    print(render(report))
    _write(report)
    arms = report["arms"]
    # Resume gate: a killed run is indistinguishable from an unkilled one.
    assert all(arms["resume"]["parity"].values())
    assert arms["resume"]["marker"] is not None
    assert arms["resume"]["marker_cleared"]
    # Chaos gate: 5% crashes cost retries/fallbacks, never runs or batches.
    assert all(arms["pooled_chaos"]["parity"].values())
    assert arms["pooled_chaos"]["batches_lost"] == 0
    assert arms["pooled_chaos"]["runs_lost"] <= MAX_RUNS_LOST
    # Overhead gate: atomic checkpoints are cheap.
    assert arms["checkpointed"]["overhead"] <= MAX_CHECKPOINT_OVERHEAD
    assert arms["checkpointed"]["losses_equal"]


if __name__ == "__main__":
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("--smoke", action="store_true", help="tiny fast run")
    args = cli.parse_args()
    report = run_train_bench(smoke=args.smoke)
    print(render(report))
    _write(report)
    print(f"wrote {OUTPUT}")
