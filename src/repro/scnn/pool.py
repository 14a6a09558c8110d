"""Crash-surviving pooled minibatch execution for SC training.

The simulated-SC forward dominates training time, so it is the part
worth pushing onto the supervised worker pool
(:class:`~repro.serve.backend.ProcessPoolBackend`) — and also the part
most exposed to faults: a worker that crashes, wedges, or corrupts its
result mid-epoch must not lose the run. The contract here is strict:

* **bit-identical** — a pooled run and an in-process run produce the
  same weights. Each batch ships the model's complete mutable state
  (parameters, buffers, dropout RNG state, simulator call indices) to
  whichever worker picks it up, through the worker call serving uses
  too (:meth:`~repro.serve.backend.ProcessPoolBackend.call`). The
  worker runs this module's training task — a training-mode simulated
  forward under :func:`~repro.scnn.layers.capture_sc_values` — and
  returns each SC layer's bit-true output, which the parent checks is
  finite. The trainer then re-runs the (cheap) FP forward under
  :func:`~repro.scnn.layers.inject_sc_values`, which substitutes those
  outputs into the straight-through estimator and advances local RNG
  cursors exactly as if the simulation had run in-process.
* **crash-surviving** — a retryable worker failure (any
  :class:`~repro.errors.ExecutionBackendError`: a crash, a timeout, or
  a corrupt result) re-runs the batch on a healthy worker via
  :func:`repro.utils.retry.call_with_retry`; because state is re-shipped
  per batch, a freshly respawned worker is automatically consistent.
  Determinism makes the retry free: the recomputed result is the
  result.
* **gracefully degrading** — if retries exhaust, the batch falls back
  to in-process simulation (``sc_values`` returns ``None``) and the run
  continues; :data:`DEGRADE_AFTER` consecutive exhausted batches retire
  the pool for the rest of the run rather than paying timeouts forever.

The retry schedule (:data:`RETRY`), the per-attempt timeout
(:data:`BATCH_TIMEOUT_S`), :data:`DEGRADE_AFTER` and the backoff jitter's
seed are module constants; a caller picks only the worker count and the
chaos injection.

Under the 5 % injected-crash regime of
``benchmarks/bench_train_resilience.py`` this machinery loses zero runs
and zero batches, and the final weights match the fault-free run bit
for bit.
"""

from __future__ import annotations

import random
import threading

import numpy as np

from repro import obs
from repro.errors import ExecutionBackendError, ResultCorruptionError
from repro.nn.layers import Module
from repro.nn.tensor import Tensor, no_grad
from repro.scnn.ckpt import load_rng_state, rng_state_dict
from repro.scnn.layers import capture_sc_values
from repro.utils.chaos import ChaosConfig
from repro.utils.retry import RetryPolicy, call_with_retry

#: Registry name the training model is cached under in pool workers.
TRAIN_ENTRY_NAME = "__train__"
#: Retry schedule of a failed pooled batch.
RETRY = RetryPolicy()
#: Per-attempt timeout of a pooled batch (seconds).
BATCH_TIMEOUT_S = 120.0
#: Consecutive exhausted batches that retire the pool for the run.
DEGRADE_AFTER = 3


def _train_forward(entry, batch: np.ndarray, state: dict) -> list:
    """Pool-worker task: one training-mode SC forward.

    Restores the shipped parameter/buffer and derived-RNG ``state``
    into the worker's cached model, then returns the captured
    per-SC-layer outputs. Shipping the full state each batch means a
    freshly respawned worker is automatically consistent — there is no
    separate weight-sync protocol to get wrong.
    """
    model = entry.model
    model.load_state_dict(state["model"], strict=True)
    load_rng_state(model, state["rng"])
    model.train()
    with no_grad(), capture_sc_values() as values:
        model(Tensor(np.ascontiguousarray(batch)))
    return list(values)


def _finite(values: list) -> list[np.ndarray]:
    """Parent-side check of a training task's result."""
    values = [np.asarray(value) for value in values]
    for value in values:
        if not np.isfinite(value).all():
            raise ResultCorruptionError(
                "pool worker returned non-finite SC values"
            )
    return values


class MinibatchPool:
    """Supervised worker pool executing SC training forwards.

    Wraps one :class:`~repro.serve.backend.ProcessPoolBackend` (its
    heartbeat/respawn supervision included) around a single training
    model. Use as a context manager::

        with MinibatchPool(model, input_shape=(1, 8, 8)) as pool:
            values = pool.sc_values(batch)   # None -> simulate locally

    ``sc_values`` never raises for worker faults — it returns ``None``
    when the pool cannot produce the batch, and the caller simulates
    in-process (bit-identical either way).
    """

    def __init__(
        self,
        model: Module,
        input_shape: tuple[int, ...],
        num_workers: int = 2,
        chaos: ChaosConfig | None = None,
    ):
        # Imported here, not at module top: repro.serve pulls in
        # repro.scnn (registry type hints), so a top-level import makes
        # `import repro.serve` fail on a cold interpreter depending on
        # which package is imported first.
        from repro.serve.backend import ProcessPoolBackend
        from repro.serve.registry import ModelEntry

        self.model = model
        self.entry = ModelEntry(
            name=TRAIN_ENTRY_NAME,
            model=model,
            input_shape=tuple(input_shape),
            sc_config=None,
            tiers=[{}],
        )
        self.degraded = False
        self._consecutive_failures = 0
        self._jitter_rng = random.Random(0)
        self.counters = {
            "batches": 0,
            "pooled": 0,
            "retries": 0,
            "fallbacks": 0,
        }
        # Training drives sc_values() from one thread, but stats() is
        # read by monitoring/serving threads while a run is live; the
        # lock is never held across a pooled batch.
        self._lock = threading.Lock()  # guards: counters, degraded, _consecutive_failures
        # One batch is in flight at a time, so each worker may shard its
        # kernels across every CPU.
        self.backend = ProcessPoolBackend(
            num_workers=num_workers, chaos=chaos, busy_workers=1
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "MinibatchPool":
        self.backend.start()
        return self

    def stop(self) -> None:
        self.backend.stop()

    def __enter__(self) -> "MinibatchPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- execution -----------------------------------------------------------

    def sc_values(self, batch: np.ndarray) -> "list[np.ndarray] | None":
        """Captured SC-layer outputs for one minibatch, or ``None``.

        ``None`` means the pool could not produce this batch (retries
        exhausted, or the pool has degraded) — the caller must simulate
        in-process. Worker faults are retried transparently; shipping
        the full model state per batch makes any healthy worker — new,
        old, or freshly respawned — an equally correct executor.
        """
        with self._lock:
            self.counters["batches"] += 1
            if self.degraded:
                self.counters["fallbacks"] += 1
                return None
        payload = {
            "model": self.model.state_dict(),
            "rng": rng_state_dict(self.model),
        }

        def on_retry(error, attempt, delay):
            with self._lock:
                self.counters["retries"] += 1
            obs.counter("train.pool_retries").add(1)

        try:
            values = call_with_retry(
                lambda: self.backend.call(
                    self.entry,
                    _train_forward,
                    (batch, payload),
                    _finite,
                    timeout_s=BATCH_TIMEOUT_S,
                ),
                RETRY,
                retry_on=(ExecutionBackendError,),
                rng=self._jitter_rng,
                on_retry=on_retry,
            )
        except ExecutionBackendError:
            with self._lock:
                self._consecutive_failures += 1
                self.counters["fallbacks"] += 1
                if self._consecutive_failures >= DEGRADE_AFTER:
                    self.degraded = True
            obs.counter("train.pool_fallbacks").add(1)
            return None
        with self._lock:
            self._consecutive_failures = 0
            self.counters["pooled"] += 1
        return values

    def stats(self) -> dict:
        with self._lock:
            snapshot = {"degraded": self.degraded, **self.counters}
        snapshot["backend"] = self.backend.stats()
        return snapshot
