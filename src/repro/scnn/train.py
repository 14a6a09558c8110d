"""SC-aware training loop (SC forward / FP backward) and evaluation.

Implements the paper's stream-based training: every forward pass runs the
bit-true SC simulation configured by :class:`~repro.scnn.config.SCConfig`,
gradients flow through the floating-point surrogate, and the optimizer is
ADAM at lr 2e-3 (paper Sec. IV). Paired-arm comparisons (Fig. 1,
Table I ablations) reuse one :class:`TrainResult` protocol so every arm
sees identical data order and initialization.

The loop is **fault tolerant** (all opt-in, zero-overhead when off):

* ``checkpoint_path`` + ``checkpoint_every`` write atomic checkpoints
  (:mod:`repro.scnn.ckpt`) every N batches and at every epoch end; a
  killed run relaunched with ``resume=True`` continues **bit-identical**
  — same losses, same final weights — because the checkpoint captures
  the optimizer moments, scheduler epoch, loader position, dropout RNG
  states, and SC-simulator call indices along with the weights.
* ``pool`` routes each minibatch's SC forward through the supervised
  worker pool (:class:`repro.scnn.pool.MinibatchPool`): worker crashes
  are retried, exhausted retries degrade to in-process simulation, and
  either path yields the same bits.
* ``handle_signals`` turns SIGTERM/SIGINT into clean preemption: the
  run checkpoints at the next batch boundary, writes a resume marker,
  and raises :class:`~repro.errors.TrainingInterrupted`.
"""

from __future__ import annotations

import contextlib
import signal
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro import obs
from repro.errors import TrainingInterrupted
from repro.nn import Adam, ArrayDataset, DataLoader, Module, StepLR
from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad
from repro.scnn.ckpt import (
    clear_resume_marker,
    restore_train_checkpoint,
    save_train_checkpoint,
    write_resume_marker,
)
from repro.scnn.layers import inject_sc_values

# -- preemption ---------------------------------------------------------------

#: Set -> the running train_model() checkpoints and exits at the next
#: batch boundary. Module-level so signal handlers (and tests) can reach
#: the loop without threading a handle through every call site.
_PREEMPT = threading.Event()


def request_preemption() -> None:
    """Ask the running :func:`train_model` to checkpoint and exit at the
    next batch boundary (thread- and signal-safe)."""
    _PREEMPT.set()


def preemption_requested() -> bool:
    return _PREEMPT.is_set()


def clear_preemption() -> None:
    _PREEMPT.clear()


@contextlib.contextmanager
def preemption_signals(signums=(signal.SIGTERM, signal.SIGINT)):
    """Route ``signums`` to :func:`request_preemption` inside the block.

    The previous handlers are restored on exit. Outside the main thread
    (where CPython forbids installing handlers) this degrades to a
    no-op — preemption stays reachable via :func:`request_preemption`.
    """
    previous = {}
    try:
        for signum in signums:
            previous[signum] = signal.signal(
                signum, lambda _sig, _frame: request_preemption()
            )
    except ValueError:  # pragma: no cover - non-main thread
        pass
    try:
        yield
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)


@dataclass
class TrainResult:
    """Outcome of one training run."""

    train_accuracy: float
    test_accuracy: float
    losses: list[float] = field(default_factory=list)
    epoch_test_accuracy: list[float] = field(default_factory=list)

    @property
    def best_test_accuracy(self) -> float:
        if not self.epoch_test_accuracy:
            return self.test_accuracy
        return max(self.epoch_test_accuracy)


def evaluate(model: Module, dataset: ArrayDataset, batch_size: int = 64) -> float:
    """Top-1 accuracy of ``model`` on ``dataset`` (eval mode, no grad)."""
    was_training = any(m.training for m in model.modules())
    model.eval()
    correct = 0
    with obs.span("train.evaluate", samples=len(dataset)), no_grad():
        for start in range(0, len(dataset), batch_size):
            images = dataset.images[start : start + batch_size]
            labels = dataset.labels[start : start + batch_size]
            logits = model(Tensor(images)).data
            correct += int((logits.argmax(axis=1) == labels).sum())
    if was_training:
        model.train()
    return correct / len(dataset)


def train_model(
    model: Module,
    train_set: ArrayDataset,
    test_set: ArrayDataset,
    epochs: int = 10,
    batch_size: int = 32,
    lr: float = 2e-3,
    seed: int = 0,
    eval_every: int = 0,
    lr_step: int = 0,
    lr_gamma: float = 0.5,
    verbose: bool = False,
    checkpoint_path: "str | Path | None" = None,
    checkpoint_every: int = 0,
    resume: bool = False,
    pool=None,
    handle_signals: bool = False,
    on_batch: "Callable[[int, int], None] | None" = None,
) -> TrainResult:
    """Train ``model`` with ADAM/cross-entropy; returns accuracies.

    ``eval_every`` > 0 records test accuracy every that many epochs (the
    final epoch is always recorded). ``lr_step`` > 0 halves (``lr_gamma``)
    the learning rate every that many epochs — straight-through training
    of all-OR models drifts into saturation at a constant 2e-3 in the
    scaled regime, so the accuracy experiments decay it.

    Fault tolerance (see module docstring): ``checkpoint_path`` enables
    atomic checkpoints (every epoch end, plus every ``checkpoint_every``
    batches when > 0); ``resume=True`` restores an existing checkpoint
    — refusing one trained under different hyperparameters — and
    continues bit-identically, mid-epoch included. ``pool`` offloads SC
    forwards to a :class:`~repro.scnn.pool.MinibatchPool`.
    ``handle_signals`` makes SIGTERM/SIGINT preempt cleanly
    (checkpoint + resume marker + :class:`TrainingInterrupted`).
    ``on_batch(epoch, batches_done)`` is a hook fired after every batch
    — tests use it to preempt at an exact batch index.
    """
    optimizer = Adam(model.parameters(), lr=lr)
    scheduler = StepLR(optimizer, lr_step, lr_gamma) if lr_step else None
    loader = DataLoader(train_set, batch_size=batch_size, seed=seed)
    ckpt = Path(checkpoint_path) if checkpoint_path is not None else None
    fingerprint = {
        "epochs": epochs,
        "batch_size": batch_size,
        "lr": lr,
        "seed": seed,
        "eval_every": eval_every,
        "lr_step": lr_step,
        "lr_gamma": lr_gamma,
    }
    losses: list[float] = []
    epoch_acc: list[float] = []
    start_epoch = 0
    epoch_loss = 0.0
    batches = 0
    samples = 0
    clear_preemption()  # a prior interrupted run must not trip this one
    if ckpt is not None and resume and ckpt.exists():
        user = restore_train_checkpoint(
            ckpt,
            model,
            optimizer,
            scheduler=scheduler,
            loader=loader,
            expected_fingerprint=fingerprint,
        )
        if user.get("done"):
            return TrainResult(
                train_accuracy=user["train_accuracy"],
                test_accuracy=user["test_accuracy"],
                losses=list(user["losses"]),
                epoch_test_accuracy=list(user["epoch_acc"]),
            )
        losses = list(user["losses"])
        epoch_acc = list(user["epoch_acc"])
        start_epoch = int(user["epoch"])
        epoch_loss = float(user["epoch_loss"])
        batches = int(user["batches"])
        samples = int(user["samples"])

    def save(epoch: int, done: bool = False, result: dict | None = None):
        if ckpt is None:
            return
        user = {
            "losses": losses,
            "epoch_acc": epoch_acc,
            "epoch": epoch,
            "epoch_loss": epoch_loss,
            "batches": batches,
            "samples": samples,
            "done": done,
            **(result or {}),
        }
        save_train_checkpoint(
            ckpt,
            model,
            optimizer,
            scheduler=scheduler,
            loader=loader,
            fingerprint=fingerprint,
            user=user,
        )

    model.train()
    reg = obs.get_registry()
    signal_scope = (
        preemption_signals() if handle_signals else contextlib.nullcontext()
    )
    with signal_scope:
        for epoch in range(start_epoch, epochs):
            with reg.span("train.epoch", epoch=epoch) as ep_span:
                for images, labels in loader:
                    values = (
                        pool.sc_values(images) if pool is not None else None
                    )
                    with reg.span("train.batch", epoch=epoch, batch=batches):
                        optimizer.zero_grad()
                        if values is not None:
                            with inject_sc_values(values):
                                logits = model(Tensor(images))
                        else:
                            logits = model(Tensor(images))
                        loss = F.cross_entropy(logits, labels)
                        loss.backward()
                        optimizer.step()
                    epoch_loss += float(loss.data)
                    batches += 1
                    samples += len(images)
                    if (
                        ckpt is not None
                        and checkpoint_every
                        and batches % checkpoint_every == 0
                    ):
                        save(epoch)
                    if on_batch is not None:
                        on_batch(epoch, batches)
                    if _PREEMPT.is_set():
                        save(epoch)
                        if ckpt is not None:
                            write_resume_marker(
                                ckpt,
                                "preempted",
                                {"epoch": epoch, "batch": batches},
                            )
                        raise TrainingInterrupted(
                            f"preempted at epoch {epoch} batch {batches}",
                            epoch=epoch,
                            batch=batches,
                        )
            losses.append(epoch_loss / max(batches, 1))
            reg.counter("train.batches").add(batches)
            reg.counter("train.samples").add(samples)
            reg.gauge("train.loss").set(losses[-1])
            reg.add_profile(
                {
                    "kind": "train_epoch",
                    "epoch": epoch,
                    "loss": losses[-1],
                    "batches": batches,
                    "samples": samples,
                    "wall_s": ep_span.wall_s,
                    "cpu_s": ep_span.cpu_s,
                }
            )
            if scheduler is not None:
                scheduler.step()
            last = epoch == epochs - 1
            if (eval_every and (epoch + 1) % eval_every == 0) or last:
                acc = evaluate(model, test_set, batch_size=batch_size)
                epoch_acc.append(acc)
                if verbose:
                    print(
                        f"epoch {epoch + 1}/{epochs}: "
                        f"loss={losses[-1]:.4f} test_acc={acc:.4f}"
                    )
            elif verbose:
                print(f"epoch {epoch + 1}/{epochs}: loss={losses[-1]:.4f}")
            epoch_loss = 0.0
            batches = 0
            samples = 0
            if not last:
                save(epoch + 1)

    result = TrainResult(
        train_accuracy=evaluate(model, train_set, batch_size=batch_size),
        test_accuracy=epoch_acc[-1],
        losses=losses,
        epoch_test_accuracy=epoch_acc,
    )
    save(
        epochs,
        done=True,
        result={
            "train_accuracy": result.train_accuracy,
            "test_accuracy": result.test_accuracy,
        },
    )
    if ckpt is not None:
        clear_resume_marker(ckpt)
    return result


def run_length_double_check(cfg_label: str) -> str:
    """The paper's reminder that split-unipolar doubles effective stream
    length: render a config label with the physical length annotation."""
    parts = cfg_label.split("-")
    doubled = "-".join(str(2 * int(p)) for p in parts)
    return f"{cfg_label} (physical {doubled} with split-unipolar)"


def set_global_determinism(seed: int) -> np.random.Generator:
    """Root generator for an experiment; use its children everywhere."""
    return np.random.default_rng(seed)
