"""Fault-tolerant training: atomic checkpoints, bit-identical resume,
signal preemption, and crash-surviving pooled minibatch execution.

The acceptance bar everywhere in this file is *bit-identical*: a run
interrupted at an arbitrary batch and resumed from its checkpoint must
reproduce exactly the losses, accuracies, and final weights of the run
that was never interrupted.
"""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import downscale, load_pair
from repro.errors import ConfigurationError, TrainingInterrupted
from repro.models import cnn4_sc
from repro.nn import Adam, DataLoader, SGD, StepLR
from repro.scnn import (
    MinibatchPool,
    SCConfig,
    clear_resume_marker,
    load_rng_state,
    read_resume_marker,
    request_preemption,
    restore_train_checkpoint,
    rng_state_dict,
    save_train_checkpoint,
    train_model,
    write_resume_marker,
)
from repro.scnn import pool as pool_module
from repro.utils import ChaosConfig, RetryPolicy

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Shared tiny-training recipe: 64 train samples / batch 16 -> 4 batches
#: per epoch, stream length 16 so a full run stays around a second.
TRAIN_KW = dict(epochs=1, batch_size=16, seed=0, eval_every=1)
INPUT_SHAPE = (3, 16, 16)


@pytest.fixture(scope="module")
def data():
    train, test = load_pair("svhn", 64, 32, seed=0)
    return downscale(train, 2), downscale(test, 2)


def build_model(accumulation="pbw"):
    cfg = SCConfig(
        stream_length=16, stream_length_pooling=16, accumulation=accumulation
    )
    return cnn4_sc(cfg, input_size=16, width_mult=0.25, kernel_size=3, seed=1)


def params_equal(a, b):
    sa, sb = a.state_dict(), b.state_dict()
    return set(sa) == set(sb) and all(
        np.array_equal(sa[k], sb[k]) for k in sa
    )


# -- optimizer / scheduler state ----------------------------------------------


class TestOptimizerState:
    def make_params(self, seed=0):
        from repro.nn.tensor import Tensor

        rng = np.random.default_rng(seed)
        return [
            Tensor(rng.uniform(-1, 1, (3, 4)).astype(np.float32)),
            Tensor(rng.uniform(-1, 1, (4,)).astype(np.float32)),
        ]

    def step_once(self, optimizer, params, seed=7):
        rng = np.random.default_rng(seed)
        for p in params:
            p.grad = rng.uniform(-1, 1, p.data.shape).astype(np.float32)
        optimizer.step()

    def test_adam_roundtrip_bitwise(self):
        params = self.make_params()
        opt = Adam(params, lr=2e-3)
        self.step_once(opt, params)
        state = opt.state_dict()

        fresh_params = self.make_params()
        fresh = Adam(fresh_params, lr=2e-3)
        fresh.load_state_dict(state)
        assert fresh._t == opt._t
        for a, b in zip(opt._m, fresh._m):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        for a, b in zip(opt._v, fresh._v):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        # Stepping both from the restored state stays bit-identical.
        self.step_once(opt, params, seed=8)
        fresh_params[0].data[:] = params[0].data
        fresh_params[1].data[:] = params[1].data
        # (grads applied to identical weights through identical moments)
        self.step_once(fresh, fresh_params, seed=8)

    def test_adam_restores_decayed_lr(self):
        params = self.make_params()
        opt = Adam(params, lr=2e-3)
        opt.lr = 5e-4  # as a scheduler would have left it
        restored = Adam(self.make_params(), lr=2e-3)
        restored.load_state_dict(opt.state_dict())
        assert restored.lr == 5e-4

    def test_sgd_velocity_roundtrip(self):
        params = self.make_params()
        opt = SGD(params, lr=1e-2, momentum=0.9)
        self.step_once(opt, params)
        restored = SGD(self.make_params(), lr=1e-2, momentum=0.9)
        restored.load_state_dict(opt.state_dict())
        for a, b in zip(opt._velocity, restored._velocity):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_kind_mismatch_rejected(self):
        params = self.make_params()
        state = Adam(params, lr=1e-3).state_dict()
        with pytest.raises(ConfigurationError, match="Adam"):
            SGD(self.make_params(), lr=1e-3).load_state_dict(state)

    def test_slot_count_mismatch_rejected(self):
        params = self.make_params()
        state = Adam(params, lr=1e-3).state_dict()
        state["m"] = state["m"][:1]
        with pytest.raises(ConfigurationError, match="slots"):
            Adam(self.make_params(), lr=1e-3).load_state_dict(state)

    def test_slot_shape_mismatch_rejected(self):
        params = self.make_params()
        state = SGD(params, lr=1e-2, momentum=0.9).state_dict()
        state["velocity"][0] = np.zeros((2, 2))
        with pytest.raises(ConfigurationError, match="shape"):
            SGD(self.make_params(), lr=1e-2).load_state_dict(state)

    def test_steplr_roundtrip(self):
        opt = Adam(self.make_params(), lr=2e-3)
        sched = StepLR(opt, step_size=2, gamma=0.5)
        sched.step(), sched.step(), sched.step()
        assert opt.lr == pytest.approx(1e-3)
        opt2 = Adam(self.make_params(), lr=2e-3)
        opt2.lr = opt.lr
        sched2 = StepLR(opt2, step_size=2, gamma=0.5)
        sched2.load_state_dict(sched.state_dict())
        sched2.step()  # epoch 4: no decay boundary
        assert opt2.lr == pytest.approx(5e-4)


# -- loader position ----------------------------------------------------------


class TestLoaderState:
    def make_dataset(self, n=40):
        from repro.nn import ArrayDataset

        rng = np.random.default_rng(3)
        return ArrayDataset(
            rng.uniform(0, 1, (n, 2)).astype(np.float32),
            rng.integers(0, 4, n),
        )

    def test_pos_counts_handed_out_batches(self):
        loader = DataLoader(self.make_dataset(), batch_size=8, seed=5)
        it = iter(loader)
        next(it), next(it)
        # While the consumer holds batch 1 the cursor already reads 2 —
        # a checkpoint taken mid-batch must not replay the held batch.
        assert loader.state_dict() == {"epoch": 1, "pos": 2}

    def test_mid_epoch_resume_replays_remaining_batches(self):
        full = [
            labels
            for _, labels in DataLoader(
                self.make_dataset(), batch_size=8, seed=5
            )
        ]
        consumed = DataLoader(self.make_dataset(), batch_size=8, seed=5)
        it = iter(consumed)
        next(it), next(it)
        resumed = DataLoader(self.make_dataset(), batch_size=8, seed=5)
        resumed.load_state_dict(consumed.state_dict())
        rest = [labels for _, labels in resumed]
        assert len(rest) == len(full) - 2
        for a, b in zip(full[2:], rest):
            np.testing.assert_array_equal(a, b)
        # The next epoch shuffles with the *next* epoch seed.
        second = [labels for _, labels in resumed]
        reference = DataLoader(self.make_dataset(), batch_size=8, seed=5)
        list(iter(reference))
        second_ref = [labels for _, labels in reference]
        for a, b in zip(second_ref, second):
            np.testing.assert_array_equal(a, b)

    def test_epoch_boundary_state_starts_next_epoch(self):
        loader = DataLoader(self.make_dataset(), batch_size=8, seed=5)
        list(iter(loader))  # consume epoch 0 fully
        state = loader.state_dict()
        assert state == {"epoch": 1, "pos": 0}
        resumed = DataLoader(self.make_dataset(), batch_size=8, seed=5)
        resumed.load_state_dict(state)
        ref = DataLoader(self.make_dataset(), batch_size=8, seed=5)
        list(iter(ref))
        for (_, a), (_, b) in zip(ref, resumed):
            np.testing.assert_array_equal(a, b)

    def test_negative_state_rejected(self):
        loader = DataLoader(self.make_dataset(), batch_size=8)
        with pytest.raises(ConfigurationError):
            loader.load_state_dict({"epoch": -1, "pos": 0})
        with pytest.raises(ConfigurationError):
            loader.load_state_dict({"epoch": 0, "pos": -2})


# -- checkpoint archive -------------------------------------------------------


class TestCheckpointArchive:
    def test_roundtrip_restores_everything(self, tmp_path, data):
        train, _ = data
        model = build_model()
        opt = Adam(model.parameters(), lr=2e-3)
        sched = StepLR(opt, step_size=1, gamma=0.5)
        loader = DataLoader(train, batch_size=16, seed=0)
        it = iter(loader)
        next(it)
        sched.step()
        path = save_train_checkpoint(
            tmp_path / "ck.npz",
            model,
            opt,
            scheduler=sched,
            loader=loader,
            fingerprint={"seed": 0},
            user={"losses": [2.5]},
        )
        other = build_model()
        # Perturb so the restore provably overwrites.
        next(iter(other.parameters())).data += 1.0
        opt2 = Adam(other.parameters(), lr=2e-3)
        sched2 = StepLR(opt2, step_size=1, gamma=0.5)
        loader2 = DataLoader(train, batch_size=16, seed=0)
        user = restore_train_checkpoint(
            path,
            other,
            opt2,
            scheduler=sched2,
            loader=loader2,
            expected_fingerprint={"seed": 0},
        )
        assert user == {"losses": [2.5]}
        assert params_equal(model, other)
        assert opt2.lr == opt.lr
        assert sched2.state_dict() == sched.state_dict()
        assert loader2.state_dict() == loader.state_dict()
        assert rng_state_dict(other) == rng_state_dict(model)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        model = build_model()
        opt = Adam(model.parameters(), lr=2e-3)
        path = save_train_checkpoint(
            tmp_path / "ck.npz", model, opt, fingerprint={"lr": 2e-3}
        )
        with pytest.raises(ConfigurationError, match="fingerprint"):
            restore_train_checkpoint(
                path, build_model(), Adam(build_model().parameters()),
                expected_fingerprint={"lr": 1e-3},
            )

    def test_missing_checkpoint_rejected(self, tmp_path):
        model = build_model()
        with pytest.raises(ConfigurationError, match="not found"):
            restore_train_checkpoint(
                tmp_path / "nope.npz", model, Adam(model.parameters())
            )

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "random.npz"
        np.savez(path, a=np.zeros(3))
        model = build_model()
        with pytest.raises(ConfigurationError, match="metadata"):
            restore_train_checkpoint(path, model, Adam(model.parameters()))

    def test_rng_state_strict_mismatch_rejected(self):
        model = build_model()
        state = rng_state_dict(model)
        state.pop(next(iter(state)))
        with pytest.raises(ConfigurationError, match="missing"):
            load_rng_state(model, state)

    def test_resume_marker_lifecycle(self, tmp_path):
        ckpt = tmp_path / "ck.npz"
        assert read_resume_marker(ckpt) is None
        write_resume_marker(ckpt, "preempted", {"epoch": 1, "batch": 3})
        marker = read_resume_marker(ckpt)
        assert marker["reason"] == "preempted"
        assert marker["detail"] == {"epoch": 1, "batch": 3}
        clear_resume_marker(ckpt)
        assert read_resume_marker(ckpt) is None
        clear_resume_marker(ckpt)  # idempotent


# -- bit-identical resume -----------------------------------------------------


def interrupted_then_resumed(data, ckpt, interrupt_at, accumulation="pbw",
                             **overrides):
    """Train with an injected preemption at batch ``interrupt_at``, then
    resume from the checkpoint; returns (result, model)."""
    train, test = data
    kw = {**TRAIN_KW, **overrides}
    model = build_model(accumulation)

    def hook(epoch, batches):
        if (epoch, batches) == interrupt_at:
            request_preemption()

    with pytest.raises(TrainingInterrupted):
        train_model(
            model, train, test, checkpoint_path=ckpt, on_batch=hook, **kw
        )
    marker = read_resume_marker(ckpt)
    assert marker is not None and marker["reason"] == "preempted"

    resumed = build_model(accumulation)
    result = train_model(
        resumed, train, test, checkpoint_path=ckpt, resume=True, **kw
    )
    assert read_resume_marker(ckpt) is None
    return result, resumed


class TestBitIdenticalResume:
    @pytest.fixture(scope="class")
    def references(self, data):
        """Uninterrupted reference runs, one per accumulation mode."""
        train, test = data
        refs = {}
        for mode in ("pbw", "fxp"):
            model = build_model(mode)
            refs[mode] = (
                train_model(model, train, test, **TRAIN_KW),
                model,
            )
        return refs

    @pytest.mark.parametrize("mode", ["pbw", "fxp"])
    @given(k=st.integers(min_value=1, max_value=3))
    @settings(max_examples=3, deadline=None)
    def test_interrupt_any_batch_resumes_bit_identical(
        self, data, references, tmp_path_factory, mode, k
    ):
        ref_result, ref_model = references[mode]
        ckpt = tmp_path_factory.mktemp("resume") / f"{mode}-{k}.npz"
        result, model = interrupted_then_resumed(
            data, ckpt, interrupt_at=(0, k), accumulation=mode
        )
        assert result.losses == ref_result.losses
        assert result.train_accuracy == ref_result.train_accuracy
        assert result.test_accuracy == ref_result.test_accuracy
        assert params_equal(model, ref_model)

    def test_epoch_boundary_resume_bit_identical(self, data, tmp_path):
        train, test = data
        kw = {**TRAIN_KW, "epochs": 2, "lr_step": 1}
        ref_model = build_model()
        ref = train_model(ref_model, train, test, **kw)
        # Interrupt in epoch 1 so the resume crosses the checkpoint
        # written at the epoch-0 boundary *and* a scheduler step.
        result, model = interrupted_then_resumed(
            data, tmp_path / "ck.npz", interrupt_at=(1, 2), epochs=2,
            lr_step=1,
        )
        assert result.losses == ref.losses
        assert result.test_accuracy == ref.test_accuracy
        assert params_equal(model, ref_model)

    def test_finished_checkpoint_short_circuits(self, data, tmp_path):
        train, test = data
        ckpt = tmp_path / "ck.npz"
        model = build_model()
        ref = train_model(model, train, test, checkpoint_path=ckpt, **TRAIN_KW)
        calls = []
        again = train_model(
            build_model(), train, test, checkpoint_path=ckpt, resume=True,
            on_batch=lambda e, b: calls.append((e, b)), **TRAIN_KW
        )
        assert calls == []  # not a single batch re-trained
        assert again.losses == ref.losses
        assert again.test_accuracy == ref.test_accuracy

    def test_periodic_checkpoint_survives_hard_kill(self, data, tmp_path):
        """checkpoint_every writes restorable state without preemption:
        simulate a hard kill by abandoning the run mid-epoch."""
        train, test = data
        ckpt = tmp_path / "ck.npz"
        ref_model = build_model()
        ref = train_model(ref_model, train, test, **TRAIN_KW)

        class Kill(Exception):
            pass

        def hook(epoch, batches):
            if batches == 2:
                raise Kill  # no checkpoint-on-exit path runs

        model = build_model()
        with pytest.raises(Kill):
            train_model(
                model, train, test, checkpoint_path=ckpt, checkpoint_every=1,
                on_batch=hook, **TRAIN_KW
            )
        resumed = build_model()
        result = train_model(
            resumed, train, test, checkpoint_path=ckpt, resume=True, **TRAIN_KW
        )
        assert result.losses == ref.losses
        assert params_equal(resumed, ref_model)


# -- signal preemption --------------------------------------------------------


SIGTERM_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys

    from repro.datasets import downscale, load_pair
    from repro.errors import TrainingInterrupted
    from repro.models import cnn4_sc
    from repro.scnn import SCConfig, train_model

    train, test = load_pair("svhn", 64, 32, seed=0)
    train, test = downscale(train, 2), downscale(test, 2)
    cfg = SCConfig(stream_length=16, stream_length_pooling=16)
    model = cnn4_sc(cfg, input_size=16, width_mult=0.25, kernel_size=3, seed=1)

    def hook(epoch, batches):
        if epoch == 0 and batches == 2:
            os.kill(os.getpid(), signal.SIGTERM)

    try:
        train_model(
            model, train, test, epochs=1, batch_size=16, seed=0,
            eval_every=1, checkpoint_path=sys.argv[1], handle_signals=True,
            on_batch=hook,
        )
    except TrainingInterrupted as error:
        print(f"INTERRUPTED {error.epoch} {error.batch}")
        sys.exit(0)
    sys.exit(1)
    """
)


class TestSignalPreemption:
    def test_sigterm_checkpoints_and_resumes_bit_identical(
        self, data, tmp_path
    ):
        train, test = data
        ckpt = tmp_path / "ck.npz"
        script = tmp_path / "victim.py"
        script.write_text(SIGTERM_SCRIPT)
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run(
            [sys.executable, str(script), str(ckpt)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "INTERRUPTED 0 2" in proc.stdout
        marker = read_resume_marker(ckpt)
        assert marker is not None and marker["reason"] == "preempted"

        ref_model = build_model()
        ref = train_model(ref_model, train, test, **TRAIN_KW)
        resumed = build_model()
        result = train_model(
            resumed, train, test, checkpoint_path=ckpt, resume=True, **TRAIN_KW
        )
        assert result.losses == ref.losses
        assert result.test_accuracy == ref.test_accuracy
        assert params_equal(resumed, ref_model)

    def test_preemption_signals_restores_handlers(self):
        from repro.scnn import preemption_signals

        before = signal.getsignal(signal.SIGTERM)
        with preemption_signals():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before


# -- pooled minibatch execution -----------------------------------------------


class TestMinibatchPool:
    def test_chaos_pooled_run_bit_identical_and_lossless(self, data):
        train, test = data
        ref_model = build_model()
        ref = train_model(ref_model, train, test, **TRAIN_KW)

        model = build_model()
        chaos = ChaosConfig(crash_rate=0.2, seed=7)
        with MinibatchPool(
            model, input_shape=INPUT_SHAPE, num_workers=2, chaos=chaos
        ) as pool:
            result = train_model(model, train, test, pool=pool, **TRAIN_KW)
            stats = pool.stats()
        assert result.losses == ref.losses
        assert result.test_accuracy == ref.test_accuracy
        assert params_equal(model, ref_model)
        # Chaos actually fired and cost retries, never batches.
        assert stats["batches"] == 4
        assert stats["pooled"] + stats["fallbacks"] == stats["batches"]
        assert not stats["degraded"]

    def test_total_worker_loss_degrades_to_in_process(
        self, data, monkeypatch
    ):
        train, test = data
        ref_model = build_model()
        ref = train_model(ref_model, train, test, **TRAIN_KW)

        model = build_model()
        chaos = ChaosConfig(crash_rate=1.0, seed=3)  # every attempt dies
        monkeypatch.setattr(
            pool_module, "RETRY",
            RetryPolicy(max_attempts=2, base_delay_s=0.001, max_delay_s=0.002),
        )
        monkeypatch.setattr(pool_module, "DEGRADE_AFTER", 1)
        monkeypatch.setattr(pool_module, "BATCH_TIMEOUT_S", 30.0)
        with MinibatchPool(
            model, input_shape=INPUT_SHAPE, num_workers=2, chaos=chaos
        ) as pool:
            result = train_model(model, train, test, pool=pool, **TRAIN_KW)
            stats = pool.stats()
        assert stats["degraded"]
        assert stats["fallbacks"] == stats["batches"]
        assert stats["pooled"] == 0
        # Degradation is graceful: the run completes bit-identically.
        assert result.losses == ref.losses
        assert params_equal(model, ref_model)


def test_corrupting_pool_run_bit_identical(data):
    """A worker that returns corrupt SC values is retired and the batch
    re-run elsewhere: the run still matches the in-process one."""
    train, test = data
    ref_model = build_model()
    ref = train_model(ref_model, train, test, **TRAIN_KW)

    model = build_model()
    # Seed 11 corrupts the first call of workers 0 and 1, so the first
    # batch is corrupted whichever worker takes it.
    chaos = ChaosConfig(corrupt_rate=0.3, seed=11)
    with MinibatchPool(
        model, input_shape=INPUT_SHAPE, num_workers=2, chaos=chaos
    ) as pool:
        result = train_model(model, train, test, pool=pool, **TRAIN_KW)
        stats = pool.stats()
    assert result.losses == ref.losses
    assert result.test_accuracy == ref.test_accuracy
    assert params_equal(model, ref_model)
    assert stats["retries"] >= 1
    assert stats["backend"]["respawned"] >= 1
    assert stats["pooled"] + stats["fallbacks"] == stats["batches"] == 4
