"""Tests for the experiment harnesses (cheap runs; claims as integration
tests of the whole stack)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    SCALES,
    get_scale,
    load_dataset,
    render_fig5,
    render_fig6,
    render_table2,
    render_table3,
    run_fig5,
    run_fig6,
    run_table2,
    run_table3,
)
from repro.experiments.ablations import render_claims, run_all_cheap
from repro.experiments.cli import main as cli_main
from repro.experiments.fig1_sharing import Fig1Result
from repro.experiments.fig2_progressive import Fig2Result, run_fig2
from repro.experiments.table1_accuracy import acoustic_config, geo_config


class TestScales:
    def test_known_scales(self):
        assert set(SCALES) == {"quick", "standard", "full"}
        assert get_scale("quick").name == "quick"
        assert get_scale(get_scale("full")).name == "full"

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            get_scale("huge")

    def test_load_dataset_shapes(self):
        scale = get_scale("quick")
        train, test, size, channels = load_dataset("svhn", scale)
        assert train.images.shape[1:] == (3, 16, 16)
        assert size == 16 and channels == 3

    def test_load_mnist_quick(self):
        scale = get_scale("quick")
        train, _, size, channels = load_dataset("mnist", scale)
        assert channels == 1
        assert size == 14


class TestConfigHelpers:
    def test_geo_config(self):
        cfg = geo_config(32, 64)
        assert cfg.stream_length_pooling == 32
        assert cfg.stream_length == 64
        assert str(cfg.accumulation) == "AccumulationMode.PBW"

    def test_acoustic_config(self):
        cfg = acoustic_config(128)
        assert cfg.accumulation.value == "sc"
        assert cfg.sharing.value == "none"


class TestFig5:
    def test_all_claims_hold(self):
        result = run_fig5()
        assert all(result.claims().values())

    def test_render_contains_modes(self):
        text = render_fig5(run_fig5())
        assert "PBW" in text and "FXP" in text and "PASS" in text


class TestFig6:
    def test_all_claims_hold(self):
        result = run_fig6()
        assert all(result.claims().values())

    def test_normalization_base_is_one(self):
        result = run_fig6()
        norm = result.normalized("Base-128,128")
        assert norm == {"area": 1.0, "energy": 1.0, "latency": 1.0}

    def test_render(self):
        text = render_fig6(run_fig6())
        assert "GEO-GEN-EXEC-32,64" in text


class TestTables:
    def test_table2_claims(self):
        result = run_table2()
        assert all(result.claims().values())
        assert "Table II" in render_table2(result)

    def test_table3_claims(self):
        result = run_table3()
        assert all(result.claims().values())
        assert "Table III" in render_table3(result)


class TestAblations:
    def test_cheap_claims_hold(self):
        claims = run_all_cheap()
        assert all(c.holds for c in claims), [
            c.name for c in claims if not c.holds
        ]

    def test_render(self):
        text = render_claims(run_all_cheap(), "title")
        assert "PASS" in text


class TestFig2Component:
    def test_curves_without_network(self):
        result = run_fig2(
            scale="quick",
            stream_lengths=(32,),
            num_pairs=256,
            include_network=False,
            verbose=False,
        )
        assert 32 in result.curves
        claims = result.claims()
        assert claims["settles_within_8_cycles@32"]


class TestClaimLogic:
    def test_fig1_claims_from_synthetic_numbers(self):
        result = Fig1Result()
        for length in (32, 128):
            result.accuracy.update(
                {
                    ("lfsr", "moderate", length): 0.80,
                    ("lfsr", "none", length): 0.74,
                    ("lfsr", "extreme", length): 0.30,
                    ("trng", "none", length): 0.72,
                    ("trng", "moderate", length): 0.71,
                    ("trng", "extreme", length): 0.35,
                }
            )
            result.mismatch_accuracy[("extreme", length)] = 0.20
        assert all(result.claims().values())

    def test_fig1_claims_detect_violations(self):
        result = Fig1Result()
        for length in (32, 128):
            result.accuracy.update(
                {
                    ("lfsr", "moderate", length): 0.60,
                    ("lfsr", "none", length): 0.74,
                    ("lfsr", "extreme", length): 0.62,
                    ("trng", "none", length): 0.72,
                    ("trng", "moderate", length): 0.85,
                    ("trng", "extreme", length): 0.35,
                }
            )
        claims = result.claims()
        assert not claims["lfsr_moderate_beats_unshared_trng@32"]
        assert not claims["trng_gains_nothing_from_sharing@32"]
        assert not claims["extreme_sharing_hurts@32"]

    def test_fig2_network_claim_bound(self):
        result = Fig2Result()
        result.network_delta[32] = 0.02
        assert result.claims()["network_cost_small@32"]
        result.network_delta[32] = 0.20  # the untrained-swap regime
        assert not result.claims()["network_cost_small@32"]


class TestCLI:
    def test_cli_fig5(self, capsys):
        assert cli_main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out

    def test_cli_rejects_unknown(self):
        with pytest.raises(SystemExit):
            cli_main(["fig9"])

    def test_cli_ablations(self, capsys):
        assert cli_main(["ablations"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_cli_top_watches_endpoints(self, monkeypatch):
        """``--endpoint`` is top's one spelling: without it top watches
        127.0.0.1:8080, with it every given frontend's /metrics."""
        from repro.serve import top

        watched = []
        monkeypatch.setattr(
            top, "run_top", lambda urls, **_: watched.append(urls) or 0
        )
        assert cli_main(["top", "--once"]) == 0
        assert cli_main(
            ["top", "--once", "--endpoint", "h:1", "--endpoint",
             "http://h:2/metrics"]
        ) == 0
        assert watched == [
            ["http://127.0.0.1:8080/metrics"],
            ["http://h:1/metrics", "http://h:2/metrics"],
        ]
        with pytest.raises(SystemExit):
            cli_main(["top", "--url", "h:1"])
