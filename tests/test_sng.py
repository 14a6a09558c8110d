"""Tests for normal, progressive, and shadow-buffered SNGs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sc.formats import quantize_unipolar
from repro.sc.rng import LFSRSource, SobolSource, TRNGSource
from repro.sc.sng import SNG, ProgressiveSNG, ShadowBufferedSNG
from repro.sc.streams import scc


class TestSNG:
    def test_full_period_exact_counts(self):
        # Over one full LFSR period a target q produces exactly q ones.
        bits = 6
        src = LFSRSource(bits)
        sng = SNG(src, bits)
        targets = np.arange(0, 64, dtype=np.int64).clip(0, 63)
        streams = sng.generate(targets, np.zeros(64, dtype=int), 63)
        np.testing.assert_array_equal(streams.counts(), targets)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            SNG(LFSRSource(7), 8)

    def test_float_targets_rejected(self):
        sng = SNG(LFSRSource(7), 7)
        with pytest.raises(ConfigurationError):
            sng.generate(np.array([0.5]), np.array([0]), 64)

    def test_out_of_range_targets_rejected(self):
        sng = SNG(LFSRSource(7), 7)
        with pytest.raises(ConfigurationError):
            sng.generate(np.array([128]), np.array([0]), 64)

    def test_shared_seed_full_correlation(self):
        # Two SNGs sharing a seed produce maximally correlated streams —
        # the mechanism behind the extreme-sharing accuracy collapse.
        sng = SNG(LFSRSource(7), 7)
        q = quantize_unipolar(np.array([0.5, 0.7]), 7)
        shared = sng.generate(q, np.array([3, 3]), 128)
        assert float(scc(shared[0], shared[1])) == pytest.approx(1.0)

    def test_distinct_seeds_low_correlation(self):
        sng = SNG(LFSRSource(7), 7)
        q = quantize_unipolar(np.array([0.5, 0.5]), 7)
        streams = sng.generate(q, np.array([3, 60]), 128)
        assert abs(float(scc(streams[0], streams[1]))) < 0.35

    def test_shared_seed_and_computes_min(self):
        # AND of fully correlated streams yields min(a, b), not a*b.
        sng = SNG(LFSRSource(7), 7)
        q = quantize_unipolar(np.array([0.4, 0.8]), 7)
        s = sng.generate(q, np.array([5, 5]), 127)
        product = (s[0] & s[1]).mean()
        assert float(product) == pytest.approx(0.4, abs=0.02)

    def test_trng_streams_have_binomial_noise(self):
        sng = SNG(TRNGSource(7, root_seed=0), 7)
        q = quantize_unipolar(np.full(200, 0.5), 7)
        streams = sng.generate(q, np.arange(200), 128)
        std = streams.mean().std()
        # Binomial std at p=0.5, L=128 is ~0.044.
        assert 0.02 < std < 0.08

    def test_deterministic_lfsr_repeats_exactly(self):
        sng = SNG(LFSRSource(7), 7)
        q = quantize_unipolar(np.array([0.3]), 7)
        a = sng.generate(q, np.array([9]), 64)
        b = sng.generate(q, np.array([9]), 64)
        np.testing.assert_array_equal(a.packed, b.packed)

    @given(
        st.integers(min_value=0, max_value=127),
        st.integers(min_value=1, max_value=126),
    )
    @settings(max_examples=40, deadline=None)
    def test_value_estimate_property(self, target, seed):
        sng = SNG(LFSRSource(7), 7)
        stream = sng.generate(
            np.array([target]), np.array([seed]), 127
        )
        assert stream.counts()[0] == target


class TestProgressiveSNG:
    def test_schedule_default(self):
        sng = ProgressiveSNG(LFSRSource(8), 8)
        loaded = sng.loaded_bits_schedule(10)
        np.testing.assert_array_equal(loaded, [2, 2, 4, 4, 6, 6, 8, 8, 8, 8])
        assert sng.settle_cycles() == 6

    def test_settles_within_eight_cycles_for_7bit(self):
        sng = ProgressiveSNG(LFSRSource(7), 7)
        assert sng.settle_cycles() <= 8

    def test_effective_targets_ramp(self):
        sng = ProgressiveSNG(LFSRSource(8), 8)
        eff = sng.effective_targets(np.array([0b10110111]), 8)[0]
        assert eff[0] == 0b10000000
        assert eff[2] == 0b10110000
        assert eff[4] == 0b10110100
        assert eff[6] == 0b10110111

    def test_matches_normal_after_settling(self):
        src = LFSRSource(8)
        normal = SNG(src, 8)
        prog = ProgressiveSNG(src, 8)
        q = quantize_unipolar(np.array([0.3, 0.77]), 8)
        seeds = np.array([11, 47])
        nb = normal.generate(q, seeds, 64).bits()
        pb = prog.generate(q, seeds, 64).bits()
        settle = prog.settle_cycles()
        np.testing.assert_array_equal(nb[:, settle:], pb[:, settle:])

    def test_progressive_never_overshoots(self):
        # Zero-padded low bits mean the effective value only ramps *up*.
        sng = ProgressiveSNG(LFSRSource(8), 8)
        eff = sng.effective_targets(np.array([201]), 16)[0]
        assert np.all(np.diff(eff) >= 0)
        assert eff[-1] == 201

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            ProgressiveSNG(LFSRSource(8), 8, initial_bits=0)
        with pytest.raises(ConfigurationError):
            ProgressiveSNG(LFSRSource(8), 8, bits_per_group=0)
        with pytest.raises(ConfigurationError):
            ProgressiveSNG(LFSRSource(8), 8, initial_bits=9)


def _source_pair(kind: str, bits: int, root: int):
    """Two sources that draw the same bank on their first call."""
    if kind == "lfsr":
        return LFSRSource(bits), LFSRSource(bits)
    if kind == "sobol":
        return SobolSource(bits), SobolSource(bits)
    fresh = kind == "trng-fresh"
    return tuple(
        TRNGSource(bits, root_seed=root, fresh_draws=fresh) for _ in range(2)
    )


class TestTable:
    """``SNG.table`` (threshold scatter + OR-accumulate) against
    ``generate`` over the broadcast alphabet, the comparator itself."""

    @given(
        kind=st.sampled_from(["lfsr", "sobol", "trng-fresh", "trng-frozen"]),
        bits=st.integers(min_value=2, max_value=8),
        length=st.integers(min_value=8, max_value=256),
        progressive=st.booleans(),
        picks=st.lists(
            st.integers(min_value=0, max_value=2**20), min_size=1, max_size=12
        ),
        root=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=120, deadline=None)
    @pytest.mark.filterwarnings("ignore:The balance properties")
    def test_equals_generate_over_the_alphabet(
        self, kind, bits, length, progressive, picks, root
    ):
        built_src, ref_src = _source_pair(kind, bits, root)
        seeds = np.unique([p % built_src.max_unique_seeds() for p in picks])
        cls = ProgressiveSNG if progressive else SNG
        table = cls(built_src, bits).table(seeds, length)
        alphabet = np.broadcast_to(np.arange(1 << bits), (seeds.size, 1 << bits))
        ref = cls(ref_src, bits).generate(alphabet, seeds[:, None], length)
        assert table.dtype == ref.packed.dtype
        np.testing.assert_array_equal(table, ref.packed)

    def test_progressive_threshold_past_the_alphabet_never_fires(self):
        # Cycles 0 and 1 see only the top 2 of 8 target bits, a multiple
        # of 64: a random value of 65 first passes at target 128, and
        # 200 never does (256 is past the alphabet).
        sng = ProgressiveSNG(LFSRSource(8), 8)
        rand = np.array([[65, 200]])
        np.testing.assert_array_equal(sng.thresholds(rand), [[128, 256]])


class TestShadowBuffering:
    def make(self, bits=8, entries=64, load_width=32):
        sng = ProgressiveSNG(LFSRSource(bits), bits)
        return ShadowBufferedSNG(sng, buffer_entries=entries, load_width=load_width)

    def test_reload_latency_4x(self):
        # The headline Sec. II-B claim: progressive loading cuts reload
        # latency 4X vs waiting for all 8 bits (2 of 8 bits up front).
        shadow = self.make()
        assert shadow.reload_speedup() == pytest.approx(4.0)

    def test_shadow_scheme_hides_everything(self):
        assert self.make().reload_stall_cycles("shadow") == 0

    def test_parallel_scheme_full_cost(self):
        shadow = self.make(entries=64, load_width=32)
        assert shadow.reload_stall_cycles("parallel") == 64 * 8 // 32

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make().reload_stall_cycles("magic")

    def test_invalid_geometry_rejected(self):
        sng = ProgressiveSNG(LFSRSource(8), 8)
        with pytest.raises(ConfigurationError):
            ShadowBufferedSNG(sng, buffer_entries=0, load_width=8)
