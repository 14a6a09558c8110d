"""Benchmark: regenerate Table I (accuracy comparison) at quick scale.

Covers the SVHN CNN-4 rows — fixed-point references, ACOUSTIC-style arm,
the GEO stream-length points, and the Sec. IV-A ablation ladder (drop PBW,
then drop LFSR). The full dataset/model grid runs via
``geo-repro table1 --scale standard``.

Besides the paper's four orderings, each arm must land within
``BOUND`` of the top-1 EXPERIMENTS records for it (Table I), so a change
that moves every arm together, which no ordering can see, still fails.
The recorded values come from numpy's bundled OpenBLAS on the 2-vCPU
reference VM.
"""

from repro.experiments import render_table1, run_table1

#: Quick-scale SVHN CNN-4 top-1 per arm, as EXPERIMENTS records it.
RECORDED = {
    "fp-8bit": 0.996,
    "fp-4bit": 0.930,
    "acoustic-128": 0.820,
    "geo-64-128": 0.938,
    "geo-32-64": 0.934,
    "geo-16-32": 0.391,
    "geo-drop-pbw": 0.430,
    "geo-drop-pbw-lfsr": 0.117,
}
#: Largest distance from the recorded top-1, in accuracy (2 points).
BOUND = 0.02


def test_table1_accuracy(once):
    result = once(
        run_table1,
        scale="quick",
        datasets=(("svhn", "cnn4"),),
        include_ablation=True,
        verbose=False,
    )
    print()
    print(render_table1(result))

    claims = result.claims()
    assert claims["geo_beats_acoustic_at_quarter_streams"]
    assert claims["dropping_pbw_hurts"]
    assert claims["dropping_lfsr_hurts_further"]
    assert claims["fixed_point_upper_bounds_sc"]

    measured = {arm: result.accuracy[("svhn", "cnn4", arm)] for arm in RECORDED}
    outside = {
        arm: f"{measured[arm]:.3f} (recorded {recorded:.3f})"
        for arm, recorded in RECORDED.items()
        if abs(measured[arm] - recorded) > BOUND
    }
    assert not outside, f"arms more than {BOUND:.0%} from the record: {outside}"
