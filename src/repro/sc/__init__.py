"""Stochastic-computing core: streams, generators, arithmetic, sharing.

This package is the bit-true foundation of the GEO reproduction. It
implements maximal-length LFSRs, the comparator-based stochastic number
generators (normal and progressive), packed bitstream containers, AND/OR/
MUX/APC arithmetic, the partial binary accumulation split, and the RNG
seed-sharing policies of paper Sec. II.
"""

from repro.sc.lfsr import LFSR, MAXIMAL_TAPS, lfsr_sequence, num_polynomials
from repro.sc.rng import (
    LFSRSource,
    RandomSource,
    SobolSource,
    TRNGSource,
    make_source,
)
from repro.sc.formats import (
    SplitUnipolar,
    bipolar_decode,
    bipolar_encode,
    dequantize_unipolar,
    merge_unipolar,
    quantize_unipolar,
    split_unipolar,
    stream_bits,
)
from repro.sc.streams import StreamBatch, scc
from repro.sc.sng import SNG, ProgressiveSNG, ShadowBufferedSNG
from repro.sc.ops import (
    and_multiply,
    xnor_multiply,
    apc_accumulate,
    expected_or,
    mux_accumulate,
    or_accumulate,
    parallel_count,
    saturating_or_sum,
)
from repro.sc.accumulate import (
    AccumulationMode,
    accumulate_products,
    binary_group_count,
    expected_accumulate,
)
from repro.sc.kernels import (
    ExecPlan,
    fused_conv_counts,
    group_structure,
    heuristic_plan,
)
from repro.sc.sharing import SeedPlan, SharingLevel, lfsr_count, plan_seeds
from repro.sc.progressive import (
    MultiplicationErrorCurve,
    multiplication_error_curve,
    progressive_settling_cycles,
)
from repro.sc.converter import OutputConverter, required_counter_bits
from repro.sc.faults import (
    fixed_point_value_error,
    graceful_degradation_ratio,
    inject_bit_flips,
    inject_stuck_at,
    stream_value_error,
)
from repro.sc.metrics import (
    autocorrelation,
    correlated_max,
    correlated_min,
    estimation_rmse,
    max_pool_streams,
    run_length_histogram,
)

__all__ = [
    "LFSR",
    "MAXIMAL_TAPS",
    "lfsr_sequence",
    "num_polynomials",
    "LFSRSource",
    "RandomSource",
    "SobolSource",
    "TRNGSource",
    "make_source",
    "SplitUnipolar",
    "bipolar_decode",
    "bipolar_encode",
    "dequantize_unipolar",
    "merge_unipolar",
    "quantize_unipolar",
    "split_unipolar",
    "stream_bits",
    "StreamBatch",
    "scc",
    "SNG",
    "ProgressiveSNG",
    "ShadowBufferedSNG",
    "and_multiply",
    "xnor_multiply",
    "OutputConverter",
    "required_counter_bits",
    "fixed_point_value_error",
    "graceful_degradation_ratio",
    "inject_bit_flips",
    "inject_stuck_at",
    "stream_value_error",
    "apc_accumulate",
    "expected_or",
    "mux_accumulate",
    "or_accumulate",
    "parallel_count",
    "saturating_or_sum",
    "AccumulationMode",
    "accumulate_products",
    "binary_group_count",
    "expected_accumulate",
    "ExecPlan",
    "fused_conv_counts",
    "group_structure",
    "heuristic_plan",
    "SeedPlan",
    "SharingLevel",
    "lfsr_count",
    "plan_seeds",
    "MultiplicationErrorCurve",
    "multiplication_error_curve",
    "progressive_settling_cycles",
    "autocorrelation",
    "correlated_max",
    "correlated_min",
    "estimation_rmse",
    "max_pool_streams",
    "run_length_histogram",
]
