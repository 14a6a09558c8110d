"""Pinned bits: sha256 digests of stream tables and SC layer counts.

Every stream table and every bit-true layer output is a pure function of
its configuration, so a rewrite of how tables are built or consumed must
leave these digests unchanged. The constants were computed before the
threshold-based table build replaced the alphabet-wide comparison; any
change to a stream bit, a seed-to-row mapping or a count fails here.

Inputs are integer arithmetic divided by a constant, so they are the
same on every platform; the frozen-TRNG digests also rest on numpy's
``Generator.integers`` stream.
"""

import hashlib

import numpy as np
import pytest

from repro.sc.accumulate import AccumulationMode
from repro.sc.rng import LFSRSource, SobolSource, TRNGSource
from repro.scnn.config import SCConfig
from repro.scnn.sim import (
    SCConvSimulator,
    SCLinearSimulator,
    clear_table_cache,
    stream_table,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_table_cache()
    yield
    clear_table_cache()


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


_SOURCES = {
    "lfsr": lambda bits: LFSRSource(bits),
    "sobol": lambda bits: SobolSource(bits),
    "trng": lambda bits: TRNGSource(bits, root_seed=1234 + bits, fresh_draws=False),
}


def _table_arrays(kind: str, progressive: bool):
    """Tables and unique seeds for bits 3-8, at length ``2**bits`` and at
    100 (two words, not a power of two)."""
    for bits in range(3, 9):
        for length in (1 << bits, 100):
            source = _SOURCES[kind](bits)
            bound = min(source.max_unique_seeds(), 1 << 20)
            seeds = (np.arange(24, dtype=np.int64) * 7919 + 13 * bits) % bound
            table, unique = stream_table(source, bits, length, seeds, progressive)
            yield table
            yield unique


TABLE_DIGESTS = {
    ("lfsr", False):
        "4266d30ae53cb6913742787ac13c56143f5bf36ff9ad7ab2893a0a8191f09758",
    ("lfsr", True):
        "fb4437eee6460a6cc01ed75ce83a887d85093b7f3e1b14fbb1535a4049de0fff",
    ("sobol", False):
        "b608e4c4ba671e3bab75349cf82934a232e54d6c6081b506ace3bd60c7f0b7f7",
    ("sobol", True):
        "5c3501ba1ab411341e497792695271b0e2eb430965bb02dd18c295605b90657e",
    ("trng", False):
        "c1e1b716f9c3beaa18c21177e52160f80a3cbf6accb77a33690df44ec7bcd144",
    ("trng", True):
        "e9044844b6f41081bb5f16b751ba1eec5c248467ecba559c7caa16d03a185ff2",
}


# Sobol' warns that its balance needs a power-of-two length.
@pytest.mark.filterwarnings("ignore:The balance properties")
@pytest.mark.parametrize(
    "kind,progressive", sorted(TABLE_DIGESTS), ids=lambda v: str(v)
)
def test_stream_table_digest(kind, progressive):
    got = _digest(_table_arrays(kind, progressive))
    assert got == TABLE_DIGESTS[(kind, progressive)]


def _inputs(shape, salt: int, signed: bool) -> np.ndarray:
    idx = np.arange(int(np.prod(shape)), dtype=np.int64) + salt
    if signed:
        return (((idx * 40503) % 2017) / 4032.0 - 0.25).reshape(shape)
    return (((idx * 2654435761) % 1009) / 2016.0).reshape(shape)


# (kind, kernel or (in, out) features, role, layer index, batch, input size)
_LAYERS = {
    "cnn4": [
        ("conv", (32, 3, 5, 5), "pooling", 0, 2, 8),
        ("conv", (64, 32, 5, 5), "pooling", 2, 1, 4),
        ("fc", (1024, 10), "output", 3, 2, None),
    ],
    "lenet5": [
        ("conv", (16, 6, 5, 5), "pooling", 1, 2, 7),
        ("fc", (784, 120), "plain", 2, 2, None),
        ("fc", (84, 10), "output", 4, 2, None),
    ],
}


def _layer_counts(model: str, mode: str):
    """Integer counts (``out * length``) of the model's fixed layers at
    32-64 on the fused engine."""
    cfg = SCConfig(
        stream_length=64, stream_length_pooling=32, accumulation=mode
    )
    for salt, (kind, shape, role, index, n, size) in enumerate(_LAYERS[model]):
        length = cfg.length_for(role)
        if kind == "conv":
            sim = SCConvSimulator(
                shape, cfg, role=role, layer_index=index, padding=2
            )
            x = _inputs((n, shape[1], size, size), salt, signed=False)
            w = _inputs(shape, salt, signed=True)
        else:
            fin, fout = shape
            sim = SCLinearSimulator(fin, fout, cfg, role=role, layer_index=index)
            x = _inputs((n, fin), salt, signed=False)
            w = _inputs((fout, fin), salt, signed=True)
        out = sim(x, w)
        yield np.rint(out.astype(np.float64) * length).astype(np.int64)


LAYER_DIGESTS = {
    ("cnn4", "sc"):
        "e45b0d975e0b884c5a2368494ea846c1862e495b057faba02b470c74082d2e3c",
    ("cnn4", "pbw"):
        "6d6c1d4e58254ea5bb4e3547f33d19b5c6a4f82cd88caf0fa39a7863db95989f",
    ("cnn4", "pbhw"):
        "b72ea5027732e62d0f2fe19294e0d63d8ba3b61d4d097a9fbd70460e2c417020",
    ("cnn4", "fxp"):
        "4f1359f036ac49e867e53c9f676fddac8ee9311970be7c0c2025d2b606b5978c",
    ("cnn4", "apc"):
        "a7e59bc7e91759bd67ed9c3b21e5a73a75b563caa395e47ff627cb0e17015a43",
    ("lenet5", "sc"):
        "64f6b46cf861667e1329569cc13d3aaee95d0f1f509d71847cf6666c621f5a81",
    ("lenet5", "pbw"):
        "f37119fd39dc27451257fbc0073cc5e9d08546513e21f4cd95121092d6574664",
    ("lenet5", "pbhw"):
        "4a8199136b3106c1bf82266e4a596a314cf63095ed472289e25f76e7b6a8cb81",
    ("lenet5", "fxp"):
        "43bd66831aceb314ba9988cafd92746592db9f66bad1fa4156d293c7f8eb79db",
    ("lenet5", "apc"):
        "971d32d91748da0d0a7a2417dc94e9b06973cfa6b2305882feec3f77b3bd0d5e",
}


def test_layer_digests_cover_every_mode():
    modes = {mode for _, mode in LAYER_DIGESTS}
    assert modes == {m.value for m in AccumulationMode}


@pytest.mark.parametrize(
    "model,mode", sorted(LAYER_DIGESTS), ids=lambda v: str(v)
)
def test_layer_count_digest(model, mode):
    got = _digest(_layer_counts(model, mode))
    assert got == LAYER_DIGESTS[(model, mode)]
