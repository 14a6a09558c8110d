"""Configuration of the simulated-SC forward pass.

One :class:`SCConfig` object describes everything Sec. II/III of the paper
lets you vary: stream lengths (per-layer-kind, paper notation ``{sp-s}``),
the RNG kind, the seed-sharing level, the partial-binary accumulation
mode, and progressive loading. Models are *trained through* a config, so
each experimental arm of Fig. 1 / Table I is simply a different config.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

from repro.errors import ConfigurationError
from repro.sc.accumulate import AccumulationMode
from repro.sc.formats import stream_bits
from repro.sc.sharing import SharingLevel


@dataclass(frozen=True)
class SCConfig:
    """Parameters of the stochastic forward simulation.

    Attributes
    ----------
    stream_length:
        Stream length ``s`` for layers *without* pooling.
    stream_length_pooling:
        Stream length ``sp`` for layers *with* pooling (the paper's
        ``{sp-s}`` notation, e.g. 32-64; pooling layers tolerate shorter
        streams because average pooling re-accumulates in fixed point).
    output_stream_length:
        Stream length of the final classifier layer (the paper always
        uses 128: "small performance impact but noticeable accuracy
        benefits").
    rng_kind:
        ``"lfsr"`` (deterministic, GEO), ``"trng"`` (the baseline the
        paper shows cannot benefit from sharing), or ``"sobol"``.
    sharing:
        Seed-sharing level of Sec. II-A.
    accumulation:
        Partial-binary accumulation mode of Sec. III-B (GEO default PBW).
    progressive:
        Model progressive stream generation (the streams of *every*
        operand are generated with the 2-bits-per-2-cycles ramp — the
        paper's stated worst case, since any reuse means fewer reloads).
    root_seed:
        Seed namespace for the layer seed plans.
    batch_chunk:
        Simulation memory knob: samples processed per bit-true chunk.
    trng_eval_freeze:
        When true, TRNG draws are frozen per forward call index —
        only useful to make unit tests deterministic.
    engine:
        Execution engine of the bit-true forward: ``"fused"`` (default,
        the streaming kernels of :mod:`repro.sc.kernels`) or
        ``"reference"`` (the original per-output-channel reduction).
        Both are bit-identical; the reference engine exists for
        cross-checks and benchmarking.
    num_workers:
        Threads the fused engine shards each kernel call across: ``0``
        (default) the process's kernel share (``cpu_count() // busy
        siblings``, split among the kernel calls running at once; see
        :mod:`repro.utils.parallel`), ``1`` serial, ``n > 1`` that many.
        The reference engine ignores this knob; results are
        bit-identical either way.
    """

    stream_length: int = 128
    stream_length_pooling: int = 128
    output_stream_length: int = 128
    rng_kind: str = "lfsr"
    sharing: SharingLevel | str = SharingLevel.MODERATE
    accumulation: AccumulationMode | str = AccumulationMode.PBW
    progressive: bool = False
    root_seed: int = 0
    batch_chunk: int = 16
    trng_eval_freeze: bool = False
    engine: str = "fused"
    num_workers: int = 0

    def __post_init__(self):
        for name in ("stream_length", "stream_length_pooling", "output_stream_length"):
            value = getattr(self, name)
            stream_bits(value)  # raises on non-power-of-two
        if self.rng_kind not in ("lfsr", "trng", "sobol"):
            raise ConfigurationError(f"unknown rng_kind {self.rng_kind!r}")
        object.__setattr__(self, "sharing", SharingLevel.parse(self.sharing))
        object.__setattr__(
            self, "accumulation", AccumulationMode.parse(self.accumulation)
        )
        if self.batch_chunk < 1:
            raise ConfigurationError("batch_chunk must be >= 1")
        if self.engine not in ("fused", "reference"):
            raise ConfigurationError(
                f"unknown engine {self.engine!r} (fused | reference)"
            )
        if self.num_workers < 0:
            raise ConfigurationError(
                "num_workers must be >= 0 (0 = the process's kernel share)"
            )

    # -- derived ---------------------------------------------------------------

    def length_for(self, role: str) -> int:
        """Stream length for a layer ``role``: "plain", "pooling", "output"."""
        if role == "plain":
            return self.stream_length
        if role == "pooling":
            return self.stream_length_pooling
        if role == "output":
            return self.output_stream_length
        raise ConfigurationError(f"unknown layer role {role!r}")

    def bits_for(self, role: str) -> int:
        """SNG/LFSR width for a layer role (length ``2**n`` -> ``n`` bits);
        shorter streams effectively truncate operand values (Sec. II-B)."""
        return stream_bits(self.length_for(role))

    def label(self) -> str:
        """The paper's ``{sp-s}`` designation, e.g. ``"32-64"``."""
        return f"{self.stream_length_pooling}-{self.stream_length}"

    def with_(self, **kwargs) -> "SCConfig":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        """JSON-serializable form (enums as their string values) — the
        inverse of :meth:`from_dict`; checkpoints and the serving
        registry persist configs through this."""
        record = asdict(self)
        record["sharing"] = self.sharing.value
        record["accumulation"] = self.accumulation.value
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "SCConfig":
        """Rebuild a config from :meth:`to_dict` output; unknown keys are
        rejected so a config written by another version fails loudly."""
        known = {f.name for f in fields(cls)}
        extra = set(record) - known
        if extra:
            raise ConfigurationError(
                f"unknown SCConfig fields {sorted(extra)} (written by a "
                "version of repro with a different SCConfig)"
            )
        return cls(**record)


#: The configurations evaluated in Table I, by paper designation.
TABLE1_CONFIGS = {
    "64-128": SCConfig(stream_length=128, stream_length_pooling=64),
    "32-64": SCConfig(stream_length=64, stream_length_pooling=32),
    "16-32": SCConfig(stream_length=32, stream_length_pooling=16),
}
