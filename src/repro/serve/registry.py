"""Model registry: servable models with warm caches and degrade tiers.

A :class:`ModelEntry` owns everything the service needs to execute one
model: the module itself (eval mode), a lock serializing forwards and
tier flips, the ladder of stream-length *tiers* it can degrade through,
and the per-sample input shape used for admission-time validation.

Warming is the serving analogue of GEO's setup amortization: the paper's
accelerator wins by reusing SNG seeds and shadow-buffered operands across
back-to-back executions, and this registry wins by pre-building every
tier's seed plans and LRU stream tables at load time — the first request
then runs at steady-state latency instead of paying table construction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, UnknownModelError
from repro.nn.layers import Module
from repro.nn.serialize import load_model
from repro.nn.tensor import Tensor, no_grad
from repro.scnn.config import SCConfig
from repro.scnn.layers import SCModule, set_stream_lengths

#: Shortest stream a degrade tier may use; below 8 bits the unipolar
#: grid is too coarse to be worth serving.
MIN_TIER_LENGTH = 8

_ROLES = ("stream_length", "stream_length_pooling", "output_stream_length")


def tier_ladder(cfg: SCConfig, num_tiers: int) -> list[dict[str, int]]:
    """Stream-length ladder: tier 0 = the config's native lengths, each
    further tier halves every role's length (floored at
    :data:`MIN_TIER_LENGTH`). Ladder entries feed
    :func:`repro.scnn.layers.set_stream_lengths` directly.
    """
    if num_tiers < 1:
        raise ConfigurationError(f"num_tiers must be >= 1, got {num_tiers}")
    ladder = []
    for k in range(num_tiers):
        lengths = {
            role: max(MIN_TIER_LENGTH, getattr(cfg, role) >> k)
            for role in _ROLES
        }
        if ladder and lengths == ladder[-1]:
            break  # every role hit the floor; deeper tiers are no-ops
        ladder.append(lengths)
    return ladder


@dataclass
class ModelEntry:
    """One servable model plus its serving state."""

    name: str
    model: Module
    input_shape: tuple[int, ...]  # per-sample, e.g. (C, H, W)
    sc_config: SCConfig | None
    tiers: list[dict[str, int]]
    tier: int = 0
    lock: threading.RLock = field(default_factory=threading.RLock)  # guards: tier

    @property
    def max_tier(self) -> int:
        return len(self.tiers) - 1

    def set_tier(self, tier: int) -> None:
        """Flip the model onto a ladder tier (idempotent, thread-safe)."""
        if not 0 <= tier <= self.max_tier:
            raise ConfigurationError(
                f"tier {tier} out of range 0..{self.max_tier} "
                f"for model {self.name!r}"
            )
        with self.lock:
            if tier == self.tier:
                return
            set_stream_lengths(self.model, **self.tiers[tier])
            self.tier = tier
        obs.gauge(f"serve.tier.{self.name}").set(tier)

    def forward(
        self, batch: np.ndarray, tier: int | None = None
    ) -> tuple[np.ndarray, int]:
        """Run one coalesced batch; returns ``(logits, tier_served)``.

        With ``tier`` given, the flip and the forward happen under one
        lock hold, so another dispatcher thread can never interleave its
        own flip between them (the execution-backend contract: the batch
        runs at exactly the tier the degrade controller chose). The tier
        returned is the one the batch actually ran at, which the
        response reports to the client.
        """
        with self.lock:
            if tier is not None and tier != self.tier:
                self.set_tier(tier)  # RLock: re-entrant under self.lock
            served = self.tier
            with no_grad():
                out = self.model(Tensor(np.ascontiguousarray(batch)))
        return out.data, served


class ModelRegistry:
    """Named collection of :class:`ModelEntry` objects."""

    def __init__(self):
        self._entries: dict[str, ModelEntry] = {}
        self._lock = threading.Lock()  # guards: _entries

    def register(
        self,
        name: str,
        model: Module,
        input_shape: tuple[int, ...],
        sc_config: SCConfig | None = None,
        num_tiers: int = 3,
        warm: bool = True,
    ) -> ModelEntry:
        """Add an already-built model under ``name``.

        ``sc_config`` enables the degrade ladder (derived via
        :func:`tier_ladder`); when omitted it is discovered from the
        model's SC layers, and a pure-FP model simply gets a single
        tier. ``warm=True`` pre-executes every tier once.
        """
        if sc_config is None:
            for module in model.modules():
                if isinstance(module, SCModule):
                    sc_config = module.cfg
                    break
        tiers = (
            tier_ladder(sc_config, num_tiers)
            if sc_config is not None
            else [{}]
        )
        model.eval()
        entry = ModelEntry(
            name=name,
            model=model,
            input_shape=tuple(input_shape),
            sc_config=sc_config,
            tiers=tiers,
        )
        with self._lock:
            if name in self._entries:
                raise ConfigurationError(f"model {name!r} already registered")
            self._entries[name] = entry
        if warm:
            self.warm(entry)
        return entry

    def load(
        self,
        name: str,
        path,
        input_shape: tuple[int, ...] | None = None,
        num_tiers: int = 3,
        warm: bool = True,
    ) -> ModelEntry:
        """Load a :func:`repro.nn.serialize.save_model` checkpoint.

        The per-sample ``input_shape`` is inferred from the stored
        builder kwargs (``in_channels`` x ``input_size``²) when not
        given explicitly.
        """
        model, meta = load_model(path)
        if input_shape is None:
            spec = meta.get("model_spec", {})
            kwargs = spec.get("kwargs", {})
            builder = spec.get("builder", "")
            channels = kwargs.get("in_channels", 1 if "lenet5" in builder else 3)
            size = kwargs.get("input_size", 28 if "lenet5" in builder else 32)
            input_shape = (channels, size, size)
        return self.register(
            name, model, input_shape, num_tiers=num_tiers, warm=warm
        )

    def warm(self, entry: ModelEntry) -> None:
        """Run one all-zero sample through every tier, deepest first.

        This builds each tier's seed plans and fills the LRU stream-table
        cache (:mod:`repro.scnn.sim`), so no request at any tier builds
        a table. It does not run the kernels: an all-zero sample takes
        their all-zero early-out, so the first real request still
        faults in the kernel scratch. Ends back on tier 0.
        """
        with obs.span("serve.warm", model=entry.name, tiers=len(entry.tiers)):
            x = np.zeros((1, *entry.input_shape), dtype=np.float32)
            for tier in range(entry.max_tier, -1, -1):
                entry.set_tier(tier)
                entry.forward(x)
        obs.counter("serve.models_warmed").add(1)

    def get(self, name: str) -> ModelEntry:
        entry = self._entries.get(name)
        if entry is None:
            raise UnknownModelError(
                f"model {name!r} not registered "
                f"(have: {', '.join(sorted(self._entries)) or 'none'})"
            )
        return entry

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)
