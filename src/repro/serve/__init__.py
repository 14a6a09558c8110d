"""Batched SC inference serving: registry, micro-batcher, admission
control, queue-depth degrade, resilient execution backends, and a
stdlib HTTP frontend.

Quickstart (in-process)::

    from repro import models, serve
    from repro.scnn import SCConfig

    registry = serve.ModelRegistry()
    registry.register(
        "cnn4",
        models.cnn4_sc(SCConfig(stream_length=64), num_classes=10),
        input_shape=(3, 32, 32),
    )
    with serve.InferenceService(registry).start() as service:
        result = service.predict("cnn4", x)   # x: (3, 32, 32) float32
        print(result.argmax, result.tier, result.degraded)

With the supervised process-pool backend (crash isolation + true
multi-core batch parallelism)::

    backend = serve.ProcessPoolBackend(num_workers=2)
    service = serve.InferenceService(registry, backend=backend)

Over HTTP::

    server = serve.make_server(service, port=0)
    server.serve_background()
    client = serve.HTTPClient(f"http://127.0.0.1:{server.port}")
    client.predict("cnn4", x)
"""

from repro.serve.backend import (
    ExecutionBackend,
    InThreadBackend,
    ProcessPoolBackend,
    make_backend,
)
from repro.serve.batcher import MicroBatcher, PendingRequest
from repro.serve.breaker import BreakerPolicy, CircuitBreaker
from repro.serve.client import HTTPClient
from repro.serve.policy import DegradeController, ServePolicy
from repro.serve.registry import (
    MIN_TIER_LENGTH,
    ModelEntry,
    ModelRegistry,
    tier_ladder,
)
from repro.serve.server import (
    ServeHTTPServer,
    install_graceful_shutdown,
    make_server,
    status_for,
)
from repro.serve.service import InferenceService, PredictResult
from repro.serve.slo import SLOTracker
from repro.utils.chaos import ChaosConfig

__all__ = [
    "MIN_TIER_LENGTH",
    "BreakerPolicy",
    "ChaosConfig",
    "CircuitBreaker",
    "DegradeController",
    "ExecutionBackend",
    "HTTPClient",
    "InThreadBackend",
    "InferenceService",
    "MicroBatcher",
    "ModelEntry",
    "ModelRegistry",
    "PendingRequest",
    "PredictResult",
    "ProcessPoolBackend",
    "SLOTracker",
    "ServeHTTPServer",
    "ServePolicy",
    "install_graceful_shutdown",
    "make_backend",
    "make_server",
    "status_for",
    "tier_ladder",
]
