"""Multi-replica serving: router, placement, health, warm migration.

``repro.cluster`` scales :mod:`repro.serve` horizontally on one host: a
:class:`ReplicaManager` spawns and supervises N replica processes (each
a full serve stack — registry, batcher, backend, HTTP frontend), and a
:class:`ClusterRouter` frontend fans requests out over them with

* consistent model placement (rendezvous hashing,
  :class:`PlacementRing`) so each model's warm tier ladders live on a
  stable replica subset,
* per-model weighted-fair queueing (:class:`WeightedFairQueue`) so a
  hot model cannot starve the rest,
* candidate choice within a placement set: routable replicas first
  (:class:`ReplicaHealth`: alive, admitted, not draining, heard from
  within the heartbeat timeout), then least inflight load, then
  placement rank, and
* warm migration on respawn: a recovered replica re-registers and
  warms its placement set *before* it is readmitted to the ring.

Quickstart::

    from repro import cluster
    from repro.cluster.workload import fixed_service_model

    model, shape = fixed_service_model(service_ms=10)
    specs = [cluster.ClusterModel("demo", model, shape)]
    with cluster.ReplicaManager(specs, num_replicas=2) as manager:
        with cluster.ClusterRouter(manager) as router:
            server = cluster.make_router(router)
            server.serve_background()
            # POST /predict on server.port, /metrics, /stats, /tracez

Or from the CLI: ``geo-repro cluster --replicas 2``.
"""

from repro.cluster.health import ReplicaHealth
from repro.cluster.manager import ClusterModel, ReplicaManager
from repro.cluster.placement import PlacementRing
from repro.cluster.router import (
    ClusterRouter,
    RouterHTTPServer,
    RouterPolicy,
    make_router,
)
from repro.cluster.wfq import FIFOQueue, WeightedFairQueue, make_scheduler

__all__ = [
    "ClusterModel",
    "ClusterRouter",
    "FIFOQueue",
    "PlacementRing",
    "ReplicaHealth",
    "ReplicaManager",
    "RouterHTTPServer",
    "RouterPolicy",
    "WeightedFairQueue",
    "make_router",
    "make_scheduler",
]
