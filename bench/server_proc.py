"""Server side of the HTTP workloads, in its own process.

    python3 bench/server_proc.py serve|cluster --setups K --trace 0|1

``serve`` stands up a server the way ``geo-repro serve`` does (default
``ServePolicy``, 3-tier ladder, in-thread backend) over the two
benchmark models; ``cluster`` stands up ``geo-repro cluster``'s stack:
``ReplicaManager`` with 2 replicas at replication 2 behind a WFQ
``ClusterRouter``. The stack is set up ``K`` times (each timed, all but
the last torn down), then the process prints ``READY {json}`` with the
port and set-up times, serves until its stdin closes, tears down and
prints ``DONE {json}`` (table-cache counters and, when traced, the spans
this process recorded). The load generator never runs in this process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import common


def _serve_stack():
    from repro.scnn.sim import clear_table_cache
    from repro.serve import (
        InferenceService, InThreadBackend, ModelRegistry, ServePolicy,
        make_server,
    )
    from wl_http import serving_models

    clear_table_cache()  # every set-up builds its stream tables cold
    start = time.perf_counter()
    registry = ModelRegistry()
    for name, model, shape in serving_models():
        registry.register(name, model, input_shape=shape)  # warms all tiers
    service = InferenceService(
        registry, policy=ServePolicy(), backend=InThreadBackend()
    ).start()
    server = make_server(service, port=0)
    server.serve_background()
    elapsed = time.perf_counter() - start

    def close():
        server.shutdown()
        server.server_close()
        service.stop()

    return elapsed, server.port, close


def _cluster_stack():
    from repro import cluster
    from repro.serve.server import DEFAULT_TRACE_SAMPLE
    from wl_http import serving_models

    start = time.perf_counter()
    specs = [
        cluster.ClusterModel(name, model, shape)
        for name, model, shape in serving_models()
    ]
    manager = cluster.ReplicaManager(
        specs, num_replicas=2, replication=2,
        trace_sample=DEFAULT_TRACE_SAMPLE,
    ).start()
    router = cluster.ClusterRouter(
        manager, policy=cluster.RouterPolicy(scheduler="wfq")
    ).start()
    server = cluster.make_router(router, trace_sample=DEFAULT_TRACE_SAMPLE)
    server.serve_background()
    elapsed = time.perf_counter() - start

    def close():
        server.shutdown()
        server.server_close()
        router.stop()
        manager.stop()

    return elapsed, server.port, close


def _install_wrappers(kind: str, tracer) -> None:
    if kind == "serve":
        from repro.serve.backend import InThreadBackend
        from wl_forward import install_sim_wrappers

        install_sim_wrappers(tracer)
        tracer.wrap(
            InThreadBackend, "run", "backend.exec",
            lambda backend, entry, batch, tier, **kw: {
                "model": entry.name, "batch": int(batch.shape[0]), "tier": tier,
            },
        )
    else:
        from repro.cluster.router import ClusterRouter

        tracer.wrap(ClusterRouter, "_proxy", "router.proxy")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/server_proc.py")
    parser.add_argument("kind", choices=("serve", "cluster"))
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_repro()
    from repro.scnn.sim import table_cache_stats

    stack = _serve_stack if args.kind == "serve" else _cluster_stack
    setup_s, close = [], None
    for _ in range(args.setups):
        if close is not None:
            close()
        elapsed, port, close = stack()
        setup_s.append(elapsed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        _install_wrappers(args.kind, tracer)
    cache_before = table_cache_stats()
    ready = {"port": port, "setup_s": setup_s, "pid": os.getpid()}
    print("READY " + json.dumps(ready), flush=True)
    sys.stdin.read()  # the load generator closes our stdin when done
    cache_after = table_cache_stats()
    close()
    if tracer is not None:
        tracer.uninstall()
    if args.kind == "cluster":
        common.stop_multiprocessing_helpers()
    done = {
        "table_cache": [cache_before, cache_after],
        "dump": tracer.export(f"{args.kind} server") if tracer else None,
    }
    print("DONE " + json.dumps(done), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
