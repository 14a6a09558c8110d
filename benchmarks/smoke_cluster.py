"""CI smoke test: cluster router + 2 replicas end to end over HTTP.

Boots a :class:`repro.cluster.ReplicaManager` with two replica
processes serving two fixed-service-time models behind a
:class:`~repro.cluster.ClusterRouter`, then asserts the cluster
contract:

* mixed two-model load is fully served through the router (every
  request answered, none failed);
* model placement is rendezvous-stable: the placement map before and
  after the load is identical;
* the router's ``/metrics`` exposition carries the ``cluster_*``
  families (replica up/health/pending, queue depth, placement width);
* killing a replica mid-run loses **zero** accepted requests and the
  replica rejoins via warm migration (placement set pre-warmed before
  readmission), after which ``/healthz`` and ``cluster_replica_health``
  report both replicas routable.

Run::

    PYTHONPATH=src python benchmarks/smoke_cluster.py [--requests N]
"""

import argparse
import json
import sys
import threading
import time
import urllib.request

from repro import cluster
from repro.cluster.workload import fixed_service_model
from repro.obs.export import parse_prometheus

REQUIRED_FAMILIES = (
    "cluster_replica_up",
    "cluster_replica_health",
    "cluster_replica_pending",
    "cluster_model_queue_depth",
    "cluster_placement_replicas",
)


def _post(url: str, model: str, timeout: float = 30.0) -> dict:
    body = json.dumps({"model": model, "inputs": [0.1] * 8}).encode()
    request = urllib.request.Request(
        f"{url}/predict",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _routable(url: str) -> tuple[dict, dict]:
    """Each replica's routable bit from ``/healthz`` and its
    ``cluster_replica_health`` sample from ``/metrics``."""
    with urllib.request.urlopen(f"{url}/healthz", timeout=5) as resp:
        health = json.loads(resp.read())
    with urllib.request.urlopen(f"{url}/metrics", timeout=5) as resp:
        families = parse_prometheus(resp.read().decode())
    return (
        {rid: info["routable"] for rid, info in health["replicas"].items()},
        {
            labels["replica"]: value
            for labels, value in families["cluster_replica_health"]
        },
    )


def run_smoke(requests_per_model: int = 10) -> dict:
    alpha, shape = fixed_service_model(service_ms=5, seed=1)
    beta, _ = fixed_service_model(service_ms=5, seed=2)
    specs = [
        cluster.ClusterModel("alpha", alpha, shape),
        cluster.ClusterModel("beta", beta, shape),
    ]
    manager = cluster.ReplicaManager(
        specs, num_replicas=2, replication=2, trace_sample=0
    ).start()
    router = cluster.ClusterRouter(manager).start()
    server = cluster.make_router(router)
    server.serve_background()
    url = f"http://127.0.0.1:{server.port}"
    print(f"cluster router on {url}, replicas {manager.endpoints()}")
    try:
        placement_before = {
            m: manager.placement(m) for m in ("alpha", "beta")
        }

        # Phase 1: mixed two-model load, all served.
        for i in range(requests_per_model * 2):
            out = _post(url, "alpha" if i % 2 else "beta")
            assert len(out["outputs"]) == 4, out
        stats = router.stats()["requests"]
        assert stats["completed"] >= requests_per_model * 2, stats
        assert stats["failed"] == 0, stats
        print(f"served {stats['completed']} mixed requests, 0 failed")

        # Placement never moved under load.
        placement_after = {
            m: manager.placement(m) for m in ("alpha", "beta")
        }
        assert placement_after == placement_before, (
            placement_before, placement_after,
        )
        print(f"placement stable: {placement_after}")

        # cluster_* families are in the exposition.
        with urllib.request.urlopen(f"{url}/metrics", timeout=5) as resp:
            families = parse_prometheus(resp.read().decode())
        for family in REQUIRED_FAMILIES:
            assert family in families, (family, sorted(families))
        up = {
            labels["replica"]: value
            for labels, value in families["cluster_replica_up"]
        }
        assert up == {"r0": 1.0, "r1": 1.0}, up
        print(f"/metrics carries {len(REQUIRED_FAMILIES)} cluster_* families")

        # Phase 2: kill the alpha primary mid-run; zero loss + warm rejoin.
        victim = manager.placement("alpha")[0]
        counts = {"ok": 0, "failed": 0}
        lock = threading.Lock()
        stop = threading.Event()

        def loader():
            while not stop.is_set():
                try:
                    _post(url, "alpha")
                    with lock:
                        counts["ok"] += 1
                except Exception:  # noqa: BLE001 - the measurement
                    with lock:
                        counts["failed"] += 1

        threads = [
            threading.Thread(target=loader, daemon=True) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        respawns_before = manager.stats()["replicas"][victim]["respawns"]
        manager.kill_replica(victim)
        assert manager.wait_ready(
            victim, timeout_s=30, min_respawns=respawns_before + 1
        ), "victim never rejoined"
        time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join(timeout=35)
        assert counts["failed"] == 0, counts
        assert counts["ok"] > 0, counts
        cluster_stats = manager.stats()
        assert cluster_stats["replicas"][victim]["respawns"] >= 1
        assert manager._migrations.value >= 1
        print(
            f"killed {victim} under load: {counts['ok']} ok, 0 lost, "
            f"warm migrations {int(manager._migrations.value)}"
        )
        routable, gauge = _routable(url)
        assert routable == {"r0": True, "r1": True}, routable
        assert gauge == {"r0": 1.0, "r1": 1.0}, gauge
        print("after the rejoin both replicas are routable")
        return {
            "served": stats["completed"],
            "killed": victim,
            "ok_during_kill": counts["ok"],
            "lost": counts["failed"],
            "warm_migrations": int(manager._migrations.value),
        }
    finally:
        server.shutdown()
        router.stop()
        manager.stop()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=10)
    result = run_smoke(parser.parse_args().requests)
    print(f"cluster smoke OK: {result}")
    sys.exit(0)
