"""Workloads ``serve_http`` and ``cluster_http``: /predict over HTTP.

Both serve CNN-4 (width 0.5, 3x32x32) and LeNet-5 (1x28x28) at streams
32-64 from a server process (``server_proc.py``); ``cluster_http`` puts
the router over two replicas in front. The traffic is identical, so the
difference between the two isolates the router hop.

The load generator is this process: two threads (the main thread and
one helper), each owning one keep-alive connection.

* Interactive phase (two thirds of the run): open-loop Poisson arrivals
  at 10 requests/s, one sample each, models 50/50. Latency is timed from
  the scheduled send time, so a stall also charges the requests queued
  behind it; how late the generator ran is reported too. The arrival
  schedule is the same for every seed; the seed chooses the samples.
* Bulk phase (the last third): closed loop, one connection per model,
  8-sample requests. This fills the batcher (queue depth reaches the
  degrade watermark) and gives the throughput metric.

Correctness: every answered sample must be bit-identical to an
in-process forward, at the tier the response reports, of the batch it
was served in. Batch membership matters because the models' 8-bit
batch norm quantizes per tensor (scale = batch max-abs); order and
duplicates do not. With at most two requests in flight, the candidate
batches are few: the request alone, or together with the other
in-flight request of the same model (interactive), or a contiguous
split of its own 8 samples (bulk).
"""

from __future__ import annotations

import http.client
import json
import os
import select
import subprocess
import sys
import threading
import time

import numpy as np

from common import (
    BENCH, BenchError, Outcome, descendants, geomean, median, percentile,
    tree_peak_rss_mb, wait_gone,
)
from tracer import Tracer

STREAMS = {"stream_length": 64, "stream_length_pooling": 32}
MODELS = ("cnn4", "lenet5")
#: Distinct input samples per model; interactive requests draw from it
#: and every bulk request carries all of it.
POOL = 8
RATE_PER_S = 10.0
SCHEDULE_SEED = 0
INTERACTIVE_SHARE = 2 / 3
READY_TIMEOUT_S = 120.0


def serving_models():
    """``(name, model, per-sample input shape)`` for both served models;
    the server and the reference side build them identically."""
    from repro.models import cnn4_sc, lenet5_sc
    from repro.scnn.config import SCConfig

    cfg = SCConfig(**STREAMS)
    return [
        ("cnn4", cnn4_sc(cfg, in_channels=3, input_size=32, width_mult=0.5, seed=0),
         (3, 32, 32)),
        ("lenet5", lenet5_sc(cfg, in_channels=1, input_size=28, seed=0),
         (1, 28, 28)),
    ]


def _inputs(seed: int) -> dict[str, np.ndarray]:
    from repro.datasets.synthetic import SyntheticImages

    return {
        "cnn4": SyntheticImages("cifar10", seed=seed).sample(POOL)[0],
        "lenet5": SyntheticImages("mnist", seed=seed).sample(POOL)[0],
    }


class _References:
    """In-process forwards of candidate batches, computed on demand."""

    def __init__(self, pools: dict[str, np.ndarray]):
        from repro.scnn.config import SCConfig
        from repro.serve.registry import tier_ladder

        self.pools = pools
        ladder = tier_ladder(SCConfig(**STREAMS), 3)  # the registry's default
        self.models = {}
        for name, model, _ in serving_models():
            model.eval()
            self.models[name] = (model, ladder)
        self._cache: dict[tuple, dict[int, np.ndarray]] = {}

    def rows(self, model: str, tier: int, members) -> dict[int, np.ndarray]:
        """Logits per pool index for the batch holding ``members``."""
        members = tuple(sorted(set(members)))
        key = (model, tier, members)
        if key not in self._cache:
            from repro.nn.tensor import Tensor, no_grad
            from repro.scnn.layers import set_stream_lengths

            net, tiers = self.models[model]
            if tier >= len(tiers):
                return {}
            set_stream_lengths(net, **tiers[tier])
            with no_grad():
                out = net(Tensor(self.pools[model][list(members)])).data
            self._cache[key] = dict(zip(members, out))
        return self._cache[key]

    def matches(self, model, tier, index, logits, candidates) -> bool:
        return any(
            np.array_equal(self.rows(model, tier, members).get(index), logits)
            for members in candidates
        )


# -- server process ------------------------------------------------------------


class _Server:
    """The server (or router) child process and its line protocol."""

    def __init__(self, kind: str, setups: int, trace: bool):
        command = [
            sys.executable, str(BENCH / "server_proc.py"),
            "serve" if kind == "serve_http" else "cluster",
            "--setups", str(setups), "--trace", str(int(trace)),
        ]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=BENCH.parent,
        )
        self._buffer = b""
        try:
            self.ready = self._message("READY", READY_TIMEOUT_S)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.port = self.ready["port"]

    def _message(self, tag: str, timeout_s: float) -> dict:
        deadline = time.monotonic() + timeout_s
        prefix = tag.encode() + b" "
        fd = self.proc.stdout.fileno()
        while True:
            while b"\n" in self._buffer:
                line, self._buffer = self._buffer.split(b"\n", 1)
                if line.startswith(prefix):
                    return json.loads(line[len(prefix):])
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"server sent no {tag} within {timeout_s:.0f}s")
            readable, _, _ = select.select([fd], [], [], remaining)
            if readable:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise BenchError(
                        f"server exited (code {self.proc.wait()}) before {tag}"
                    )
                self._buffer += chunk

    def stop(self) -> dict:
        """Close stdin, collect DONE, and wait for every process the
        server started to end."""
        tree = descendants(self.proc.pid)
        try:
            self.proc.stdin.close()
            done = self._message("DONE", 60.0)
            self.proc.wait(timeout=30.0)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            wait_gone(tree)
        return done


# -- load generation -------------------------------------------------------------


def _body(model: str, samples: np.ndarray) -> bytes:
    return json.dumps({"model": model, "inputs": samples.tolist()}).encode()


class _Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int):
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method: str, path: str, body: bytes | None = None):
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.http.request(method, path, body=body, headers=headers)
            response = self.http.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as error:
            self.http.close()  # reopened on the next request
            return None, str(error).encode()

    def close(self) -> None:
        self.http.close()


def _send(conn: _Connection, record: dict, body: bytes) -> None:
    record["t_send"] = time.perf_counter()
    status, data = conn.request("POST", "/predict", body)
    record["t_done"] = time.perf_counter()
    record["status"] = status
    record["request_bytes"] = len(body)
    record["response_bytes"] = len(data)
    if status == 200:
        payload = json.loads(data)
        record["results"] = payload if isinstance(payload, list) else [payload]


def _two_threads(work) -> None:
    """Run ``work(k)`` for k = 0 on this thread and k = 1 on a helper."""
    helper = threading.Thread(target=work, args=(1,), name="loadgen-1")
    helper.start()
    try:
        work(0)
    finally:
        helper.join()


def _interactive(conns, pools, seed: int, duration_s: float) -> list[dict]:
    # The arrival times and model mix are the traffic shape, fixed for
    # every seed so that runs differ only in data (and in the host);
    # the seed picks which sample each request carries.
    shape = np.random.default_rng(SCHEDULE_SEED)
    data = np.random.default_rng(seed)
    schedule, at = [], 0.0
    while True:
        at += shape.exponential(1.0 / RATE_PER_S)
        if at >= duration_s:
            break
        model = MODELS[int(shape.integers(len(MODELS)))]
        schedule.append({"kind": "interactive", "model": model,
                         "members": (int(data.integers(POOL)),), "offset": at})
    bodies = {
        (m, i): _body(m, pools[m][i]) for m in MODELS for i in range(POOL)
    }
    lock = threading.Lock()
    cursor = iter(schedule)
    start = time.perf_counter() + 0.05

    def work(k: int) -> None:
        while True:
            with lock:
                record = next(cursor, None)
            if record is None:
                return
            record["t_sched"] = start + record["offset"]
            delay = record["t_sched"] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            _send(conns[k], record, bodies[(record["model"], record["members"][0])])

    _two_threads(work)
    return schedule


def _bulk(conns, pools, duration_s: float) -> list[dict]:
    bodies = {m: _body(m, pools[m]) for m in MODELS}
    records: list[dict] = []
    lock = threading.Lock()
    stop_at = time.perf_counter() + duration_s

    def work(k: int) -> None:
        model = MODELS[k]  # one model per connection: batches stay per request
        while time.perf_counter() < stop_at:
            record = {"kind": "bulk", "model": model,
                      "members": tuple(range(POOL))}
            record["t_sched"] = time.perf_counter()
            _send(conns[k], record, bodies[model])
            with lock:
                records.append(record)

    _two_threads(work)
    return records


def _bulk_throughput(records: list[dict]) -> float:
    """Samples/s of the closed loop: each connection completes one
    request per round trip, so its rate is samples over its median
    round trip (robust to a stalled second that a total would absorb)."""
    rate = 0.0
    for model in MODELS:
        trips = [r["t_done"] - r["t_send"] for r in records
                 if r["model"] == model and r.get("status") == 200]
        if trips:
            rate += POOL / median(trips)
    return rate


# -- checks and metrics ------------------------------------------------------------


def _candidates(record: dict, records: list[dict], tier: int) -> list[tuple]:
    """Batches the record's samples may have been served in (``records``
    is every request of the run; only overlapping ones matter)."""
    own = record["members"]
    if record["kind"] == "bulk":
        splits = [own]
        for k in range(1, len(own)):
            splits += [own[:k], own[k:]]
        return splits
    candidates = [own]
    for other in records:
        if (
            other is not record
            and other["model"] == record["model"]
            and other.get("status") == 200
            and other["t_send"] < record["t_done"]
            and record["t_send"] < other["t_done"]
            and other["results"][0]["tier"] == tier
        ):
            candidates.append(own + other["members"])
    return candidates


def _check(records: list[dict], refs: _References) -> tuple[int, list[str]]:
    failed, notes = 0, []
    for record in records:
        if record.get("status") != 200:
            failed += 1
            notes.append(f"{record['model']} {record['kind']}: HTTP {record.get('status')}")
            continue
        for index, result in zip(record["members"], record["results"]):
            tier = result["tier"]
            logits = np.asarray(result["outputs"], dtype=np.float32)
            if not refs.matches(
                record["model"], tier, index, logits,
                _candidates(record, records, tier),
            ):
                failed += 1
                notes.append(
                    f"{record['model']} {record['kind']} sample {index} tier "
                    f"{tier}: logits match no in-process batch"
                )
                break
    return failed, notes


def _stats(port: int) -> dict:
    conn = _Connection(port)
    status, data = conn.request("GET", "/stats")
    conn.close()
    if status != 200:
        raise BenchError(f"GET /stats on port {port}: {status}")
    return json.loads(data)


def _mean(hist: dict) -> float:
    return hist["sum"] / hist["count"] if hist["count"] else 0.0


def _service_stats(kind: str, port: int) -> dict:
    """Pooled histograms from the serving process(es) plus router stats."""
    if kind == "serve_http":
        stats = [_stats(port)]
        router = None
    else:
        router = _stats(port)
        stats = [
            _stats(int(info["port"]))
            for info in router["cluster"]["replicas"].values()
        ]

    def pooled(path) -> dict:
        hists = [path(s) for s in stats]
        return {"sum": sum(h["sum"] for h in hists),
                "count": sum(h["count"] for h in hists)}

    return {
        "exec_ms": _mean(pooled(lambda s: s["resilience"]["batch_latency_ms"])),
        "batch_size": _mean(pooled(lambda s: s["batches"]["size"])),
        "router": router,
    }


def run(kind: str, seed: int, seconds: float, trace: bool, setups: int) -> Outcome:
    pools = _inputs(seed)
    server = _Server(kind, setups, trace)
    conns = []
    try:
        conns = [_Connection(server.port), _Connection(server.port)]
        for conn in conns:  # connect before the clock starts
            conn.request("GET", "/healthz")
        interactive = _interactive(
            conns, pools, seed, seconds * INTERACTIVE_SHARE
        )
        bulk = _bulk(conns, pools, seconds * (1 - INTERACTIVE_SHARE))
        service = _service_stats(kind, server.port)
        peak_rss_mb = tree_peak_rss_mb(server.proc.pid)
    finally:
        for conn in conns:
            conn.close()
        done = server.stop()

    records = interactive + bulk
    failed, notes = _check(records, _References(pools))
    ok = [r for r in records if r.get("status") == 200]
    if not ok:
        raise BenchError(f"{kind}: no request succeeded")
    by_model = {
        m: [(r["t_done"] - r["t_sched"]) * 1e3 for r in interactive
            if r["model"] == m and r.get("status") == 200]
        for m in MODELS
    }
    samples = [res for r in ok for res in r["results"]]
    metrics = {
        "setup_s": median(server.ready["setup_s"]),
        "peak_rss_mb": peak_rss_mb,
        "throughput_per_s": _bulk_throughput(bulk),
        "latency_p50_ms": geomean(median(v) for v in by_model.values()),
        "latency_p50_ms.cnn4": median(by_model["cnn4"]),
        "latency_p50_ms.lenet5": median(by_model["lenet5"]),
        "latency_p95_ms": percentile(by_model["cnn4"] + by_model["lenet5"], 95),
        "degraded_share": sum(s["tier"] > 0 for s in samples) / len(samples),
        "loadgen.late_ms": float(np.mean(
            [(r["t_send"] - r["t_sched"]) * 1e3 for r in interactive]
        )),
        "wire.request_kb": float(np.mean([r["request_bytes"] for r in records])) / 1024,
        "wire.response_kb": float(np.mean([r["response_bytes"] for r in ok])) / 1024,
        "service.batch_size_mean": service["batch_size"],
        "backend.exec_ms": service["exec_ms"],
    }
    # Per request: client time from send, and the service's own time
    # (its slowest sample's enqueue-to-answer latency).
    client_ms = float(np.mean([(r["t_done"] - r["t_send"]) * 1e3 for r in ok]))
    service_ms = float(np.mean(
        [max(s["latency_ms"] for s in r["results"]) for r in ok]
    ))
    metrics["service.queue_ms"] = service_ms - service["exec_ms"]
    rows = {}
    if kind == "serve_http":
        metrics["server.frontend_ms"] = client_ms - service_ms
        rows["server.frontend"] = metrics["server.frontend_ms"]
        before, after = done["table_cache"]
        hits = after["hits"] - before["hits"]
        lookups = hits + after["misses"] - before["misses"]
        metrics["sim.table_cache_hit_share"] = hits / lookups if lookups else 0.0
    else:
        router = service["router"]
        router_ms = _mean(router["latency_ms"])
        metrics["router.frontend_ms"] = client_ms - router_ms
        metrics["router.hop_ms"] = router_ms - service_ms
        metrics["router.failovers"] = router["requests"]["failovers"]
        metrics["router.sweep_retries"] = router["requests"]["sweep_retries"]
        rows["router.frontend"] = metrics["router.frontend_ms"]
        rows["router.hop"] = metrics["router.hop_ms"]
    rows["service.queue"] = metrics["service.queue_ms"]
    rows["backend.exec"] = metrics["backend.exec_ms"]

    outcome = Outcome(
        attempted=len(records), failed=failed, metrics=metrics, checks=notes[:10]
    )
    if trace:
        outcome.layers = {
            "op": "/predict request (interactive and bulk)",
            "total_ms": client_ms,
            "rows": rows,
        }
        client = Tracer()
        for r in records:
            client.record(
                "client.request", r["t_send"], r["t_done"] - r["t_send"],
                model=r["model"], kind=r["kind"], status=r.get("status"),
            )
        outcome.dumps.append(client.export("load generator"))
        outcome.dumps.append(done["dump"])
    return outcome
