"""Command-line entry point: ``geo-repro <experiment> [--scale quick]``.

Runs one experiment harness and prints its paper-vs-measured report.
``--profile PATH`` additionally records the run's telemetry
(:mod:`repro.obs`) and writes ``PATH.jsonl`` + ``PATH.trace.json``
(the latter loads in ``chrome://tracing`` / Perfetto), followed by the
span/counter summary tree on stdout.
Also exposed as ``python -m repro.experiments``.
"""

from __future__ import annotations

import argparse
import sys

from repro import obs

from repro.experiments.ablations import (
    bn_gain_claim,
    ld_sequence_claim,
    pbhw_marginal_claim,
    pbw_gain_claim,
    render_claims,
    run_all_cheap,
)
from repro.experiments.fig1_sharing import render_fig1, run_fig1
from repro.experiments.fig2_progressive import render_fig2, run_fig2
from repro.experiments.fig5_area import render_fig5, run_fig5
from repro.experiments.fig6_breakdown import render_fig6, run_fig6
from repro.experiments.table1_accuracy import render_table1, run_table1
from repro.experiments.table2_ulp import render_table2, run_table2
from repro.experiments.table3_lp import render_table3, run_table3
from repro.experiments import export

#: Experiment harnesses `all` iterates over (each runs standalone too).
RUNNABLE = (
    "fig1", "fig2", "fig5", "fig6",
    "table1", "table2", "table3",
    "ablations", "ablations-training",
)

EXPERIMENTS = RUNNABLE + ("all", "serve", "cluster", "top", "train")


def _run(name: str, scale: str, csv_dir: str | None = None) -> None:
    if name == "fig1":
        result = run_fig1(scale)
        print(render_fig1(result))
        if csv_dir:
            print(f"wrote {export.export_fig1(result, csv_dir)}")
    elif name == "fig2":
        result = run_fig2(scale)
        print(render_fig2(result))
        if csv_dir:
            print(f"wrote {export.export_fig2(result, csv_dir)}")
    elif name == "fig5":
        result = run_fig5()
        print(render_fig5(result))
        if csv_dir:
            print(f"wrote {export.export_fig5(result, csv_dir)}")
    elif name == "fig6":
        result = run_fig6()
        print(render_fig6(result))
        if csv_dir:
            print(f"wrote {export.export_fig6(result, csv_dir)}")
    elif name == "table1":
        result = run_table1(scale)
        print(render_table1(result))
        if csv_dir:
            print(f"wrote {export.export_table1(result, csv_dir)}")
    elif name == "table2":
        print(render_table2(run_table2()))
    elif name == "table3":
        print(render_table3(run_table3()))
    elif name == "ablations":
        print(render_claims(run_all_cheap(), "In-text claims (architectural)"))
    elif name == "ablations-training":
        claims = [
            pbw_gain_claim(scale),
            bn_gain_claim(scale),
            pbhw_marginal_claim(scale),
            ld_sequence_claim(scale),
        ]
        print(render_claims(claims, "In-text claims (training-based)"))
    else:
        raise ValueError(name)


def _run_serve(args) -> int:
    """``geo-repro serve``: stand up the batched SC inference service.

    Serves a demo CNN-4 (or a ``--checkpoint`` saved with
    :func:`repro.nn.serialize.save_model`) over HTTP until interrupted.
    With ``--profile PATH``, telemetry records for the server's lifetime
    and shutdown writes ``PATH.jsonl`` + ``PATH.trace.json`` — the
    Chrome trace *merged across processes*: worker-pool spans shipped
    back per traced request render as separate process rows alongside
    the frontend's.
    """
    import dataclasses

    from repro import serve
    from repro.models.cnn4 import cnn4_sc
    from repro.scnn.config import SCConfig

    if args.profile:
        obs.reset()  # profile this server's lifetime only
    registry = serve.ModelRegistry()
    if args.checkpoint:
        entry = registry.load(args.model, args.checkpoint)
    else:
        cfg = SCConfig(
            stream_length=args.stream_length,
            stream_length_pooling=args.stream_length * 2,
        )
        model = cnn4_sc(cfg, num_classes=10, in_channels=3, input_size=32)
        entry = registry.register(args.model, model, input_shape=(3, 32, 32))
    chaos = serve.ChaosConfig.parse(args.chaos) if args.chaos else None
    backend = serve.make_backend(
        args.backend, num_workers=args.exec_workers, chaos=chaos
    )
    policy = serve.ServePolicy()
    if args.batch_timeout_s is not None:
        policy = dataclasses.replace(
            policy, batch_timeout_s=args.batch_timeout_s or None
        )
    service = serve.InferenceService(
        registry, policy=policy, backend=backend
    ).start()
    server = serve.make_server(
        service,
        host=args.host,
        port=args.port,
        verbose=True,
        trace_sample=args.trace_sample,
    )
    import threading

    drained = threading.Event()
    serve.install_graceful_shutdown(server, service, on_done=drained.set)
    chaos_note = (
        f", chaos {args.chaos!r}" if chaos is not None and chaos.active else ""
    )
    print(
        f"serving {entry.name!r} (input {entry.input_shape}, "
        f"{len(entry.tiers)} tier(s), backend {backend.name!r}"
        f"{chaos_note}) on "
        f"http://{args.host}:{server.port} — POST /predict, "
        "GET /healthz, GET /stats, GET /metrics, GET /tracez; "
        "Ctrl-C to stop"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        if server.draining:
            # SIGTERM path: the drain thread owns shutdown; wait for it
            # so in-flight requests finish before telemetry is written.
            drained.wait(timeout=35.0)
        else:
            server.shutdown()
            service.stop()
        if args.profile:
            jsonl, trace_path = obs.export_profile(args.profile)
            print(obs.summary_tree())
            print(f"wrote {jsonl} and {trace_path} (cross-process trace)")
    return 0


def _run_cluster(args) -> int:
    """``geo-repro cluster``: router + N supervised serve replicas.

    Spawns ``--replicas`` full serve stacks (each its own process with
    a warm model registry), places the demo model over them with
    rendezvous hashing, and fronts them with the weighted-fair router
    on ``--port``. ``--workload fixed`` swaps the demo CNN-4 for the
    fixed-service-time synthetic model (cheap replicas; orchestration
    demos and benchmarks). With ``--profile PATH``, shutdown writes the
    router's telemetry plus ``PATH.cluster.trace.json`` — recent traces
    merged across the router and every replica (one Chrome pid row per
    process).
    """
    from repro import cluster
    from repro.cluster.workload import fixed_service_model
    from repro.models.cnn4 import cnn4_sc
    from repro.obs.export import write_spans_trace
    from repro.scnn.config import SCConfig

    if args.profile:
        obs.reset()  # profile this router's lifetime only
    if args.workload == "fixed":
        model, input_shape = fixed_service_model(
            service_ms=args.service_ms
        )
    else:
        cfg = SCConfig(
            stream_length=args.stream_length,
            stream_length_pooling=args.stream_length * 2,
        )
        model = cnn4_sc(cfg, num_classes=10, in_channels=3, input_size=32)
        input_shape = (3, 32, 32)
    specs = [cluster.ClusterModel(args.model, model, input_shape)]
    manager = cluster.ReplicaManager(
        specs,
        num_replicas=args.replicas,
        replication=args.replication,
        trace_sample=args.trace_sample,
        host=args.host,
    ).start()
    router = cluster.ClusterRouter(
        manager,
        policy=cluster.RouterPolicy(scheduler=args.scheduler),
    ).start()
    server = cluster.make_router(
        router,
        host=args.host,
        port=args.port,
        verbose=True,
        trace_sample=args.trace_sample,
    )
    server.serve_background()
    print(
        f"cluster router for {args.model!r} on "
        f"http://{args.host}:{server.port} — POST /predict, GET /healthz, "
        f"GET /stats, GET /metrics, GET /tracez (merged); "
        f"{args.replicas} replica(s) "
        f"{manager.endpoints()}, replication {manager.ring.replication}, "
        f"scheduler {args.scheduler!r}; Ctrl-C to stop"
    )
    import signal as _signal
    import time as _time

    def _sigterm(signum, frame):  # noqa: ARG001 - signal signature
        # Route SIGTERM through the KeyboardInterrupt path below so the
        # router and every replica shut down cleanly (replicas drain
        # in-flight work via their own SIGTERM handlers; the pipe
        # "stop" from manager.stop() reaches them first here).
        raise KeyboardInterrupt

    _signal.signal(_signal.SIGTERM, _sigterm)

    try:
        while True:
            _time.sleep(1.0)
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        merged = router.merged_traces(limit=50) if args.profile else []
        server.shutdown()
        router.stop()
        manager.stop()
        if args.profile:
            jsonl, trace_path = obs.export_profile(args.profile)
            spans = [s for t in merged for s in t["spans"]]
            cluster_trace = write_spans_trace(
                f"{args.profile}.cluster.trace.json",
                spans,
                metadata={"traces": len(merged)},
            )
            print(obs.summary_tree())
            print(
                f"wrote {jsonl}, {trace_path} and {cluster_trace} "
                "(cluster-merged trace)"
            )
    return 0


def _run_top(args) -> int:
    """``geo-repro top``: live dashboard over serve /metrics endpoints.

    ``--endpoint`` (repeatable; default ``127.0.0.1:8080``) watches one
    frontend, or several at once in the aggregated cluster view.
    """
    from repro.serve.top import run_top

    def _normalize(url: str) -> str:
        if not url.startswith("http"):
            url = f"http://{url}"
        if not url.endswith("/metrics"):
            url = url.rstrip("/") + "/metrics"
        return url

    urls = [_normalize(u) for u in (args.endpoint or ["127.0.0.1:8080"])]
    return run_top(
        urls,
        interval_s=args.interval,
        iterations=1 if args.once else None,
        plain=args.plain,
    )


def _run_train(args) -> int:
    """``geo-repro train``: fault-tolerant SC training demo.

    Trains the small CNN-4 with atomic checkpoints (``--ckpt``) and
    SIGTERM/SIGINT preemption: a kill checkpoints at the next batch
    boundary, writes a resume marker, and exits with status 3; rerunning
    the same command resumes bit-identically (a resume marker implies
    ``--resume``). ``--pool-workers`` offloads the SC forwards to the
    supervised process pool, optionally under ``--chaos`` fault
    injection — crashed batches retry, never lose the run.
    """
    from repro import serve
    from repro.datasets import downscale, load_pair
    from repro.errors import TrainingInterrupted
    from repro.models.cnn4 import cnn4_sc
    from repro.scnn import MinibatchPool, read_resume_marker, train_model
    from repro.scnn.config import SCConfig

    if args.profile:
        obs.reset()
    train_set, test_set = load_pair(
        "svhn", args.train_samples, args.test_samples, seed=args.seed
    )
    train_set, test_set = downscale(train_set, 2), downscale(test_set, 2)
    cfg = SCConfig(
        stream_length=args.stream_length,
        stream_length_pooling=args.stream_length,
    )
    model = cnn4_sc(
        cfg, input_size=16, width_mult=0.25, kernel_size=3, seed=1
    )
    resume = args.resume
    if args.ckpt:
        marker = read_resume_marker(args.ckpt)
        if marker is not None:
            print(
                f"resume marker found ({marker['reason']} "
                f"{marker['detail']}); resuming"
            )
            resume = True
    chaos = serve.ChaosConfig.parse(args.chaos) if args.chaos else None
    pool_cm = (
        MinibatchPool(
            model,
            input_shape=(3, 16, 16),
            num_workers=args.pool_workers,
            chaos=chaos,
        )
        if args.pool_workers
        else None
    )
    try:
        if pool_cm is not None:
            with pool_cm as pool:
                result = train_model(
                    model,
                    train_set,
                    test_set,
                    epochs=args.epochs,
                    batch_size=args.batch_size,
                    seed=args.seed,
                    eval_every=1,
                    verbose=True,
                    checkpoint_path=args.ckpt,
                    checkpoint_every=args.checkpoint_every,
                    resume=resume,
                    pool=pool,
                    handle_signals=True,
                )
                print(f"pool stats: {pool.stats()}")
        else:
            result = train_model(
                model,
                train_set,
                test_set,
                epochs=args.epochs,
                batch_size=args.batch_size,
                seed=args.seed,
                eval_every=1,
                verbose=True,
                checkpoint_path=args.ckpt,
                checkpoint_every=args.checkpoint_every,
                resume=resume,
                handle_signals=True,
            )
    except TrainingInterrupted as error:
        print(
            f"preempted at epoch {error.epoch} batch {error.batch}; "
            f"checkpoint saved to {args.ckpt} — rerun to resume"
        )
        return 3
    print(
        f"done: train_acc={result.train_accuracy:.4f} "
        f"test_acc={result.test_accuracy:.4f}"
    )
    if args.profile:
        jsonl, trace = obs.export_profile(args.profile)
        print(obs.summary_tree())
        print(f"wrote {jsonl} and {trace}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="geo-repro",
        description="Reproduce GEO (DATE 2021) tables and figures.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument(
        "--scale",
        default="quick",
        choices=("quick", "standard", "full"),
        help="resource envelope for training-based experiments",
    )
    parser.add_argument(
        "--csv-dir",
        default=None,
        help="also dump the figure/table data as CSV into this directory",
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="record telemetry and write PATH.jsonl + PATH.trace.json "
        "(Chrome trace), then print the span/counter summary",
    )
    group = parser.add_argument_group("serve", "options for `geo-repro serve`")
    group.add_argument("--host", default="127.0.0.1")
    group.add_argument(
        "--port", type=int, default=8080, help="0 picks a free port"
    )
    group.add_argument(
        "--model", default="cnn4", help="name the model is served under"
    )
    group.add_argument(
        "--checkpoint",
        default=None,
        help="serve a nn.serialize.save_model checkpoint instead of the "
        "built-in demo CNN-4",
    )
    group.add_argument(
        "--stream-length", type=int, default=64,
        help="demo model stream length (ignored with --checkpoint)",
    )
    group.add_argument(
        "--backend",
        default="thread",
        choices=("thread", "process"),
        help="execution backend: in-thread (default) or the supervised "
        "process pool (crash isolation + multi-core batches)",
    )
    group.add_argument(
        "--exec-workers", type=int, default=2,
        help="process-pool worker count (--backend process only)",
    )
    group.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection, e.g. "
        "'crash=0.05,stall=0.05,stall_ms=50,seed=0' "
        "(keys: crash/stall/corrupt rates, stall_ms, seed)",
    )
    group.add_argument(
        "--batch-timeout-s", type=float, default=None,
        help="per-attempt batch execution timeout (0 disables; default "
        "uses the policy's 10s)",
    )
    group.add_argument(
        "--trace-sample", type=int, default=16,
        help="trace every Nth headerless request (0 = only requests "
        "carrying X-Repro-Trace are traced)",
    )
    cluster_group = parser.add_argument_group(
        "cluster", "options for `geo-repro cluster` (multi-replica router)"
    )
    cluster_group.add_argument(
        "--replicas", type=int, default=2,
        help="replica server processes to spawn",
    )
    cluster_group.add_argument(
        "--replication", type=int, default=2,
        help="placement copies per model (capped at --replicas)",
    )
    cluster_group.add_argument(
        "--scheduler", default="wfq", choices=("wfq", "fifo"),
        help="router scheduling between models: weighted-fair (default) "
        "or a single FIFO",
    )
    cluster_group.add_argument(
        "--workload", default="cnn4", choices=("cnn4", "fixed"),
        help="demo model per replica: the SC CNN-4 (default) or the "
        "fixed-service-time synthetic model",
    )
    cluster_group.add_argument(
        "--service-ms", type=float, default=20.0,
        help="forward duration for --workload fixed",
    )
    top_group = parser.add_argument_group(
        "top", "options for `geo-repro top` (live /metrics dashboard)"
    )
    top_group.add_argument(
        "--endpoint", action="append", default=None, metavar="URL",
        help="frontend to watch (host:port or full /metrics URL; default "
        "127.0.0.1:8080); repeat for an aggregated cluster view "
        "(counters sum, gauges max-merge)",
    )
    top_group.add_argument(
        "--interval", type=float, default=1.0, help="poll period seconds"
    )
    top_group.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (smoke tests, cron)",
    )
    top_group.add_argument(
        "--plain", action="store_true",
        help="never use curses; print one frame per poll",
    )
    train_group = parser.add_argument_group(
        "train", "options for `geo-repro train` (fault-tolerant training)"
    )
    train_group.add_argument(
        "--ckpt", default=None, metavar="PATH",
        help="atomic training checkpoint path; enables preemption "
        "(SIGTERM/SIGINT checkpoint-and-exit) and --resume",
    )
    train_group.add_argument(
        "--resume", action="store_true",
        help="resume from --ckpt if it exists (bit-identical); implied "
        "when a resume marker from a preempted run is present",
    )
    train_group.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="also checkpoint every N batches (0: epoch ends only)",
    )
    train_group.add_argument(
        "--epochs", type=int, default=2, help="training epochs"
    )
    train_group.add_argument(
        "--batch-size", type=int, default=16, help="minibatch size"
    )
    train_group.add_argument(
        "--seed", type=int, default=0, help="data order / sampling seed"
    )
    train_group.add_argument(
        "--train-samples", type=int, default=96,
        help="SVHN training subset size",
    )
    train_group.add_argument(
        "--test-samples", type=int, default=48,
        help="SVHN test subset size",
    )
    train_group.add_argument(
        "--pool-workers", type=int, default=0, metavar="N",
        help="run SC forwards on an N-worker supervised process pool "
        "(0: in-process); honors --chaos fault injection",
    )
    args = parser.parse_args(argv)

    if args.experiment == "serve":
        return _run_serve(args)

    if args.experiment == "cluster":
        return _run_cluster(args)

    if args.experiment == "top":
        return _run_top(args)

    if args.experiment == "train":
        return _run_train(args)

    if args.profile:
        obs.reset()  # profile this invocation only, not import-time noise

    with obs.span("cli.run", experiment=args.experiment, scale=args.scale):
        if args.experiment == "all":
            for name in RUNNABLE:
                print(f"\n===== {name} =====")
                _run(name, args.scale, args.csv_dir)
        else:
            _run(args.experiment, args.scale, args.csv_dir)

    if args.profile:
        jsonl, trace = obs.export_profile(args.profile)
        print()
        print(obs.summary_tree())
        print(f"wrote {jsonl} and {trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
