"""The repo benchmark: four workloads, one command.

One run (what ``BENCHMARK.json``'s command executes)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--trace-dir DIR] [--quick]

runs one workload in this process (servers, routers and pool workers in
child processes) and prints, as its last stdout line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``. ``--trace-dir`` also writes the traced run's Chrome trace
and per-layer table there.

A suite (the default without ``--workload``)::

    python3 bench/run.py [--reps R] [--seed N] [--seconds S]
                         [--workloads W ...] [--quick] [--out PATH]

runs every workload ``R`` times untraced, each run in a fresh
subprocess with the workload order rotated per rep and seed ``N + rep``,
then once traced, and writes medians, quartiles and the machine record
to ``bench/results/``.

    python3 bench/run.py compare BASE.json NEW.json

prints one verdict row per (metric, workload); see ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import common

WORKLOADS = ("forward_offline", "serve_http", "cluster_http", "train_pooled")
QUICK_SECONDS = 2.0
#: Set-ups per run; setup_s reports their median.
SETUPS = 5
#: Upper bound on one run inside a suite (runs take about 20-40 s).
RUN_TIMEOUT_S = 180.0


def _run_workload(
    name: str, seed: int, seconds: float, trace: bool, setups: int,
    run_dir: Path,
):
    if name == "forward_offline":
        import wl_forward

        return wl_forward.run(seed, seconds, trace, setups)
    if name == "train_pooled":
        import wl_train

        return wl_train.run(seed, seconds, trace, setups, run_dir)
    import wl_http  # serve_http, cluster_http

    return wl_http.run(name, seed, seconds, trace, setups)


def run_one(args) -> int:
    spec = common.load_spec()
    common.require_repro()
    seconds = QUICK_SECONDS if args.quick else args.seconds
    setups = 1 if args.quick else SETUPS
    trace = args.trace == 1
    with common.RunDir() as run_dir:
        common.make_hermetic(run_dir.path)
        try:
            outcome = _run_workload(
                args.workload, args.seed, seconds, trace, setups, run_dir.path
            )
        finally:
            # Every process the run caused must have ended before exit.
            common.stop_multiprocessing_helpers()
            common.wait_gone(common.descendants(os.getpid()))
        if trace:
            from tracer import span_cost_s

            spans = sum(len(d["spans"]) for d in outcome.dumps)
            probes = sum(d["probe_s"] for d in outcome.dumps)
            outcome.metrics["trace.overhead_share"] = (
                spans * span_cost_s() + probes
            ) / seconds
    if trace and args.trace_dir:
        _write_trace(Path(args.trace_dir), args.workload, outcome)

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in declared:
        value = outcome.metrics.get(entry["name"])
        if value is None:
            if not trace:
                raise common.BenchError(
                    f"{args.workload} did not measure {entry['name']}"
                )
            value = 0.0  # per-layer metric of a layer this workload skips
        if not math.isfinite(value):
            raise common.BenchError(f"{entry['name']} is not finite: {value}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    for note in outcome.checks:
        print(f"check failed: {note}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


def _write_trace(directory: Path, workload: str, outcome) -> None:
    from tracer import write_chrome_trace

    directory.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(directory / f"{workload}.trace.json", outcome.dumps)
    with open(directory / f"{workload}.layers.json", "w") as handle:
        json.dump(outcome.layers, handle, indent=2)


# -- suite -------------------------------------------------------------------


def _subprocess_run(
    workload: str, seed: int, seconds: float, trace: int, quick: bool,
    trace_dir: str | None,
) -> dict:
    command = [
        sys.executable, str(common.BENCH / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if quick:
        command.append("--quick")
    if trace and trace_dir:
        command += ["--trace-dir", trace_dir]
    start = time.monotonic()
    proc = subprocess.run(
        command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        cwd=common.ROOT,
    )
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "wall_s": time.monotonic() - start,
        "returncode": proc.returncode,
    }
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        record["result"] = json.loads(lines[-1])
        record["notes"] = lines[:-1]
    else:
        record["stderr_tail"] = proc.stderr[-2000:]
    return record


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per workload: spread of every metric, plus operation totals."""
    summary: dict[str, dict] = {}
    for run in runs:
        if "result" not in run:
            continue
        entry = summary.setdefault(
            run["workload"],
            {"attempted": 0, "failed": 0, "correct": True, "values": {}},
        )
        result = run["result"]
        entry["attempted"] += result["attempted"]
        entry["failed"] += result["failed"]
        entry["correct"] = entry["correct"] and result["correct"]
        for name, metric in result["metrics"].items():
            entry["values"].setdefault(name, []).append(metric["value"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for entry in summary.values():
        values = entry.pop("values")
        entry["failed_share"] = entry["failed"] / max(entry["attempted"], 1)
        entry["metrics"] = {
            name: {**common.spread(vals), "unit": units[name]}
            for name, vals in values.items()
        }
    return summary


def run_suite(args) -> int:
    spec = common.load_spec()
    common.require_repro()
    workloads = args.workloads or list(WORKLOADS)
    seconds = QUICK_SECONDS if args.quick else args.seconds
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    results = Path("bench") / "results"  # relative: runs execute in ROOT
    out = Path(args.out or common.ROOT / results / f"run-{stamp}.json")
    trace_dir = args.trace_dir or str(results / f"run-{stamp}.trace")
    machine = common.machine_record()
    runs = []
    for rep in range(args.reps):
        shift = rep % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            runs.append(
                _subprocess_run(
                    workload, args.seed + rep, seconds, 0, args.quick, None
                )
            )
            _progress(runs[-1])
    for workload in workloads:
        runs.append(
            _subprocess_run(workload, args.seed, seconds, 1, args.quick, trace_dir)
        )
        _progress(runs[-1])
    machine["loadavg_after"] = list(os.getloadavg())
    report = {
        "benchmark": spec,
        "machine": machine,
        "settings": {
            "reps": args.reps,
            "seed": args.seed,
            "seconds": seconds,
            "workloads": workloads,
            "trace_dir": trace_dir,
        },
        "runs": runs,
        "summary": summarize(runs, spec),
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=1)
    _print_summary(report)
    print(f"wrote {out}")
    broken = [r for r in runs if "result" not in r or not r["result"]["correct"]]
    return 1 if broken else 0


def _progress(run: dict) -> None:
    status = "ok" if run.get("result", {}).get("correct") else "FAILED"
    print(
        f"  {run['workload']:<16} seed {run['seed']:<4} trace {run['trace']} "
        f"{run['wall_s']:6.1f}s {status}",
        file=sys.stderr,
        flush=True,
    )


def _print_summary(report: dict) -> None:
    spec = report["benchmark"]
    print(f"{'workload':<16} {'metric':<20} {'median':>12} {'IQR/median':>11}  unit")
    for workload, entry in report["summary"].items():
        for metric in spec["end_to_end"]:
            stat = entry["metrics"].get(metric["name"])
            if stat is None:
                continue
            print(
                f"{workload:<16} {metric['name']:<20} {stat['median']:12.4f} "
                f"{stat['iqr_share']:10.1%}  {stat['unit']}"
            )
        print(
            f"{workload:<16} {'failed/attempted':<20} "
            f"{entry['failed']:>6}/{entry['attempted']:<6}"
        )


# -- command line ------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured seconds per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default=None, metavar="DIR")
    parser.add_argument(
        "--quick", action="store_true",
        help=f"{QUICK_SECONDS:g} s runs and one set-up (smoke tests)",
    )
    parser.add_argument("--reps", type=int, default=5, help="suite reps")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS)
    parser.add_argument("--out", default=None, metavar="PATH")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(common.load_spec()["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
