"""Compare two suite results: ``python3 bench/run.py compare BASE NEW``.

One row per (end-to-end metric, workload), plus each workload's share
of failed operations. A verdict follows the repo's measurement rules:

* ``unresolved`` — either side's IQR is wider than the metric's bound,
  unless every NEW run reads better than every BASE run;
* ``worse`` — NEW's median is worse than BASE's by more than the bound;
* ``better`` — NEW wins at least 9 of 10 rep-by-rep pairs (ties count
  for neither) and the medians differ by more than BASE's IQR;
* ``unchanged`` — anything else.

A workload whose failed-operation share rose reads ``worse`` whatever
its timings. Exit status is 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys

from common import spread

WIN_SHARE = 0.9


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b, n = spread(base), spread(new)
    everything_better = (
        min(new) > max(base) if better == "higher" else max(new) < min(base)
    )
    if max(b["iqr_share"], n["iqr_share"]) > bound:
        return "better" if everything_better else "unresolved"
    change = sign * (n["median"] - b["median"]) / abs(b["median"])
    if change < -bound:
        return "worse"
    pairs = list(zip(base, new))
    wins = sum(sign * (nv - bv) > 0 for bv, nv in pairs)
    if (
        pairs
        and wins >= WIN_SHARE * len(pairs)
        and abs(n["median"] - b["median"]) > b["q3"] - b["q1"]
    ):
        return "better"
    return "unchanged"


def rows(base: dict, new: dict) -> list[dict]:
    spec = new["benchmark"]
    out = []
    for workload in sorted(set(base["summary"]) & set(new["summary"])):
        b_entry, n_entry = base["summary"][workload], new["summary"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b_stat = b_entry["metrics"].get(name)
            n_stat = n_entry["metrics"].get(name)
            if b_stat is None or n_stat is None:
                continue
            out.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "base": b_stat,
                    "new": n_stat,
                    "bound": metric["bound"],
                    "verdict": verdict(
                        b_stat["values"], n_stat["values"],
                        metric["better"], metric["bound"],
                    ),
                }
            )
        out.append(
            {
                "workload": workload,
                "metric": "failed_share",
                "unit": "share",
                "base": {"median": b_entry["failed_share"], "iqr_share": 0.0},
                "new": {"median": n_entry["failed_share"], "iqr_share": 0.0},
                "bound": 0.0,
                "verdict": (
                    "worse"
                    if n_entry["failed_share"] > b_entry["failed_share"]
                    else "unchanged"
                ),
            }
        )
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: bench/run.py compare BASE.json NEW.json", file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        base = json.load(handle)
    with open(argv[1]) as handle:
        new = json.load(handle)
    table = rows(base, new)
    print(
        f"{'metric':<18} {'workload':<16} {'base median':>12} {'IQR':>6} "
        f"{'new median':>12} {'IQR':>6} {'bound':>6}  verdict"
    )
    for row in table:
        b, n = row["base"], row["new"]
        print(
            f"{row['metric']:<18} {row['workload']:<16} {b['median']:12.4f} "
            f"{b['iqr_share']:6.1%} {n['median']:12.4f} {n['iqr_share']:6.1%} "
            f"{row['bound']:6.0%}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in table) else 0
