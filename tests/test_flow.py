"""Tests for the whole-program flow analysis (repro.analysis.flow).

Covers the three deep passes on purpose-built fixtures, the baseline
ratchet, the deep CLI contract, and — the load-bearing one — the
static-superset cross-check: every acquired-before edge the runtime
lockwatch observes while driving real repo code must already be in the
statically computed lock-order graph.
"""

import json
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.analysis.cli import main as cli_main
from repro.analysis.cli import run as cli_run
from repro.analysis.flow import (
    DEEP_CODES,
    apply_baseline,
    build_graph,
    build_program,
    build_symbol_table,
    fingerprint,
    held_on_entry,
    load_baseline,
    may_acquire,
    run_deep,
    save_baseline,
    verify_runtime_edges,
)
from repro.analysis.flow.symbols import LockKey
from repro.analysis.core import Finding

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
FLOW_FIXTURES = Path(__file__).parent / "fixtures" / "lint" / "flow"


@pytest.fixture(scope="module")
def fixture_result():
    return run_deep([str(FLOW_FIXTURES)], baseline_path=None)


@pytest.fixture(scope="module")
def src_result():
    return run_deep([str(SRC)], baseline_path=None, root=REPO)


def by_code(report, code):
    return [f for f in report.findings if f.code == code]


# -- symbol table --------------------------------------------------------------


def test_symbol_table_locks_and_guards():
    table = build_symbol_table([str(FLOW_FIXTURES)])
    cls = table.classes["race_bad.SharedCounter"]
    assert cls.guards == {"_count": "_lock"}
    assert "_lock" in cls.locks
    decl = cls.locks["_lock"][0]
    assert decl.key == LockKey("race_bad.SharedCounter", "_lock")
    # creation sites use lockwatch's dir/file.py:line format
    assert decl.site.endswith("flow/race_bad.py:16")
    assert table.known_sites()[decl.site] == decl.key


def test_symbol_table_module_locks():
    table = build_symbol_table([str(FLOW_FIXTURES)])
    module = table.modules["order_bad"]
    assert set(module.locks) == {"ALPHA", "BETA"}


def test_src_symbol_table_uses_package_names():
    table = build_symbol_table([str(SRC / "repro" / "serve" / "breaker.py")])
    assert "repro.serve.breaker" in table.modules
    cls = table.classes["repro.serve.breaker.CircuitBreaker"]
    assert cls.guards["_state"] == "_lock"


# -- call graph + fixpoints ----------------------------------------------------


def test_thread_entries_detected():
    program = build_program(build_symbol_table([str(FLOW_FIXTURES)]))
    entries = program.entry_qualnames()
    assert "race_bad.SharedCounter._loop" in entries
    reachable = program.thread_reachable()
    assert "race_bad.SharedCounter.tick" in reachable
    assert "race_bad.SharedCounter._bump_locked" in reachable


def test_call_on_base_class_reaches_subclass_overrides(tmp_path):
    (tmp_path / "hooks.py").write_text(textwrap.dedent(
        """
        from http.server import BaseHTTPRequestHandler

        class Frontend:
            def predict(self):
                raise NotImplementedError

        class Replica(Frontend):
            def predict(self):
                return replica_work()

        class Router(Replica):
            def predict(self):
                return 1

        class Unrelated:
            def predict(self):
                return 2

        def replica_work():
            return 0

        class Handler(BaseHTTPRequestHandler):
            server: Frontend

            def do_POST(self):
                self.server.predict()
        """
    ))
    program = build_program(build_symbol_table([str(tmp_path)]))
    reachable = program.thread_reachable()
    assert {
        "hooks.Frontend.predict",
        "hooks.Replica.predict",
        "hooks.Router.predict",  # an override two levels down
        "hooks.replica_work",
    } <= reachable
    assert "hooks.Unrelated.predict" not in reachable


def test_may_acquire_crosses_calls():
    program = build_program(build_symbol_table([str(FLOW_FIXTURES)]))
    acq = may_acquire(program)
    # forward_path acquires ALPHA lexically and BETA through _take_beta
    assert acq["order_bad.forward_path"] == frozenset(
        {LockKey("order_bad", "ALPHA"), LockKey("order_bad", "BETA")}
    )


def test_held_on_entry_meet_over_callers():
    program = build_program(build_symbol_table([str(SRC)]))
    held = held_on_entry(program)
    # _poll_locked is only called with the batcher condition held
    key = LockKey("repro.serve.batcher.MicroBatcher", "_cond")
    assert key in held["repro.serve.batcher.MicroBatcher._poll_locked"]
    # public methods guarantee nothing
    assert held["repro.serve.batcher.MicroBatcher.offer"] == frozenset()


# -- the three passes ----------------------------------------------------------


def test_rpr101_broken_locked_convention(fixture_result):
    findings = by_code(fixture_result.report, "RPR101")
    assert len(findings) == 1
    f = findings[0]
    assert f.path.endswith("race_bad.py")
    assert "_bump_locked" in f.message
    assert "SharedCounter._count" in f.message


def test_rpr101_suppression_counted(fixture_result):
    # race_suppressed.py has the same defect behind a noqa marker
    assert not any(
        f.path.endswith("race_suppressed.py")
        for f in fixture_result.report.findings
    )
    assert fixture_result.report.suppressed == 1


def test_rpr102_interprocedural_cycle(fixture_result):
    findings = by_code(fixture_result.report, "RPR102")
    assert len(findings) == 1
    assert "ALPHA" in findings[0].message
    assert "BETA" in findings[0].message
    cycles = fixture_result.lock_graph.cycles()
    assert len(cycles) == 1
    assert {str(k) for k in cycles[0]} == {
        "order_bad.ALPHA", "order_bad.BETA",
    }


def test_rpr103_taint_through_helper_return(fixture_result):
    findings = by_code(fixture_result.report, "RPR103")
    assert len(findings) == 1
    f = findings[0]
    assert f.path.endswith("taint_bad.py")
    assert "time.time" in f.message
    assert "save_run" in f.message


def test_src_tree_is_deep_clean(src_result):
    assert src_result.report.ok, "\n".join(
        f"{f.location()} {f.code} {f.message}"
        for f in src_result.report.findings
    )


def test_deep_analysis_fits_ci_budget():
    started = time.monotonic()
    run_deep([str(SRC)], baseline_path=None, root=REPO)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"deep analysis took {elapsed:.1f}s (budget 30s)"


# -- baseline ratchet ----------------------------------------------------------


def test_baseline_roundtrip_and_ratchet(tmp_path):
    baseline = tmp_path / "baseline.json"
    # First run: record the fixture findings as accepted debt.
    first = run_deep(
        [str(FLOW_FIXTURES)],
        baseline_path=baseline,
        update_baseline=True,
        root=REPO,
    )
    assert baseline.exists()
    assert first.report.ok
    entries = json.loads(baseline.read_text(encoding="utf-8"))["entries"]
    assert len(entries) == 3  # one per pass
    # Second run: everything baselined, nothing new, exit clean.
    second = run_deep([str(FLOW_FIXTURES)], baseline_path=baseline, root=REPO)
    assert second.report.ok
    assert len(second.report.baselined) == 3
    assert second.report.findings == []


def test_baseline_new_finding_fails(tmp_path):
    baseline = tmp_path / "baseline.json"
    run_deep(
        [str(FLOW_FIXTURES)],
        baseline_path=baseline,
        update_baseline=True,
        root=REPO,
    )
    known = load_baseline(baseline)
    fresh = Finding(
        code="RPR101", message="brand new", path="x.py", line=1
    )
    new, baselined = apply_baseline([fresh], known, REPO)
    assert new == [fresh]
    assert baselined == []


def test_baseline_fingerprint_ignores_lines():
    a = Finding(code="RPR101", message="m", path=str(REPO / "x.py"), line=3)
    b = Finding(code="RPR101", message="m", path=str(REPO / "x.py"), line=99)
    assert fingerprint(a, REPO) == fingerprint(b, REPO)


def test_baseline_extra_occurrence_is_new(tmp_path):
    f = Finding(code="RPR103", message="m", path="y.py", line=1)
    baseline = tmp_path / "b.json"
    save_baseline(baseline, [f], REPO)
    new, baselined = apply_baseline([f, f], load_baseline(baseline), REPO)
    assert len(baselined) == 1
    assert len(new) == 1


def test_committed_baseline_matches_src():
    """The repo ships FLOW_BASELINE.json; src must stay inside it."""
    committed = REPO / "FLOW_BASELINE.json"
    assert committed.exists()
    result = run_deep([str(SRC)], baseline_path=committed, root=REPO)
    assert result.report.ok, "\n".join(
        f"{f.location()} {f.code} {f.message}"
        for f in result.report.findings
    )


# -- report plumbing -----------------------------------------------------------


def test_deep_report_json_shape(fixture_result):
    payload = fixture_result.report.to_dict()
    assert payload["version"] == 1
    assert "baselined" in payload
    assert set(payload["rules"]) >= set(DEEP_CODES)


# -- CLI contract --------------------------------------------------------------


def test_cli_deep_exit_codes(tmp_path, capsys):
    assert cli_run([str(FLOW_FIXTURES)], deep=True, baseline="none") == 1
    assert cli_run([str(SRC)], deep=True) == 0
    capsys.readouterr()


def test_cli_usage_errors(capsys):
    assert cli_run(["no/such/path"]) == 2
    assert cli_run([str(SRC)], select="RPR999") == 2
    assert cli_run([str(SRC)], update_baseline=True) == 2  # requires --deep
    capsys.readouterr()


def test_cli_paths_resolve_against_repo_root(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_run(["src"], select="RPR002") == 0
    capsys.readouterr()


def test_cli_json_to_stdout(capsys):
    code = cli_main(
        [str(FLOW_FIXTURES), "--deep", "--baseline", "none", "--json", "-"]
    )
    assert code == 1
    out = capsys.readouterr().out
    payload = json.loads(out)  # the whole stdout is one JSON document
    assert {f["code"] for f in payload["findings"]} == set(DEEP_CODES)


def test_cli_update_baseline_then_clean(tmp_path, capsys):
    baseline = tmp_path / "fixture_baseline.json"
    assert (
        cli_run(
            [str(FLOW_FIXTURES)],
            deep=True,
            baseline=str(baseline),
            update_baseline=True,
        )
        == 0
    )
    assert cli_run([str(FLOW_FIXTURES)], deep=True, baseline=str(baseline)) == 0
    out = capsys.readouterr().out
    assert "baselined" in out


def test_cli_list_rules_includes_deep(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in DEEP_CODES:
        assert code in out


# -- static ⊇ runtime cross-validation ----------------------------------------

_SCENARIO = r"""
import json, sys
from repro.analysis import lockwatch

watcher = lockwatch.install()

import numpy as np
from repro.serve.batcher import MicroBatcher, PendingRequest
from repro.serve.breaker import BreakerPolicy, CircuitBreaker
from repro.utils.parallel import parallel_map

# batcher: offer() sets the depth gauge while holding the condition
batcher = MicroBatcher(max_batch=4, max_wait_s=0.0)
for i in range(3):
    batcher.offer(
        PendingRequest(
            model="m", x=np.zeros(2), enqueued_at=0.0, deadline_at=None
        )
    )
batcher.poll(now=1.0)

# breaker: tripping sets counters/gauges while holding the state lock
breaker = CircuitBreaker(
    "xcheck", policy=BreakerPolicy(failure_threshold=1)
)
breaker.record_failure()
breaker.record_success()

# shard pool: helper threads take concurrent.futures' own locks, edges
# outside src that the cross-check sets aside as ignored
parallel_map(lambda x: x + 1, [1, 2, 3, 4], num_workers=2)

print(json.dumps(sorted(watcher.edge_sites())))
"""


@pytest.fixture(scope="module")
def runtime_edges():
    proc = subprocess.run(
        [sys.executable, "-c", _SCENARIO],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {tuple(edge) for edge in json.loads(proc.stdout)}


def test_runtime_scenario_produced_edges(runtime_edges):
    assert runtime_edges, "scenario recorded no acquired-before edges"


def test_static_graph_is_superset_of_runtime(src_result, runtime_edges):
    table = src_result.program.table
    verdict = verify_runtime_edges(
        table, src_result.lock_graph, runtime_edges
    )
    assert verdict["superset"], (
        "runtime lockwatch observed acquire-before edges the static "
        f"graph is missing: {verdict['missing']}"
    )
    # The check must not be vacuous: the scenario's cross-object edges
    # in src (batcher cond -> obs gauge, breaker lock -> obs
    # counter/gauge) must land in `covered`, not `ignored`.
    assert len(verdict["covered"]) >= 2, verdict


def test_lockwatch_graph_export():
    from repro.analysis.lockwatch import LockWatcher, wrap_lock
    import threading

    watcher = LockWatcher()
    a = wrap_lock(threading.Lock(), "dir/a.py:1", watcher)
    b = wrap_lock(threading.Lock(), "dir/b.py:2", watcher)
    with a:
        with b:
            pass
    assert watcher.edge_sites() == {("dir/a.py:1", "dir/b.py:2")}
    graph = watcher.graph()
    assert graph["edges"][0]["first"] == "dir/a.py:1"
    assert graph["edges"][0]["then"] == "dir/b.py:2"
    assert set(graph["locks"]) == {"dir/a.py:1", "dir/b.py:2"}


def test_verify_runtime_edges_classifies(src_result):
    table = src_result.program.table
    # unknown creation sites are ignored, not failures
    verdict = verify_runtime_edges(
        table,
        src_result.lock_graph,
        {("threading.py:1", "queue.py:2")},
    )
    assert verdict["superset"]
    assert verdict["ignored"] == [("threading.py:1", "queue.py:2")]

    # a genuine missing edge between two known locks is reported
    sites = sorted(table.known_sites())
    assert len(sites) >= 2
    known = table.known_sites()
    pair = None
    for first in sites:
        for then in sites:
            if known[first] != known[then]:
                pair = (first, then)
                break
        if pair:
            break
    static_pairs = set(src_result.lock_graph.edges)
    if (known[pair[0]], known[pair[1]]) not in static_pairs:
        verdict = verify_runtime_edges(
            table, src_result.lock_graph, {pair}
        )
        assert not verdict["superset"]
        assert verdict["missing"][0]["first"] == pair[0]
