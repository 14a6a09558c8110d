"""RPR103 — determinism taint: nondeterministic sources must not reach
checkpoint / serialize / SC-replay sinks.

The repo's headline contract is bit-identical replay: a checkpoint
restored on another machine, or an SC forward re-run by a respawned
pool worker, must reproduce the original bits. Nothing machine- or
moment-specific may therefore flow into persisted state. The per-file
rules police *regions* (RPR001 everywhere, RPR002 in deterministic
directories); this pass tracks the *flow*:

* **sources** — wall-clock reads (``time.time``/``datetime.now``/...),
  OS entropy (``os.urandom``, ``uuid.uuid1/uuid4``, ``secrets.*``),
  global-RNG draws (``random.*``, unseeded ``numpy.random`` construc-
  tors), and ``id()`` used as a dict key or sort key (CPython address
  order — differs per run);
* **propagation** — through local assignments, arithmetic, container
  displays, f-strings, and **project function returns**: a function
  whose return value contains taint marks every call site, to a
  fixpoint over the call graph;
* **sinks** — arguments of atomic/persistence writers
  (``repro.utils.atomic.*``, ``numpy.save*``, ``json.dump``,
  ``pickle.dump``, ``fsync_append``), arguments of calls into
  persistence-named project functions, and — strictest — *any* source
  call lexically inside a persistence-named function
  (``save*``/``*checkpoint*``/``*journal*``/``*serialize*``/
  ``state_dict``), where even an unused timestamp tends to end up in
  the written payload after the next refactor.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, call_path
from repro.analysis.flow.callgraph import FlowProgram
from repro.analysis.flow.symbols import FunctionInfo

CODE = "RPR103"
NAME = "determinism-taint"
SUMMARY = (
    "nondeterministic source (wall clock, OS entropy, global RNG, "
    "id()-keyed order) flows into a checkpoint/serialize/replay sink"
)

_SOURCES = {
    "time.time",
    "time.time_ns",
    "time.ctime",
    "time.localtime",
    "time.gmtime",
    "time.asctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbits",
    "secrets.randbelow",
}

#: numpy.random constructors that are deterministic *given a seed*.
_NP_SEEDABLE = {
    "default_rng", "SeedSequence", "Generator", "PCG64", "PCG64DXSM",
    "Philox", "MT19937", "SFC64", "BitGenerator", "RandomState",
}

#: External writer calls that persist their arguments.
_SINK_CALLS = {
    "numpy.save",
    "numpy.savez",
    "numpy.savez_compressed",
    "json.dump",
    "pickle.dump",
}

_ATOMIC_PREFIX = "repro.utils.atomic."

#: Name tokens marking a function as a persistence/replay boundary.
_SINK_TOKENS = {
    "save", "checkpoint", "ckpt", "journal", "persist", "serialize",
}


def _is_sink_function(name: str) -> bool:
    tokens = set(name.lower().strip("_").split("_"))
    return bool(tokens & _SINK_TOKENS) or name == "state_dict"


def _source_label(path: str | None, node: ast.Call) -> str | None:
    """The source name when ``node`` is a nondeterministic call."""
    if path is None:
        return None
    if path in _SOURCES:
        return path
    if path.startswith("numpy.random."):
        attr = path.removeprefix("numpy.random.")
        if "." in attr:
            return None
        if attr in _NP_SEEDABLE:
            return None if (node.args or node.keywords) else f"{path}()"
        return path
    if path.startswith("random."):
        attr = path.removeprefix("random.")
        if "." in attr:
            return None
        if attr in ("Random", "SystemRandom"):
            return None if (node.args or node.keywords) else f"{path}()"
        return path
    return None


class _FunctionTaint:
    """One function's local taint walk."""

    def __init__(self, program: FlowProgram, info: FunctionInfo,
                 tainted_returns: dict[str, str]):
        self.program = program
        self.info = info
        self.module = program.table.modules[info.module]
        self.tainted_returns = tainted_returns
        self.tainted_locals: dict[str, str] = {}  # name -> source label
        self.sink_hits: list[tuple[ast.AST, str, str]] = []
        self.return_taint: str | None = None

    # -- taint of an expression ----------------------------------------------

    def taint_of(self, node: ast.AST | None) -> str | None:
        """Source label when the expression's value carries taint."""
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return self.tainted_locals.get(node.id)
        if isinstance(node, ast.Call):
            label = _source_label(
                call_path(node, self.module.aliases), node
            )
            if label is not None:
                return label
            resolved = self._resolved(node)
            for callee in resolved:
                if callee in self.tainted_returns:
                    return self.tainted_returns[callee]
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                inner = self.taint_of(arg)
                if inner is not None and self._passes_through(node):
                    return inner
            return None
        if isinstance(node, (ast.BinOp,)):
            return self.taint_of(node.left) or self.taint_of(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.taint_of(node.operand)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            for elt in node.elts:
                label = self.taint_of(elt)
                if label is not None:
                    return label
            return None
        if isinstance(node, ast.Dict):
            for sub in list(node.keys) + list(node.values):
                label = self.taint_of(sub)
                if label is not None:
                    return label
            return None
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                inner = getattr(value, "value", None)
                label = self.taint_of(inner)
                if label is not None:
                    return label
            return None
        if isinstance(node, ast.FormattedValue):
            return self.taint_of(node.value)
        if isinstance(node, (ast.Subscript, ast.Starred, ast.Attribute)):
            return self.taint_of(node.value)
        if isinstance(node, ast.IfExp):
            return (
                self.taint_of(node.body) or self.taint_of(node.orelse)
            )
        if isinstance(node, ast.Compare):
            return None  # booleans of tainted values are not payloads
        return None

    @staticmethod
    def _passes_through(node: ast.Call) -> bool:
        """Calls assumed to return (something containing) an argument:
        pure converters, not filters."""
        name = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        return name in {
            "str", "int", "float", "round", "repr", "format", "dict",
            "list", "tuple", "sorted", "join", "dumps",
        }

    def _resolved(self, node: ast.Call) -> tuple[str, ...]:
        # Reuse the already-built call summary resolution: match by AST
        # node identity.
        summary = self.program.summaries.get(self.info.qualname)
        if summary is None:
            return ()
        for call in summary.calls:
            if call.node is node:
                return call.callees
        return ()

    # -- the walk ------------------------------------------------------------

    def run(self) -> None:
        sink_fn = _is_sink_function(self.info.name)
        for stmt in ast.walk(self.info.node):
            if isinstance(stmt, ast.Assign):
                label = self.taint_of(stmt.value)
                if label is not None:
                    for target in stmt.targets:
                        self._taint_target(target, label)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                label = self.taint_of(stmt.value)
                if label is not None:
                    self._taint_target(stmt.target, label)
            elif isinstance(stmt, ast.AugAssign):
                label = self.taint_of(stmt.value)
                if label is not None:
                    self._taint_target(stmt.target, label)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                label = self.taint_of(stmt.value)
                if label is not None:
                    self.return_taint = label
        # second sweep: sinks (locals are now populated; ast.walk order
        # is document order within one function, so straight-line flows
        # resolve on the first sweep and this one just re-reads them)
        for node in ast.walk(self.info.node):
            if isinstance(node, ast.Call):
                self._check_sink_call(node, sink_fn)
        if sink_fn:
            self._check_sources_inside_sink()
        self._check_id_keys(sink_fn)

    def _taint_target(self, target: ast.AST, label: str) -> None:
        """Mark an assignment target's base name tainted.

        ``d["k"] = time.time()`` taints ``d`` — the container now holds
        the nondeterministic value.
        """
        if isinstance(target, ast.Name):
            self.tainted_locals[target.id] = label
        elif isinstance(target, (ast.Subscript, ast.Attribute, ast.Starred)):
            self._taint_target(target.value, label)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._taint_target(elt, label)

    def _check_sink_call(self, node: ast.Call, inside_sink: bool) -> None:
        path = call_path(node, self.module.aliases)
        resolved = self._resolved(node)
        is_sink = False
        sink_name = None
        if path is not None:
            if path in _SINK_CALLS or path.startswith(_ATOMIC_PREFIX):
                is_sink, sink_name = True, path
        for callee in resolved:
            if callee.startswith(_ATOMIC_PREFIX.rstrip(".")):
                is_sink, sink_name = True, callee
            else:
                tail = callee.rsplit(".", 1)[-1]
                if tail == "fsync_append" or (
                    not inside_sink and _is_sink_function(tail)
                ):
                    is_sink, sink_name = True, callee
        if not is_sink:
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            label = self.taint_of(arg)
            if label is not None:
                self.sink_hits.append((node, label, sink_name or "sink"))
                return

    def _check_sources_inside_sink(self) -> None:
        for node in ast.walk(self.info.node):
            if not isinstance(node, ast.Call):
                continue
            label = _source_label(
                call_path(node, self.module.aliases), node
            )
            if label is not None:
                self.sink_hits.append(
                    (node, label, f"{self.info.name}() persists state")
                )

    def _check_id_keys(self, inside_sink: bool) -> None:
        """``id()`` as dict key / sort key: address-ordered iteration."""
        deterministic = any(
            part in ("sc", "scnn", "arch")
            for part in self.module.ctx.parts
        )
        if not (inside_sink or deterministic):
            return
        for node in ast.walk(self.info.node):
            if isinstance(node, ast.Subscript):
                if self._is_id_call(node.slice):
                    self.sink_hits.append(
                        (node, "id()-keyed mapping", "object-address order")
                    )
            elif isinstance(node, ast.Call):
                name = (
                    node.func.id
                    if isinstance(node.func, ast.Name)
                    else getattr(node.func, "attr", "")
                )
                if name in ("sorted", "min", "max"):
                    for kw in node.keywords:
                        if kw.arg == "key" and (
                            (isinstance(kw.value, ast.Name)
                             and kw.value.id == "id")
                            or self._is_id_call(kw.value)
                        ):
                            self.sink_hits.append(
                                (
                                    node,
                                    "sort by id()",
                                    "object-address order",
                                )
                            )

    @staticmethod
    def _is_id_call(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        )


def check(program: FlowProgram) -> Iterator[Finding]:
    # fixpoint over tainted returns, then one reporting sweep
    tainted_returns: dict[str, str] = {}
    changed = True
    walkers: dict[str, _FunctionTaint] = {}
    while changed:
        changed = False
        for qualname, summary in program.summaries.items():
            walker = _FunctionTaint(program, summary.info, tainted_returns)
            walker.run()
            walkers[qualname] = walker
            if walker.return_taint is not None and qualname not in tainted_returns:
                tainted_returns[qualname] = walker.return_taint
                changed = True
    for qualname in sorted(walkers):
        walker = walkers[qualname]
        info = walker.info
        for node, label, sink in walker.sink_hits:
            yield Finding(
                code=CODE,
                message=(
                    f"nondeterministic value from {label} reaches "
                    f"persistence sink ({sink}) in {info.name}() — "
                    "persisted/replayed state must be bit-identical "
                    "across runs"
                ),
                path=info.path,
                line=getattr(node, "lineno", info.node.lineno),
                col=getattr(node, "col_offset", 0),
            )
