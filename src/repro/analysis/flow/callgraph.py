"""Call graph + per-function event summaries over the symbol table.

For every function the walker produces one :class:`FunctionSummary`
recording, with the **lexically-held lock set** at each point:

* resolved calls (project callees and/or the external dotted path),
  split into *sync* calls (same thread, callee runs under the caller's
  locks) and *async* hand-offs (``threading.Thread(target=...)``,
  ``submit``/``parallel_map`` targets — the target runs on another
  thread, holding nothing);
* lock acquisitions (``with self._lock:``, ``with GLOBAL:``, explicit
  ``.acquire()``), resolved to :class:`~repro.analysis.flow.symbols.LockKey`;
* reads/writes of ``self.<attr>`` attributes.

Call resolution is deliberately conservative: an edge is only added
when the target is identified — ``self.m()`` on the own class (or a
known base), a module function, an imported name, a constructor, or a
method on an object whose type was inferred (constructor assignment,
parameter/attribute annotation, or a project function's annotated
return type, chained through call expressions). A method call resolved
on class ``C`` also reaches every override of that method in a known
subclass of ``C``, since the object may be any of them (a hook a base
class declares and its subclasses implement). Unresolvable calls are
recorded with their dotted path only, so the passes can still match
external sources/sinks (``time.time``) without inventing project edges.

Thread **entry points** are collected during the same walk:
``threading.Thread(target=f)``, ``*.submit(f, ...)``,
``parallel_map(f, ...)``, ``call_soon``-style callbacks are *not*
guessed — plus every ``do_*`` method of an ``http.server`` handler
subclass, which the threading HTTP server invokes on a fresh thread
per request.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.core import child_bodies, dotted_name, resolve_dotted
from repro.analysis.flow.symbols import (
    ClassInfo,
    FunctionInfo,
    LockKey,
    ModuleInfo,
    SymbolTable,
    _annotation_name,
)

#: dotted-path tails treated as async fan-out: first argument (or the
#: ``target=`` keyword for Thread) runs on another thread.
_ASYNC_FANOUT_TAILS = ("submit", "parallel_map")


@dataclass
class CallEvent:
    """One call site inside a function."""

    callees: tuple[str, ...]  # resolved project function qualnames
    external: str | None  # dotted path when not (only) a project call
    held: frozenset  # LockKeys lexically held at the site
    node: ast.Call
    sync: bool = True  # False: target runs on another thread


@dataclass
class AcquireEvent:
    """One lock acquisition site."""

    key: LockKey
    held: frozenset  # held *before* this acquisition
    node: ast.AST


@dataclass
class AccessEvent:
    """One ``self.<attr>`` read or write."""

    attr: str
    kind: str  # "read" | "write"
    held: frozenset
    node: ast.AST


@dataclass
class FunctionSummary:
    info: FunctionInfo
    calls: list[CallEvent] = field(default_factory=list)
    acquires: list[AcquireEvent] = field(default_factory=list)
    accesses: list[AccessEvent] = field(default_factory=list)


@dataclass
class ThreadEntry:
    """One place a function becomes a thread's first frame."""

    qualname: str
    reason: str  # "Thread(target=...)", "submit", "parallel_map", "http-handler"
    path: str
    line: int


class FlowProgram:
    """Symbol table + summaries + call graph, built once per deep run."""

    def __init__(self, table: SymbolTable):
        self.table = table
        self.summaries: dict[str, FunctionSummary] = {}
        self.entries: list[ThreadEntry] = []
        #: caller qualname -> [(callee qualname, sync)]
        self.edges: dict[str, list[tuple[str, bool]]] = {}
        #: callee qualname -> [(caller qualname, held-at-site)]
        self.callers: dict[str, list[tuple[str, frozenset]]] = {}
        #: class qualname -> its direct subclasses among the scanned ones
        self.subclasses: dict[str, list[ClassInfo]] = {}
        for cls in table.classes.values():
            for base in cls.bases:
                resolved = table.base_class(cls, base)
                if resolved is not None:
                    self.subclasses.setdefault(resolved.qualname, [])
                    self.subclasses[resolved.qualname].append(cls)
        for info in table.functions.values():
            walker = _SummaryWalker(self, info)
            summary = walker.run()
            self.summaries[info.qualname] = summary
        self._link()
        self._collect_handler_entries()

    # -- graph wiring --------------------------------------------------------

    def _link(self) -> None:
        for qualname, summary in self.summaries.items():
            for call in summary.calls:
                for callee in call.callees:
                    self.edges.setdefault(qualname, []).append(
                        (callee, call.sync)
                    )
                    if call.sync:
                        self.callers.setdefault(callee, []).append(
                            (qualname, call.held)
                        )

    def _collect_handler_entries(self) -> None:
        for cls in self.table.classes.values():
            if not any(
                base.rsplit(".", 1)[-1] == "BaseHTTPRequestHandler"
                for base in cls.bases
            ):
                continue
            for name, method in cls.methods.items():
                if name.startswith("do_"):
                    self.entries.append(
                        ThreadEntry(
                            qualname=method.qualname,
                            reason="http-handler",
                            path=cls.path,
                            line=method.node.lineno,
                        )
                    )

    # -- queries -------------------------------------------------------------

    def entry_qualnames(self) -> set[str]:
        return {e.qualname for e in self.entries}

    def thread_reachable(self) -> set[str]:
        """Functions that may run on a spawned (non-main) thread."""
        seen: set[str] = set()
        queue = list(self.entry_qualnames())
        while queue:
            fn = queue.pop()
            if fn in seen:
                continue
            seen.add(fn)
            for callee, _sync in self.edges.get(fn, ()):
                # Reachability crosses async hops too: a thread spawned
                # by a thread still runs off-main.
                if callee not in seen:
                    queue.append(callee)
        return seen

    def add_entry(self, entry: ThreadEntry) -> None:
        self.entries.append(entry)

    def overrides(self, cls: ClassInfo, name: str) -> tuple[str, ...]:
        """Method ``name`` as defined in every known subclass of ``cls``."""
        found, seen = set(), set()
        stack = list(self.subclasses.get(cls.qualname, ()))
        while stack:
            sub = stack.pop()
            if sub.qualname not in seen:
                seen.add(sub.qualname)
                if name in sub.methods:
                    found.add(sub.methods[name].qualname)
                stack.extend(self.subclasses.get(sub.qualname, ()))
        return tuple(sorted(found))


# -- the walker ---------------------------------------------------------------


class _SummaryWalker:
    """One function's body walk with lexical lock tracking."""

    def __init__(self, program: FlowProgram, info: FunctionInfo):
        self.program = program
        self.table = program.table
        self.info = info
        self.module: ModuleInfo = self.table.modules[info.module]
        self.cls: ClassInfo | None = info.cls or (
            info.parent.cls if info.parent is not None else None
        )
        self.summary = FunctionSummary(info)
        self.env: dict[str, str] = {}  # local name -> class qualname

    def run(self) -> FunctionSummary:
        self._seed_env()
        self._walk(self.info.node.body, frozenset())
        return self.summary

    # -- type environment ----------------------------------------------------

    def _seed_env(self) -> None:
        args = self.info.node.args
        for arg in [
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ]:
            ann = _annotation_name(arg.annotation)
            if ann not in (None, "None"):
                resolved = self._class_qualname(ann)
                if resolved is not None:
                    self.env[arg.arg] = resolved

    def _class_qualname(self, name: str) -> str | None:
        cls = self.table.resolve_class(self.module, name)
        return cls.qualname if cls is not None else None

    def _attr_type(self, cls: ClassInfo, attr: str) -> str | None:
        raw = cls.attr_types.get(attr)
        if raw is None:
            return None
        owner = self.table.modules.get(cls.module)
        if owner is None:
            return None
        resolved = self.table.resolve_class(owner, raw)
        if resolved is not None:
            return resolved.qualname
        # ``self.x = obs.gauge(...)``-style factory assignment: resolve
        # the factory function and use its annotated return type.
        fn, klass = self._resolve_qualified(
            resolve_dotted(raw, owner.aliases)
        )
        if klass is not None:
            return klass.qualname
        if fn is not None and fn.return_type is not None:
            fn_owner = self.table.modules.get(fn.module)
            if fn_owner is not None:
                ret = self.table.resolve_class(fn_owner, fn.return_type)
                if ret is not None:
                    return ret.qualname
        return None

    def _expr_type(self, node: ast.AST) -> str | None:
        """Class qualname of an expression's value, when inferable."""
        if isinstance(node, ast.Name):
            if node.id == "self" and self.cls is not None:
                return self.cls.qualname
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._expr_type(node.value)
            if base is not None:
                cls = self.table.classes.get(base)
                if cls is not None:
                    return self._attr_type(cls, node.attr)
            return None
        if isinstance(node, ast.Call):
            resolved = self._resolve_call_targets(node)
            if resolved.constructed is not None:
                return resolved.constructed
            for callee in resolved.callees:
                info = self.table.functions.get(callee)
                if info is not None and info.return_type is not None:
                    qual = self.table.classes.get(info.return_type)
                    if qual is not None:
                        return qual.qualname
                    # return annotation resolved in the callee's module
                    owner = self.table.modules.get(info.module)
                    if owner is not None:
                        cls = self.table.resolve_class(
                            owner, info.return_type
                        )
                        if cls is not None:
                            return cls.qualname
            return None
        return None

    # -- call resolution -----------------------------------------------------

    def _resolve_qualified(self, path: str):
        """A project function/class for a fully-resolved dotted path,
        following one level of re-export (``repro.obs.gauge`` ->
        ``repro.obs.core.gauge``)."""
        if path in self.table.functions:
            return self.table.functions[path], None
        if path in self.table.classes:
            return None, self.table.classes[path]
        head, _, tail = path.rpartition(".")
        module = self.table.modules.get(head)
        if module is not None and tail:
            if tail in module.functions:
                return module.functions[tail], None
            if tail in module.classes:
                return None, module.classes[tail]
            alias = module.aliases.get(tail)
            if alias is not None and alias != path:
                return self._resolve_qualified(alias)
        return None, None

    def _callable_ref(self, node: ast.AST) -> str | None:
        """Project function qualname for a *reference* (not a call) —
        thread targets, submit/parallel_map first arguments."""
        if isinstance(node, ast.Name):
            nested = self._nested_function(node.id)
            if nested is not None:
                return nested
            if node.id in self.module.functions:
                return self.module.functions[node.id].qualname
            alias = self.module.aliases.get(node.id)
            if alias is not None:
                fn, _cls = self._resolve_qualified(alias)
                if fn is not None:
                    return fn.qualname
            return None
        if isinstance(node, ast.Attribute):
            base = self._expr_type(node.value)
            if base is not None:
                cls = self.table.classes.get(base)
                if cls is not None:
                    method = self.table.method_on(cls, node.attr)
                    if method is not None:
                        return method.qualname
            path = dotted_name(node)
            if path is not None:
                fn, _cls = self._resolve_qualified(
                    resolve_dotted(path, self.module.aliases)
                )
                if fn is not None:
                    return fn.qualname
        return None

    def _nested_function(self, name: str) -> str | None:
        scope: FunctionInfo | None = self.info
        while scope is not None:
            candidate = f"{scope.qualname}.<locals>.{name}"
            if candidate in self.table.functions:
                return candidate
            scope = scope.parent
        return None

    @dataclass
    class _Resolved:
        callees: tuple[str, ...] = ()
        external: str | None = None
        constructed: str | None = None  # class qualname for constructors

    def _resolve_call_targets(self, node: ast.Call) -> "_SummaryWalker._Resolved":
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            nested = self._nested_function(name)
            if nested is not None:
                return self._Resolved(callees=(nested,))
            if name in self.module.functions:
                return self._Resolved(
                    callees=(self.module.functions[name].qualname,)
                )
            if name in self.module.classes:
                return self._ctor(self.module.classes[name])
            alias = self.module.aliases.get(name)
            if alias is not None:
                fn, cls = self._resolve_qualified(alias)
                if fn is not None:
                    return self._Resolved(callees=(fn.qualname,))
                if cls is not None:
                    return self._ctor(cls)
                return self._Resolved(external=alias)
            return self._Resolved(external=name)
        if isinstance(func, ast.Attribute):
            base_type = self._expr_type(func.value)
            if base_type is not None:
                cls = self.table.classes.get(base_type)
                if cls is not None:
                    method = self.table.method_on(cls, func.attr)
                    if method is not None:
                        return self._Resolved(
                            callees=(
                                method.qualname,
                                *self.program.overrides(cls, func.attr),
                            )
                        )
                    return self._Resolved(
                        external=f"{base_type}.{func.attr}"
                    )
            path = dotted_name(func)
            if path is not None:
                resolved = resolve_dotted(path, self.module.aliases)
                fn, cls = self._resolve_qualified(resolved)
                if fn is not None:
                    return self._Resolved(callees=(fn.qualname,))
                if cls is not None:
                    return self._ctor(cls)
                return self._Resolved(external=resolved)
        return self._Resolved()

    def _ctor(self, cls: ClassInfo) -> "_SummaryWalker._Resolved":
        init = self.table.method_on(cls, "__init__")
        return self._Resolved(
            callees=(init.qualname,) if init is not None else (),
            constructed=cls.qualname,
        )

    # -- lock resolution -----------------------------------------------------

    def _lock_ref(self, node: ast.AST) -> LockKey | None:
        """LockKey for an expression naming a declared lock."""
        if isinstance(node, ast.Name):
            key = self.module.lock_key(node.id)
            if key is not None:
                return key
            alias = self.module.aliases.get(node.id)
            if alias is not None:
                head, _, tail = alias.rpartition(".")
                owner = self.table.modules.get(head)
                if owner is not None:
                    return owner.lock_key(tail)
            return None
        if isinstance(node, ast.Attribute):
            base = self._expr_type(node.value)
            if base is not None:
                cls = self.table.classes.get(base)
                while cls is not None:
                    key = cls.lock_key(node.attr)
                    if key is not None:
                        return key
                    # locks declared on a base class
                    nxt = None
                    for bname in cls.bases:
                        owner = self.table.modules.get(cls.module)
                        if owner is None:
                            continue
                        resolved = self.table.resolve_class(owner, bname)
                        if resolved is not None:
                            nxt = resolved
                            break
                    cls = nxt
        return None

    # -- the walk ------------------------------------------------------------

    def _walk(self, body: list, held: frozenset) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Nested defs are separate functions with their own
                # summaries; their bodies are not this frame's events.
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = set(held)
                for item in stmt.items:
                    self._scan_expr(item.context_expr, frozenset(inner))
                    key = self._lock_ref(item.context_expr)
                    if key is not None:
                        if key not in inner:
                            self.summary.acquires.append(
                                AcquireEvent(key, frozenset(inner), stmt)
                            )
                        inner.add(key)
                self._walk(stmt.body, frozenset(inner))
                continue
            blocks = child_bodies(stmt)
            if blocks:
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        self._scan_expr(child, held)
                for block in blocks:
                    self._walk(block, held)
            else:
                self._scan_expr(stmt, held)
            self._track_assignment(stmt)

    def _track_assignment(self, stmt) -> None:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                inferred = self._expr_type(stmt.value)
                if inferred is not None:
                    self.env[target.id] = inferred
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            ann = _annotation_name(stmt.annotation)
            if ann not in (None, "None"):
                resolved = self._class_qualname(ann)
                if resolved is not None:
                    self.env[stmt.target.id] = resolved

    def _scan_expr(self, root: ast.AST, held: frozenset) -> None:
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                self._record_call(node, held)
            elif isinstance(node, ast.Attribute):
                self._record_access(node, held)
        self._record_mutations(root, held)

    def _record_mutations(self, root: ast.AST, held: frozenset) -> None:
        """(Aug)assign / delete / subscript-store on self attributes."""
        for node in ast.walk(root):
            if isinstance(
                node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)
            ):
                if isinstance(node, (ast.Assign, ast.Delete)):
                    targets = list(node.targets)
                else:
                    targets = [node.target]
                for target in targets:
                    attr = self._self_attr(target)
                    if attr is None and isinstance(target, ast.Subscript):
                        attr = self._self_attr(target.value)
                    if attr is not None:
                        self.summary.accesses.append(
                            AccessEvent(attr, "write", held, node)
                        )

    _MUTATORS = {
        "append", "appendleft", "add", "clear", "discard", "extend",
        "insert", "pop", "popleft", "popitem", "remove", "reverse",
        "rotate", "setdefault", "sort", "update",
    }

    @staticmethod
    def _self_attr(node: ast.AST) -> str | None:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def _record_access(self, node: ast.Attribute, held: frozenset) -> None:
        attr = self._self_attr(node)
        if attr is None:
            return
        if isinstance(node.ctx, ast.Load):
            self.summary.accesses.append(
                AccessEvent(attr, "read", held, node)
            )
        # Store/Del contexts are recorded by _record_mutations with the
        # whole statement as the site.

    def _record_call(self, node: ast.Call, held: frozenset) -> None:
        resolved = self._resolve_call_targets(node)
        # mutator method on a self attribute == write access
        if isinstance(node.func, ast.Attribute):
            attr = self._self_attr(node.func.value)
            if attr is not None and node.func.attr in self._MUTATORS:
                self.summary.accesses.append(
                    AccessEvent(attr, "write", held, node)
                )
        # explicit .acquire() on a declared lock
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
        ):
            key = self._lock_ref(node.func.value)
            if key is not None and key not in held:
                self.summary.acquires.append(
                    AcquireEvent(key, held, node)
                )
        self._detect_async(node, resolved, held)
        if resolved.callees or resolved.external:
            self.summary.calls.append(
                CallEvent(
                    callees=resolved.callees,
                    external=resolved.external,
                    held=held,
                    node=node,
                    sync=True,
                )
            )

    def _detect_async(self, node: ast.Call, resolved, held) -> None:
        """Register thread targets / pool fan-out as async edges + entries."""
        target_node = None
        reason = None
        path = resolved.external or ""
        if resolved.constructed is None and path == "threading.Thread":
            for kw in node.keywords:
                if kw.arg == "target":
                    target_node = kw.value
                    reason = "Thread(target=...)"
        tail = path.rsplit(".", 1)[-1] if path else ""
        attr_tail = (
            node.func.attr if isinstance(node.func, ast.Attribute) else ""
        )
        if target_node is None and (
            tail in _ASYNC_FANOUT_TAILS or attr_tail in _ASYNC_FANOUT_TAILS
        ):
            if node.args:
                target_node = node.args[0]
                reason = tail or attr_tail
        if target_node is None:
            return
        target = self._callable_ref(target_node)
        if target is None:
            return
        self.summary.calls.append(
            CallEvent(
                callees=(target,),
                external=None,
                held=held,
                node=node,
                sync=False,
            )
        )
        self.program.add_entry(
            ThreadEntry(
                qualname=target,
                reason=reason or "async",
                path=self.info.path,
                line=node.lineno,
            )
        )


def build_program(table: SymbolTable) -> FlowProgram:
    return FlowProgram(table)


def iter_summaries(program: FlowProgram) -> Iterable[FunctionSummary]:
    return program.summaries.values()
