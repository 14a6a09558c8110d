"""Project-wide symbol table for the whole-program flow analyses.

One pass over every scanned file collects the facts the interprocedural
passes (:mod:`~repro.analysis.flow.races`,
:mod:`~repro.analysis.flow.lockorder`,
:mod:`~repro.analysis.flow.taint`) share:

* every module, class, and function/method (nested functions included,
  under a ``<qualname>.<locals>.<name>`` key, because thread targets are
  frequently closures);
* every **lock declaration** — ``threading.Lock`` / ``RLock`` /
  ``Condition`` bound to a ``self.`` attribute, a dataclass field, or a
  module global — together with its ``# guards:`` annotation and its
  creation site in the exact ``dir/file.py:line`` form the runtime
  sanitizer (:mod:`repro.analysis.lockwatch`) reports, so the static
  and runtime lock graphs join on creation sites;
* light **type bindings**: attribute and local types inferred from
  constructor calls, parameter/attribute annotations, and annotated
  return types of project functions. The flow passes use them to
  resolve ``self.backend.run(...)``-style calls across objects.

Everything here is a deliberate over/under-approximation documented at
the use site; the analyses only ever act on facts this table is sure
about.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.analysis.core import (
    FileContext,
    call_path,
    dotted_name,
    import_aliases,
    iter_python_files,
    resolve_dotted,
)

#: threading factories that allocate a watchable lock at their call
#: site. ``Condition()`` allocates its inner RLock through the patched
#: factory, so its creation site is the ``Condition(...)`` call line —
#: the same line this table records. Event/Semaphore/Queue also build
#: locks internally, but *inside* stdlib frames, so the runtime
#: sanitizer attributes them to stdlib files; they are intentionally
#: not lock declarations here.
_LOCK_FACTORIES = {
    "threading.Lock": "Lock",
    "threading.RLock": "RLock",
    "threading.Condition": "Condition",
}


def lock_site(path: "str | Path", line: int) -> str:
    """``dir/file.py:line`` — the tail format lockwatch's
    ``_creation_site`` reports, the join key between graphs."""
    tail = "/".join(str(Path(path)).replace("\\", "/").split("/")[-2:])
    return f"{tail}:{line}"


def module_name_for(path: Path) -> str:
    """Dotted module name for a scanned file.

    Files under a ``src`` directory get their real import path
    (``src/repro/serve/batcher.py`` -> ``repro.serve.batcher``); other
    files (test fixtures) walk up through ``__init__.py`` packages.
    """
    parts = list(path.with_suffix("").parts)
    if "src" in parts:
        cut = len(parts) - 1 - parts[::-1].index("src")
        parts = parts[cut + 1:]
    else:
        kept = [parts[-1]]
        parent = path.parent
        while (parent / "__init__.py").exists():
            kept.insert(0, parent.name)
            parent = parent.parent
        parts = kept
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else path.stem


@dataclass(frozen=True)
class LockKey:
    """Identity of one declared lock: its owner scope plus its name.

    ``owner`` is a class qualname for attribute locks and a module name
    for globals. Two instances of the same class share one key — the
    analyses treat per-(class, attr) locks as one static lock, the
    usual sound over-approximation.
    """

    owner: str
    name: str

    def __str__(self) -> str:
        return f"{self.owner}.{self.name}"


@dataclass
class LockDecl:
    """One ``threading.Lock/RLock/Condition`` declaration site."""

    key: LockKey
    kind: str  # Lock | RLock | Condition
    path: str
    line: int
    site: str  # dir/file.py:line, lockwatch-compatible
    guards: tuple[str, ...] = ()


@dataclass
class FunctionInfo:
    """One function or method (or nested function) in the project."""

    qualname: str  # module.Class.method or module.func (+ .<locals>.x)
    module: str
    name: str
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    path: str
    cls: "ClassInfo | None" = None
    parent: "FunctionInfo | None" = None  # enclosing function, if nested
    return_type: str | None = None  # class qualname, when annotated


@dataclass
class ClassInfo:
    """One class: methods, bases, lock guards, inferred attribute types."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    path: str
    bases: list[str] = field(default_factory=list)  # dotted base names
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: guarded attribute -> lock attribute name (from ``# guards:``)
    guards: dict[str, str] = field(default_factory=dict)
    #: lock attribute name -> declaration(s)
    locks: dict[str, list[LockDecl]] = field(default_factory=dict)
    #: attribute -> class qualname (single-constructor inference)
    attr_types: dict[str, str] = field(default_factory=dict)

    def lock_key(self, attr: str) -> LockKey | None:
        if attr in self.locks:
            return LockKey(self.qualname, attr)
        return None


@dataclass
class ModuleInfo:
    """One scanned file."""

    name: str
    path: str
    ctx: FileContext
    aliases: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: module-global lock name -> declaration(s)
    locks: dict[str, list[LockDecl]] = field(default_factory=dict)

    def lock_key(self, name: str) -> LockKey | None:
        if name in self.locks:
            return LockKey(self.name, name)
        return None


class SymbolTable:
    """All modules/classes/functions/locks across the scanned paths."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: every lock declaration, in scan order.
        self.locks: list[LockDecl] = []

    # -- lookups -------------------------------------------------------------

    def lock_decls(self, key: LockKey) -> list[LockDecl]:
        return [d for d in self.locks if d.key == key]

    def known_sites(self) -> dict[str, LockKey]:
        """creation site -> lock key, the join map for lockwatch."""
        return {decl.site: decl.key for decl in self.locks}

    def resolve_class(self, module: ModuleInfo, dotted: str) -> ClassInfo | None:
        """A class reachable from ``module`` under ``dotted`` (local
        name, imported alias, or already-qualified name)."""
        if dotted in self.classes:
            return self.classes[dotted]
        local = f"{module.name}.{dotted}"
        if local in self.classes:
            return self.classes[local]
        head, _, rest = dotted.partition(".")
        target = module.aliases.get(head)
        if target is None:
            return None
        full = f"{target}.{rest}" if rest else target
        return self.classes.get(full)

    def method_on(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        """``name`` on ``cls`` or the nearest known base class."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.methods:
                return current.methods[name]
            for base in current.bases:
                resolved = self.base_class(current, base)
                if resolved is not None:
                    stack.append(resolved)
        return None

    def base_class(self, cls: ClassInfo, dotted: str) -> ClassInfo | None:
        module = self.modules.get(cls.module)
        if module is None:
            return None
        return self.resolve_class(module, dotted)


# -- collection ---------------------------------------------------------------


def _lock_factory_kind(value: ast.AST, aliases: dict[str, str]) -> str | None:
    """Lock kind when ``value`` is a lock-allocating expression."""
    if not isinstance(value, ast.Call):
        return None
    path = call_path(value, aliases)
    if path in _LOCK_FACTORIES:
        return _LOCK_FACTORIES[path]
    # dataclass field(default_factory=threading.RLock)
    if path is not None and path.rsplit(".", 1)[-1] == "field":
        for kw in value.keywords:
            if kw.arg == "default_factory":
                target = dotted_name(kw.value)
                if target is not None:
                    resolved = resolve_dotted(target, aliases)
                    if resolved in _LOCK_FACTORIES:
                        return _LOCK_FACTORIES[resolved]
    return None


def _annotation_name(node: ast.AST | None) -> str | None:
    """Dotted name of a simple annotation (Name/Attribute/str constant),
    unwrapping ``Optional[X]``-style subscripts and quoted annotations."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        # "X | None" / "Optional[X]" spelled as a string
        for sep in ("|",):
            if sep in text:
                text = text.split(sep)[0].strip()
        if not text.isidentifier() and "." not in text:
            return None
        return text or None
    if isinstance(node, ast.Subscript):
        base = dotted_name(node.value)
        if base is not None and base.rsplit(".", 1)[-1] in ("Optional",):
            if isinstance(node.slice, (ast.Name, ast.Attribute)):
                return dotted_name(node.slice)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # X | None
        left = _annotation_name(node.left)
        if left not in (None, "None"):
            return left
        return _annotation_name(node.right)
    return dotted_name(node)


class _Collector(ast.NodeVisitor):
    """Per-file visitor filling one :class:`ModuleInfo`."""

    def __init__(self, table: SymbolTable, module: ModuleInfo):
        self.table = table
        self.module = module
        self._class_stack: list[ClassInfo] = []
        self._func_stack: list[FunctionInfo] = []

    # -- classes -------------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qualname = f"{self.module.name}.{node.name}"
        info = ClassInfo(
            qualname=qualname,
            module=self.module.name,
            name=node.name,
            node=node,
            path=self.module.path,
            bases=[d for d in (dotted_name(b) for b in node.bases) if d],
        )
        self.module.classes[node.name] = info
        self.table.classes[qualname] = info
        self._collect_class_body_locks(info, node)
        self._class_stack.append(info)
        self.generic_visit(node)
        self._class_stack.pop()

    def _collect_class_body_locks(self, info: ClassInfo, node: ast.ClassDef):
        ctx = self.module.ctx
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                attr = stmt.target.id
                ann = _annotation_name(stmt.annotation)
                if ann is not None:
                    resolved = resolve_dotted(ann, self.module.aliases)
                    info.attr_types.setdefault(attr, resolved)
                kind = (
                    _lock_factory_kind(stmt.value, self.module.aliases)
                    if stmt.value is not None
                    else None
                )
                if kind is None and ann is not None:
                    continue
                if kind is not None:
                    self._add_lock(info, attr, kind, stmt, ctx)

    def _add_lock(self, info: ClassInfo, attr: str, kind: str, stmt, ctx):
        decl = LockDecl(
            key=LockKey(info.qualname, attr),
            kind=kind,
            path=self.module.path,
            line=stmt.value.lineno if getattr(stmt, "value", None) else stmt.lineno,
            site=lock_site(
                self.module.path,
                stmt.value.lineno if getattr(stmt, "value", None) else stmt.lineno,
            ),
            guards=tuple(ctx.guards_comment(stmt) or ()),
        )
        info.locks.setdefault(attr, []).append(decl)
        self.table.locks.append(decl)
        for guarded in decl.guards:
            info.guards[guarded] = attr

    # -- functions -----------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_function(node)

    def _handle_function(self, node) -> None:
        cls = self._class_stack[-1] if self._class_stack else None
        parent = self._func_stack[-1] if self._func_stack else None
        if parent is not None:
            qualname = f"{parent.qualname}.<locals>.{node.name}"
        elif cls is not None:
            qualname = f"{cls.qualname}.{node.name}"
        else:
            qualname = f"{self.module.name}.{node.name}"
        ret = _annotation_name(node.returns)
        info = FunctionInfo(
            qualname=qualname,
            module=self.module.name,
            name=node.name,
            node=node,
            path=self.module.path,
            cls=cls if parent is None else None,
            parent=parent,
            return_type=(
                resolve_dotted(ret, self.module.aliases)
                if ret not in (None, "None")
                else None
            ),
        )
        self.table.functions[qualname] = info
        if parent is None and cls is not None:
            cls.methods[node.name] = info
        elif parent is None:
            self.module.functions[node.name] = info
        if cls is not None and parent is None:
            self._collect_method_locks(cls, node)
        self._func_stack.append(info)
        self.generic_visit(node)
        self._func_stack.pop()

    def _collect_method_locks(self, cls: ClassInfo, fn) -> None:
        ctx = self.module.ctx
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            kind = _lock_factory_kind(node.value, self.module.aliases)
            if kind is not None:
                decl = LockDecl(
                    key=LockKey(cls.qualname, attr),
                    kind=kind,
                    path=self.module.path,
                    line=node.value.lineno,
                    site=lock_site(self.module.path, node.value.lineno),
                    guards=tuple(ctx.guards_comment(node) or ()),
                )
                cls.locks.setdefault(attr, []).append(decl)
                self.table.locks.append(decl)
                for guarded in decl.guards:
                    cls.guards[guarded] = attr
                continue
            # attribute type inference: self.x = ClassName(...)
            if isinstance(node.value, ast.Call):
                name = dotted_name(node.value.func)
                if name is not None:
                    cls.attr_types.setdefault(attr, name)


def _collect_module_locks(table: SymbolTable, module: ModuleInfo) -> None:
    ctx = module.ctx
    for stmt in module.ctx.tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                kind = _lock_factory_kind(stmt.value, module.aliases)
                if kind is not None:
                    decl = LockDecl(
                        key=LockKey(module.name, target.id),
                        kind=kind,
                        path=module.path,
                        line=stmt.value.lineno,
                        site=lock_site(module.path, stmt.value.lineno),
                        guards=tuple(ctx.guards_comment(stmt) or ()),
                    )
                    module.locks.setdefault(target.id, []).append(decl)
                    table.locks.append(decl)


def build_symbol_table(
    paths: Iterable["str | Path"],
    contexts: dict[str, FileContext] | None = None,
) -> SymbolTable:
    """Parse every python file under ``paths`` into one symbol table.

    ``contexts`` (path -> parsed :class:`FileContext`) lets the deep
    runner share parse trees with the per-file rules; missing or
    unparseable files are skipped here (the shallow runner already
    reports RPR000 for them).
    """
    table = SymbolTable()
    for path in iter_python_files(paths):
        key = str(path)
        ctx = contexts.get(key) if contexts else None
        if ctx is None:
            try:
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=key)
            except (OSError, SyntaxError):
                continue
            ctx = FileContext(path, source, tree)
            if contexts is not None:
                contexts[key] = ctx
        module = ModuleInfo(
            name=module_name_for(path),
            path=key,
            ctx=ctx,
            aliases=import_aliases(ctx.tree),
        )
        table.modules[module.name] = module
        _collect_module_locks(table, module)
        _Collector(table, module).visit(ctx.tree)
    return table
