"""Built-in project-invariant rules RPR001..RPR006.

Each rule encodes an invariant the reproduction already relies on
implicitly (see DESIGN §3.5 for the rationale):

* **RPR001** — no unseeded randomness: module-level ``np.random.*`` /
  ``random.*`` draws are banned everywhere except
  ``repro.utils.seeding``; every generator must be constructed from an
  explicit seed (``np.random.default_rng(seed)``, ``random.Random(seed)``).
* **RPR002** — no wall-clock reads (``time.time``, ``datetime.now``,
  …) inside deterministic modules (``sc/``, ``scnn/``, ``arch/``,
  ``utils/chaos.py``); monotonic or
  injected clocks only.
* **RPR003** — every lock declared with a ``# guards:`` annotation has
  its guarded attributes mutated only inside ``with <lock>:`` blocks
  (``__init__``/``__setstate__`` and ``*_locked`` helper methods, whose
  callers hold the lock by convention, are exempt).
* **RPR004** — ``__all__`` names must exist; in ``__init__.py`` the
  public surface (imports + definitions) must match ``__all__`` exactly.
* **RPR005** — ``@dataclass`` classes with both ``to_dict`` and
  ``from_dict`` keep field parity: explicit dict keys and ``cls(...)``
  keywords must be real fields, and a literal ``to_dict`` (one that
  does not call ``asdict``) must cover every field.
* **RPR006** — persistence functions (``save*``/``*checkpoint*``/
  ``*journal*``/``*persist*``) must not write state files in place: a
  crash mid-write tears the file. Route writes through
  :mod:`repro.utils.atomic` (or an explicit tmp + ``replace`` dance).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    FileContext,
    Finding,
    Rule,
    call_path,
    child_bodies,
    dotted_name,
    import_aliases,
    register,
)

# -- RPR001: unseeded randomness ----------------------------------------------

#: numpy.random attributes that are legitimate *with an explicit seed
#: argument*; calling them with no arguments seeds from the OS.
_NP_SEEDABLE = {
    "default_rng",
    "SeedSequence",
    "Generator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
    "BitGenerator",
    "RandomState",
}


@register
class UnseededRandomness(Rule):
    code = "RPR001"
    name = "unseeded-randomness"
    summary = (
        "module-level np.random.* / random.* draws bypass the seed "
        "derivation; construct a generator from an explicit seed instead"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.path.name == "seeding.py" and "utils" in ctx.parts:
            return
        aliases = import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            path = call_path(node, aliases)
            if path is None:
                continue
            if path.startswith("numpy.random."):
                attr = path.removeprefix("numpy.random.")
                if "." in attr:
                    continue
                if attr in _NP_SEEDABLE:
                    if node.args or node.keywords:
                        continue
                    yield self.finding(
                        ctx,
                        node,
                        f"np.random.{attr}() without a seed draws OS "
                        "entropy; pass a seed derived via "
                        "repro.utils.seeding",
                    )
                else:
                    yield self.finding(
                        ctx,
                        node,
                        f"np.random.{attr}(...) uses the unseeded global "
                        "numpy RNG; use a seeded np.random.Generator",
                    )
            elif path.startswith("random."):
                attr = path.removeprefix("random.")
                if "." in attr:
                    continue
                if attr in ("Random", "SystemRandom"):
                    if node.args or node.keywords:
                        continue
                    yield self.finding(
                        ctx,
                        node,
                        f"random.{attr}() without a seed is "
                        "non-reproducible; pass an explicit seed",
                    )
                else:
                    yield self.finding(
                        ctx,
                        node,
                        f"random.{attr}(...) uses the unseeded global "
                        "stdlib RNG; use random.Random(seed)",
                    )


# -- RPR002: wall-clock reads in deterministic modules ------------------------

#: Call paths that read the wall clock (timezone/NTP dependent).
_WALL_CLOCK = {
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
}

#: Directory components that mark a module as deterministic.
_DETERMINISTIC_DIRS = {"sc", "scnn", "arch"}


def is_deterministic_module(ctx: FileContext) -> bool:
    parts = ctx.parts
    if any(part in _DETERMINISTIC_DIRS for part in parts):
        return True
    # Chaos injection must replay exactly.
    return ctx.path.name == "chaos.py" and "utils" in parts


@register
class WallClockRead(Rule):
    code = "RPR002"
    name = "wall-clock-in-deterministic-module"
    summary = (
        "sc/, scnn/, arch/, and chaos.py must stay replayable: "
        "no time.time/datetime.now — use monotonic or injected clocks"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not is_deterministic_module(ctx):
            return
        aliases = import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            path = call_path(node, aliases)
            if path in _WALL_CLOCK:
                yield self.finding(
                    ctx,
                    node,
                    f"{path}() reads the wall clock inside a "
                    "deterministic module; use time.monotonic/"
                    "time.perf_counter or an injected clock",
                )


# -- RPR003: lock-guard discipline --------------------------------------------

#: Method calls on a guarded attribute that mutate it in place.
_MUTATOR_METHODS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popleft",
    "popitem",
    "remove",
    "reverse",
    "rotate",
    "setdefault",
    "sort",
    "update",
}

#: Methods whose bodies are exempt: construction happens before the
#: object is shared, and ``*_locked`` helpers run with the lock held by
#: convention (their callers acquire it).
_EXEMPT_METHODS = {"__init__", "__new__", "__setstate__", "__getstate__"}


def _is_self_attr(node: ast.AST, attr: str | None = None) -> str | None:
    """The attribute name if ``node`` is ``self.<attr>``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        if attr is None or node.attr == attr:
            return node.attr
    return None


def _mutated_target(node: ast.AST, owner_is_self: bool) -> tuple[str, ast.AST] | None:
    """Return ``(name, site)`` when ``node`` mutates an attribute/global.

    Covers direct (aug)assignment, deletion, subscript stores, and
    in-place mutator method calls. ``owner_is_self`` selects between
    ``self.name`` targets (class locks) and bare names (module locks).
    """

    def base_name(target: ast.AST) -> str | None:
        if owner_is_self:
            return _is_self_attr(target)
        return target.id if isinstance(target, ast.Name) else None

    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
        targets: list[ast.AST]
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        else:
            targets = [node.target]
        for target in targets:
            name = base_name(target)
            if name is not None:
                return name, node
            if isinstance(target, ast.Subscript):
                name = base_name(target.value)
                if name is not None:
                    return name, node
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _MUTATOR_METHODS:
            name = base_name(node.func.value)
            if name is not None:
                return name, node
    return None


def _with_locks(node: ast.With, owner_is_self: bool) -> set[str]:
    """Lock names acquired by a ``with`` statement's items."""
    held = set()
    for item in node.items:
        expr = item.context_expr
        if owner_is_self:
            name = _is_self_attr(expr)
            if name is not None:
                held.add(name)
        elif isinstance(expr, ast.Name):
            held.add(expr.id)
    return held


class _GuardWalker:
    """Walk one function body tracking which locks are lexically held."""

    def __init__(self, guards: dict[str, str], owner_is_self: bool):
        self.guards = guards  # attr -> lock name
        self.owner_is_self = owner_is_self
        self.violations: list[tuple[str, str, ast.AST]] = []

    def walk(self, body: list[ast.stmt], held: frozenset[str]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Nested defs run later, on unknown threads, with
                # unknown locks held — out of static scope.
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = held | _with_locks(stmt, self.owner_is_self)
                for item in stmt.items:
                    self._check_expr(item.context_expr, held)
                self.walk(stmt.body, frozenset(inner))
                continue
            has_blocks = bool(child_bodies(stmt))
            if has_blocks:
                # Compound statement (if/for/while/try/match): check its
                # own header expressions here, recurse into the blocks
                # so `with` nesting inside them is honored.
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        self._check_expr(child, held)
                for child_body in child_bodies(stmt):
                    self.walk(child_body, held)
            else:
                self._check_expr(stmt, held)

    def _check_expr(self, root: ast.AST, held: frozenset[str]) -> None:
        """Check every mutation site in an expression/simple statement."""
        for node in ast.walk(root):
            hit = _mutated_target(node, self.owner_is_self)
            if hit is None:
                continue
            name, site = hit
            lock = self.guards.get(name)
            if lock is not None and lock not in held:
                self.violations.append((name, lock, site))


@register
class LockGuardDiscipline(Rule):
    code = "RPR003"
    name = "guarded-field-outside-lock"
    summary = (
        "attributes declared in a lock's '# guards:' annotation may "
        "only be mutated inside 'with <lock>:' blocks"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._check_module_level(ctx)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    # -- module-level locks (e.g. utils.parallel._POOL_LOCK) ------------------

    def _check_module_level(self, ctx: FileContext) -> Iterator[Finding]:
        guards: dict[str, str] = {}
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    names = ctx.guards_comment(stmt)
                    if names:
                        for guarded in names:
                            guards[guarded] = target.id
        if not guards:
            return
        for stmt in ctx.tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name.endswith("_locked"):
                continue
            walker = _GuardWalker(guards, owner_is_self=False)
            walker.walk(stmt.body, frozenset())
            for name, lock, site in walker.violations:
                yield self.finding(
                    ctx,
                    site,
                    f"global {name!r} is guarded by {lock!r} but mutated "
                    f"outside 'with {lock}:' (in {stmt.name}())",
                )

    # -- class-level locks ----------------------------------------------------

    def _collect_class_guards(
        self, ctx: FileContext, cls: ast.ClassDef
    ) -> dict[str, str]:
        guards: dict[str, str] = {}
        # Dataclass-style: annotated field in the class body.
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                names = ctx.guards_comment(stmt)
                if names:
                    for guarded in names:
                        guards[guarded] = stmt.target.id
        # Instance-style: `self._lock = ...  # guards: a, b` in a method.
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    attr = _is_self_attr(node.targets[0])
                    if attr is not None:
                        names = ctx.guards_comment(node)
                        if names:
                            for guarded in names:
                                guards[guarded] = attr
        return guards

    def _check_class(
        self, ctx: FileContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        guards = self._collect_class_guards(ctx, cls)
        if not guards:
            return
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name in _EXEMPT_METHODS or stmt.name.endswith("_locked"):
                continue
            walker = _GuardWalker(guards, owner_is_self=True)
            walker.walk(stmt.body, frozenset())
            for name, lock, site in walker.violations:
                yield self.finding(
                    ctx,
                    site,
                    f"{cls.name}.{name} is guarded by self.{lock} but "
                    f"mutated outside 'with self.{lock}:' "
                    f"(in {stmt.name}())",
                )


# -- RPR004: __all__ parity ---------------------------------------------------


def _module_all(tree: ast.Module) -> tuple[list[tuple[str, int]], int] | None:
    """``(entries, lineno)`` of a literal module ``__all__``, else None."""
    for stmt in tree.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                value = stmt.value
                if isinstance(value, (ast.List, ast.Tuple)):
                    entries = [
                        (elt.value, elt.lineno)
                        for elt in value.elts
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)
                    ]
                    return entries, stmt.lineno
    return None


def _defined_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                if alias.name != "*":
                    names.add(alias.asname or alias.name)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, ast.Tuple):
                    names.update(
                        elt.id for elt in target.elts if isinstance(elt, ast.Name)
                    )
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            names.add(stmt.target.id)
        elif isinstance(stmt, (ast.If, ast.Try)):
            # Conditional imports / defs still bind at module level.
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
                    names.add(sub.name)
                elif isinstance(sub, ast.Import):
                    for alias in sub.names:
                        names.add(alias.asname or alias.name.split(".")[0])
                elif isinstance(sub, ast.ImportFrom):
                    for alias in sub.names:
                        if alias.name != "*":
                            names.add(alias.asname or alias.name)
    return names


@register
class DunderAllParity(Rule):
    code = "RPR004"
    name = "all-parity"
    summary = (
        "__all__ entries must be defined; in __init__.py every public "
        "import/definition must also be listed in __all__"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        found = _module_all(ctx.tree)
        if found is None:
            return
        entries, all_lineno = found
        defined = _defined_names(ctx.tree)
        for name, lineno in entries:
            if name not in defined and name != "__version__":
                yield Finding(
                    code=self.code,
                    message=f"__all__ lists {name!r}, which is not defined "
                    "or imported in this module",
                    path=str(ctx.path),
                    line=lineno,
                )
        if not ctx.is_init:
            return
        listed = {name for name, _ in entries}
        public = {
            name
            for name in defined
            if not name.startswith("_") and name != "annotations"
        }
        for name in sorted(public - listed):
            yield Finding(
                code=self.code,
                message=f"public name {name!r} is defined/imported here "
                "but missing from __all__",
                path=str(ctx.path),
                line=all_lineno,
            )


# -- RPR005: dataclass to_dict/from_dict parity -------------------------------


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = dotted_name(target)
        if name is not None and name.split(".")[-1] == "dataclass":
            return True
    return False


def _dataclass_fields(cls: ast.ClassDef) -> set[str]:
    fields = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            annotation = ast.dump(stmt.annotation)
            if "ClassVar" in annotation:
                continue
            fields.add(stmt.target.id)
    return fields


@register
class DictRoundTripParity(Rule):
    code = "RPR005"
    name = "dict-roundtrip-parity"
    summary = (
        "dataclasses with to_dict AND from_dict must keep both in sync "
        "with the declared fields"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or not _is_dataclass(node):
                continue
            methods = {
                stmt.name: stmt
                for stmt in node.body
                if isinstance(stmt, ast.FunctionDef)
            }
            if "to_dict" not in methods or "from_dict" not in methods:
                continue
            fields = _dataclass_fields(node)
            yield from self._check_to_dict(ctx, node, methods["to_dict"], fields)
            yield from self._check_from_dict(
                ctx, node, methods["from_dict"], fields
            )

    def _check_to_dict(
        self,
        ctx: FileContext,
        cls: ast.ClassDef,
        fn: ast.FunctionDef,
        fields: set[str],
    ) -> Iterator[Finding]:
        uses_asdict = any(
            isinstance(sub, ast.Call)
            and (dotted_name(sub.func) or "").split(".")[-1] == "asdict"
            for sub in ast.walk(fn)
        )
        explicit: list[tuple[str, ast.AST]] = []
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Dict):
                for key in sub.keys:
                    if isinstance(key, ast.Constant) and isinstance(
                        key.value, str
                    ):
                        explicit.append((key.value, key))
            elif isinstance(sub, (ast.Assign, ast.AugAssign)):
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                    ):
                        explicit.append((target.slice.value, target))
        for key, site in explicit:
            if key not in fields:
                yield self.finding(
                    ctx,
                    site,
                    f"{cls.name}.to_dict writes key {key!r}, which is not "
                    "a dataclass field (from_dict cannot round-trip it)",
                )
        if not uses_asdict:
            covered = {key for key, _ in explicit}
            for missing in sorted(fields - covered):
                yield self.finding(
                    ctx,
                    fn,
                    f"{cls.name}.to_dict omits field {missing!r} "
                    "(round-trip through from_dict would drop it)",
                )

    def _check_from_dict(
        self,
        ctx: FileContext,
        cls: ast.ClassDef,
        fn: ast.FunctionDef,
        fields: set[str],
    ) -> Iterator[Finding]:
        for sub in ast.walk(fn):
            if not isinstance(sub, ast.Call):
                continue
            callee = dotted_name(sub.func) or ""
            if callee not in ("cls", cls.name):
                continue
            for keyword in sub.keywords:
                if keyword.arg is not None and keyword.arg not in fields:
                    yield self.finding(
                        ctx,
                        keyword.value,
                        f"{cls.name}.from_dict passes {keyword.arg!r}, "
                        "which is not a dataclass field",
                    )


# -- RPR006: non-atomic writes of persistent state ---------------------------

#: Function-name tokens that mark a function as persisting state. Names
#: are split on underscores so e.g. ``load_checkpoint`` (token ``load``
#: + ``checkpoint``) still matches — it *could* rewrite on migration —
#: but read-only functions simply contain no write calls to flag.
_PERSIST_TOKENS = {"save", "checkpoint", "ckpt", "persist", "journal"}

#: Resolved call paths that write a file in one shot.
_DIRECT_WRITERS = {
    "numpy.save",
    "numpy.savez",
    "numpy.savez_compressed",
    "json.dump",
    "pickle.dump",
}

#: Resolved call paths that make a write atomic/durable — their
#: presence anywhere in the function marks it compliant.
_ATOMIC_WRITERS_PREFIX = "repro.utils.atomic."
_RENAME_CALLS = {"os.replace", "os.rename"}


def _is_persistence_function(name: str) -> bool:
    tokens = set(name.lower().strip("_").split("_"))
    return bool(tokens & _PERSIST_TOKENS)


def _open_write_mode(node: ast.Call) -> bool:
    """True when ``open(...)`` is called with a truncating write mode."""
    mode = None
    if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
        mode = node.args[1].value
    for keyword in node.keywords:
        if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
            mode = keyword.value.value
    return isinstance(mode, str) and "w" in mode


def _mentions_tmp(node: ast.AST) -> bool:
    """Heuristic: the write target is an explicit temporary file."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "tmp" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "tmp" in sub.attr.lower():
            return True
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if "tmp" in sub.value.lower():
                return True
    return False


@register
class NonAtomicStateWrite(Rule):
    code = "RPR006"
    name = "non-atomic-state-write"
    summary = (
        "functions that persist state (save*/*checkpoint*/*journal*) "
        "must write via repro.utils.atomic or tmp + os.replace — an "
        "in-place write torn by a crash corrupts the state file"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # The atomic helpers themselves implement the tmp+replace dance.
        if ctx.path.name == "atomic.py" and "utils" in ctx.parts:
            return
        aliases = import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_persistence_function(node.name):
                continue
            yield from self._check_function(ctx, node, aliases)

    def _check_function(
        self,
        ctx: FileContext,
        fn: "ast.FunctionDef | ast.AsyncFunctionDef",
        aliases: dict[str, str],
    ) -> Iterator[Finding]:
        writes: list[tuple[ast.AST, str]] = []
        compliant = False
        for sub in ast.walk(fn):
            if not isinstance(sub, ast.Call):
                continue
            path = call_path(sub, aliases)
            if path is not None:
                if path.startswith(_ATOMIC_WRITERS_PREFIX):
                    compliant = True
                    continue
                if path in _RENAME_CALLS:
                    compliant = True
                    continue
                if path in _DIRECT_WRITERS and not _mentions_tmp(sub):
                    writes.append((sub, path))
                    continue
                if path == "open" and _open_write_mode(sub):
                    if not _mentions_tmp(sub):
                        writes.append((sub, "open(..., 'w')"))
                    continue
            if isinstance(sub.func, ast.Attribute):
                attr = sub.func.attr
                if attr == "replace":
                    # pathlib's tmp.replace(dst) — the rename half of a
                    # hand-rolled atomic write.
                    compliant = True
                elif attr in ("write_text", "write_bytes"):
                    if not _mentions_tmp(sub):
                        writes.append((sub, f".{attr}(...)"))
        if compliant:
            return
        for site, label in writes:
            yield self.finding(
                ctx,
                site,
                f"{fn.name}() persists state via {label} with no "
                "tmp+replace in sight; use repro.utils.atomic so a "
                "crash cannot tear the file",
            )
