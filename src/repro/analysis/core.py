"""Rule framework: findings, registry, suppressions, and the runner.

A rule is a class with a ``code`` (``RPR###``), a one-line ``summary``,
and a ``check(ctx)`` generator yielding :class:`Finding` objects. Rules
self-register via :func:`register`; the runner parses each file once
into a :class:`FileContext` (source, AST, inline suppressions) and hands
it to every selected rule.

Suppression syntax — inline, per line, per code, with a reason::

    self._cache = {}  # repro: noqa-RPR003 -- populated before threads start

A suppression only silences findings carrying that exact code on that
exact line; there is no file- or block-level escape hatch, so every
intentional violation stays visible at its site.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

#: Pseudo-code attached to files the runner cannot parse at all.
PARSE_ERROR_CODE = "RPR000"

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*noqa-(RPR\d{3})(?:\s*(?:--|—|:)\s*(?P<reason>.*))?"
)

_GUARDS_RE = re.compile(r"#\s*guards:\s*(?P<names>[A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    code: str
    message: str
    path: str
    line: int
    col: int = 0

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
        }


class FileContext:
    """Everything the rules need to know about one parsed source file."""

    def __init__(self, path: Path, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        #: line number -> set of suppressed rule codes on that line.
        self.suppressions: dict[int, set[str]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            for match in _SUPPRESS_RE.finditer(line):
                self.suppressions.setdefault(lineno, set()).add(match.group(1))

    @property
    def parts(self) -> tuple[str, ...]:
        return self.path.parts

    @property
    def is_init(self) -> bool:
        return self.path.name == "__init__.py"

    def suppressed(self, finding: Finding) -> bool:
        return finding.code in self.suppressions.get(finding.line, set())

    def guards_comment(self, node: ast.AST) -> list[str] | None:
        """Guarded attribute names from a ``# guards:`` comment attached
        to ``node`` (searched on every physical line the node spans)."""
        end = getattr(node, "end_lineno", node.lineno)
        for lineno in range(node.lineno, end + 1):
            if lineno > len(self.lines):
                break
            match = _GUARDS_RE.search(self.lines[lineno - 1])
            if match:
                return [
                    name.strip()
                    for name in match.group("names").split(",")
                    if name.strip()
                ]
        return None


class Rule:
    """Base class; subclasses set ``code``/``name``/``summary``."""

    code = "RPR000"
    name = "base"
    summary = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            code=self.code,
            message=message,
            path=str(ctx.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )


#: code -> rule instance, populated by :func:`register`.
RULES: dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator adding one instance of ``cls`` to the registry."""
    rule = cls()
    if rule.code in RULES:
        raise ValueError(f"duplicate rule code {rule.code}")
    RULES[rule.code] = rule
    return cls


def iter_rules(select: Iterable[str] | None = None) -> list[Rule]:
    """Registered rules, optionally narrowed to ``select`` codes."""
    # Import for side effect: the built-in rules register on first use.
    from repro.analysis import rules as _rules  # noqa: F401

    if select is None:
        return [RULES[code] for code in sorted(RULES)]
    unknown = set(select) - set(RULES)
    if unknown:
        raise KeyError(
            f"unknown rule codes {sorted(unknown)} (known: {sorted(RULES)})"
        )
    return [RULES[code] for code in sorted(select)]


@dataclass
class AnalysisReport:
    """Outcome of one runner invocation over a set of paths."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0
    rule_codes: list[str] = field(default_factory=list)
    #: Findings accepted by a committed baseline (deep mode): reported,
    #: but not counted against ``ok`` — the ratchet only fails on *new*
    #: findings.
    baselined: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed,
            "rules": self.rule_codes,
            "findings": [f.to_dict() for f in self.findings],
            "baselined": [f.to_dict() for f in self.baselined],
        }


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Python files under ``paths`` (files pass through, dirs recurse)."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                if "__pycache__" not in file.parts:
                    yield file
        elif path.suffix == ".py":
            yield path
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")


def parse_file(path: Path) -> FileContext:
    """Parse one file into a :class:`FileContext` (raises SyntaxError)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return FileContext(path, source, tree)


# -- shared AST helpers -------------------------------------------------------


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted module/object paths they bind.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from datetime import datetime as dt`` -> ``{"dt": "datetime.datetime"}``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                full = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = full
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolve_dotted(name: str, aliases: dict[str, str]) -> str:
    """``name`` with its head resolved through ``aliases``."""
    head, _, rest = name.partition(".")
    full_head = aliases.get(head, head)
    return f"{full_head}.{rest}" if rest else full_head


def call_path(node: ast.Call, aliases: dict[str, str]) -> str | None:
    """Fully-qualified dotted path of a call target, through aliases."""
    name = dotted_name(node.func)
    if name is None:
        return None
    return resolve_dotted(name, aliases)


def child_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    """The statement blocks nested directly in a compound statement."""
    bodies = []
    for attr in ("body", "orelse", "finalbody"):
        block = getattr(stmt, attr, None)
        if isinstance(block, list) and block:
            bodies.append(block)
    for handler in getattr(stmt, "handlers", []) or []:
        bodies.append(handler.body)
    for case in getattr(stmt, "cases", []) or []:
        bodies.append(case.body)
    return bodies


def run_paths(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
    on_file: Callable[[Path], None] | None = None,
    contexts: dict[str, FileContext] | None = None,
) -> AnalysisReport:
    """Run the (selected) rules over every python file under ``paths``.

    When ``contexts`` is given, every successfully parsed file's
    :class:`FileContext` is recorded there so a second (deep) phase can
    reuse the parse instead of re-reading the tree.
    """
    rules = iter_rules(select)
    report = AnalysisReport(rule_codes=[r.code for r in rules])
    for path in iter_python_files(paths):
        if on_file is not None:
            on_file(path)
        report.files_scanned += 1
        try:
            ctx = parse_file(path)
        except SyntaxError as error:
            report.findings.append(
                Finding(
                    code=PARSE_ERROR_CODE,
                    message=f"file does not parse: {error.msg}",
                    path=str(path),
                    line=error.lineno or 1,
                    col=(error.offset or 1) - 1,
                )
            )
            continue
        if contexts is not None:
            contexts[str(path)] = ctx
        for rule in rules:
            for finding in rule.check(ctx):
                if ctx.suppressed(finding):
                    report.suppressed += 1
                else:
                    report.findings.append(finding)
    report.findings.sort(key=lambda f: (f.path, f.line, f.code, f.col))
    return report
