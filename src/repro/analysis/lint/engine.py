"""Core of the ``repro`` static-analysis engine.

Dependency-free by design: everything here runs on the standard
library's :mod:`ast` and :mod:`fnmatch` only, so the linter can gate CI
(and pre-commit hooks) without importing numpy/scipy or any of the
packages it inspects.  The moving parts:

* :class:`Finding` — one ``path:line:col`` diagnostic emitted by a rule;
* :class:`ModuleContext` — a parsed module handed to every rule, with
  the source text, the AST, and an import-alias table so rules can
  resolve ``np.random.rand`` / ``numpy.random.rand`` / ``from
  numpy.random import rand`` to one canonical dotted name;
* :class:`Suppressions` — ``# repro: allow(REP001)`` comment parsing
  (same-line, or a standalone comment covering the next code line);
* :func:`lint_paths` — walk files/directories, apply the configured
  rules, and collect a :class:`LintResult`.

Rules themselves live in :mod:`repro.analysis.lint.rules`; what runs
where is decided by :class:`repro.analysis.lint.config.LintConfig`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.lint.config import LintConfig

#: Rule id reserved for files the engine cannot parse at all.
PARSE_ERROR_RULE = "REP000"

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\(([A-Za-z0-9_,\s*]+)\)")


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violation anchored to ``path:line:col``."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """The canonical one-line ``path:line:col: RULE message`` form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Finding":
        return cls(
            rule=str(payload["rule"]),
            path=str(payload["path"]),
            line=int(payload["line"]),
            col=int(payload["col"]),
            message=str(payload["message"]),
        )


class Suppressions:
    """Per-line ``# repro: allow(RULE[, RULE...])`` suppression table.

    An allowance written on a code line suppresses findings on that
    line; an allowance on a standalone comment line suppresses findings
    on the next line as well (so multi-call statements can be excused
    without 120-column lines).  ``allow(*)`` suppresses every rule.
    """

    def __init__(self, source: str):
        self._by_line: dict[int, set[str]] = {}
        lines = source.splitlines()
        for lineno, text in enumerate(lines, start=1):
            match = _ALLOW_RE.search(text)
            if match is None:
                continue
            ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
            self._by_line.setdefault(lineno, set()).update(ids)
            if text.lstrip().startswith("#"):
                # Standalone comment: also covers the following line.
                self._by_line.setdefault(lineno + 1, set()).update(ids)

    def is_suppressed(self, rule: str, line: int) -> bool:
        ids = self._by_line.get(line)
        if not ids:
            return False
        return rule in ids or "*" in ids

    def __len__(self) -> int:
        return len(self._by_line)


class _AliasCollector(ast.NodeVisitor):
    """Map local names to canonical dotted import paths.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from numpy import random`` -> ``{"random": "numpy.random"}``;
    ``from numpy.random import rand as r`` -> ``{"r": "numpy.random.rand"}``.
    Relative imports are recorded with their bare module path (level
    dots stripped) — good enough for the project-local rules.
    """

    def __init__(self) -> None:
        self.aliases: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".", 1)[0]
            target = alias.name if alias.asname else alias.name.split(".", 1)[0]
            self.aliases[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.aliases[local] = f"{module}.{alias.name}" if module else alias.name


@dataclass
class ModuleContext:
    """Everything a rule needs to inspect one parsed module."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    aliases: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str, *, path: Path, relpath: str) -> "ModuleContext":
        tree = ast.parse(source, filename=str(path))
        collector = _AliasCollector()
        collector.visit(tree)
        return cls(path=path, relpath=relpath, source=source, tree=tree, aliases=collector.aliases)

    def dotted_name(self, node: ast.expr) -> str | None:
        """Canonical dotted name of an expression, or ``None``.

        Resolves the head segment through the module's import aliases,
        so ``np.random.rand`` and ``numpy.random.rand`` both come back
        as ``"numpy.random.rand"``.
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        head = self.aliases.get(current.id, current.id)
        parts.append(head)
        return ".".join(reversed(parts))

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=rule,
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


@dataclass
class LintResult:
    """Outcome of one :func:`lint_paths` run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_scanned: int = 0
    #: The assembled whole-program graph, when the run needed one
    #: (a graph rule was active or an export was requested).
    project: object | None = None

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` files."""
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py" and path.exists():
            yield path


def _relative_to_root(path: Path, root: Path | None) -> str:
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


@dataclass
class _FileScan:
    """What one worker produces for one file."""

    relpath: str
    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    suppressions: Suppressions | None = None
    summary: object | None = None  # ModuleSummary when the run needs the graph


def _scan_file(
    source: str,
    path: Path,
    relpath: str,
    config: LintConfig,
    module_rules: Sequence[object],
    *,
    want_summary: bool,
    run_module_rules: bool,
) -> _FileScan:
    """Parse one file, run the per-module rules, extract the summary.

    Pure function of its inputs (no shared state); the caller merges
    results in deterministic path order.
    Any parse failure — syntax error, null byte, pathological nesting —
    becomes a REP000 finding instead of a crash, and the file simply
    drops out of the graph.
    """
    scan = _FileScan(relpath=relpath)
    try:
        context = ModuleContext.from_source(source, path=path, relpath=relpath)
    except SyntaxError as error:
        scan.findings.append(
            Finding(
                PARSE_ERROR_RULE,
                relpath,
                int(error.lineno or 1),
                int(error.offset or 0),
                f"syntax error: {error.msg}",
            )
        )
        return scan
    except (ValueError, RecursionError, MemoryError) as error:
        scan.findings.append(
            Finding(PARSE_ERROR_RULE, relpath, 1, 0, f"unparseable file: {error}")
        )
        return scan
    scan.suppressions = Suppressions(source)
    if run_module_rules:
        for rule in module_rules:
            if not config.applies_to(rule.id, relpath):  # type: ignore[attr-defined]
                continue
            for finding in rule.check(context):  # type: ignore[attr-defined]
                if scan.suppressions.is_suppressed(finding.rule, finding.line):
                    scan.suppressed += 1
                else:
                    scan.findings.append(finding)
    if want_summary:
        from repro.analysis.graph.summary import summarize_module

        scan.summary = summarize_module(
            context.tree, relpath=relpath, aliases=context.aliases
        )
    return scan


def _split_rules(config: LintConfig) -> tuple[list, list]:
    """(per-module rules, graph rules) enabled by ``config``."""
    from repro.analysis.lint.rules import active_rules

    module_rules, graph_rules = [], []
    for rule in active_rules(config):
        (graph_rules if rule.requires_project else module_rules).append(rule)
    return module_rules, graph_rules


def _run_graph_pass(
    scans: Sequence[_FileScan],
    config: LintConfig,
    graph_rules: Sequence[object],
    result: LintResult,
) -> None:
    """Build the project graph and run the whole-program rules.

    Graph findings go through the same gates as per-module ones: the
    anchoring file's exclusion/allow globs and its ``# repro: allow``
    suppression table.
    """
    from repro.analysis.graph.project import build_project

    project = build_project(
        scan.summary for scan in scans if scan.summary is not None  # type: ignore[misc]
    )
    result.project = project
    tables = {scan.relpath: scan.suppressions for scan in scans}
    for rule in graph_rules:
        for finding in rule.check_project(project, config):  # type: ignore[attr-defined]
            if config.is_excluded(finding.path):
                continue
            if not config.applies_to(rule.id, finding.path):  # type: ignore[attr-defined]
                continue
            suppressions = tables.get(finding.path)
            if suppressions is not None and suppressions.is_suppressed(
                finding.rule, finding.line
            ):
                result.suppressed += 1
            else:
                result.findings.append(finding)


def lint_sources(
    sources: dict[str, str],
    *,
    config: LintConfig | None = None,
) -> LintResult:
    """Lint an in-memory tree of ``{relpath: source}`` modules.

    The fixture entry point for the graph rules: relpaths map to module
    names exactly as on disk (``src/pkg/mod.py`` -> ``pkg.mod``), so a
    handful of strings can exercise cross-module reachability.
    """
    config = config or LintConfig()
    module_rules, graph_rules = _split_rules(config)
    result = LintResult()
    scans = []
    for relpath in sorted(sources):
        if config.is_excluded(relpath):
            continue
        result.files_scanned += 1
        scans.append(
            _scan_file(
                sources[relpath],
                Path(relpath),
                relpath,
                config,
                module_rules,
                want_summary=bool(graph_rules),
                run_module_rules=True,
            )
        )
    for scan in scans:
        result.findings.extend(scan.findings)
        result.suppressed += scan.suppressed
    if graph_rules:
        _run_graph_pass(scans, config, graph_rules, result)
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result


def lint_source(
    source: str,
    *,
    relpath: str = "<string>",
    config: LintConfig | None = None,
) -> LintResult:
    """Lint one in-memory module (the fixture-snippet entry point)."""
    return lint_sources({relpath: source}, config=config)


def lint_paths(
    paths: Sequence[str | Path],
    *,
    config: LintConfig | None = None,
    root: str | Path | None = None,
    module_scope: set[str] | None = None,
    build_graph: bool = False,
) -> LintResult:
    """Lint every Python file under ``paths`` and collect the findings.

    ``root`` (default: the current directory) anchors the relative
    paths used both in reports and in the config's glob matching.

    Files are parsed and per-module-linted one after another (a
    thread pool was slower under the GIL, and concurrent ``ast.parse``
    is not safe on CPython 3.11); findings come back in sorted
    ``(path, line, col, rule)`` order.

    ``module_scope`` (``repro lint --changed``) restricts the
    *per-module* rules to the given relpaths; every file is still
    parsed so the whole-program graph rules see the full tree.
    ``build_graph`` forces the graph build even when no graph rule is
    selected (``--graph-out`` without REP007+).
    """
    config = config or LintConfig()
    root_path = Path(root) if root is not None else Path.cwd()
    module_rules, graph_rules = _split_rules(config)
    want_summary = bool(graph_rules) or build_graph
    result = LintResult()

    work: list[tuple[Path, str]] = []
    seen: set[str] = set()
    for path in iter_python_files(paths):
        relpath = _relative_to_root(path, root_path)
        if config.is_excluded(relpath) or relpath in seen:
            continue
        seen.add(relpath)
        work.append((path, relpath))
    result.files_scanned = len(work)

    def scan_one(item: tuple[Path, str]) -> _FileScan:
        path, relpath = item
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            scan = _FileScan(relpath=relpath)
            scan.findings.append(
                Finding(PARSE_ERROR_RULE, relpath, 1, 0, f"unreadable file: {error}")
            )
            return scan
        return _scan_file(
            source,
            path,
            relpath,
            config,
            module_rules,
            want_summary=want_summary,
            run_module_rules=module_scope is None or relpath in module_scope,
        )

    scans = sorted((scan_one(item) for item in work), key=lambda scan: scan.relpath)
    for scan in scans:
        result.findings.extend(scan.findings)
        result.suppressed += scan.suppressed
    if graph_rules or build_graph:
        _run_graph_pass(scans, config, graph_rules, result)
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result
