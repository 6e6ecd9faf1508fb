"""Command line for the reproducibility linter.

Two equivalent entry points::

    python -m repro.analysis src benchmarks tests   # package entry point
    python -m repro lint src benchmarks tests       # repro CLI subcommand

Exit status is 0 when the tree is clean, 1 when there is at least one
finding (including files that fail to parse), and 2 on usage errors —
so the command drops straight into a CI job.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.lint.config import load_config
from repro.analysis.lint.engine import lint_paths
from repro.analysis.lint.report import render_json, render_text
from repro.analysis.lint.rules import all_rules


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the linter's options on ``parser`` (shared with ``repro lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        default="text",
        choices=("text", "json"),
        help="report format (default: text)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        help="also write the report to this file (format follows --format)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--config",
        type=Path,
        metavar="PYPROJECT",
        help="pyproject.toml with a [tool.repro_lint] table "
        "(default: ./pyproject.toml when present)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        help="directory findings are reported relative to (default: cwd)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule with its rationale and exit",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="append each firing rule's rationale to the text report",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="restrict per-module rules to files reported by "
        "`git diff --name-only HEAD`; whole-program (graph) rules still "
        "see the full tree",
    )
    parser.add_argument(
        "--graph-out",
        type=Path,
        metavar="GRAPH_JSON",
        help="write the project import/call graphs next to the lint run: "
        "versioned JSON at this path plus .dot/.calls.dot siblings",
    )


def _changed_files(root: Path | None) -> set[str] | None:
    """Relpaths changed vs HEAD (staged or not), or None when git fails.

    Paths come back repo-root-relative; they are re-anchored to the lint
    root so they match the relpaths the engine reports.
    """
    import subprocess

    try:
        proc = subprocess.run(
            ["git", "diff", "--name-only", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    repo_root = Path(top.stdout.strip())
    anchor = (root if root is not None else Path.cwd()).resolve()
    changed: set[str] = set()
    for line in proc.stdout.splitlines():
        name = line.strip()
        if not name:
            continue
        absolute = (repo_root / name).resolve()
        try:
            changed.add(absolute.relative_to(anchor).as_posix())
        except ValueError:
            changed.add(absolute.as_posix())
    return changed


def _list_rules() -> str:
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.id}  {rule.name}")
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines)


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if args.list_rules:
        print(_list_rules())
        return 0
    pyproject = args.config
    if pyproject is None:
        default = Path("pyproject.toml")
        pyproject = default if default.exists() else None
    config = load_config(pyproject)
    if args.select:
        selected = tuple(part.strip() for part in args.select.split(",") if part.strip())
        known = {rule.id for rule in all_rules()}
        unknown = [rule_id for rule_id in selected if rule_id not in known]
        if unknown:
            print(f"error: unknown rule id(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        config = config.merged_with(select=selected)
    module_scope = None
    if getattr(args, "changed", False):
        module_scope = _changed_files(args.root)
        if module_scope is None:
            print(
                "warning: --changed could not read `git diff --name-only HEAD`; "
                "linting everything",
                file=sys.stderr,
            )
    result = lint_paths(
        args.paths,
        config=config,
        root=args.root,
        module_scope=module_scope,
        build_graph=getattr(args, "graph_out", None) is not None,
    )
    graph_out = getattr(args, "graph_out", None)
    if graph_out is not None and result.project is not None:
        from repro.analysis.graph.export import write_graph_exports

        for written in write_graph_exports(result.project, graph_out):
            print(f"wrote {written}", file=sys.stderr)
    report = (
        render_json(result) if args.fmt == "json" else render_text(result, verbose=args.verbose)
    )
    print(report)
    if args.out is not None:
        # Path.write_text, not open("w"): small report, and the linter
        # should not depend on repro.utils (numpy) for its own output.
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(report + "\n", encoding="utf-8")
    return 0 if result.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Reproducibility/static-analysis checks for this repository.",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
