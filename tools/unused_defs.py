"""Report ``src/`` definitions that nothing outside ``tests/`` uses.

Parses every Python file of the repository and collects, per name, the
functions, classes, methods and module-level constants that ``src/``
defines and the names the code reads (``name``, ``obj.name``, imports).
A definition whose name no file outside ``tests/`` reads is listed as
*tests only* when a test reads it and *no caller* otherwise.  The
Makefile and the CI workflow count as callers of any name they
mention.  Matching is by name only, so a common name used anywhere
hides a dead definition of it: the report can miss dead code, and
dispatch by string (``getattr``) can list live code; it never fails.

Run:  python tools/unused_defs.py
"""

from __future__ import annotations

import ast
import re
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Substrate models kept for the cross-checks in EXPERIMENTS.md.
EXEMPT_PATHS = (
    "src/repro/rm/bandwidth.py",
    "src/repro/dram/",
    "src/repro/dwlogic/",
)
EXEMPT_NAMES = {"apply_bit_accurate"}
CALLER_TEXTS = ("Makefile", ".github/workflows/ci.yml")


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """Module-level functions, classes and constants, and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.lineno
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            if isinstance(node, ast.Assign):
                targets = node.targets
            else:
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id, node.lineno


def _uses(tree: ast.Module) -> Set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _skipped(path: str, name: str) -> bool:
    return (
        path.startswith(EXEMPT_PATHS)
        or name in EXEMPT_NAMES
        or (name.startswith("__") and name.endswith("__"))
        # ast.NodeVisitor dispatches on the method name.
        or name.startswith("visit_")
    )


def scan(root: Path = ROOT) -> List[Tuple[str, int, str, str]]:
    """``(path, line, name, "tests only" | "no caller")`` rows."""
    defined: Dict[str, List[Tuple[str, int]]] = defaultdict(list)
    used_outside: Set[str] = set()
    used_in_tests: Set[str] = set()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel.startswith((".", "build/")) or "/." in rel:
            continue
        tree = ast.parse(path.read_text(), filename=rel)
        if rel.startswith("src/"):
            for name, line in _definitions(tree):
                defined[name].append((rel, line))
        (used_in_tests if rel.startswith("tests/") else used_outside).update(
            _uses(tree)
        )
    for text in CALLER_TEXTS:
        caller = root / text
        if caller.exists():
            used_outside.update(re.findall(r"\w+", caller.read_text()))
    rows = []
    for name, sites in defined.items():
        if name in used_outside:
            continue
        kind = "tests only" if name in used_in_tests else "no caller"
        for rel, line in sites:
            if not _skipped(rel, name):
                rows.append((rel, line, name, kind))
    return sorted(rows)


def main() -> int:
    rows = scan()
    print("### Definitions with no caller outside tests/")
    print("| definition | callers |")
    print("|---|---|")
    for rel, line, name, kind in rows:
        print(f"| `{rel}:{line}` `{name}` | {kind} |")
    print(f"\n{len(rows)} definitions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
