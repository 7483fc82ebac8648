#!/usr/bin/env python3
"""Gate: every ``def`` and ``class`` in ``src/`` has a caller outside ``tests/``.

Parses every Python file under ``src/``, ``benchmarks/``, ``examples/``
and ``scripts/`` and collects each name used as a variable or an attribute
(``f(...)``, ``obj.f``, ``obj.f(...)``, ``@f``, ``Cls(...)``, a base class).
A function, method or class defined in ``src/`` whose name is used nowhere
in those trees is dead surface: only tests use it.  Names are matched, not
bindings, so this is a grep, not a proof — a name some caller uses keeps
every definition of it alive.
The console scripts ``pyproject.toml`` declares are callers too.  Skipped
on purpose: dunder methods (the language calls them) and names only
mentioned in strings (``__all__`` exports, ``getattr`` lookups).

The known dead definitions are listed in ``scripts/dead_code_allowlist.txt``,
one ``path:qualified.name`` a line.  The list may only shrink: a dead
definition not on it fails the gate, and so does an entry that is no longer
dead (delete the line).  With ``--base REF`` an entry that the list at git
revision ``REF`` does not have fails as well, so a new dead definition
cannot be let in by listing it.

Usage::

    python scripts/check_dead_code.py [--repo-root PATH] [--base REF]
"""

from __future__ import annotations

import argparse
import ast
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

#: Where callers may live; ``tests/`` is deliberately absent.
CALLER_TREES = ("src", "benchmarks", "examples", "scripts")
ALLOWLIST = Path("scripts") / "dead_code_allowlist.txt"
#: ``name = "package.module:function"`` under ``[project.scripts]``.
ENTRY_POINT_RE = re.compile(r'^\s*[\w-]+\s*=\s*"[\w.]+:(\w+)"', re.MULTILINE)


def python_files(root: Path, tree: str) -> List[Path]:
    return sorted((root / tree).rglob("*.py"))


def definitions(module: ast.Module) -> Iterator[Tuple[str, str]]:
    """``(name, qualified name)`` of every function, method and class in
    ``module``."""

    def walk(node: ast.AST, prefix: str) -> Iterator[Tuple[str, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child.name, prefix + child.name
                yield from walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                yield child.name, prefix + child.name
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(module, "")


def used_names(module: ast.Module) -> Set[str]:
    """Every name ``module`` reads as a variable or an attribute."""
    names: Set[str] = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def dead_definitions(root: Path) -> List[str]:
    """``path:qualified.name`` of every ``def`` and ``class`` in ``src/`` no
    caller names."""
    pyproject = root / "pyproject.toml"
    used: Set[str] = set()
    if pyproject.is_file():
        used.update(ENTRY_POINT_RE.findall(pyproject.read_text()))
    defined: List[Tuple[str, str]] = []
    for tree in CALLER_TREES:
        for path in python_files(root, tree):
            module = ast.parse(path.read_text(), filename=str(path))
            used |= used_names(module)
            if tree == "src":
                where = path.relative_to(root).as_posix()
                defined += [
                    (name, f"{where}:{qualified}")
                    for name, qualified in definitions(module)
                ]
    return sorted(
        entry
        for name, entry in defined
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    )


def parse_allowlist(text: str) -> List[str]:
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return [line for line in lines if line]


def base_allowlist(root: Path, ref: str) -> Optional[List[str]]:
    """The allow-list as revision ``ref`` has it; None if it has none."""
    shown = subprocess.run(
        ["git", "show", f"{ref}:{ALLOWLIST.as_posix()}"],
        cwd=root,
        capture_output=True,
        text=True,
        check=False,
    )
    return parse_allowlist(shown.stdout) if shown.returncode == 0 else None


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repo-root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: this script's parent directory)",
    )
    parser.add_argument(
        "--base",
        metavar="REF",
        help="git revision whose allow-list this one may only shrink from",
    )
    args = parser.parse_args(argv)
    root = args.repo_root
    dead = dead_definitions(root)
    allowlist = root / ALLOWLIST
    allowed = parse_allowlist(allowlist.read_text()) if allowlist.is_file() else []
    new = sorted(set(dead) - set(allowed))
    stale = sorted(set(allowed) - set(dead))
    base = base_allowlist(root, args.base) if args.base else None
    grown = sorted(set(allowed) - set(base)) if base is not None else []
    for entry in new:
        print(f"{entry}: no caller outside tests/ (delete it, or call it)")
    for entry in stale:
        print(f"{ALLOWLIST}: {entry} is no longer dead; delete the line")
    for entry in grown:
        print(f"{ALLOWLIST}: {entry} is new since {args.base}; it may only shrink")
    if new or stale or grown:
        return 1
    print(f"dead-code ratchet: {len(dead)} allow-listed definition(s), nothing new")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
