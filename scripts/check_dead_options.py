#!/usr/bin/env python3
"""Gate: every defaulted parameter in ``src/`` is passed by a caller outside ``tests/``.

The ratchet of ``scripts/check_dead_code.py`` one level down.  Parses every
Python file under ``src/``, ``benchmarks/``, ``examples/`` and ``scripts/``
and collects each call: a defaulted parameter of a ``def`` in ``src/`` that
no call passes — by keyword, by position, or through a ``*`` / ``**``
splat — is an option only tests set.  A call is matched to a definition by
the callee's name: ``f(...)`` and ``obj.f(...)`` by ``f``; ``Cls(...)``,
``cls(...)`` inside a classmethod of ``Cls`` and ``super().__init__(...)``
inside a subclass of ``Cls`` to ``Cls.__init__``.  Dunders the language
calls have no callee name, and dataclass fields are not ``def`` parameters:
both are out of scope.

Names are matched, not bindings, so the scan is blind both ways.  It cannot
see a call it cannot name: a registry lookup (``builders[name](seed=...)``)
or pytest-benchmark's ``pedantic(f, kwargs=...)``.  And a splat to any
function of a name passes every parameter of every function of that name:
the service's ``system.localize(**params)`` kept
``ScoutLocalizer.localize(failure_signature=)`` alive although only tests
set it.

The known dead options are listed in ``scripts/dead_option_allowlist.txt``,
one ``path:qualified.name(parameter)`` a line, under the rules of the
definition gate's list: it may only shrink, an entry that is no longer dead
fails, and with ``--base REF`` so does an entry the list at ``REF`` lacks.

Usage::

    python scripts/check_dead_options.py [--repo-root PATH] [--base REF]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check_dead_code import CALLER_TREES, is_dunder, python_files, ratchet  # noqa: E402

ALLOWLIST = Path("scripts") / "dead_option_allowlist.txt"
#: ``(callee name, qualified name, parameter, position)`` of one option.
Option = Tuple[str, str, str, Optional[int]]


def _decorated(node: ast.AST, decorator: str) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == decorator for d in node.decorator_list
    )


def _base_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def calls(module: ast.Module) -> Iterator[Tuple[str, ast.Call]]:
    """``(callee name, call)`` for every call in ``module`` whose callee has
    a name: ``f(...)`` and ``obj.f(...)`` by ``f``, ``cls(...)`` inside a
    classmethod by its class's name, ``super().__init__(...)`` by the names
    of the class's bases."""

    def walk(
        node: ast.AST, owner: Optional[ast.ClassDef], in_classmethod: bool
    ) -> Iterator[Tuple[str, ast.Call]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child, False)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound_cls = in_classmethod or _decorated(child, "classmethod")
                yield from walk(child, owner, bound_cls)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name):
                    if func.id == "cls" and in_classmethod and owner is not None:
                        yield owner.name, child
                    else:
                        yield func.id, child
                elif isinstance(func, ast.Attribute):
                    target = func.value
                    is_super = (
                        isinstance(target, ast.Call)
                        and isinstance(target.func, ast.Name)
                        and target.func.id == "super"
                    )
                    if func.attr == "__init__" and is_super and owner is not None:
                        for base in filter(None, map(_base_name, owner.bases)):
                            yield base, child
                    else:
                        yield func.attr, child
            yield from walk(child, owner, in_classmethod)

    yield from walk(module, None, False)


def options(module: ast.Module) -> Iterator[Option]:
    """Every defaulted parameter of a ``def`` in ``module``.  Its callee name
    is the class's for ``__init__``; ``position`` is where a caller's
    positional argument fills it (a bound ``self`` / ``cls`` not counted),
    None for a keyword-only one."""

    def walk(
        node: ast.AST, prefix: str, owner: Optional[ast.ClassDef]
    ) -> Iterator[Option]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".", child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualified = prefix + child.name
                yield from walk(child, qualified + ".", None)
                if child.name == "__init__" and owner is not None:
                    callee = owner.name
                elif is_dunder(child.name):
                    continue
                else:
                    callee = child.name
                args = child.args
                positional = args.posonlyargs + args.args
                bound = owner is not None and not _decorated(child, "staticmethod")
                first = len(positional) - len(args.defaults)
                for index in range(first, len(positional)):
                    position = index - 1 if bound else index
                    yield callee, qualified, positional[index].arg, position
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield callee, qualified, arg.arg, None
            else:
                yield from walk(child, prefix, owner)

    yield from walk(module, "", None)


def passes(call: ast.Call, parameter: str, position: Optional[int]) -> bool:
    """Whether ``call`` may set ``parameter``: by keyword, by position, or
    through a ``*`` / ``**`` splat."""
    if any(keyword.arg in (parameter, None) for keyword in call.keywords):
        return True
    if position is None:
        return False
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    return starred or len(call.args) > position


def dead_options(root: Path) -> List[str]:
    """``path:qualified.name(parameter)`` of every defaulted parameter of a
    ``def`` in ``src/`` that no caller passes."""
    by_callee: Dict[str, List[ast.Call]] = {}
    declared: List[Option] = []
    for tree in CALLER_TREES:
        for path in python_files(root, tree):
            module = ast.parse(path.read_text(), filename=str(path))
            for name, call in calls(module):
                by_callee.setdefault(name, []).append(call)
            if tree == "src":
                where = path.relative_to(root).as_posix()
                declared += [
                    (callee, f"{where}:{qualified}", parameter, position)
                    for callee, qualified, parameter, position in options(module)
                ]
    return sorted(
        f"{entry}({parameter})"
        for callee, entry, parameter, position in declared
        if not any(
            passes(call, parameter, position) for call in by_callee.get(callee, ())
        )
    )


def main(argv: List[str]) -> int:
    verdict = "no caller outside tests/ passes it (delete it, or pass it)"
    return ratchet(argv, __doc__, dead_options, ALLOWLIST, verdict)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
