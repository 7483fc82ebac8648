"""Reference computations the tests hold the program to.

Kept here, not in ``src/``: nothing in the program calls them.  Test modules
import this one by name (``tests/`` is on ``sys.path`` through the root
``conftest.py``).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.exceptions import RiskModelError
from repro.risk import RiskModel
from repro.rules import TcamRule
from repro.verify import RuleSpace
from repro.verify.bdd import BDD


def missing_matches(
    expected: Iterable[TcamRule], deployed: Iterable[TcamRule]
) -> List[TcamRule]:
    """The expected rules whose match key is absent from the deployed set.

    The syntactic set difference: it cross-checks the equivalence checker
    on wildcard-free rules, where the two must agree, and bounds it from
    above on any rules (a covered key can only be over-reported here).
    """
    deployed_keys = {rule.match_key() for rule in deployed}
    return [rule for rule in expected if rule.match_key() not in deployed_keys]


# ---------------------------------------------------------------------- #
# BDD model queries: they read the manager's node table, ``(var, low,
# high)`` per node id, with the terminals at ``var == num_vars``.
# ---------------------------------------------------------------------- #
def count_solutions(bdd: BDD, node: int) -> int:
    """Number of satisfying assignments over all ``bdd.num_vars`` variables."""
    nodes = bdd._nodes
    memo: Dict[int, int] = {}

    def count(current: int) -> int:
        # TRUE counts as one assignment of the (empty) suffix below it; each
        # edge that skips variables multiplies by the assignments of those.
        if current == BDD.FALSE:
            return 0
        if current == BDD.TRUE:
            return 1
        if current not in memo:
            var, low, high = nodes[current]
            skipped_low = 1 << (nodes[low][0] - var - 1)
            skipped_high = 1 << (nodes[high][0] - var - 1)
            memo[current] = count(low) * skipped_low + count(high) * skipped_high
        return memo[current]

    if node == BDD.FALSE:
        return 0
    return count(node) * (1 << nodes[node][0])


def solutions(
    bdd: BDD, node: int, limit: Optional[int] = None
) -> Iterator[Dict[int, bool]]:
    """Satisfying assignments, depth-first (unset variables omitted), at
    most ``limit`` of them."""
    nodes = bdd._nodes
    found = 0

    def walk(current: int, partial: Dict[int, bool]) -> Iterator[Dict[int, bool]]:
        nonlocal found
        if current == BDD.FALSE or (limit is not None and found >= limit):
            return
        if current == BDD.TRUE:
            found += 1
            yield dict(partial)
            return
        var, low, high = nodes[current]
        partial[var] = False
        yield from walk(low, partial)
        partial[var] = True
        yield from walk(high, partial)
        del partial[var]

    yield from walk(node, {})


def any_solution(bdd: BDD, node: int) -> Optional[Dict[int, bool]]:
    """One satisfying assignment (unset variables omitted), or ``None``."""
    return next(solutions(bdd, node, limit=1), None)


def support(bdd: BDD, node: int) -> List[int]:
    """The variables the function depends on, sorted."""
    seen: Set[int] = set()
    visited: Set[int] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current in visited or current in (BDD.FALSE, BDD.TRUE):
            continue
        visited.add(current)
        var, low, high = bdd._nodes[current]
        seen.add(var)
        stack += (low, high)
    return sorted(seen)


def decode_assignment(
    space: RuleSpace, assignment: Dict[int, bool]
) -> Dict[str, Optional[int]]:
    """Field values of a (partial) assignment; a field none of whose
    variables is assigned is ``None`` (a wildcard)."""

    def value(layout) -> Optional[int]:
        bits = [
            (bit, assignment[layout.offset + bit])
            for bit in range(layout.width)
            if layout.offset + bit in assignment
        ]
        return sum(1 << bit for bit, on in bits if on) if bits else None

    fields = (space.vrf, space.src_epg, space.dst_epg, space.protocol, space.port)
    return {layout.name: value(layout) for layout in fields}


# ---------------------------------------------------------------------- #
# Risk models, through the queries SCOUT reads
# ---------------------------------------------------------------------- #
def element_risks(model: RiskModel) -> Dict[Hashable, Set[Hashable]]:
    """What each live element relies on: ``G_i`` of every risk, inverted."""
    relied_on: Dict[Hashable, Set[Hashable]] = {}
    for risk in model.risks():
        for element in model.elements_for_risk(risk):
            relied_on.setdefault(element, set()).add(risk)
    return relied_on


def risks_for_element(model: RiskModel, element: Hashable) -> Set[Hashable]:
    """The risks ``element`` relies on; none for a stranger or pruned one."""
    return element_risks(model).get(element, set())


def failed_edges(model: RiskModel) -> Set[Tuple[Hashable, Hashable]]:
    """Every ``(element, risk)`` edge flagged fail."""
    return {
        (element, risk)
        for element in model.failure_signature()
        for risk in model.failed_risks_for_element(element)
    }


def mark_edge_failed(model: RiskModel, element: Hashable, risk: Hashable) -> None:
    """Flag one edge fail, strictly: an unknown element or a risk it does
    not rely on is a :class:`RiskModelError`."""
    if element not in model:
        raise RiskModelError(f"unknown element {element!r}")
    if not model.mark_element_failed(element, (risk,)):
        raise RiskModelError(f"element {element!r} does not depend on risk {risk!r}")
