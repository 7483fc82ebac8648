"""Reduced Ordered Binary Decision Diagrams (ROBDD).

The paper's L-T equivalence checker (§III-C) "compares two reduced ordered
binary decision diagrams (ROBDDs); one from L-type rules, and the other from
T-type rules".  This module is a from-scratch ROBDD implementation with the
three properties the checker needs:

* **canonicity** — nodes are hash-consed, so two equivalent boolean functions
  are represented by the same node id and equivalence checking is a pointer
  comparison;
* **apply/ite** — conjunction, disjunction, negation and if-then-else with
  memoisation;
* **model queries** — satisfiability, model counting over a fixed variable
  set, and enumeration of satisfying assignments (used in tests and for
  inspecting small rule differences).

The manager uses a fixed variable ordering: variable ``0`` is tested first
(closest to the root).  Functions are identified by integer node ids;
``BDD.FALSE`` and ``BDD.TRUE`` are the terminals.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..exceptions import VerificationError

__all__ = ["BDD"]


class BDD:
    """A hash-consed ROBDD manager over ``num_vars`` boolean variables."""

    FALSE = 0
    TRUE = 1

    def __init__(self, num_vars: int) -> None:
        if num_vars <= 0:
            raise VerificationError(f"a BDD manager needs at least one variable, got {num_vars}")
        self.num_vars = num_vars
        # Node storage: node id -> (var, low, high).  Terminals use var = num_vars
        # so that every internal variable index is strictly smaller.
        self._nodes: List[Tuple[int, int, int]] = [
            (num_vars, 0, 0),  # FALSE
            (num_vars, 1, 1),  # TRUE
        ]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._apply_cache: Dict[Tuple[str, int, int], int] = {}
        self._not_cache: Dict[int, int] = {}
        # Profiling counters — two integer increments on the recursive apply
        # path, cheap enough to keep always-on.  The observability layer
        # (``repro.obs``) snapshots deltas of these around build/compare
        # phases to attribute BDD cost per pipeline stage.
        self.apply_ops = 0
        self.apply_cache_hits = 0

    # ------------------------------------------------------------------ #
    # Node management
    # ------------------------------------------------------------------ #
    def _make_node(self, var: int, low: int, high: int) -> int:
        """Return the canonical node for ``(var, low, high)`` (reduced)."""
        if low == high:
            return low
        key = (var, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._nodes)
            self._nodes.append(key)
            self._unique[key] = node
        return node

    def node_count(self) -> int:
        """Total number of nodes allocated by the manager (including terminals)."""
        return len(self._nodes)

    def stats(self) -> Dict[str, float]:
        """Profiling snapshot: node count, apply traffic and cache hit rate."""
        hit_rate = self.apply_cache_hits / self.apply_ops if self.apply_ops else 0.0
        return {
            "nodes": len(self._nodes),
            "apply_ops": self.apply_ops,
            "apply_cache_hits": self.apply_cache_hits,
            "apply_cache_hit_rate": hit_rate,
        }

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    def var(self, index: int) -> int:
        """The function that is true exactly when variable ``index`` is 1."""
        self._check_var(index)
        return self._make_node(index, self.FALSE, self.TRUE)

    def nvar(self, index: int) -> int:
        """The function that is true exactly when variable ``index`` is 0."""
        self._check_var(index)
        return self._make_node(index, self.TRUE, self.FALSE)

    def literal(self, index: int, value: bool) -> int:
        """``var(index)`` if ``value`` else ``nvar(index)``."""
        return self.var(index) if value else self.nvar(index)

    def cube(self, assignment: Dict[int, bool]) -> int:
        """Conjunction of literals, e.g. ``{0: True, 3: False}`` → x0 ∧ ¬x3."""
        result = self.TRUE
        for index in sorted(assignment, reverse=True):
            self._check_var(index)
            if assignment[index]:
                result = self._make_node(index, self.FALSE, result)
            else:
                result = self._make_node(index, result, self.FALSE)
        return result

    def _check_var(self, index: int) -> None:
        if not 0 <= index < self.num_vars:
            raise VerificationError(
                f"variable index {index} out of range (manager has {self.num_vars} variables)"
            )

    # ------------------------------------------------------------------ #
    # Boolean operations
    # ------------------------------------------------------------------ #
    def apply_and(self, a: int, b: int) -> int:
        return self._apply("and", a, b)

    def apply_or(self, a: int, b: int) -> int:
        return self._apply("or", a, b)

    def apply_xor(self, a: int, b: int) -> int:
        return self._apply("xor", a, b)

    def negate(self, a: int) -> int:
        cached = self._not_cache.get(a)
        if cached is not None:
            return cached
        if a == self.FALSE:
            result = self.TRUE
        elif a == self.TRUE:
            result = self.FALSE
        else:
            var, low, high = self._nodes[a]
            result = self._make_node(var, self.negate(low), self.negate(high))
        self._not_cache[a] = result
        return result

    def apply_diff(self, a: int, b: int) -> int:
        """``a ∧ ¬b`` — the functions satisfied by ``a`` but not by ``b``."""
        return self.apply_and(a, self.negate(b))

    def implies(self, a: int, b: int) -> bool:
        """True iff every assignment satisfying ``a`` also satisfies ``b``."""
        return self.apply_diff(a, b) == self.FALSE

    def equivalent(self, a: int, b: int) -> bool:
        """Canonical representation makes equivalence a node-id comparison."""
        return a == b

    def _terminal_case(self, op: str, a: int, b: int) -> Optional[int]:
        if op == "and":
            if a == self.FALSE or b == self.FALSE:
                return self.FALSE
            if a == self.TRUE:
                return b
            if b == self.TRUE:
                return a
            if a == b:
                return a
        elif op == "or":
            if a == self.TRUE or b == self.TRUE:
                return self.TRUE
            if a == self.FALSE:
                return b
            if b == self.FALSE:
                return a
            if a == b:
                return a
        elif op == "xor":
            if a == b:
                return self.FALSE
            if a == self.FALSE:
                return b
            if b == self.FALSE:
                return a
            if a == self.TRUE:
                return self.negate(b)
            if b == self.TRUE:
                return self.negate(a)
        else:  # pragma: no cover - guarded by callers
            raise VerificationError(f"unknown BDD operation {op!r}")
        return None

    def _apply(self, op: str, a: int, b: int) -> int:
        terminal = self._terminal_case(op, a, b)
        if terminal is not None:
            return terminal
        # Commutative operations: normalise the cache key.
        key = (op, a, b) if a <= b else (op, b, a)
        self.apply_ops += 1
        cached = self._apply_cache.get(key)
        if cached is not None:
            self.apply_cache_hits += 1
            return cached

        var_a, low_a, high_a = self._nodes[a]
        var_b, low_b, high_b = self._nodes[b]
        top = min(var_a, var_b)
        if var_a == top:
            a_low, a_high = low_a, high_a
        else:
            a_low = a_high = a
        if var_b == top:
            b_low, b_high = low_b, high_b
        else:
            b_low = b_high = b

        low = self._apply(op, a_low, b_low)
        high = self._apply(op, a_high, b_high)
        result = self._make_node(top, low, high)
        self._apply_cache[key] = result
        return result

    def union_all(self, nodes: Iterable[int]) -> int:
        """Disjunction of many functions (balanced reduction keeps BDDs small)."""
        pending = [node for node in nodes]
        if not pending:
            return self.FALSE
        while len(pending) > 1:
            merged = []
            for i in range(0, len(pending) - 1, 2):
                merged.append(self.apply_or(pending[i], pending[i + 1]))
            if len(pending) % 2 == 1:
                merged.append(pending[-1])
            pending = merged
        return pending[0]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def is_satisfiable(self, node: int) -> bool:
        return node != self.FALSE

    def is_tautology(self, node: int) -> bool:
        return node == self.TRUE

    def restrict(self, node: int, assignment: Dict[int, bool]) -> int:
        """Partial evaluation of ``node`` under ``assignment``."""
        if node in (self.FALSE, self.TRUE):
            return node
        var, low, high = self._nodes[node]
        if var in assignment:
            return self.restrict(high if assignment[var] else low, assignment)
        new_low = self.restrict(low, assignment)
        new_high = self.restrict(high, assignment)
        return self._make_node(var, new_low, new_high)

    def count_solutions(self, node: int) -> int:
        """Number of satisfying assignments over all ``num_vars`` variables."""
        memo: Dict[int, int] = {}

        def _count(current: int) -> int:
            # Terminals carry var == num_vars, so the exponent arithmetic in
            # the recursive case is uniform; TRUE counts as exactly one
            # assignment of the (empty) variable suffix below it.
            if current == self.FALSE:
                return 0
            if current == self.TRUE:
                return 1
            cached = memo.get(current)
            if cached is not None:
                return cached
            var, low, high = self._nodes[current]
            low_var = self._nodes[low][0]
            high_var = self._nodes[high][0]
            low_count = _count(low) * (1 << (low_var - var - 1))
            high_count = _count(high) * (1 << (high_var - var - 1))
            total = low_count + high_count
            memo[current] = total
            return total

        if node == self.FALSE:
            return 0
        root_var = self._nodes[node][0]
        return _count(node) * (1 << root_var)

    def any_solution(self, node: int) -> Optional[Dict[int, bool]]:
        """One satisfying assignment (unset variables omitted), or ``None``."""
        if node == self.FALSE:
            return None
        assignment: Dict[int, bool] = {}
        current = node
        while current != self.TRUE:
            var, low, high = self._nodes[current]
            if low != self.FALSE:
                assignment[var] = False
                current = low
            else:
                assignment[var] = True
                current = high
        return assignment

    def solutions(self, node: int, limit: Optional[int] = None) -> Iterator[Dict[int, bool]]:
        """Enumerate satisfying assignments (unset variables omitted).

        ``limit`` caps the number of yielded assignments; enumeration is
        depth-first and deterministic.
        """
        count = 0

        def _walk(current: int, partial: Dict[int, bool]) -> Iterator[Dict[int, bool]]:
            nonlocal count
            if limit is not None and count >= limit:
                return
            if current == self.FALSE:
                return
            if current == self.TRUE:
                count += 1
                yield dict(partial)
                return
            var, low, high = self._nodes[current]
            partial[var] = False
            yield from _walk(low, partial)
            partial[var] = True
            yield from _walk(high, partial)
            del partial[var]

        yield from _walk(node, {})

    def support(self, node: int) -> List[int]:
        """The set of variables the function actually depends on (sorted)."""
        seen: set[int] = set()
        stack = [node]
        visited: set[int] = set()
        while stack:
            current = stack.pop()
            if current in visited or current in (self.FALSE, self.TRUE):
                continue
            visited.add(current)
            var, low, high = self._nodes[current]
            seen.add(var)
            stack.append(low)
            stack.append(high)
        return sorted(seen)

    def size(self, node: int) -> int:
        """Number of internal nodes reachable from ``node``."""
        visited: set[int] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if current in visited or current in (self.FALSE, self.TRUE):
                continue
            visited.add(current)
            _, low, high = self._nodes[current]
            stack.append(low)
            stack.append(high)
        return len(visited)
