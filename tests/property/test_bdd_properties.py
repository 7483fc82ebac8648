"""Property-based tests for the ROBDD library (hypothesis)."""

from hypothesis import given, settings, strategies as st

from oracles import any_solution, count_solutions, solutions
from repro.verify.bdd import BDD

NUM_VARS = 6

# A random boolean function is represented by the set of minterms (0..2^n-1)
# on which it is true; this gives an exact reference semantics to test against.
minterm_sets = st.frozensets(st.integers(min_value=0, max_value=2**NUM_VARS - 1), max_size=24)


def build_from_minterms(bdd: BDD, minterms) -> int:
    cubes = []
    for minterm in minterms:
        assignment = {var: bool((minterm >> var) & 1) for var in range(NUM_VARS)}
        cubes.append(bdd.cube(assignment))
    return bdd.union_all(cubes)


def evaluate(bdd: BDD, node: int, minterm: int) -> bool:
    assignment = {var: bool((minterm >> var) & 1) for var in range(NUM_VARS)}
    return bdd.restrict(node, assignment) == bdd.TRUE


class TestBddSemantics:
    @given(minterm_sets)
    @settings(max_examples=60, deadline=None)
    def test_construction_matches_minterm_semantics(self, minterms):
        bdd = BDD(NUM_VARS)
        node = build_from_minterms(bdd, minterms)
        assert count_solutions(bdd, node) == len(minterms)
        for minterm in list(minterms)[:8]:
            assert evaluate(bdd, node, minterm)

    @given(minterm_sets, minterm_sets)
    @settings(max_examples=60, deadline=None)
    def test_and_or_match_set_operations(self, a_set, b_set):
        bdd = BDD(NUM_VARS)
        a = build_from_minterms(bdd, a_set)
        b = build_from_minterms(bdd, b_set)
        assert count_solutions(bdd, bdd.apply_and(a, b)) == len(a_set & b_set)
        assert count_solutions(bdd, bdd.apply_or(a, b)) == len(a_set | b_set)
        assert count_solutions(bdd, bdd.apply_diff(a, b)) == len(a_set - b_set)

    @given(minterm_sets)
    @settings(max_examples=40, deadline=None)
    def test_double_negation_is_identity(self, minterms):
        bdd = BDD(NUM_VARS)
        node = build_from_minterms(bdd, minterms)
        assert bdd.negate(bdd.negate(node)) == node

    @given(minterm_sets, minterm_sets)
    @settings(max_examples=40, deadline=None)
    def test_de_morgan(self, a_set, b_set):
        bdd = BDD(NUM_VARS)
        a = build_from_minterms(bdd, a_set)
        b = build_from_minterms(bdd, b_set)
        left = bdd.negate(bdd.apply_and(a, b))
        right = bdd.apply_or(bdd.negate(a), bdd.negate(b))
        assert left == right

    @given(minterm_sets, minterm_sets)
    @settings(max_examples=40, deadline=None)
    def test_canonicity_same_set_same_node(self, a_set, b_set):
        bdd = BDD(NUM_VARS)
        a = build_from_minterms(bdd, a_set)
        b = build_from_minterms(bdd, b_set)
        assert (a == b) == (a_set == b_set)

    @given(minterm_sets)
    @settings(max_examples=40, deadline=None)
    def test_any_solution_is_a_model(self, minterms):
        bdd = BDD(NUM_VARS)
        node = build_from_minterms(bdd, minterms)
        solution = any_solution(bdd, node)
        if not minterms:
            assert solution is None
        else:
            assert bdd.restrict(node, solution) == bdd.TRUE

    @given(minterm_sets)
    @settings(max_examples=30, deadline=None)
    def test_solution_enumeration_covers_every_minterm(self, minterms):
        bdd = BDD(NUM_VARS)
        node = build_from_minterms(bdd, minterms)
        covered = set()
        for partial in solutions(bdd, node):
            free = [var for var in range(NUM_VARS) if var not in partial]
            for mask in range(2 ** len(free)):
                full = dict(partial)
                for i, var in enumerate(free):
                    full[var] = bool((mask >> i) & 1)
                covered.add(sum((1 << var) for var, bit in full.items() if bit))
        assert covered == set(minterms)
