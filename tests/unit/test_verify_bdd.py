"""Unit tests for the ROBDD library."""

import pytest

from oracles import any_solution, count_solutions, solutions, support
from repro.exceptions import VerificationError
from repro.verify.bdd import BDD


class TestBddBasics:
    def test_terminals(self):
        bdd = BDD(4)
        assert bdd.negate(bdd.TRUE) == bdd.FALSE
        assert bdd.negate(bdd.FALSE) == bdd.TRUE

    def test_invalid_manager_size(self):
        with pytest.raises(VerificationError):
            BDD(0)

    def test_var_and_its_negation(self):
        bdd = BDD(3)
        x0 = bdd.var(0)
        assert x0 != bdd.FALSE
        assert bdd.apply_and(x0, bdd.negate(x0)) == bdd.FALSE
        assert bdd.apply_or(x0, bdd.negate(x0)) == bdd.TRUE

    def test_var_out_of_range(self):
        bdd = BDD(3)
        with pytest.raises(VerificationError):
            bdd.var(3)

    def test_canonicity_of_equivalent_functions(self):
        bdd = BDD(4)
        x0, x1 = bdd.var(0), bdd.var(1)
        left = bdd.apply_or(x0, x1)
        right = bdd.negate(bdd.apply_and(bdd.negate(x0), bdd.negate(x1)))  # De Morgan
        assert left == right
        assert bdd.equivalent(left, right)

    def test_cube(self):
        bdd = BDD(4)
        cube = bdd.cube({0: True, 2: False})
        assert bdd.restrict(cube, {0: True, 2: False}) == bdd.TRUE
        assert bdd.restrict(cube, {0: False}) == bdd.FALSE

    def test_diff(self):
        bdd = BDD(3)
        x0, x1 = bdd.var(0), bdd.var(1)
        conj = bdd.apply_and(x0, x1)
        assert bdd.apply_diff(conj, x0) == bdd.FALSE
        assert bdd.apply_diff(x0, conj) == bdd.apply_and(x0, bdd.negate(x1))


class TestBddQueries:
    def test_count_solutions_single_var(self):
        bdd = BDD(3)
        # x0 is true for half of the 8 assignments.
        assert count_solutions(bdd, bdd.var(0)) == 4
        assert count_solutions(bdd, bdd.TRUE) == 8
        assert count_solutions(bdd, bdd.FALSE) == 0

    def test_count_solutions_cube(self):
        bdd = BDD(5)
        cube = bdd.cube({0: True, 1: False, 4: True})
        assert count_solutions(bdd, cube) == 2 ** 2

    def test_count_solutions_union(self):
        bdd = BDD(4)
        a = bdd.cube({0: True, 1: True})
        b = bdd.cube({0: False, 1: False})
        union = bdd.apply_or(a, b)
        assert count_solutions(bdd, union) == 8  # 4 + 4, disjoint

    def test_any_solution_satisfies(self):
        bdd = BDD(4)
        cube = bdd.cube({1: True, 3: False})
        solution = any_solution(bdd, cube)
        assert solution is not None
        assert solution[1] is True and solution[3] is False
        assert any_solution(bdd, bdd.FALSE) is None

    def test_solutions_enumeration_with_limit(self):
        bdd = BDD(3)
        union = bdd.apply_or(bdd.var(0), bdd.var(1))
        models = list(solutions(bdd, union, limit=2))
        assert len(models) == 2
        for model in models:
            assert bdd.restrict(union, model) == bdd.TRUE

    def test_support(self):
        bdd = BDD(6)
        f = bdd.apply_and(bdd.var(1), bdd.var(4))
        assert support(bdd, f) == [1, 4]
        assert support(bdd, bdd.TRUE) == []

    def test_size_and_node_count(self):
        bdd = BDD(4)
        f = bdd.apply_or(bdd.var(0), bdd.var(3))
        assert bdd.size(f) >= 2
        assert bdd.node_count() >= 4

    def test_union_all_balanced(self):
        bdd = BDD(6)
        cubes = [bdd.cube({i: True}) for i in range(6)]
        union = bdd.union_all(cubes)
        # At least one variable true: 2^6 - 1 assignments.
        assert count_solutions(bdd, union) == 63
        assert bdd.union_all([]) == bdd.FALSE

    def test_negation_is_an_involution_and_obeys_de_morgan(self):
        bdd = BDD(3)
        x0, x2 = bdd.var(0), bdd.var(2)
        f = bdd.apply_or(x0, x2)
        assert bdd.negate(bdd.negate(f)) == f
        assert bdd.negate(f) == bdd.apply_and(bdd.negate(x0), bdd.negate(x2))
        assert bdd.equivalent(bdd.apply_or(x2, x0), f)

    def test_restrict_partial(self):
        bdd = BDD(3)
        f = bdd.apply_and(bdd.var(0), bdd.var(2))
        restricted = bdd.restrict(f, {0: True})
        assert restricted == bdd.var(2)
