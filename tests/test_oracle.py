from __future__ import annotations

import dataclasses
import itertools
import random
import sys
from fractions import Fraction

import pytest

from pricetree import oracle
from pricetree.formulas import Linear, RootValue
from pricetree.oracle import (
    LABEL_FAILURE,
    SOLVER_FAILURE,
    Determination,
    solve_all,
    solve_exact,
    verify_instance,
)
from pricetree.pipeline import generate_pair

import reference_pair
from factories import make_config
from test_properties import cut_subtree, dense_rref, walk_component, walk_verdict


def reference_formulas():
    return [
        RootValue(1, 14),
        Linear(1, 2, 2, -3, 4),
        Linear(1, 4, 3, -3, 12),
        Linear(2, 3, 3, -1, 13),
    ]


class TestSolveExact:
    def test_reference_system_pins_the_question(self):
        det = solve_exact(reference_formulas(), 3)
        assert det == Determination.unique(Fraction(11))
        assert type(det.value) is int  # a whole value is an int, as the root walk gives it

    def test_cut_system_is_underdetermined(self):
        formulas = [f for f in reference_formulas() if f.child_var != 2]
        assert solve_exact(formulas, 3) == Determination.underdetermined()

    def test_single_direct_value(self):
        assert solve_exact([RootValue(1, 14)], 1) == Determination.unique(Fraction(14))

    def test_contradictory_values_are_inconsistent(self):
        det = solve_exact([RootValue(1, 5), RootValue(1, 6)], 1)
        assert det == Determination.inconsistent()

    def test_contradictory_relations_are_inconsistent(self):
        formulas = [Linear(1, 2, 1, -1, 0), Linear(1, 2, 1, -1, 1)]
        assert solve_exact(formulas, 1) == Determination.inconsistent()

    def test_determination_is_per_target(self):
        # x1 is pinned, x2 is free: the verdict depends on which one you ask for
        formulas = [RootValue(1, 5), Linear(2, 3, 1, -1, 0)]
        assert solve_exact(formulas, 1) == Determination.unique(Fraction(5))
        assert solve_exact(formulas, 2) == Determination.underdetermined()

    def test_target_depending_on_a_free_variable(self):
        # x3 = x2 + 1 with x2 free
        formulas = [Linear(2, 3, 1, -1, -1)]
        assert solve_exact(formulas, 3) == Determination.underdetermined()

    def test_exact_fractions_no_rounding(self):
        # 3*x1 = 5 has the non-integer solution 5/3
        det = solve_exact([Linear(1, 2, 3, 3, 10), Linear(1, 2, 3, -3, 0)], 1)
        assert det == Determination.unique(Fraction(5, 3))
        assert type(det.value) is Fraction

    def test_degenerate_self_relations(self):
        # both endpoints naming the same variable still solve correctly
        assert solve_exact([Linear(1, 1, 2, -1, 7)], 1) == Determination.unique(Fraction(7))
        assert solve_exact([Linear(1, 1, 1, -1, 0)], 1) == Determination.underdetermined()
        assert solve_exact([Linear(1, 1, 1, -1, 3)], 1) == Determination.inconsistent()


def assert_matches_dense_reference(formulas, targets):
    """solve_exact agrees with the dense reference for each target and every order of the formulas,
    since the pivot sequence follows the order."""
    for target in targets:
        expected = dense_rref(formulas, target)
        for order in itertools.permutations(formulas):
            assert solve_exact(order, target) == expected, (order, target)


class TestTwoVariableRows:
    def test_pivot_and_row_sharing_their_other_variable_cancel_to_underdetermined(self):
        # eliminating x1 with x1 + x2 = 3 turns 2*x1 + 2*x2 = 6 into 0 = 0
        formulas = [Linear(1, 2, 1, 1, 3), Linear(1, 2, 2, 2, 6), Linear(1, 3, 1, -1, 0)]
        assert solve_exact(formulas, 3) == Determination.underdetermined()
        assert_matches_dense_reference(formulas, [1, 2, 3])
        formulas[1] = Linear(1, 2, 2, 2, 7)  # 0 = 1 instead
        assert solve_exact(formulas, 3) == Determination.inconsistent()
        assert_matches_dense_reference(formulas, [1, 2, 3])

    def test_pivot_and_row_sharing_their_other_variable_merge_to_unique(self):
        # x1 + x2 = 3 and x1 - x2 = 1 pin x1 = 2 and x2 = 1, and x3 = x1
        formulas = [Linear(1, 2, 1, 1, 3), Linear(1, 2, 1, -1, 1), Linear(1, 3, 1, -1, 0)]
        assert solve_exact(formulas, 3) == Determination.unique(Fraction(2))
        assert solve_exact(formulas[:2], 2) == Determination.unique(Fraction(1))
        assert_matches_dense_reference(formulas, [1, 2, 3])
        assert_matches_dense_reference(formulas[:2], [1, 2])

    def test_relation_naming_the_target_twice(self):
        formulas = [Linear(1, 1, 1, 1, 4), Linear(1, 2, 1, -1, -3)]
        assert solve_exact(formulas[:1], 1) == Determination.unique(Fraction(2))
        assert solve_exact(formulas, 2) == Determination.unique(Fraction(5))
        assert_matches_dense_reference(formulas, [1, 2])

    def test_self_relation_that_cancels(self):
        trivial, contradiction = Linear(2, 2, 2, -2, 0), Linear(2, 2, 2, -2, 1)
        assert solve_exact([trivial], 2) == Determination.underdetermined()
        assert solve_exact([contradiction], 2) == Determination.inconsistent()
        assert solve_exact([RootValue(1, 3), trivial], 1) == Determination.unique(Fraction(3))
        assert solve_exact([RootValue(1, 3), contradiction], 1) == Determination.inconsistent()
        for extra in (trivial, contradiction):
            assert_matches_dense_reference([RootValue(1, 3), Linear(1, 2, 1, 1, 5), extra], [1, 2, 3])

    def test_zero_coefficient_on_either_side(self):
        parent_zero, child_zero = Linear(1, 2, 0, 3, 6), Linear(1, 2, 3, 0, 6)
        assert solve_exact([parent_zero], 2) == Determination.unique(Fraction(2))
        assert solve_exact([parent_zero], 1) == Determination.underdetermined()
        assert solve_exact([child_zero], 1) == Determination.unique(Fraction(2))
        assert solve_exact([child_zero], 2) == Determination.underdetermined()
        assert_matches_dense_reference([parent_zero, Linear(2, 3, 1, -1, -4)], [1, 2, 3])
        assert_matches_dense_reference([child_zero, Linear(3, 1, 2, 1, 10), RootValue(3, 4)], [1, 2, 3])
        assert_matches_dense_reference([Linear(1, 2, 0, 0, 0), Linear(1, 2, 0, 0, 5)], [1, 2])

    def test_variable_held_by_six_rows(self):
        # x0 is tied to each of x1..x6, and x1..x6 form a chain, so nothing can be peeled
        hidden = {v: 3 + 2 * v for v in range(7)}
        spokes = [Linear(0, k, k % 3 + 1, -1, (k % 3 + 1) * hidden[0] - hidden[k]) for k in range(1, 7)]
        rim = [Linear(k, k + 1, 1, 2, hidden[k] + 2 * hidden[k + 1]) for k in range(1, 6)]
        formulas = spokes + rim
        assert solve_exact(formulas, 0) == dense_rref(formulas, 0) == Determination.unique(Fraction(hidden[0]))
        rng = random.Random(6)
        for _ in range(40):
            order = rng.sample(formulas, len(formulas))
            for target in range(8):
                assert solve_exact(order, target) == dense_rref(formulas, target)
        assert_matches_dense_reference(spokes, range(7))

    def test_shuffled_long_chain_matches_the_path_solver(self):
        rng = random.Random(3000)
        hidden = [rng.randint(5, 15) for _ in range(3001)]
        formulas = [RootValue(1, hidden[1])]
        for child in range(2, 3001):
            a, b = rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((-3, -2, -1, 1, 2, 3))
            formulas.append(Linear(child - 1, child, a, b, a * hidden[child - 1] + b * hidden[child]))
        shuffled = rng.sample(formulas, len(formulas))
        prices, _ = solve_all(shuffled)  # walks far deeper than the recursion limit
        assert prices == dict(enumerate(hidden[1:], start=1))
        for target in (3000, 1500, 1):
            assert solve_exact(shuffled, target) == Determination.unique(prices[target])
        cut = [f for f in shuffled if f.child_var != 1200]
        cut_prices, ends = solve_all(cut)
        assert cut_prices[3000] is None and cut_prices[1000] == hidden[1000]
        assert ends[3000] == ends[1200] == 1200 and ends[1000] == 1
        assert solve_exact(cut, 3000) == Determination.underdetermined()
        assert solve_exact(cut, 1000) == Determination.unique(Fraction(hidden[1000]))


def without_recursion(fn, *args):
    """fn(*args) under a recursion limit a few dozen frames above the caller's, which a recursive solver exceeds."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(limit)


class TestDeepPeelsAndWidePivots:
    """Forests far larger than any preset, each in forward, backward and shuffled order, checked against the walk."""

    @staticmethod
    def tree(parents: dict[int, int], seed: int) -> list:
        """A root value for variable 1, then one relation per child -> parent link, true of hidden prices."""
        rng = random.Random(seed)
        hidden = {v: rng.randint(5, 15) for v in (1, *parents)}
        formulas = [RootValue(1, hidden[1])]
        for child, parent in parents.items():
            a, b = rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((-3, -2, -1, 1, 2, 3))
            formulas.append(Linear(parent, child, a, b, a * hidden[parent] + b * hidden[child]))
        return formulas

    @staticmethod
    def check(formulas: list, target: int, kind: str) -> None:
        shuffled = random.Random(len(formulas)).sample(formulas, len(formulas))
        for order in (formulas, formulas[::-1], shuffled):
            det = without_recursion(solve_exact, order, target)
            prices, _ = without_recursion(solve_all, order)
            assert det.kind == kind
            assert det == walk_verdict(prices, target)
            assert type(det.value) is type(prices[target])

    def test_chain_cut_in_the_middle(self):
        chain = self.tree({v: v - 1 for v in range(2, 3001)}, seed=1)
        self.check([f for f in chain if f.child_var != 1500], 3000, "underdetermined")

    def test_chain_with_leaves_on_one_spine_variable(self):
        parents = {v: v - 1 for v in range(2, 3001)} | {v: 1500 for v in range(3001, 6001)}
        self.check(self.tree(parents, seed=2), 3000, "unique")

    def test_variable_with_500_children_and_the_target_behind_it(self):
        # x2 holds 501 rows; x502's child x503 is the target
        parents = {2: 1} | {v: 2 for v in range(3, 503)} | {503: 502}
        self.check(self.tree(parents, seed=3), 503, "unique")


# each pins x2 = 5 for the elimination, but is not a forest for the root walk
NOT_FORESTS = {
    "variable defined twice": [RootValue(1, 5), RootValue(1, 5), Linear(1, 2, 1, -1, 0)],
    "parent cycle": [Linear(1, 2, 1, -1, 0), Linear(2, 1, 1, 1, 10)],
    "self-relation": [Linear(2, 2, 2, -1, 5)],
    "zero coefficient": [RootValue(1, 5), Linear(1, 2, 0, 1, 5)],
}


class TestSolveAll:
    def test_reference_walk(self):
        prices, ends = solve_all(reference_formulas())
        assert prices == {1: 14, 2: 8, 3: 11, 4: 10}
        assert ends == {1: 1, 2: 1, 3: 1, 4: 1}
        assert all(type(price) is int for price in prices.values())

    def test_single_value(self):
        assert solve_all([RootValue(1, 9)]) == ({1: 9}, {1: 1})

    def test_cut_leaves_the_question_underdetermined(self):
        formulas = [f for f in reference_formulas() if f.child_var != 2]
        assert solve_all(formulas) == ({1: 14, 2: None, 3: None, 4: 10}, {1: 1, 2: 2, 3: 2, 4: 1})

    def test_any_order_gives_the_same_prices(self):
        assert solve_all(list(reversed(reference_formulas()))) == solve_all(reference_formulas())

    def test_whole_price_after_a_fractional_one_is_an_int(self):
        # x1 = 5/3, then x2 = 10 - 3*x1 = 5: both solvers give 5 as an int
        formulas = [RootValue(0, 1), Linear(0, 1, 1, 3, 6), Linear(1, 2, 3, 1, 10)]
        prices, _ = solve_all(formulas)
        assert prices == {0: 1, 1: Fraction(5, 3), 2: 5}
        assert type(prices[2]) is int and type(solve_exact(formulas, 2).value) is int

    def test_agrees_with_elimination_on_generated_instances(self):
        config = make_config(order="random", count=1)
        for index in range(50):
            for instance in generate_pair(config, index):
                prices, _ = solve_all(instance.formulas)
                for var in range(1, config.num_vars + 1):
                    assert walk_verdict(prices, var) == solve_exact(instance.formulas, var)
                assert prices[instance.questioned_var] == instance.gold_answer

    @pytest.mark.parametrize("formulas", NOT_FORESTS.values(), ids=NOT_FORESTS.keys())
    def test_not_a_forest(self, formulas):
        assert solve_exact(formulas, 2) == Determination.unique(Fraction(5))
        assert solve_all(formulas) is None


class TestWalkEnds:
    """The question's component is every variable whose walk ends where the question's does."""

    def test_cut_component_counts(self):
        formulas = [f for f in reference_formulas() if f.child_var != 2]
        component, equations = walk_component(formulas, 3)
        assert component == {2, 3}
        assert equations == 1

    def test_direct_value_counts_as_an_equation(self):
        component, equations = walk_component(reference_formulas(), 3)
        assert component == {1, 2, 3, 4}
        assert equations == 4

    def test_variable_in_no_formula_is_its_own_component(self):
        component, equations = walk_component(reference_formulas(), 5)
        assert component == {5}
        assert equations == 0


class TestVerifyInstance:
    def test_confirms_generated_pair(self):
        answerable, unanswerable = generate_pair(make_config(count=1), 0)
        ans_report = verify_instance(answerable)
        assert ans_report.label_confirmed
        assert ans_report.determination == Determination.unique(Fraction(answerable.gold_answer))
        assert type(ans_report.determination.value) is int
        assert ans_report.path_solver_agrees is True
        una_report = verify_instance(unanswerable)
        assert una_report.label_confirmed
        assert una_report.determination == Determination.underdetermined()
        component, equations = walk_component(unanswerable.formulas, unanswerable.questioned_var)
        assert component == cut_subtree(unanswerable)
        assert equations == len(component) - 1
        assert una_report.path_solver_agrees is True
        for instance, report in ((answerable, ans_report), (unanswerable, una_report)):
            assert report.failure_kind is None
            assert report.walk == solve_all(instance.formulas)

    def test_walk_is_neither_shown_nor_compared(self):
        answerable, _ = generate_pair(make_config(count=1), 0)
        report = verify_instance(answerable)
        assert "walk" not in repr(report)
        assert report == dataclasses.replace(report, walk=None)

    def test_negative_control_mislabelled_instance(self):
        answerable, _ = generate_pair(make_config(count=1), 0)
        forged = dataclasses.replace(answerable, variant="unanswerable", gold_answer=None)
        report = verify_instance(forged)
        assert not report.label_confirmed
        assert "unanswerable" in report.failure
        assert report.failure_kind == LABEL_FAILURE

    @pytest.mark.parametrize("variant", ["answerabel", "", "Unanswerable"])
    def test_unknown_variant_is_a_failure(self, variant):
        for instance in generate_pair(make_config(count=1), 0):
            report = verify_instance(dataclasses.replace(instance, variant=variant))
            assert not report.label_confirmed
            assert report.failure == f"unknown variant {variant!r}"
            assert report.failure_kind == LABEL_FAILURE

    def test_negative_control_wrong_gold_value(self):
        answerable, _ = generate_pair(make_config(count=1), 0)
        forged = dataclasses.replace(answerable, gold_answer=answerable.gold_answer + 1)
        report = verify_instance(forged)
        assert not report.label_confirmed
        assert report.failure_kind == LABEL_FAILURE

    def test_cut_formula_put_back_fails(self):
        answerable, unanswerable = generate_pair(make_config(count=1), 0)
        cut_child = unanswerable.metadata["cutEdge"]["child"]
        (cut,) = [f for f in answerable.formulas if f.child_var == cut_child]
        restored = dataclasses.replace(unanswerable, formulas=[*unanswerable.formulas, cut])
        report = verify_instance(restored)
        assert not report.label_confirmed
        assert report.failure == "label unanswerable but oracle says unique"
        assert report.failure_kind == LABEL_FAILURE
        assert report.path_solver_agrees is True
        assert solve_all(restored.formulas)[0][restored.questioned_var] == answerable.gold_answer

    @pytest.mark.parametrize("formulas", NOT_FORESTS.values(), ids=NOT_FORESTS.keys())
    def test_not_a_forest_is_a_solver_disagreement(self, formulas):
        answerable, _ = generate_pair(make_config(count=1), 0)
        forged = dataclasses.replace(answerable, formulas=formulas, questioned_var=2, gold_answer=5)
        report = verify_instance(forged)
        assert report.determination == Determination.unique(Fraction(5))
        assert report.path_solver_agrees is False
        assert not report.label_confirmed
        assert report.failure == "path solver: formulas are not a forest"
        assert report.failure_kind == SOLVER_FAILURE
        assert report.walk is None

    def test_walk_price_off_by_one_is_a_solver_disagreement(self, monkeypatch):
        answerable, _ = generate_pair(make_config(count=1), 0)
        prices, ends = solve_all(answerable.formulas)
        off = ({**prices, answerable.questioned_var: answerable.gold_answer + 1}, ends)
        monkeypatch.setattr(oracle, "solve_all", lambda formulas: off)
        report = verify_instance(answerable)
        assert report.failure == "path solver disagrees with elimination"
        assert report.failure_kind == SOLVER_FAILURE
        assert report.walk is off


class TestReferencePairThroughOracle:
    def test_reference_pair_certifies(self):
        answerable, unanswerable = reference_pair.build_reference_pair()
        assert verify_instance(answerable).label_confirmed
        assert verify_instance(unanswerable).label_confirmed
        component, equations = walk_component(unanswerable.formulas, unanswerable.questioned_var)
        assert component == cut_subtree(unanswerable) == {2, 3}
        assert equations == 1
