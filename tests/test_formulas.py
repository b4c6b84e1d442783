from __future__ import annotations

import pytest
from numpy.random import SeedSequence

from pricetree.errors import InvalidConfigError
from pricetree.formulas import (
    COEFFICIENT_CHOICES,
    Linear,
    RootValue,
    formula_edges,
    order_formulas,
    sample_formula,
)
from pricetree.oracle import solve_all
from pricetree.pipeline import GenConfig, generate_pair
from pricetree.rng import PcgStream
from pricetree.tree import ROOT, bfs_edges, build_tree, sample_var_values

from factories import make_config
from streams import ScriptedStream


def cut_formulas(**overrides):
    """(unanswerable formulas, the one formula the cut removed) of a generated pair."""
    answerable, unanswerable = generate_pair(make_config(count=1, **overrides), 0)
    removed = [f for f in answerable.formulas if f not in unanswerable.formulas]
    assert len(removed) == 1
    return list(unanswerable.formulas), removed[0]


class TestApplyCut:
    """The cut that build_pair applies to the answerable formulas."""

    def test_removes_the_spine_edge_above_the_question(self):
        _, removed = cut_formulas(num_vars=4, ans_depth=3, cut_depth=1)
        assert isinstance(removed, Linear)
        assert (removed.parent, removed.child) == (1, 2)

    def test_cut_reaching_the_root_edge(self):
        unanswerable, removed = cut_formulas(num_vars=4, ans_depth=3, cut_depth=2)
        assert isinstance(removed, RootValue) and removed.var == 1
        assert len(unanswerable) == 3

    def test_cut_child_sweep(self):
        # deeper cuts land closer to the root, never on the last spine edge
        for depth in range(1, 8):
            unanswerable, removed = cut_formulas(
                num_vars=8, ans_depth=8, cut_depth=depth, order="random"
            )
            assert len(unanswerable) == 7
            assert removed.child_var == 8 - depth
            parent = ROOT if isinstance(removed, RootValue) else removed.parent
            assert parent == 8 - depth - 1
            assert any(f.child_var == 8 for f in unanswerable)

    def test_order_preserved(self):
        for index in range(10):
            answerable, unanswerable = generate_pair(
                make_config(num_vars=7, ans_depth=4, cut_depth=2, order="random", count=1), index
            )
            assert list(unanswerable.formulas) == [f for f in answerable.formulas if f.child_var != 2]

    @pytest.mark.parametrize("depth", [0, 3, 5])
    def test_invalid_cut_depth_rejected(self, depth):
        with pytest.raises(InvalidConfigError, match="cutDepth"):
            GenConfig(num_vars=4, ans_depth=3, cut_depth=depth, composite_name=False)


class TestSampleFormula:
    def test_root_edge_becomes_direct_value(self):
        values = {1: 14}
        coefficients = iter([])
        assert sample_formula(ROOT, 1, values, coefficients) == RootValue(var=1, value=14)

    def test_pinned_coefficients(self):
        values = {1: 14, 2: 8}
        coefficients = iter([2, -3, 1])
        formula = sample_formula(1, 2, values, coefficients)
        assert formula == Linear(parent=1, child=2, parent_coeff=2, child_coeff=-3, rhs=4)
        assert list(coefficients) == [1]  # an edge takes exactly two

    def test_equal_prices_can_give_zero_rhs(self):
        values = {1: 9, 2: 9}
        formula = sample_formula(1, 2, values, iter([1, -1]))
        assert formula == Linear(1, 2, 1, -1, 0)

    def test_sampled_formulas_hold_for_their_values(self):
        # and each formula's edge, as formula_edges reads it back, is the edge it was sampled for
        for seed in range(500):
            rng = PcgStream(SeedSequence(seed))
            values = sample_var_values(6, rng)
            edges = bfs_edges(build_tree(6, 3, rng))
            coefficients = iter(rng.pick_each([COEFFICIENT_CHOICES] * (2 * len(edges))))
            bfs_formulas = [sample_formula(parent, child, values, coefficients) for parent, child in edges]
            assert list(formula_edges(bfs_formulas)) == edges
            assert solve_all(bfs_formulas)[0] == values  # the walk prices every variable at its hidden value
            for formula in bfs_formulas:
                if isinstance(formula, Linear):
                    assert formula.parent_coeff in COEFFICIENT_CHOICES
                    assert formula.child_coeff in COEFFICIENT_CHOICES


class TestOrderFormulas:
    def formulas(self):
        return [RootValue(1, 14), Linear(1, 2, 2, -3, 4), Linear(2, 3, 3, -1, 13)]

    def test_forward_is_identity(self):
        fs = self.formulas()
        assert order_formulas(fs, "forward", ScriptedStream([])) == fs

    def test_backward_twice_is_identity(self):
        fs = self.formulas()
        once = order_formulas(fs, "backward", ScriptedStream([]))
        assert once == list(reversed(fs))
        assert order_formulas(once, "backward", ScriptedStream([])) == fs

    def test_random_preserves_multiset_and_is_seeded(self):
        fs = self.formulas()
        for seed in range(100):
            a = order_formulas(fs, "random", PcgStream(SeedSequence(seed)))
            b = order_formulas(fs, "random", PcgStream(SeedSequence(seed)))
            assert a == b
            assert sorted(map(repr, a)) == sorted(map(repr, fs))

    def test_unknown_order_rejected(self):
        with pytest.raises(InvalidConfigError):
            order_formulas(self.formulas(), "sideways", PcgStream(SeedSequence(0)))
