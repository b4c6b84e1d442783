from __future__ import annotations

import pytest
from numpy.random import SeedSequence

from pricetree.errors import InvalidConfigError
from pricetree.pipeline import GenConfig
from pricetree.rng import PcgStream
from pricetree.tree import ROOT, bfs_edges, build_tree, sample_var_values

from streams import ScriptedStream


class TestSampleVarValues:
    def test_pinned_draws(self):
        rng = ScriptedStream([14, 8, 11, 10])
        assert sample_var_values(4, rng) == {1: 14, 2: 8, 3: 11, 4: 10}

    def test_values_in_range(self):
        values = sample_var_values(2, PcgStream(SeedSequence(3)))
        assert all(5 <= v <= 15 for v in values.values())

    def test_sweep_hits_full_support(self):
        # brute-force sweep: bounds hold everywhere and every price occurs
        seen = set()
        for seed in range(1000):
            values = sample_var_values(10, PcgStream(SeedSequence(seed)))
            assert len(values) == 10
            assert set(values) == set(range(1, 11))
            seen.update(values.values())
        assert seen == set(range(5, 16))

    def test_too_few_vars_rejected(self):
        with pytest.raises(InvalidConfigError):
            sample_var_values(1, PcgStream(SeedSequence(0)))


class TestBuildTree:
    def test_pinned_attachment(self):
        # spine root->x1->x2->x3 plus x4 choosing x1 as its parent
        rng = ScriptedStream([1])
        assert build_tree(4, 3, rng) == (ROOT, 1, 2, 1)
        assert rng.exhausted

    def test_pure_chain_consumes_no_draws(self):
        assert build_tree(5, 5, ScriptedStream([])) == (ROOT, 1, 2, 3, 4)

    def test_spine_and_attachment_invariants(self):
        for seed in range(1000):
            parents = build_tree(8, 4, PcgStream(SeedSequence(seed)))
            assert len(parents) == 8
            assert parents[:4] == (ROOT, 1, 2, 3)  # the spine
            for i in range(5, 9):
                assert parents[i - 1] < i

    def test_invalid_configs_rejected(self):
        # the shape is checked once, by the config that build_tree is fed from
        with pytest.raises(InvalidConfigError, match="ansDepth must be >= 2"):
            GenConfig(num_vars=4, ans_depth=1, cut_depth=1, composite_name=False)
        with pytest.raises(InvalidConfigError, match="numVars must be >= ansDepth"):
            GenConfig(num_vars=2, ans_depth=3, cut_depth=1, composite_name=False)


class TestBfsEdges:
    def test_pinned_tree_order(self):
        parents = build_tree(4, 3, ScriptedStream([1]))
        assert bfs_edges(parents) == [(ROOT, 1), (1, 2), (1, 4), (2, 3)]

    def test_chain_order_is_forced(self):
        assert bfs_edges(build_tree(3, 3, ScriptedStream([]))) == [(ROOT, 1), (1, 2), (2, 3)]

    def test_prefix_property_and_length(self):
        # every edge's parent is the root or a child seen earlier
        for seed in range(1000):
            edges = bfs_edges(build_tree(9, 4, PcgStream(SeedSequence(seed))))
            assert len(edges) == 9
            seen = {ROOT}
            for parent, child in edges:
                assert parent in seen
                seen.add(child)
