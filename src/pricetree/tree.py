"""Random rooted trees of price variables.

Variables are numbered 1..num_vars; the reserved root is node 0.  The path
root -> x1 -> ... -> x_ans_depth (the spine) is fixed first, and the
questioned variable is x_ans_depth.  Remaining variables attach uniformly
to any node created before them.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .errors import InvalidConfigError
from .rng import PcgStream

ROOT = 0

PRICE_MIN = 5
PRICE_MAX = 15
PRICES = range(PRICE_MIN, PRICE_MAX + 1)


def check_shape(num_vars: int, ans_depth: int, cut_depth: int) -> None:
    """The shapes a config may ask for: 2 <= ansDepth <= numVars, 1 <= cutDepth < ansDepth."""
    if ans_depth < 2:
        raise InvalidConfigError(f"ansDepth must be >= 2, got {ans_depth}")
    if num_vars < ans_depth:
        raise InvalidConfigError(
            f"numVars must be >= ansDepth, got numVars={num_vars} ansDepth={ans_depth}"
        )
    if not 1 <= cut_depth < ans_depth:
        raise InvalidConfigError(
            f"cutDepth must satisfy 1 <= cutDepth < ansDepth, "
            f"got cutDepth={cut_depth} ansDepth={ans_depth}"
        )


def sample_var_values(num_vars: int, rng: PcgStream) -> dict[int, int]:
    """Hidden whole-dollar price per variable, uniform over [5, 15]."""
    if num_vars < 2:
        raise InvalidConfigError(f"num_vars must be >= 2, got {num_vars}")
    return dict(enumerate(rng.pick_each([PRICES] * num_vars), start=1))


def build_tree(num_vars: int, ans_depth: int, rng: PcgStream) -> tuple[int, ...]:
    """The parent tuple: entry i-1 is the parent node of x_i.

    Spine first, then each extra variable picks a uniformly random parent.
    The shape must pass `check_shape`.  The root is a candidate parent too;
    extras attached to it get a direct value sentence instead of a two-item
    relation.
    """
    parents = [ROOT] + [i - 1 for i in range(2, ans_depth + 1)]
    parents += rng.pick_each([range(ROOT, i) for i in range(ans_depth + 1, num_vars + 1)])
    return tuple(parents)


def children_by_parent(edges: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    """Parent node -> its children in ascending index order, from (parent, child) pairs."""
    children: dict[int, list[int]] = {}
    for parent, child in edges:
        children.setdefault(parent, []).append(child)
    for kids in children.values():
        kids.sort()
    return children


def bfs_edges(parents: tuple[int, ...]) -> list[tuple[int, int]]:
    """The (parent, child) edges of a parent tuple breadth first from the root, siblings in ascending index.

    So every edge's parent is the root or the child of an earlier edge.
    """
    children = children_by_parent((parent, child) for child, parent in enumerate(parents, start=1))
    edges = []
    queue = deque([ROOT])
    while queue:
        node = queue.popleft()
        for child in children.get(node, ()):
            edges.append((node, child))
            queue.append(child)
    return edges
