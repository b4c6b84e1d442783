#!/usr/bin/env python3
"""Walk through every stage of building one answerable/unanswerable pair."""

from pricetree import (
    GenConfig,
    bfs_edges,
    build_tree,
    generate_pair,
    sample_var_values,
    substream,
)

config = GenConfig(
    num_vars=6,
    ans_depth=4,
    cut_depth=2,
    composite_name=False,
    order="forward",
    corpus_seed=20240501,
)

# the same sub-stream the pipeline will use for pair #0
rng = substream(config.corpus_seed, 0)

print("== hidden prices ==")
values = sample_var_values(config.num_vars, rng)
for var, price in values.items():
    print(f"  x{var} = {price} dollars")

print("\n== tree ==")
parents = build_tree(config.num_vars, config.ans_depth, rng)  # entry i-1 is the parent of x_i
for var, parent in enumerate(parents, start=1):
    print(f"  x{var} hangs off {'root' if parent == 0 else f'x{parent}'}")
print(f"  questioned variable: x{config.ans_depth} (end of the root path)")

print("\n== breadth-first (parent, child) edges (condition order before shuffling) ==")
for parent, child in bfs_edges(parents):
    print(f"  ({'root' if parent == 0 else f'x{parent}'}, x{child})")

# the cut drops the spine edge cutDepth steps above the questioned variable
print(f"\n== the cut removes the edge whose child is x{config.ans_depth - config.cut_depth} ==")

# now the full pipeline, same seed, both variants
answerable, unanswerable = generate_pair(config, 0)

print("\n== answerable problem ==")
print(answerable.full_text)
print(f"\ngold answer: {answerable.gold_answer}")
print(f"gold solution: {answerable.gold_solution_text}")

print("\n== unanswerable twin (one sentence gone) ==")
print(unanswerable.full_text)
print(f"\ngold solution: {unanswerable.gold_solution_text}")

struck = set(answerable.condition_sentences) - set(unanswerable.condition_sentences)
print(f"\nstruck sentence: {struck.pop()!r}")
