#!/usr/bin/env python3
"""The two exact solvers on hand-built systems.

Everything is exact integer/fraction arithmetic; verdicts are per target
variable, so one system can pin some prices while leaving others open.
`solve_exact` eliminates; `solve_all` walks each variable up to the root
and prices all of them at once (None: underdetermined), with the variable
each walk ended at, as long as the formulas form a forest.
"""

from pricetree import Linear, RootValue, solve_all, solve_exact

# x1 = 14;  2*x1 - 3*x2 = 4;  3*x2 - x3 = 13   (a solvable chain)
chain = [
    RootValue(1, 14),
    Linear(1, 2, 2, -3, 4),
    Linear(2, 3, 3, -1, 13),
]
for target in (1, 2, 3):
    print(f"chain, x{target}: {solve_exact(chain, target)}")
print(f"root walk, (every price, every walk end): {solve_all(chain)}")

# drop the middle relation: x2 and x3 strand together
cut = [chain[0], chain[2]]
print(f"\nafter the cut, x3: {solve_exact(cut, 3)}")
print(f"after the cut, x1: {solve_exact(cut, 1)}  (still pinned)")
print(f"root walk after the cut: {solve_all(cut)}  (x2 and x3 end at x2)")

# contradictory statements
broken = [RootValue(1, 5), RootValue(1, 6)]
print(f"\ncontradiction: {solve_exact(broken, 1)}")
print(f"root walk, x1 stated twice: {solve_all(broken)}  (not a forest)")

# a target can be forced to a non-integer; nothing is ever rounded
# 3*x1 + 3*x2 = 10 and 3*x1 - 3*x2 = 0  =>  x1 = 5/3
awkward = [Linear(1, 2, 3, 3, 10), Linear(1, 2, 3, -3, 0)]
print(f"\nnon-integer solution kept exact: {solve_exact(awkward, 1)}")

# per-target verdicts: x1 pinned, x2 free, x3 rides on x2
mixed = [RootValue(1, 5), Linear(2, 3, 1, -1, -1)]
for target in (1, 2, 3):
    print(f"mixed system, x{target}: {solve_exact(mixed, target)}")
