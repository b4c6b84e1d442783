"""The pinned reference pair: burger / scrambled egg / BLT sandwich / pie.

The draw script below pins every random decision of the pipeline, in the
pipeline's documented consumption order, to the values that produce the
reference problem.  The expected texts are asserted byte-for-byte, so any
change to templates, ordering or stream consumption shows up here first.
"""

from __future__ import annotations

from pricetree.jsonmap import to_json
from pricetree.pipeline import GenConfig, build_pair
from pricetree.wording import load_vocabulary

from streams import ScriptedStream

CONFIG = GenConfig(
    num_vars=4,
    ans_depth=3,
    cut_depth=1,
    composite_name=False,
    order="forward",
    corpus_seed=0,
    count=1,
)

# Pipeline draw order: var values, extra-node parents, edge coefficients in
# breadth-first order, item picks, then one phrasing coin per difference
# sentence in condition order (False picks the "less than" wording).
DRAWS = [
    14, 8, 11, 10,  # prices of x1..x4
    1,              # x4 attaches to x1
    2, -3,          # (x1, x2): 2*x1 - 3*x2 = 4
    3, -3,          # (x1, x4): 3*x1 - 3*x4 = 12
    3, -1,          # (x2, x3): 3*x2 - 1*x3 = 13
    [0, 1, 2, 3],   # burger, scrambled egg, BLT sandwich, pie
    False, False, False,
]

GOLD_ANSWER = 11

STRUCK_SENTENCE = "3 scrambled eggs cost 4 dollars less than 2 burgers"

ANSWERABLE_TEXT = (
    "A burger costs 14 dollars. "
    "3 scrambled eggs cost 4 dollars less than 2 burgers. "
    "3 pies cost 12 dollars less than 3 burgers. "
    "A BLT sandwich costs 13 dollars less than 3 scrambled eggs. "
    "Question: how much does a BLT sandwich cost?"
)

UNANSWERABLE_TEXT = (
    "A burger costs 14 dollars. "
    "3 pies cost 12 dollars less than 3 burgers. "
    "A BLT sandwich costs 13 dollars less than 3 scrambled eggs. "
    "Question: how much does a BLT sandwich cost?"
)

ANSWERABLE_SOLUTION = (
    "It is given as a fact that a burger costs 14 dollars. "
    "Combine with the fact that 3 scrambled eggs cost 4 dollars less than 2 burgers, "
    "we get a scrambled egg costs 8 dollars. "
    "Combine with the fact that a BLT sandwich costs 13 dollars less than 3 scrambled eggs, "
    "we get a BLT sandwich costs 11 dollars."
)

UNANSWERABLE_SOLUTION = (
    "All we know about the prices of BLT sandwich and scrambled egg is: "
    "a BLT sandwich costs 13 dollars less than 3 scrambled eggs. "
    "There are 2 variables but only 1 linear formula, "
    "so we cannot calculate the price of a BLT sandwich."
)


def build_reference_pair():
    """Run the real pipeline over the pinned draws."""
    stream = ScriptedStream(DRAWS)
    pair = build_pair(CONFIG, 0, stream, load_vocabulary(None, None), to_json(CONFIG))
    assert stream.exhausted, "reference pair left unused draws in the script"
    return pair
