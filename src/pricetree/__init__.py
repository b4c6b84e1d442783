"""Paired answerable/unanswerable price word problems with certified labels.

Problems are random trees of linear price constraints; removing one edge on
the path to the questioned item makes the question unanswerable.  An exact
rational solver certifies every label, and an evaluation harness measures
how often a language model invents an answer anyway.
"""

from .errors import (
    CertificationError,
    DatasetParseError,
    InvalidConfigError,
    NotForwardSolvableError,
    PricetreeError,
    TransportError,
)
from .formulas import (
    COEFFICIENT_CHOICES,
    CONDITION_ORDERS,
    Formula,
    Linear,
    RootValue,
    order_formulas,
    sample_formula,
)
from .oracle import (
    Determination,
    VerificationReport,
    constraint_component,
    forward_order,
    solve_by_path,
    solve_exact,
    verify_instance,
)
from .pipeline import (
    ANSWERABLE,
    PRESET_NAMES,
    UNANSWERABLE,
    Dataset,
    GenConfig,
    ProblemInstance,
    build_pair,
    cell_label,
    generate_corpus,
    generate_pair,
    preset,
)
from .corpus_io import load_gen_config, read_dataset, write_dataset
from .rng import PcgStream, substream
from .tree import ROOT, Edge, Tree, bfs_edges, build_tree, sample_var_values
from .wording import (
    DEFAULT_DISHES,
    DEFAULT_RESTAURANTS,
    ItemMap,
    ItemName,
    Vocabulary,
    assign_items,
    load_vocabulary,
    render_gold_solution,
    render_question,
)

__version__ = "0.1.0"

__all__ = [
    "ANSWERABLE",
    "COEFFICIENT_CHOICES",
    "CONDITION_ORDERS",
    "CertificationError",
    "DEFAULT_DISHES",
    "DEFAULT_RESTAURANTS",
    "Dataset",
    "DatasetParseError",
    "Determination",
    "Edge",
    "Formula",
    "GenConfig",
    "InvalidConfigError",
    "ItemMap",
    "ItemName",
    "Linear",
    "NotForwardSolvableError",
    "PRESET_NAMES",
    "PcgStream",
    "PricetreeError",
    "ProblemInstance",
    "ROOT",
    "RootValue",
    "Tree",
    "TransportError",
    "UNANSWERABLE",
    "VerificationReport",
    "Vocabulary",
    "assign_items",
    "bfs_edges",
    "build_pair",
    "build_tree",
    "cell_label",
    "constraint_component",
    "forward_order",
    "generate_corpus",
    "generate_pair",
    "load_gen_config",
    "load_vocabulary",
    "order_formulas",
    "preset",
    "read_dataset",
    "render_gold_solution",
    "render_question",
    "sample_formula",
    "sample_var_values",
    "solve_by_path",
    "solve_exact",
    "substream",
    "verify_instance",
    "write_dataset",
]
