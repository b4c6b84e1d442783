"""Paired answerable/unanswerable price word problems with certified labels.

Problems are random trees of linear price constraints; removing one edge on
the path to the questioned item makes the question unanswerable.  An exact
integer solver certifies every label, and an evaluation harness measures
how often a language model invents an answer anyway.
"""

from .corpus_io import load_gen_config, read_dataset, write_dataset
from .errors import (
    CertificationError,
    DatasetParseError,
    InvalidConfigError,
    PricetreeError,
    TransientTransportError,
    TransportError,
)
from .formulas import Formula, Linear, RootValue
from .oracle import (
    Determination,
    VerificationReport,
    component_of,
    solve_all,
    solve_exact,
    verify_instance,
)
from .pipeline import (
    Dataset,
    GenConfig,
    ProblemInstance,
    cell_label,
    generate_corpus,
    generate_pair,
    preset,
)
from .rng import substream, substreams
from .tree import bfs_edges, build_tree, sample_var_values

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "Dataset",
    "DatasetParseError",
    "Determination",
    "Formula",
    "GenConfig",
    "InvalidConfigError",
    "Linear",
    "PricetreeError",
    "ProblemInstance",
    "RootValue",
    "TransientTransportError",
    "TransportError",
    "VerificationReport",
    "bfs_edges",
    "build_tree",
    "cell_label",
    "component_of",
    "generate_corpus",
    "generate_pair",
    "load_gen_config",
    "preset",
    "read_dataset",
    "sample_var_values",
    "solve_all",
    "solve_exact",
    "substream",
    "substreams",
    "verify_instance",
    "write_dataset",
]
