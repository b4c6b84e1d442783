"""Corpus generation: configs, instances, pairs, presets.

Every emitted instance is certified by the oracle before it can be
serialized; a certification failure is a generator bug and raises rather
than writing bad labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import CertificationError, InvalidConfigError
from .formulas import COEFFICIENT_CHOICES, CONDITION_ORDERS, Formula, order_formulas, sample_formula
from .jsonmap import check_scalar_object, from_json, long_text, omitted_when_none, to_json
from .oracle import ANSWERABLE, UNANSWERABLE, verify_instance
from .rng import PcgStream, substream, substreams
from .tree import ROOT, bfs_edges, build_tree, check_shape, sample_var_values
from .wording import (
    PHRASING_LESS,
    PHRASING_MORE,
    QUESTION_PHRASINGS,
    ItemMap,
    Vocabulary,
    _needs_coin,
    _render_formula,
    _sentence_form,
    assemble_text,
    assign_items,
    load_vocabulary,
    render_gold_solution,
    render_question,
)

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenConfig:
    num_vars: int
    ans_depth: int
    cut_depth: int
    composite_name: bool
    order: str = "random"
    count: int = 1
    corpus_seed: int = 0
    question_phrasing: str = "how-much"
    dish_vocab: Optional[str] = None
    restaurant_vocab: Optional[str] = None

    def __post_init__(self) -> None:
        check_shape(self.num_vars, self.ans_depth, self.cut_depth)
        if self.order not in CONDITION_ORDERS:
            raise InvalidConfigError(f"order must be one of {CONDITION_ORDERS}, got {self.order!r}")
        if self.count < 1:
            raise InvalidConfigError(f"count must be >= 1, got {self.count}")
        if self.count > 2**32:  # each pair's index is one uint32 spawn word (rng.substreams)
            raise InvalidConfigError(f"count must be <= 2**32, got {self.count}")
        if self.corpus_seed < 0:
            raise InvalidConfigError(f"corpusSeed must be >= 0, got {self.corpus_seed}")
        if self.question_phrasing not in QUESTION_PHRASINGS:
            raise InvalidConfigError(
                f"questionPhrasing must be one of {QUESTION_PHRASINGS}, got {self.question_phrasing!r}"
            )


def cell_label(config: GenConfig) -> str:
    """Filesystem-friendly name for one configuration cell."""
    mode = "composite" if config.composite_name else "simple"
    return (
        f"d{config.ans_depth}_v{config.num_vars}_c{config.cut_depth}_{mode}_{config.order}"
    )


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@dataclass
class ProblemInstance:
    id: str
    variant: str  # "answerable" | "unanswerable"
    full_text: str = long_text()
    condition_sentences: tuple[str, ...]
    formulas: tuple[Formula, ...]
    item_map: ItemMap  # a pair's twins share one; so do the twins of a read corpus (corpus_io)
    questioned_var: int
    gold_answer: Optional[int] = omitted_when_none()  # an unanswerable line has no goldAnswer key
    gold_solution_text: str = long_text()
    pair_id: str
    metadata: dict

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProblemInstance":
        """`from_json` of a corpus line, whose itemMap may be an ItemMap already read (its checks passed
        then); the variant must be known, the id must be pairId-variant, goldAnswer must be present
        exactly when the variant is answerable, every formula variable and the questioned one must be
        named in itemMap, and metadata.config, whose items group eval records, must be an object of
        JSON scalars."""
        if data["variant"] not in (ANSWERABLE, UNANSWERABLE):
            raise ValueError(f"unknown variant {data['variant']!r}")
        instance = from_json(cls, data)
        if instance.id != f"{instance.pair_id}-{instance.variant}":
            raise ValueError(f"id must be pairId-variant {instance.pair_id}-{instance.variant}, got {instance.id!r}")
        if (instance.gold_answer is None) == (instance.variant == ANSWERABLE):
            raise ValueError(
                f"{instance.variant} line has goldAnswer {instance.gold_answer}; "
                "it must be present exactly when the variant is answerable"
            )
        used = {var for formula in instance.formulas for var in formula.variables()}
        used.add(instance.questioned_var)
        if not used <= instance.item_map.names.keys():
            unnamed = ", ".join(map(str, sorted(used - instance.item_map.names.keys())))
            raise ValueError(f"variables not in itemMap.names: {unnamed}")
        check_scalar_object("metadata.config", instance.metadata.get("config", {}))
        return instance


@dataclass
class Dataset:
    config: GenConfig
    instances: list[ProblemInstance]
    certification: dict

    def by_id(self, instance_id: str) -> ProblemInstance:
        for inst in self.instances:
            if inst.id == instance_id:
                return inst
        raise KeyError(instance_id)


# ---------------------------------------------------------------------------
# Pair generation
# ---------------------------------------------------------------------------


def build_pair(
    config: GenConfig,
    index: int,
    rng: PcgStream,
    vocab: Vocabulary,
    config_json: dict,
) -> tuple[ProblemInstance, ProblemInstance]:
    """Build and certify one answerable/unanswerable pair from one stream.

    `config_json` is ``to_json(config)``, made once per corpus; it becomes
    ``metadata.config``.

    Stream consumption order is part of the determinism contract:
    variable values, tree attachment, edge coefficients (breadth-first,
    two per non-root edge), condition-order permutation, item assignment,
    then one phrasing coin per difference sentence in condition order.
    Each stage takes all of its draws in one call, in that same order.
    The two variants share every draw; the unanswerable one just drops the
    cut sentence.  Each variant is certified by `verify_instance`, one
    exact elimination and one root walk apiece, before either is returned;
    its gold text is then read from that certification's walk.
    """
    values = sample_var_values(config.num_vars, rng)
    parents = build_tree(config.num_vars, config.ans_depth, rng)
    relations = config.num_vars - parents.count(ROOT)  # edges that take two coefficients
    coefficients = iter(rng.pick_each([COEFFICIENT_CHOICES] * (2 * relations)))
    bfs_formulas = [sample_formula(p, c, values, coefficients) for p, c in bfs_edges(parents)]
    ordered = order_formulas(bfs_formulas, config.order, rng)
    items = assign_items(config.num_vars, config.composite_name, vocab, rng)

    forms = [_sentence_form(f) for f in ordered]
    coined = [f.child_var for f, form in zip(ordered, forms) if _needs_coin(form)]
    heads = rng.pick_each([(False, True)] * len(coined))
    phrasing = {var: PHRASING_MORE if coin else PHRASING_LESS for var, coin in zip(coined, heads)}
    sentences = [_render_formula(f, form, items, phrasing.get(f.child_var)) for f, form in zip(ordered, forms)]

    questioned = config.ans_depth
    question = render_question(items, questioned, config.question_phrasing)

    cut_child = config.ans_depth - config.cut_depth  # the spine edge cutDepth above the question
    kept = [(f, s) for f, s in zip(ordered, sentences) if f.child_var != cut_child]

    pair_id = f"s{config.corpus_seed}-p{index:06d}"  # unique across corpus seeds
    metadata = {
        "config": config_json,
        "index": index,
        "cutEdge": {"parent": cut_child - 1, "child": cut_child},  # parent 0 is the root
        "phrasing": {str(var): coin for var, coin in sorted(phrasing.items())},
    }

    def certified(variant: str, formulas: list, sentences: list, gold: Optional[int]) -> ProblemInstance:
        instance = ProblemInstance(
            id=f"{pair_id}-{variant}",
            variant=variant,
            full_text=assemble_text(sentences, question),
            condition_sentences=tuple(sentences),
            formulas=tuple(formulas),
            item_map=items,
            questioned_var=questioned,
            gold_answer=gold,
            gold_solution_text="",  # read from the certification's walk below
            pair_id=pair_id,
            metadata=dict(metadata),
        )
        report = verify_instance(instance)
        if not report.label_confirmed:
            raise CertificationError(f"{instance.id}: {report.failure}")
        instance.gold_solution_text = render_gold_solution(formulas, sentences, items, questioned, report.walk)
        return instance

    return (
        certified(ANSWERABLE, ordered, sentences, values[questioned]),
        certified(UNANSWERABLE, [f for f, _ in kept], [s for _, s in kept], None),
    )


def generate_pair(config: GenConfig, index: int) -> tuple[ProblemInstance, ProblemInstance]:
    """One certified pair, deterministic given (config, corpusSeed, index)."""
    vocab = load_vocabulary(config.dish_vocab, config.restaurant_vocab)
    return build_pair(config, index, substream(config.corpus_seed, index), vocab, to_json(config))


def generate_corpus(config: GenConfig) -> Dataset:
    """config.count certified pairs; per-index sub-seeds keep them independent."""
    vocab = load_vocabulary(config.dish_vocab, config.restaurant_vocab)
    config_json = to_json(config)
    instances: list[ProblemInstance] = []
    for index, rng in enumerate(substreams(config.corpus_seed, config.count)):
        instances.extend(build_pair(config, index, rng, vocab, config_json))
    certification = {
        "instances": len(instances),
        "answerable": config.count,
        "unanswerable": config.count,
        "labelConfirmed": len(instances),
        "failures": 0,
    }
    return Dataset(config=config, instances=instances, certification=certification)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

# name -> (numVars, ansDepth, cutDepth, compositeName) of each cell, in seed order
PRESETS = {
    "table-main": [(depth + 2, depth, depth // 2, True) for depth in (2, 4, 6, 8)],
    "fig-structure": [
        (num_vars, depth, depth // 2, composite)
        for depth in range(4, 9)
        for num_vars in (depth, depth + 2)
        for composite in (False, True)
    ],
    "fig-cutdepth": [(depth + 2, depth, cut, True) for depth in (7, 8) for cut in range(1, depth)],
}
PRESET_NAMES = tuple(PRESETS)


def preset(name: str, corpus_seed: int = 0, count: int = 500) -> list[GenConfig]:
    """The shipped experiment grids; cell i gets the seed ``corpus_seed + i``.

    table-main fixes cutDepth = ansDepth // 2, numVars = ansDepth + 2 and
    composite names; those values are an assumption of this package, chosen
    to mirror the fig-structure defaults, and are not claimed to match any
    particular published run.
    """
    if name not in PRESETS:
        raise InvalidConfigError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")
    return [
        GenConfig(num_vars, ans_depth, cut_depth, composite, count=count, corpus_seed=corpus_seed + i)
        for i, (num_vars, ans_depth, cut_depth, composite) in enumerate(PRESETS[name])
    ]
