"""Acceptance suite: one test per release criterion, one pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass lines and
the sweep timing.  The generation sweep (criteria 1-3, 5) covers the full
parameter grid: every depth from 2 to 8, three tree widths, every legal
cut position, both naming modes and all three condition orders.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import pytest

from pricetree.cli import main
from pricetree.corpus_io import dataset_to_lines, read_dataset
from pricetree.formulas import Linear
from pricetree.harness.report import aggregate, format_rate
from pricetree.harness.scoring import extract_answer, read_records
from pricetree.jsonmap import to_json
from pricetree.oracle import verify_instance
from pricetree.pipeline import GenConfig, generate_corpus, generate_pair, preset
from pricetree.wording import _template_form

import reference_pair
import sentence_parser
from test_properties import cut_subtree, walk_component

DATA_DIR = Path(__file__).parent / "data"
EXTRA_DISHES = str(DATA_DIR / "extra_dishes.txt")

PAIRS_PER_CELL = 20
PARSED_PAIRS_PER_CELL = 4


def sweep_cells() -> list[GenConfig]:
    cells = []
    for ans_depth in range(2, 9):
        for extra in (0, 2, 4):
            num_vars = ans_depth + extra
            for cut_depth in range(1, ans_depth):
                for composite in (False, True):
                    for order in ("forward", "backward", "random"):
                        cells.append(
                            GenConfig(
                                num_vars=num_vars,
                                ans_depth=ans_depth,
                                cut_depth=cut_depth,
                                composite_name=composite,
                                order=order,
                                count=PAIRS_PER_CELL,
                                corpus_seed=len(cells),
                                dish_vocab=(
                                    EXTRA_DISHES if not composite and num_vars > 9 else None
                                ),
                            )
                        )
    return cells


def _shape(formula) -> str:
    if not isinstance(formula, Linear):
        return "root"
    return _template_form(formula)[0]


@dataclass
class SweepStats:
    pairs: int = 0
    answerable_unique_gold: int = 0
    unanswerable_underdetermined: int = 0
    inconsistent: int = 0
    path_agreements: int = 0
    gold_in_range: int = 0
    component_law_holds: int = 0
    parsed_sentences: int = 0
    parse_failures: int = 0
    shape_counts: dict = field(default_factory=dict)
    elapsed: float = 0.0


@pytest.fixture(scope="module")
def sweep() -> SweepStats:
    stats = SweepStats()
    start = time.perf_counter()
    for config in sweep_cells():
        dataset = generate_corpus(config)
        for position, instance in enumerate(dataset.instances):
            report = verify_instance(instance)
            if report.determination.kind == "inconsistent":
                stats.inconsistent += 1
            if report.path_solver_agrees:
                stats.path_agreements += 1
            if instance.variant == "answerable":
                stats.pairs += 1
                if (
                    report.determination.is_unique
                    and report.determination.value == instance.gold_answer
                ):
                    stats.answerable_unique_gold += 1
                if isinstance(instance.gold_answer, int) and 5 <= instance.gold_answer <= 15:
                    stats.gold_in_range += 1
                if position < 2 * PARSED_PAIRS_PER_CELL:
                    for formula, sentence in zip(
                        instance.formulas, instance.condition_sentences
                    ):
                        stats.parsed_sentences += 1
                        shape = _shape(formula)
                        stats.shape_counts[shape] = stats.shape_counts.get(shape, 0) + 1
                        if not sentence_parser.roundtrips(
                            formula, sentence, instance.item_map
                        ):
                            stats.parse_failures += 1
            else:
                if report.determination.kind == "underdetermined":
                    stats.unanswerable_underdetermined += 1
                component, equations = walk_component(instance.formulas, instance.questioned_var)
                if component == cut_subtree(instance) and equations == len(component) - 1:
                    stats.component_law_holds += 1
    stats.elapsed = time.perf_counter() - start
    return stats


def test_criterion_1_label_certification(sweep: SweepStats):
    assert sweep.pairs >= 10_000
    assert sweep.answerable_unique_gold == sweep.pairs
    assert sweep.unanswerable_underdetermined == sweep.pairs
    assert sweep.inconsistent == 0
    print(
        f"\nPASS criterion 1: {sweep.pairs} pairs certified "
        f"(100% unique-gold, 100% underdetermined, 0 inconsistent) "
        f"in {sweep.elapsed:.1f}s"
    )


def test_criterion_2_solver_equivalence(sweep: SweepStats):
    assert sweep.path_agreements == 2 * sweep.pairs
    assert sweep.gold_in_range == sweep.pairs
    print(
        f"PASS criterion 2: the root walk matched elimination bit-exactly on "
        f"{sweep.pairs} answerable and {sweep.pairs} unanswerable instances; all gold answers in [5, 15]"
    )


def test_criterion_3_component_count_law(sweep: SweepStats):
    assert sweep.component_law_holds == sweep.pairs
    print(
        f"PASS criterion 3: the root walk's questioned component was the cut child's "
        f"subtree, with equations = variables - 1, in all {sweep.pairs} unanswerable instances"
    )


def test_criterion_4_reference_pair_reconstruction():
    answerable, unanswerable = reference_pair.build_reference_pair()
    assert answerable.full_text == reference_pair.ANSWERABLE_TEXT
    assert unanswerable.full_text == reference_pair.UNANSWERABLE_TEXT
    assert answerable.gold_answer == reference_pair.GOLD_ANSWER
    struck = set(answerable.condition_sentences) - set(unanswerable.condition_sentences)
    assert struck == {reference_pair.STRUCK_SENTENCE}
    assert answerable.gold_solution_text == reference_pair.ANSWERABLE_SOLUTION
    assert unanswerable.gold_solution_text == reference_pair.UNANSWERABLE_SOLUTION
    assert verify_instance(unanswerable).label_confirmed
    component, equations = walk_component(unanswerable.formulas, unanswerable.questioned_var)
    assert component == cut_subtree(unanswerable) == {2, 3} and equations == 1
    print(
        "PASS criterion 4: pinned seed fixture reproduced the reference pair "
        "byte-for-byte (texts, struck sentence, gold 11, both solutions)"
    )


def test_criterion_5_template_round_trip(sweep: SweepStats):
    assert sweep.parsed_sentences >= 10_000
    assert sweep.parse_failures == 0
    assert set(sweep.shape_counts) == {"root", "sum", "same", "diff"}
    assert all(count > 0 for count in sweep.shape_counts.values())
    print(
        f"PASS criterion 5: {sweep.parsed_sentences} sentences round-tripped with "
        f"0 failures (shapes: {sweep.shape_counts})"
    )


def test_criterion_6_determinism():
    config = GenConfig(
        num_vars=7,
        ans_depth=5,
        cut_depth=2,
        composite_name=True,
        order="random",
        count=40,
        corpus_seed=123,
    )
    first = dataset_to_lines(generate_corpus(config))
    second = dataset_to_lines(generate_corpus(config))
    assert first == second
    shuffled_indices = [31, 4, 0, 39, 17, 22, 8, 35, 1, 29] + [
        i for i in range(40) if i not in {31, 4, 0, 39, 17, 22, 8, 35, 1, 29}
    ][::-1]
    regenerated = []
    for index in shuffled_indices:
        regenerated.extend(generate_pair(config, index))
    corpus_lines = sorted(first[1:])
    shuffled_lines = sorted(json.dumps(to_json(i), ensure_ascii=False) for i in regenerated)
    assert corpus_lines == shuffled_lines
    print(
        "PASS criterion 6: regeneration is byte-identical and shuffled generation "
        "order yields an identical instance multiset"
    )


# (response text, expected verdict, expected value) — includes the final lines
# of real model transcripts and adversarial trigger/unknown orderings
EXTRACTION_CASES = [
    ("Answer: unknown.", "unknown", None),
    ("Answer: 6", "number", 6),
    ("Answer: 11", "number", 11),
    ("Answer: 12", "number", 12),
    ("Answer: 24", "number", 24),
    (
        "Without further assumptions the system involves three unknowns (S_B, C_B, C_M) "
        "and only two equations. However, it is common in these problems to assume that "
        "the price is consistent across restaurants.\n\nAnswer: 12",
        "number",
        12,
    ),
    (
        "Thus, the cost of a burger at Taste Good Cuisine is 6 dollars.\n\nAnswer: 6",
        "number",
        6,
    ),
    ("the answer is unknown in many cases. Final Answer: 12", "number", 12),
    ("Answer: 5. On reflection the conditions are insufficient: unknown", "unknown", None),
    ("answer: unknown", "unknown", None),
    ("ANSWER: UNKNOWN!!", "unknown", None),
    ("The answers are unknown", "unknown", None),
    ("I cannot determine this.", "unparseable", None),
    ("Answer: x", "unparseable", None),
    ("Answer:", "unparseable", None),
    ("", "unparseable", None),
    ("Answer: $14.", "number", 14),
    ("Answer: 1,200", "number", 1200),
    ("Answer: 6.00", "number", 6),
    ("Answer: 6.5", "unparseable", None),
    ("Answer: -3", "number", -3),
    ("Answer: seven", "unparseable", None),
    ("Final answer: 42 dollars", "number", 42),
    ("answer answer answer: 9", "number", 9),
    ("unknown unknown unknown answer: 3", "number", 3),
    ("Answer: 7\nWait, that is wrong; the value is unknown", "unknown", None),
    ("The final ANSWER is 100", "number", 100),
    ("answering is hard: 55", "number", 55),
    ("It's unknowable. Answer: 8", "number", 8),
    ("Answer: I think it is unknowable", "unparseable", None),
    ("Answer: about 15 or 16", "number", 15),
    ("Answer: $1,234.00 total", "number", 1234),
    ("There is no answer", "unparseable", None),
    ("the value is unknown", "unparseable", None),
    ("Answer: unknown, but if forced to guess, 12", "unknown", None),
]


def test_criterion_7_answer_extraction_conformance():
    assert len(EXTRACTION_CASES) >= 30
    mismatches = []
    for text, verdict, value in EXTRACTION_CASES:
        parsed = extract_answer(text)
        if parsed.verdict != verdict or parsed.value != value:
            mismatches.append((text, parsed))
    assert not mismatches, mismatches
    print(
        f"PASS criterion 7: {len(EXTRACTION_CASES)} pinned responses scored exactly "
        "per the extraction rule (0 mismatches)"
    )


@pytest.fixture(scope="module")
def offline_corpus(tmp_path_factory) -> dict:
    tmp = tmp_path_factory.mktemp("offline")
    corpus_path = tmp / "corpus.jsonl"
    config_path = tmp / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "numVars": 10,
                "ansDepth": 8,
                "cutDepth": 4,
                "compositeName": True,
                "order": "random",
                "count": 500,
            }
        )
    )
    profile_path = tmp / "profile.json"
    profile_path.write_text(
        json.dumps({"endpoint": "http://localhost:1/unused", "model": "offline-stub"})
    )
    code = main(
        ["generate", "--config", str(config_path), "--out", str(corpus_path), "--seed", "2024"]
    )
    assert code == 0
    return {"tmp": tmp, "corpus": corpus_path, "profile": profile_path}


def _run_offline_eval(env: dict, transport: str, name: str) -> list:
    records_path = env["tmp"] / f"records_{name}.jsonl"
    code = main(
        [
            "eval",
            "--in", str(env["corpus"]),
            "--profile", str(env["profile"]),
            "--mode", "zero",
            "--transport", transport,
            "--out", str(records_path),
        ]
    )
    assert code == 0
    return read_records(records_path)


def test_criterion_8_offline_harness_end_to_end(offline_corpus):
    env = offline_corpus

    records = _run_offline_eval(env, "mock:unknown", "unknown")
    (cell,) = aggregate(records, ["ansDepth"]).cells
    assert cell.hallucination_rate == Fraction(0)
    assert cell.false_unanswerable_rate == Fraction(1)

    records = _run_offline_eval(env, "mock:five", "five")
    (cell,) = aggregate(records, ["ansDepth"]).cells
    assert cell.hallucination_rate == Fraction(1)

    # replay fixture: 320 of the 500 unanswerable responses hallucinate
    dataset = read_dataset(env["corpus"])
    unanswerable = [i for i in dataset.instances if i.variant == "unanswerable"]
    assert len(unanswerable) == 500
    replay_lines = []
    for position, instance in enumerate(unanswerable):
        text = "Answer: 7" if position < 320 else "Answer: unknown."
        replay_lines.append(json.dumps({"instanceId": instance.id, "responseText": text}))
    for instance in dataset.instances:
        if instance.variant == "answerable":
            replay_lines.append(
                json.dumps(
                    {"instanceId": instance.id, "responseText": f"Answer: {instance.gold_answer}"}
                )
            )
    replay_path = env["tmp"] / "replay.jsonl"
    replay_path.write_text("\n".join(replay_lines), encoding="utf-8")

    records = _run_offline_eval(env, f"replay:{replay_path}", "replay")
    (cell,) = aggregate(records, ["ansDepth"]).cells
    assert cell.hallucination_rate == Fraction(320, 500)
    assert format_rate(cell.hallucination_rate) == "64.0%"

    report_dir = env["tmp"] / "report"
    code = main(
        [
            "report",
            "--in", str(env["tmp"] / "records_replay.jsonl"),
            "--group", "ansDepth",
            "--out", str(report_dir),
        ]
    )
    assert code == 0
    assert "64.0%" in (report_dir / "metrics.txt").read_text(encoding="utf-8")
    print(
        "PASS criterion 8: offline generate/eval/report gave exactly 0% and 100% on "
        "the degenerate mocks and 64.0% on the 320/500 replay fixture"
    )


def test_criterion_9_live_measurement_scaffolding():
    # model hallucination rates need API access to the models themselves and
    # are out of desk-scale reach; the shipped grids and report layouts are
    # what a credentialed user re-runs
    structure = preset("fig-structure", corpus_seed=0, count=500)
    assert len(structure) == 20
    cutdepth = preset("fig-cutdepth", corpus_seed=0, count=500)
    assert sorted(c.cut_depth for c in cutdepth if c.ans_depth == 8) == list(range(1, 8))
    assert sorted(c.cut_depth for c in cutdepth if c.ans_depth == 7) == list(range(1, 7))
    main_grid = preset("table-main", corpus_seed=0, count=500)
    assert [c.ans_depth for c in main_grid] == [2, 4, 6, 8]
    assert all(c.count == 500 for c in structure + cutdepth + main_grid)

    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    assert "## What this package does not reproduce" in readme
    print(
        "PASS criterion 9: preset grids (20-cell structure grid, cut-position sweep, "
        "main table) and report layouts ship for credentialed re-runs; the README "
        "states that published model rates are not reproducible offline"
    )
