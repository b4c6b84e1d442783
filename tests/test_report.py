from __future__ import annotations

import csv
import json
from fractions import Fraction

import pytest

from pricetree.errors import InvalidConfigError
from pricetree.harness.report import (
    MISSING,
    aggregate,
    format_rate,
    format_text_table,
    write_report,
)
from pricetree.harness.scoring import (
    OUTCOME_CORRECT_ANSWER,
    OUTCOME_CORRECT_UNANSWERABLE,
    OUTCOME_HALLUCINATION,
    VERDICT_NUMBER,
    VERDICT_UNKNOWN,
    EvalRecord,
)


def record(
    variant="unanswerable",
    outcome=OUTCOME_HALLUCINATION,
    cell=None,
    transport_failed=False,
    verdict=VERDICT_NUMBER,
):
    cell = cell or {"ansDepth": 8, "cutDepth": 4, "numVars": 10, "compositeName": True, "order": "random"}
    return EvalRecord(
        instance_id="i",
        pair_id="p",
        variant=variant,
        mode="zero",
        outcome=None if transport_failed else outcome,
        verdict=None if transport_failed else verdict,
        value=None,
        raw_tail="",
        response=None if transport_failed else "text",
        latency_ms=None if transport_failed else 1.0,
        transport_failed=transport_failed,
        config_cell=cell,
        gold_answer=None,
    )


class TestAggregate:
    def test_hallucination_arithmetic_is_exact(self):
        records = [record(outcome=OUTCOME_HALLUCINATION) for _ in range(320)]
        records += [record(outcome=OUTCOME_CORRECT_UNANSWERABLE, verdict=VERDICT_UNKNOWN) for _ in range(180)]
        table = aggregate(records, ["ansDepth"])
        (cell,) = table.cells
        assert cell.n_unanswerable == 500
        assert cell.hallucination_rate == Fraction(320, 500)
        assert format_rate(cell.hallucination_rate) == "64.0%"

    def test_empty_rate_renders_missing_not_zero(self):
        records = [record(variant="answerable", outcome=OUTCOME_CORRECT_ANSWER)]
        table = aggregate(records, ["ansDepth"])
        (cell,) = table.cells
        assert cell.hallucination_rate is None
        assert format_rate(cell.hallucination_rate) == MISSING
        assert MISSING in format_text_table(table)

    def test_transport_failures_are_excluded_and_counted(self):
        records = [record(), record(transport_failed=True)]
        (cell,) = aggregate(records, ["ansDepth"]).cells
        assert cell.n == 1 and cell.excluded == 1
        assert cell.hallucination_rate == Fraction(1, 1)

    def test_cutdepth_grouping_has_seven_rows(self):
        records = []
        for cut in range(1, 8):
            cell = {"ansDepth": 8, "cutDepth": cut, "numVars": 10, "compositeName": True, "order": "random"}
            records.append(record(cell=cell))
        table = aggregate(records, ["ansDepth", "cutDepth"])
        assert len(table.cells) == 7
        assert [c.key["cutDepth"] for c in table.cells] == list(range(1, 8))

    def test_recomputation_matches_emitted_table(self):
        records = [record() for _ in range(3)] + [
            record(variant="answerable", outcome=OUTCOME_CORRECT_ANSWER) for _ in range(2)
        ]
        first = aggregate(records, ["ansDepth"]).to_json_dict()
        second = aggregate(list(records), ["ansDepth"]).to_json_dict()
        assert first == second

    def test_cells_sum_every_record_that_shares_their_keys(self):
        # cells come from one tally over all groupable keys, rolled up to the asked keys
        outcomes = [
            ("unanswerable", OUTCOME_HALLUCINATION, False),
            ("unanswerable", OUTCOME_CORRECT_UNANSWERABLE, False),
            ("answerable", OUTCOME_CORRECT_ANSWER, False),
            ("answerable", OUTCOME_HALLUCINATION, True),
        ]
        records = []
        for n in range(60):
            cell = {"ansDepth": 2 + n % 3, "cutDepth": 1 + n % 2, "numVars": 4 + n % 5, "compositeName": n % 4 == 0}
            cell["order"] = ("forward", "random")[n % 7 % 2]
            variant, outcome, failed = outcomes[n % len(outcomes)]
            records.append(record(variant=variant, outcome=outcome, cell=cell, transport_failed=failed))
        for keys in (["ansDepth"], ["numVars", "ansDepth"], ["order", "compositeName", "cutDepth"], []):
            table = aggregate(records, keys)
            for cell in table.cells:
                mine = [r for r in records if all(r.config_cell[k] == v for k, v in cell.key.items())]
                kept = [r for r in mine if not r.transport_failed]
                assert (cell.n, cell.excluded) == (len(kept), len(mine) - len(kept))
                assert cell.hallucinations == sum(r.outcome == OUTCOME_HALLUCINATION for r in kept)
                assert cell.correct == sum(r.outcome == OUTCOME_CORRECT_ANSWER for r in kept)
            assert sum(cell.n + cell.excluded for cell in table.cells) == len(records)
            assert [c.key for c in table.cells] == sorted(
                (c.key for c in table.cells), key=lambda key: tuple(str(v) for v in key.values())
            )

    def test_unknown_group_key_rejected(self):
        with pytest.raises(InvalidConfigError, match="goldAnswer"):
            aggregate([record()], ["goldAnswer"])

    def test_repeated_group_key_rejected(self):
        with pytest.raises(InvalidConfigError, match="group key ansDepth is named more than once"):
            aggregate([record()], ["ansDepth", "cutDepth", "ansDepth"])


def series_rows(tmp_path, name: str) -> list[dict]:
    write_report([record()], ["ansDepth"], tmp_path)
    with (tmp_path / name).open() as fh:
        return list(csv.DictReader(fh))


class TestSeries:
    def test_structure_series_keys(self, tmp_path):
        rows = series_rows(tmp_path, "by_structure.csv")
        assert list(rows[0]) == ["ansDepth", "numVars", "compositeName", "nUnanswerable", "hallucinationRate"]

    def test_cutdepth_series_keys(self, tmp_path):
        rows = series_rows(tmp_path, "by_cut_depth.csv")
        assert list(rows[0]) == ["ansDepth", "cutDepth", "nUnanswerable", "hallucinationRate"]


class TestWriteReport:
    def test_emits_all_artifacts(self, tmp_path):
        records = [record(), record(variant="answerable", outcome=OUTCOME_CORRECT_ANSWER)]
        table = write_report(records, ["ansDepth"], tmp_path)
        assert (tmp_path / "metrics.txt").exists()
        assert json.loads((tmp_path / "metrics.json").read_text())["groupKeys"] == ["ansDepth"]
        with (tmp_path / "by_cut_depth.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["cutDepth"] == "4"
        with (tmp_path / "by_structure.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["compositeName"] == "True"
        assert len(table.cells) == 1
