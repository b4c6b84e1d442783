"""Aggregation of scored records into tables and plot-ready CSV series.

Rates are exact fractions of the per-cell counts; formatting to one decimal
happens only at the output boundary.  Cells with no eligible records render
as missing, never as 0%.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional

from ..errors import InvalidConfigError
from ..jsonmap import write_text
from ..pipeline import ANSWERABLE
from .scoring import (
    GROUPABLE_KEYS,
    OUTCOME_CORRECT_ANSWER,
    OUTCOME_FALSE_UNANSWERABLE,
    OUTCOME_HALLUCINATION,
    VERDICT_UNPARSEABLE,
    EvalRecord,
)

MISSING = "—"  # em dash: a rate with no eligible records is missing, not 0%


def _rate(count: int, eligible: int) -> Optional[Fraction]:
    return Fraction(count, eligible) if eligible else None


@dataclass
class CellMetrics:
    key: dict
    n: int = 0
    n_unanswerable: int = 0
    hallucinations: int = 0
    n_answerable: int = 0
    correct: int = 0
    false_unanswerable: int = 0
    unparseable: int = 0
    excluded: int = 0

    @property
    def hallucination_rate(self) -> Optional[Fraction]:
        return _rate(self.hallucinations, self.n_unanswerable)

    @property
    def accuracy(self) -> Optional[Fraction]:
        return _rate(self.correct, self.n_answerable)

    @property
    def false_unanswerable_rate(self) -> Optional[Fraction]:
        return _rate(self.false_unanswerable, self.n_answerable)


@dataclass
class MetricsTable:
    group_keys: list[str]
    cells: list[CellMetrics] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "groupKeys": self.group_keys,
            "cells": [
                {
                    "key": cell.key,
                    "n": cell.n,
                    "nUnanswerable": cell.n_unanswerable,
                    "hallucinations": cell.hallucinations,
                    "hallucinationRate": _rate_float(cell.hallucination_rate),
                    "nAnswerable": cell.n_answerable,
                    "correct": cell.correct,
                    "accuracy": _rate_float(cell.accuracy),
                    "falseUnanswerable": cell.false_unanswerable,
                    "falseUnanswerableRate": _rate_float(cell.false_unanswerable_rate),
                    "unparseable": cell.unparseable,
                    "excluded": cell.excluded,
                }
                for cell in self.cells
            ],
        }


def _rate_float(rate: Optional[Fraction]) -> Optional[float]:
    return None if rate is None else float(rate)


def format_rate(rate: Optional[Fraction]) -> str:
    """"64.0%" style; missing cells render as a dash."""
    if rate is None:
        return MISSING
    return f"{float(rate) * 100:.1f}%"


def aggregate(records: Iterable[EvalRecord], group_by: list[str]) -> MetricsTable:
    """Group scored records by configuration keys and tally exact rates.

    Transport-failed records are excluded from every rate but counted per
    cell so the exclusion is visible.
    """
    return _roll_up(_tally(records), group_by)


def _tally(records: Iterable[EvalRecord]) -> dict[tuple, CellMetrics]:
    """The counts of each combination of all GROUPABLE_KEYS, in order of first record; each record is
    counted as it is taken, and none is kept."""
    cells: dict[tuple, CellMetrics] = {}
    for record in records:
        key_tuple = tuple(map(record.config_cell.get, GROUPABLE_KEYS))
        cell = cells.get(key_tuple)
        if cell is None:
            cell = cells[key_tuple] = CellMetrics(key=dict(zip(GROUPABLE_KEYS, key_tuple)))
        if record.transport_failed:
            cell.excluded += 1
            continue
        cell.n += 1
        if record.verdict == VERDICT_UNPARSEABLE:
            cell.unparseable += 1
        if record.variant == ANSWERABLE:
            cell.n_answerable += 1
            if record.outcome == OUTCOME_CORRECT_ANSWER:
                cell.correct += 1
            elif record.outcome == OUTCOME_FALSE_UNANSWERABLE:
                cell.false_unanswerable += 1
        else:
            cell.n_unanswerable += 1
            if record.outcome == OUTCOME_HALLUCINATION:
                cell.hallucinations += 1
    return cells


_COUNTS = [f.name for f in fields(CellMetrics) if f.name != "key"]


def _roll_up(tally: dict[tuple, CellMetrics], group_by: list[str]) -> MetricsTable:
    """Sum the cells of a tally that share their `group_by` values, sorted by those values."""
    bad = [k for k in group_by if k not in GROUPABLE_KEYS]
    if bad:
        raise InvalidConfigError(
            f"cannot group by {', '.join(bad)}; valid keys: {', '.join(GROUPABLE_KEYS)}"
        )
    repeated = [k for n, k in enumerate(group_by) if k in group_by[:n]]
    if repeated:
        raise InvalidConfigError(f"group key {repeated[0]} is named more than once")
    positions = [GROUPABLE_KEYS.index(k) for k in group_by]
    cells: dict[tuple, CellMetrics] = {}
    for fine_key, fine in tally.items():
        key_tuple = tuple(fine_key[i] for i in positions)
        cell = cells.get(key_tuple)
        if cell is None:
            cell = cells[key_tuple] = CellMetrics(key=dict(zip(group_by, key_tuple)))
        for name in _COUNTS:
            setattr(cell, name, getattr(cell, name) + getattr(fine, name))
    ordered = sorted(cells, key=lambda k: tuple(str(p) for p in k))
    return MetricsTable(group_keys=list(group_by), cells=[cells[k] for k in ordered])


def format_text_table(table: MetricsTable) -> str:
    """Aligned plain-text table, one row per cell."""
    headers = table.group_keys + [
        "n",
        "halluc%",
        "acc%",
        "falseUnk%",
        "unparseable",
        "excluded",
    ]
    rows = []
    for cell in table.cells:
        rows.append(
            [str(cell.key[k]) for k in table.group_keys]
            + [
                str(cell.n),
                format_rate(cell.hallucination_rate),
                format_rate(cell.accuracy),
                format_rate(cell.false_unanswerable_rate),
                str(cell.unparseable),
                str(cell.excluded),
            ]
        )
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]

    def line(cells: list[str]) -> str:
        # the last column is not padded, so no line ends in spaces
        return "  ".join([c.ljust(w) for c, w in zip(cells[:-1], widths)] + cells[-1:])

    return "\n".join(map(line, [headers, ["-" * w for w in widths], *rows]))


# file name -> the keys whose cells give one row of hallucination rate each
SERIES = {
    "by_structure.csv": ["ansDepth", "numVars", "compositeName"],
    "by_cut_depth.csv": ["ansDepth", "cutDepth"],
}


def write_report(records: Iterable[EvalRecord], group_by: list[str], out_dir: str | Path) -> MetricsTable:
    """Emit metrics.txt, metrics.json and the two plot-data CSV series; `records` is read once, before
    any file is written."""
    tally = _tally(records)  # one pass over the records; the table and each series roll it up
    table = _roll_up(tally, group_by)
    out = Path(out_dir)
    write_text(out / "metrics.txt", [format_text_table(table) + "\n"])
    write_text(out / "metrics.json", [json.dumps(table.to_json_dict(), ensure_ascii=False, indent=2) + "\n"])
    for name, keys in SERIES.items():
        cells = _roll_up(tally, keys).cells
        text = io.StringIO()  # csv.writer ends its rows with \r\n, written as they are
        if cells:  # no records, no header either
            writer = csv.writer(text)
            writer.writerow([*keys, "nUnanswerable", "hallucinationRate"])
            writer.writerows(
                [*cell.key.values(), cell.n_unanswerable, _rate_float(cell.hallucination_rate)] for cell in cells
            )
        write_text(out / name, [text.getvalue()])
    return table
