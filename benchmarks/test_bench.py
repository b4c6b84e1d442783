"""Self-test of the benchmark at tiny size: output schema and correctness gate, not numbers.

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

PT = bench.import_package()
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_workload(pt, name, seed):
    cells = [
        pt.pipeline.GenConfig(num_vars=4, ans_depth=3, cut_depth=1, composite_name=False, count=2,
                              corpus_seed=11, order="random"),
        pt.pipeline.GenConfig(num_vars=12, ans_depth=6, cut_depth=4, composite_name=True, count=2,
                              corpus_seed=12, order="backward", question_phrasing="price-of"),
    ]
    pool = [replace(c, corpus_seed=c.corpus_seed + 100, count=3) for c in cells]
    return bench.Workload("tiny", cells, cells, pool, eval_seed=seed)


def run_tiny(monkeypatch, capsys, trace: int) -> tuple[int, dict]:
    monkeypatch.setattr(bench, "make_workload", tiny_workload)
    monkeypatch.setattr(bench, "SETUP_PROBES", 1)
    code = bench.main(["--workload", "corpus-small", "--seed", "5", "--seconds", "0.2", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def check_schema(result: dict, specs: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert sorted(result["metrics"]) == sorted(s["name"] for s in specs)
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == spec["unit"], spec["name"]
        assert isinstance(metric["value"], (int, float))


def test_spec_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(len(n) <= 64 for n in names)


def test_end_to_end_schema_and_gate_passes(monkeypatch, capsys):
    code, result = run_tiny(monkeypatch, capsys, trace=0)
    assert code == 0
    check_schema(result, SPEC["end_to_end"])
    assert result["correct"] is True and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_schema_and_exact_counts(monkeypatch, capsys):
    code, result = run_tiny(monkeypatch, capsys, trace=1)
    assert code == 0 and result["correct"] is True
    check_schema(result, SPEC["per_layer"])
    value = {name: m["value"] for name, m in result["metrics"].items()}
    assert value["oracle.solve_exact.generate.calls_per_unit"] == 4
    assert value["oracle.solve_exact.verify.calls_per_unit"] == 1
    assert value["wording.load_vocabulary.calls_per_corpus"] == 1
    assert value["pipeline.build_pair.generate.calls_per_unit"] == 1
    assert value["harness.transport.query_model.eval_few.calls_per_unit"] == 1
    assert value["oracle.label_confirmed_frac"] == 1
    assert value["trace.generate_slowdown"] > 0


def test_corrupted_corpus_line_fails_the_run(monkeypatch, capsys):
    original = PT.corpus_io.write_dataset

    def write_corrupted(dataset, path):
        original(dataset, path)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].replace("cost", "c0st", 1)
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    monkeypatch.setattr(PT.corpus_io, "write_dataset", write_corrupted)
    code, result = run_tiny(monkeypatch, capsys, trace=0)
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_wrong_scripted_tally_fails_the_run(monkeypatch, capsys):
    original = bench.script_responses

    def script_with_one_wrong_expectation(pt, instances, rng):
        responses, expected, flaky = original(pt, instances, rng)
        first = instances[0].id
        expected[first] = replace(expected[first], outcome="no_such_outcome")
        return responses, expected, flaky

    monkeypatch.setattr(bench, "script_responses", script_with_one_wrong_expectation)
    code, result = run_tiny(monkeypatch, capsys, trace=0)
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "corpus-small", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
