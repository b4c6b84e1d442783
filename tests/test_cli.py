from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pricetree
from pricetree import oracle
from pricetree.cli import main
from pricetree.corpus_io import read_dataset
from pricetree.errors import DatasetParseError
from pricetree.harness import scoring


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "numVars": 5,
                "ansDepth": 3,
                "cutDepth": 1,
                "compositeName": True,
                "order": "random",
                "count": 4,
            }
        ),
        encoding="utf-8",
    )
    return path


@pytest.fixture
def profile_file(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"endpoint": "http://localhost:1/none", "model": "stub"}))
    return path


def generate(tmp_path, config_file, seed=7):
    out = tmp_path / "corpus.jsonl"
    assert main(["generate", "--config", str(config_file), "--out", str(out), "--seed", str(seed)]) == 0
    return out


class TestGenerate:
    def test_writes_certified_corpus(self, tmp_path, config_file, capsys):
        out = generate(tmp_path, config_file)
        assert "wrote 8 instances" in capsys.readouterr().out
        dataset = read_dataset(out)
        assert dataset.config.corpus_seed == 7
        assert len(dataset.instances) == 8

    def test_seed_changes_bytes(self, tmp_path, config_file):
        first = generate(tmp_path, config_file, seed=7).read_text()
        second = generate(tmp_path, config_file, seed=8).read_text()
        assert first != second

    def test_rejects_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"numVars": 2, "ansDepth": 5, "cutDepth": 1, "compositeName": false}')
        code = main(["generate", "--config", str(bad), "--out", str(tmp_path / "x.jsonl"), "--seed", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_preset_writes_one_file_per_cell(self, tmp_path, capsys):
        out_dir = tmp_path / "grid"
        code = main(
            ["generate", "--preset", "table-main", "--out", str(out_dir), "--seed", "3", "--count", "1"]
        )
        assert code == 0
        files = sorted(p.name for p in out_dir.glob("*.jsonl"))
        assert files == [
            "d2_v4_c1_composite_random.jsonl",
            "d4_v6_c2_composite_random.jsonl",
            "d6_v8_c3_composite_random.jsonl",
            "d8_v10_c4_composite_random.jsonl",
        ]


    def test_preset_without_seed_uses_seed_zero(self, tmp_path):
        out_dir = tmp_path / "grid"
        assert main(["generate", "--preset", "table-main", "--out", str(out_dir), "--count", "1"]) == 0
        seeds = sorted(read_dataset(p).config.corpus_seed for p in out_dir.glob("*.jsonl"))
        assert seeds == [0, 1, 2, 3]

    def test_preset_count_zero_is_rejected(self, tmp_path, capsys):
        out_dir = tmp_path / "grid"
        code = main(["generate", "--preset", "table-main", "--out", str(out_dir), "--count", "0"])
        assert code == 1
        assert "count must be >= 1" in capsys.readouterr().err
        assert list(out_dir.glob("*")) == []

    def test_count_above_2_to_the_32_is_a_clean_error(self, tmp_path, config_file, capsys):
        out = tmp_path / "c.jsonl"
        assert main(["generate", "--config", str(config_file), "--out", str(out), "--count", str(2**32 + 1)]) == 1
        assert capsys.readouterr().err == "error: count must be <= 2**32, got 4294967297\n"
        assert not out.exists()

    def test_preset_fails_before_writing_any_file(self, tmp_path, capsys):
        # fig-structure asks for 10 simple-named items; the built-in vocabulary has 9 dishes
        out_dir = tmp_path / "grid"
        code = main(["generate", "--preset", "fig-structure", "--out", str(out_dir), "--count", "1"])
        assert code == 1
        assert "simple naming needs at least 10 dishes" in capsys.readouterr().err
        assert list(out_dir.glob("*")) == []

    def test_preset_out_naming_a_file_is_a_clean_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep", encoding="utf-8")
        code = main(["generate", "--preset", "table-main", "--out", str(taken), "--count", "1"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {taken}: cannot write (File exists)\n"
        assert taken.read_text(encoding="utf-8") == "keep"


    def test_config_out_in_a_new_directory_is_written(self, tmp_path, config_file, capsys):
        out = tmp_path / "new" / "c.jsonl"
        assert main(["generate", "--config", str(config_file), "--out", str(out)]) == 0
        assert f"wrote 8 instances to {out}" in capsys.readouterr().out
        assert len(read_dataset(out).instances) == 8

    def test_generating_over_the_same_path_gives_the_same_bytes(self, tmp_path, config_file):
        out = tmp_path / "out" / "c.jsonl"
        argv = ["generate", "--config", str(config_file), "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first
        assert [p.name for p in out.parent.iterdir()] == ["c.jsonl"]

    def test_config_out_under_a_file_is_a_clean_error(self, tmp_path, config_file, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep", encoding="utf-8")
        code = main(["generate", "--config", str(config_file), "--out", str(taken / "c.jsonl")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {taken}: cannot write (File exists)\n"
        assert taken.read_text(encoding="utf-8") == "keep"


class TestVerify:
    def test_clean_corpus_passes(self, tmp_path, config_file, capsys):
        out = generate(tmp_path, config_file)
        assert main(["verify", "--in", str(out)]) == 0
        assert "certified 8/8" in capsys.readouterr().out

    def test_tampered_gold_answer_fails(self, tmp_path, config_file, capsys):
        out = generate(tmp_path, config_file)
        lines = out.read_text().splitlines()
        record = json.loads(lines[1])
        assert record["variant"] == "answerable"
        record["goldAnswer"] = record["goldAnswer"] + 1
        lines[1] = json.dumps(record, ensure_ascii=False)
        out.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--in", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_tampered_label_fails(self, tmp_path, config_file):
        out = generate(tmp_path, config_file)
        lines = out.read_text().splitlines()
        record = json.loads(lines[1])
        record["variant"] = "unanswerable"
        record["id"] = record["id"].replace("-answerable", "-unanswerable")
        del record["goldAnswer"]
        lines[1] = json.dumps(record, ensure_ascii=False)
        out.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--in", str(out)]) == 1

    def test_path_solver_disagreement_tallied_once(self, tmp_path, config_file, capsys, monkeypatch):
        out = generate(tmp_path, config_file)

        def every_price_minus_one(formulas):  # agrees with neither variant's label
            named = {v for f in formulas for v in f.variables()}
            return {v: Fraction(-1) for v in named}, {v: v for v in named}

        monkeypatch.setattr(oracle, "solve_all", every_price_minus_one)
        assert main(["verify", "--in", str(out)]) == 1
        assert "certified 0/8 instances (0 label failures, 8 solver disagreements)" in capsys.readouterr().out

    def test_label_failure_on_formulas_that_are_not_a_forest_is_a_label_failure(self, tmp_path, capsys):
        # a second rootValue for the questioned variable makes the formulas inconsistent and
        # no forest, so the walk has no verdict; the label is what fails
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"numVars": 6, "ansDepth": 4, "cutDepth": 2, "compositeName": True, "count": 1}))
        out = tmp_path / "corpus.jsonl"
        assert main(["generate", "--config", str(config), "--out", str(out), "--seed", "3"]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        assert record["variant"] == "answerable"
        second = {"kind": "rootValue", "var": record["questionedVar"], "value": record["goldAnswer"] + 1}
        record["formulas"].append(second)
        lines[1] = json.dumps(record, ensure_ascii=False)
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", "--in", str(out)]) == 1
        assert capsys.readouterr().out == (
            "FAIL s3-p000000-answerable: label answerable but oracle says inconsistent\n"
            "certified 1/2 instances (1 label failures, 0 solver disagreements)\n"
        )

    @pytest.mark.parametrize(
        "field",
        ["parentCoeff", "itemMap key", "itemMap composite", "questionedVar", "conditionSentences", "goldAnswer", "id"],
    )
    def test_mistyped_corpus_field_names_the_line(self, tmp_path, config_file, capsys, field):
        # line 3 is an unanswerable instance, which a mistyped questionedVar used to leave certified
        out = generate(tmp_path, config_file)
        lines = out.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[2])
        assert record["variant"] == "unanswerable"
        if field == "parentCoeff":
            linear = next(f for f in record["formulas"] if f["kind"] == "linear")
            linear["parentCoeff"] = 1.5
        elif field == "itemMap key":
            names = record["itemMap"]["names"]
            names["one"] = names.pop("1")
        elif field == "itemMap composite":  # == line 2's itemMap, whose composite is true, but not its JSON
            record["itemMap"]["composite"] = 1
        elif field == "questionedVar":
            record["questionedVar"] = str(record["questionedVar"])
        elif field == "goldAnswer":  # such a line used to pass verify, and render printed the 7
            record["goldAnswer"] = 7
        elif field == "id":
            record["id"] = record["pairId"] + "-answerable"
        else:
            record["conditionSentences"] = "abc"
        lines[2] = json.dumps(record, ensure_ascii=False)
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetParseError, match="line 3"):
            read_dataset(out)
        assert main(["verify", "--in", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {out} line 3: ")

    def test_repeated_id_names_the_line(self, tmp_path, config_file, capsys):
        # line 2 appended again: verify would certify it twice and eval score it twice
        out = generate(tmp_path, config_file)
        lines = out.read_text(encoding="utf-8").splitlines()
        out.write_text("\n".join(lines + lines[1:2]) + "\n", encoding="utf-8")
        instance_id = json.loads(lines[1])["id"]
        capsys.readouterr()
        assert main(["verify", "--in", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out} line 10: id {instance_id!r} repeats line 2\n"


class TestRender:
    def test_prints_instance(self, tmp_path, config_file, capsys):
        out = generate(tmp_path, config_file)
        dataset = read_dataset(out)
        target = dataset.instances[1]
        assert main(["render", "--in", str(out), "--id", target.id]) == 0
        shown = capsys.readouterr().out
        assert target.full_text in shown
        assert "certification: confirmed" in shown

    def test_not_a_forest_gets_no_verdict(self, tmp_path, config_file, capsys):
        # a second statement of the questioned price keeps the elimination's verdict but is no forest
        out = generate(tmp_path, config_file)
        lines = out.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        assert record["variant"] == "answerable"
        questioned = record["questionedVar"]
        record["formulas"].append({"kind": "rootValue", "var": questioned, "value": record["goldAnswer"]})
        lines[1] = json.dumps(record, ensure_ascii=False)
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["render", "--in", str(out), "--id", record["id"]]) == 1
        shown = capsys.readouterr().out.splitlines()
        tree = shown[shown.index("root") : shown.index("root") + len(record["formulas"]) + 1]
        assert all(line.endswith(("no verdict", "no verdict  <- questioned")) for line in tree[1:]), tree
        assert not any("dollars" in line or "underdetermined" in line for line in tree)
        assert shown[-1] == "certification: FAILED (path solver: formulas are not a forest)"

    def test_questioned_variable_in_no_formula_is_its_own_component(self, tmp_path, config_file, capsys):
        # the root walk has no end for a variable that no formula names
        out = generate(tmp_path, config_file)
        lines = out.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[3])
        assert record["variant"] == "answerable"
        questioned = record["questionedVar"]
        record["formulas"] = [f for f in record["formulas"] if f.get("child") != questioned]
        assert not any(questioned in (f.get("var"), f.get("parent")) for f in record["formulas"])  # a leaf
        lines[3] = json.dumps(record, ensure_ascii=False)
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["render", "--in", str(out), "--id", record["id"]]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-1] == (
            "certification: FAILED (label answerable but oracle says underdetermined); "
            "component 1 variables / 0 formulas"
        )

    @pytest.mark.parametrize("command", ["verify", "render"])
    def test_formula_variable_missing_from_item_map_is_a_clean_error(
        self, tmp_path, config_file, capsys, command
    ):
        # such a line used to pass verify and end render in a KeyError traceback
        out = generate(tmp_path, config_file)
        lines = out.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        record["formulas"].append({"kind": "rootValue", "var": 99, "value": 7})
        lines[1] = json.dumps(record, ensure_ascii=False)
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = {"verify": ["verify", "--in", str(out)], "render": ["render", "--in", str(out), "--id", record["id"]]}
        capsys.readouterr()
        assert main(argv[command]) == 1
        assert capsys.readouterr().err == f"error: {out} line 2: variables not in itemMap.names: 99\n"

    def test_an_error_after_the_instance_is_the_error(self, tmp_path, config_file, capsys):
        # render keeps only the instance it prints but still reads every line: here line 2 repeated at the end
        out = generate(tmp_path, config_file)
        lines = out.read_text(encoding="utf-8").splitlines()
        out.write_text("\n".join(lines + lines[1:2]) + "\n", encoding="utf-8")
        instance_id = json.loads(lines[1])["id"]
        capsys.readouterr()
        assert main(["render", "--in", str(out), "--id", instance_id]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out} line 10: id {instance_id!r} repeats line 2\n"

    def test_unknown_id(self, tmp_path, config_file, capsys):
        out = generate(tmp_path, config_file)
        assert main(["render", "--in", str(out), "--id", "nope"]) == 1
        assert capsys.readouterr().err == f"error: no instance with id 'nope' in {out}\n"


class TestEvalAndReport:
    def test_mock_pipeline_end_to_end(self, tmp_path, config_file, profile_file, capsys):
        corpus = generate(tmp_path, config_file)
        records_path = tmp_path / "records.jsonl"
        code = main(
            [
                "eval",
                "--in", str(corpus),
                "--profile", str(profile_file),
                "--mode", "zero",
                "--transport", "mock:gold",
                "--out", str(records_path),
            ]
        )
        assert code == 0
        report_dir = tmp_path / "report"
        code = main(
            ["report", "--in", str(records_path), "--group", "ansDepth,cutDepth", "--out", str(report_dir)]
        )
        assert code == 0
        table = json.loads((report_dir / "metrics.json").read_text())
        (cell,) = table["cells"]
        assert cell["hallucinationRate"] == 0.0
        assert cell["accuracy"] == 1.0

    def test_report_lines_end_without_whitespace(self, tmp_path, config_file, profile_file, capsys):
        corpus = generate(tmp_path, config_file)
        records_path = tmp_path / "records.jsonl"
        args = ["--profile", str(profile_file), "--mode", "zero", "--transport", "mock:gold"]
        assert main(["eval", "--in", str(corpus), *args, "--out", str(records_path)]) == 0
        capsys.readouterr()
        report_dir = tmp_path / "report"
        argv = ["report", "--in", str(records_path), "--group", "ansDepth,cutDepth", "--out", str(report_dir)]
        assert main(argv) == 0
        stdout = capsys.readouterr().out.splitlines()
        metrics = (report_dir / "metrics.txt").read_text(encoding="utf-8").splitlines()
        assert len(metrics) == 3 and stdout[:3] == metrics
        for line in stdout + metrics:
            assert line == line.rstrip(), repr(line)

    def test_reporting_into_the_same_directory_gives_the_same_files(self, tmp_path, config_file, profile_file):
        corpus = generate(tmp_path, config_file)
        records_path = tmp_path / "records.jsonl"
        args = ["--profile", str(profile_file), "--mode", "zero", "--transport", "mock:gold"]
        assert main(["eval", "--in", str(corpus), *args, "--out", str(records_path)]) == 0
        report_dir = tmp_path / "rep"
        argv = ["report", "--in", str(records_path), "--group", "ansDepth,cutDepth", "--out", str(report_dir)]
        assert main(argv) == 0
        first = {p.name: p.read_bytes() for p in report_dir.iterdir()}
        assert main(argv) == 0
        assert {p.name: p.read_bytes() for p in report_dir.iterdir()} == first
        assert sorted(first) == ["by_cut_depth.csv", "by_structure.csv", "metrics.json", "metrics.txt"]

    def test_report_out_naming_a_file_is_a_clean_error(self, tmp_path, config_file, profile_file, capsys):
        corpus = generate(tmp_path, config_file)
        records_path = tmp_path / "records.jsonl"
        args = ["--profile", str(profile_file), "--mode", "zero", "--transport", "mock:gold"]
        assert main(["eval", "--in", str(corpus), *args, "--out", str(records_path)]) == 0
        taken = tmp_path / "taken"
        taken.write_text("keep", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--in", str(records_path), "--group", "ansDepth", "--out", str(taken)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {taken}: cannot write")
        assert taken.read_text(encoding="utf-8") == "keep"

    def test_eval_out_in_a_new_directory_is_written(self, tmp_path, config_file, profile_file):
        corpus = generate(tmp_path, config_file)
        records_path = tmp_path / "new" / "r.jsonl"
        args = ["--profile", str(profile_file), "--mode", "zero", "--transport", "mock:gold"]
        assert main(["eval", "--in", str(corpus), *args, "--out", str(records_path)]) == 0
        assert len(scoring.read_records(records_path)) == 8

    def test_eval_out_under_a_file_is_a_clean_error(self, tmp_path, config_file, profile_file, capsys, monkeypatch):
        corpus = generate(tmp_path, config_file)
        taken = tmp_path / "taken"
        taken.write_text("keep", encoding="utf-8")
        capsys.readouterr()

        def no_eval(*args, **kwargs):
            raise AssertionError("--out was checked only after the requests")

        monkeypatch.setattr("pricetree.cli.run_eval", no_eval)
        args = ["--profile", str(profile_file), "--mode", "zero", "--transport", "mock:gold"]
        assert main(["eval", "--in", str(corpus), *args, "--out", str(taken / "r.jsonl")]) == 1
        assert capsys.readouterr().err == f"error: {taken}: cannot write (File exists)\n"
        assert taken.read_text(encoding="utf-8") == "keep"

    def test_eval_out_naming_a_directory_is_a_clean_error(
        self, tmp_path, config_file, profile_file, capsys, monkeypatch
    ):
        # it used to run every request and only then fail to open the directory
        corpus = generate(tmp_path, config_file)
        outdir = tmp_path / "outdir"
        outdir.mkdir()
        capsys.readouterr()

        def no_eval(*args, **kwargs):
            raise AssertionError("--out was checked only after the requests")

        monkeypatch.setattr("pricetree.cli.run_eval", no_eval)
        args = ["--profile", str(profile_file), "--mode", "zero", "--transport", "mock:gold"]
        assert main(["eval", "--in", str(corpus), *args, "--out", str(outdir)]) == 1
        assert capsys.readouterr().err == f"error: {outdir}: cannot write (Is a directory)\n"
        assert list(outdir.iterdir()) == []

    def test_eval_unset_api_key_fails_before_any_request(self, tmp_path, config_file, capsys, monkeypatch):
        corpus = generate(tmp_path, config_file)
        monkeypatch.delenv("PRICETREE_UNSET_KEY", raising=False)
        profile = tmp_path / "live.json"
        live = {"endpoint": "http://127.0.0.1:9/", "model": "stub", "apiKeyEnv": "PRICETREE_UNSET_KEY"}
        profile.write_text(json.dumps(live), encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "r.jsonl"
        args = ["--profile", str(profile), "--mode", "zero", "--transport", "live", "--out", str(out)]
        assert main(["eval", "--in", str(corpus), *args]) == 1
        assert capsys.readouterr().err == "error: environment variable PRICETREE_UNSET_KEY is not set\n"
        assert not out.exists()

    def test_few_shot_pool_sharing_seed_fails(self, tmp_path, config_file, profile_file, capsys):
        corpus = generate(tmp_path, config_file)
        code = main(
            [
                "eval",
                "--in", str(corpus),
                "--profile", str(profile_file),
                "--mode", "few",
                "--pool", str(corpus),
                "--transport", "mock:unknown",
                "--out", str(tmp_path / "r.jsonl"),
            ]
        )
        assert code == 1
        assert "pool contains the target's pair" in capsys.readouterr().err

    def test_negative_seed_fails_before_any_request(self, tmp_path, config_file, profile_file, capsys, monkeypatch):
        corpus = generate(tmp_path, config_file)
        pool = tmp_path / "pool.jsonl"
        assert main(["generate", "--config", str(config_file), "--out", str(pool), "--seed", "8"]) == 0
        sent = []
        monkeypatch.setattr(scoring, "query_model", lambda *args: sent.append(args))
        out = tmp_path / "r.jsonl"
        capsys.readouterr()
        code = main(
            [
                "eval",
                "--in", str(corpus),
                "--profile", str(profile_file),
                "--mode", "few",
                "--pool", str(pool),
                "--transport", "mock:gold",
                "--seed", "-1",
                "--out", str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: evalSeed must be >= 0, got -1\n"
        assert sent == [] and not out.exists()

    def test_pool_without_few_mode_fails_before_reading_files(self, tmp_path, capsys):
        # no input exists: each argument error is reported before any file is opened
        out = tmp_path / "r.jsonl"
        pool = ["--pool", str(tmp_path / "missing-pool.jsonl")]
        for mode, extra, error in [
            ("zero", pool, "zero-shot mode takes no exemplar pool"),
            ("few", [], "few-shot mode needs an exemplar pool"),
            ("few", [*pool, "--seed", "-1"], "evalSeed must be >= 0, got -1"),
        ]:
            code = main(
                [
                    "eval",
                    "--in", str(tmp_path / "missing.jsonl"),
                    "--profile", str(tmp_path / "missing-profile.json"),
                    "--mode", mode,
                    *extra,
                    "--transport", "mock:gold",
                    "--out", str(out),
                ]
            )
            assert code == 1
            assert capsys.readouterr().err == f"error: {error}\n"
            assert not out.exists()

    @pytest.mark.parametrize(
        "spec, error",
        [
            ("replay:", "transport must be live, replay:<file> or mock:<name>, got 'replay:'"),
            ("mock:", "transport must be live, replay:<file> or mock:<name>, got 'mock:'"),
            ("bogus", "transport must be live, replay:<file> or mock:<name>, got 'bogus'"),
            ("mock:nope", "unknown mock 'nope', expected one of ('unknown', 'five', 'gold')"),
        ],
    )
    def test_bad_transport_spec_fails_before_reading_files(self, tmp_path, capsys, spec, error):
        # no input exists, and --out's directory is not made
        out = tmp_path / "nodir" / "r.jsonl"
        code = main(
            [
                "eval",
                "--in", str(tmp_path / "missing.jsonl"),
                "--profile", str(tmp_path / "missing-profile.json"),
                "--mode", "zero",
                "--transport", spec,
                "--out", str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.parent.exists()

    def test_replay_transport_round_trip(self, tmp_path, config_file, profile_file):
        corpus = generate(tmp_path, config_file)
        dataset = read_dataset(corpus)
        replay = tmp_path / "replay.jsonl"
        replay.write_text(
            "\n".join(
                json.dumps({"instanceId": inst.id, "responseText": "Answer: unknown."})
                for inst in dataset.instances
            ),
            encoding="utf-8",
        )
        records_path = tmp_path / "records.jsonl"
        code = main(
            [
                "eval",
                "--in", str(corpus),
                "--profile", str(profile_file),
                "--mode", "zero",
                "--transport", f"replay:{replay}",
                "--out", str(records_path),
            ]
        )
        assert code == 0
        records = [json.loads(line) for line in records_path.read_text().splitlines()]
        assert all(r["response"] == "Answer: unknown." for r in records)


# each command that reads a file, with the file under test standing in for one of its inputs
_FILE_INPUTS = {
    "verify --in": lambda p, bad: ["verify", "--in", bad],
    "render --in": lambda p, bad: ["render", "--in", bad, "--id", "x"],
    "eval --in": lambda p, bad: ["eval", "--in", bad, "--profile", p["profile"], "--mode", "zero",
                                 "--transport", "mock:gold", "--out", p["out"]],
    "report --in": lambda p, bad: ["report", "--in", bad, "--group", "ansDepth", "--out", p["out"]],
    "generate --config": lambda p, bad: ["generate", "--config", bad, "--out", p["out"]],
    "eval --profile": lambda p, bad: ["eval", "--in", p["corpus"], "--profile", bad, "--mode", "zero",
                                      "--transport", "mock:gold", "--out", p["out"]],
    "eval --pool": lambda p, bad: ["eval", "--in", p["corpus"], "--profile", p["profile"], "--mode", "few",
                                   "--pool", bad, "--transport", "mock:gold", "--out", p["out"]],
    "replay file": lambda p, bad: ["eval", "--in", p["corpus"], "--profile", p["profile"], "--mode", "zero",
                                   "--transport", f"replay:{bad}", "--out", p["out"]],
    "vocabulary file": lambda p, bad: ["generate", "--config", p["vocab_config"], "--out", p["out"]],
}


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_output_written_to_stdout_holds_only_its_json_lines(tmp_path, config_file, profile_file):
    """generate and eval print their summary line to stderr when --out is the file on stdout."""
    corpus, records = generate(tmp_path, config_file), tmp_path / "records.jsonl"
    eval_args = ["eval", "--in", str(corpus), "--profile", str(profile_file), "--mode", "zero"]
    eval_args += ["--transport", "mock:gold"]
    assert main([*eval_args, "--out", str(records)]) == 0
    src = str(Path(pricetree.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def lines(text: str) -> list:  # latencyMs is wall time
        return [{k: v for k, v in json.loads(line).items() if k != "latencyMs"} for line in text.splitlines()]

    for args, written, summary in (
        (["generate", "--config", str(config_file), "--seed", "7"], corpus, "wrote 8 instances to /dev/stdout\n"),
        (eval_args, records, "wrote 8 records to /dev/stdout (0 transport failures)\n"),
    ):
        run = subprocess.run(
            [sys.executable, "-m", "pricetree.cli", *args, "--out", "/dev/stdout"], capture_output=True, env=env
        )
        assert (run.returncode, run.stderr.decode()) == (0, summary)
        assert lines(run.stdout.decode()) == lines(written.read_text(encoding="utf-8"))


@pytest.mark.parametrize("state", ["missing", "not-utf8"])
@pytest.mark.parametrize("which", list(_FILE_INPUTS))
def test_unreadable_input_file_is_a_clean_error(tmp_path, config_file, profile_file, capsys, which, state):
    bad = tmp_path / "input.bad"
    if state == "not-utf8":
        bad.write_bytes(b"burger\n\xff\xfe\n")
    vocab_config = tmp_path / "vocab_config.json"
    vocab_config.write_text(json.dumps({**json.loads(config_file.read_text()), "dishVocab": str(bad)}))
    paths = {
        "corpus": str(generate(tmp_path, config_file)),
        "profile": str(profile_file),
        "vocab_config": str(vocab_config),
        "out": str(tmp_path / "out"),
    }
    capsys.readouterr()
    assert main(_FILE_INPUTS[which](paths, str(bad))) == 1
    err = capsys.readouterr().err
    expected = "cannot read" if state == "missing" else "line 2: not UTF-8"
    assert err.startswith(f"error: {bad}") and expected in err, err
    assert not (tmp_path / "out").exists()


def test_a_bad_byte_after_a_bad_instance_line_is_the_error_reported(tmp_path, config_file, capsys):
    # verify reads one line at a time; a file with a bad byte anywhere still fails as not UTF-8
    out = generate(tmp_path, config_file)
    lines = out.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].replace('"questionedVar": ', '"questionedVar": "x", "_": ')
    out.write_bytes(("\n".join(lines) + "\n").encode("utf-8") + b"\xff\n")
    capsys.readouterr()
    assert main(["verify", "--in", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {out} line 10: not UTF-8 (invalid start byte)\n")


@pytest.mark.parametrize("which", [which for which in _FILE_INPUTS if which != "vocabulary file"])
def test_too_deeply_nested_json_is_a_clean_error(tmp_path, config_file, profile_file, capsys, which):
    # nested past the recursion limit, a line once crashed the command with a RecursionError traceback
    bad = tmp_path / "input.bad"
    bad.write_text("[" * 100_000 + "\n", encoding="utf-8")
    paths = {"corpus": str(generate(tmp_path, config_file)), "profile": str(profile_file), "out": str(tmp_path / "out")}
    capsys.readouterr()
    assert main(_FILE_INPUTS[which](paths, str(bad))) == 1
    where = bad if which in ("generate --config", "eval --profile") else f"{bad} line 1"  # one object, or JSON Lines
    reason = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
    assert capsys.readouterr().err == f"error: {where}: {reason}\n"
    assert not (tmp_path / "out").exists()


# a value whose JSON type differs from the field's annotation, or that is out of the field's
# range, in a hand-written config or profile
_MISTYPED_FILES = {
    "compositeName": ("config", {"compositeName": "false"}, "compositeName must be bool, got str"),
    "numVars": ("config", {"numVars": 6.0}, "numVars must be int, got float"),
    "concurrency": ("profile", {"concurrency": "8"}, "concurrency must be int, got str"),
    "isReasoning": ("profile", {"isReasoning": "false"}, "isReasoning must be bool, got str"),
    "concurrency-0": ("profile", {"concurrency": 0}, "concurrency must be >= 1, got 0"),
    "maxRetries-negative": ("profile", {"maxRetries": -1}, "maxRetries must be >= 0, got -1"),
    "timeoutSeconds-0": ("profile", {"timeoutSeconds": 0}, "timeoutSeconds must be > 0 and <= 1e9, got 0"),
    "maxTokens-0": ("profile", {"maxTokens": 0}, "maxTokens must be >= 1, got 0"),
    "maxCompletionTokens-0": ("profile", {"maxCompletionTokens": 0}, "maxCompletionTokens must be >= 1, got 0"),
}


@pytest.mark.parametrize("key", list(_MISTYPED_FILES))
def test_mistyped_config_or_profile_value_is_a_clean_error(tmp_path, config_file, profile_file, capsys, key):
    which, change, message = _MISTYPED_FILES[key]
    good = config_file if which == "config" else profile_file
    bad = tmp_path / f"bad_{which}.json"
    bad.write_text(json.dumps({**json.loads(good.read_text()), **change}), encoding="utf-8")
    out = tmp_path / "out"
    if which == "config":
        argv = ["generate", "--config", str(bad), "--out", str(out)]
    else:
        corpus = generate(tmp_path, config_file)
        argv = ["eval", "--in", str(corpus), "--profile", str(bad), "--mode", "zero",
                "--transport", "mock:gold", "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not out.exists()


def _first_linear(record: dict) -> dict:
    return next(f for f in record["formulas"] if f["kind"] == "linear")


# a fault nested inside line 3 of a corpus or a records file, and the reason the error gives for it
_NESTED_FAULTS = {
    "formula rhs": ("corpus", lambda r: _first_linear(r).update(rhs="7"), "rhs must be int, got str"),
    "formula parentCoeff": (
        "corpus", lambda r: _first_linear(r).update(parentCoeff=True), "parentCoeff must be int, got bool"
    ),
    "item restaurant": (
        "corpus", lambda r: r["itemMap"]["names"]["1"].update(restaurant=5), "restaurant must be str, got int"
    ),
    "formula child": ("corpus", lambda r: _first_linear(r).pop("child"), "missing key 'child'"),
    "record value": ("records", lambda r: r.update(value=1.5), "value must be int, got float"),
}


@pytest.mark.parametrize("fault", list(_NESTED_FAULTS))
def test_nested_fault_names_the_line_and_key(tmp_path, config_file, profile_file, capsys, fault):
    which, mutate, reason = _NESTED_FAULTS[fault]
    path = generate(tmp_path, config_file)
    argv = ["verify", "--in", str(path)]
    if which == "records":
        corpus, path = path, tmp_path / "records.jsonl"
        assert main(["eval", "--in", str(corpus), "--profile", str(profile_file), "--mode", "zero",
                     "--transport", "mock:gold", "--out", str(path)]) == 0
        argv = ["report", "--in", str(path), "--group", "ansDepth", "--out", str(tmp_path / "report")]
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[2])
    mutate(record)
    lines[2] = json.dumps(record, ensure_ascii=False)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {path} line 3: {reason}\n"


@pytest.mark.parametrize("command", ["verify", "eval"])
@pytest.mark.parametrize(
    "config, shown",
    [([1], "[1]"), ({"ansDepth": [3]}, '{"ansDepth": [3]}')],
    ids=["list", "list-value"],
)
def test_metadata_config_must_be_an_object_of_scalars(
    tmp_path, config_file, profile_file, capsys, command, config, shown
):
    # eval groups records by the keys of metadata.config and report by their values, so a list
    # there used to pass verify and then crash eval (AttributeError) or report (TypeError)
    corpus = generate(tmp_path, config_file)
    lines = corpus.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record["metadata"]["config"] = config
    lines[1] = json.dumps(record, ensure_ascii=False)
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "records.jsonl"
    argv = {
        "verify": ["verify", "--in", str(corpus)],
        "eval": ["eval", "--in", str(corpus), "--profile", str(profile_file), "--mode", "zero",
                 "--transport", "mock:gold", "--out", str(out)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    reason = f"metadata.config must be an object of JSON scalars, got {shown}"
    assert capsys.readouterr().err == f"error: {corpus} line 2: {reason}\n"
    assert not out.exists()
