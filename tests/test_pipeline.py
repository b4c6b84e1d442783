from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError

import pytest

from pricetree.corpus_io import (
    dataset_from_lines,
    dataset_to_lines,
    load_gen_config,
    read_dataset,
    write_dataset,
)
from pricetree import oracle
from pricetree.cli import main
from pricetree.errors import CertificationError, DatasetParseError, InvalidConfigError
from pricetree.jsonmap import from_file_json, to_json
from pricetree.oracle import Determination, verify_instance
from pricetree.pipeline import (
    PRESET_NAMES,
    GenConfig,
    cell_label,
    generate_corpus,
    generate_pair,
    preset,
)
from pricetree.wording import render_gold_solution

from factories import make_config


class TestGenConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(ans_depth=1, cut_depth=0),
            dict(num_vars=2, ans_depth=3, cut_depth=1),
            dict(cut_depth=0),
            dict(cut_depth=3),
            dict(count=0),
            dict(order="shuffled"),
            dict(question_phrasing="riddle"),
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(InvalidConfigError):
            make_config(**overrides)

    def test_frozen_and_hashable(self):
        # checked only in __post_init__, and used as a dict key
        config = make_config()
        with pytest.raises(FrozenInstanceError):
            config.cut_depth = 0
        assert {config: 1}[make_config()] == 1

    def test_json_round_trip(self):
        config = make_config(composite_name=True, order="random")
        assert from_file_json(GenConfig, to_json(config), "config") == config

    def test_unknown_keys_rejected(self):
        data = to_json(make_config())
        data["numvars"] = 3
        with pytest.raises(InvalidConfigError, match="numvars"):
            from_file_json(GenConfig, data, "config")

    def test_missing_keys_reported(self):
        with pytest.raises(InvalidConfigError, match="cutDepth"):
            from_file_json(GenConfig, {"numVars": 4, "ansDepth": 3, "compositeName": True}, "config")


class TestGeneratePair:
    def test_same_inputs_same_bytes(self):
        config = make_config(order="random", composite_name=True)
        first = generate_pair(config, 3)
        second = generate_pair(config, 3)
        assert [to_json(i) for i in first] == [to_json(i) for i in second]

    def test_pair_delta_is_exactly_one_sentence(self):
        for index in range(30):
            config = make_config(num_vars=7, ans_depth=4, cut_depth=2, order="random", count=1)
            answerable, unanswerable = generate_pair(config, index)
            ans = list(answerable.condition_sentences)
            una = list(unanswerable.condition_sentences)
            assert len(una) == len(ans) - 1
            missing = [s for s in ans if s not in una]
            assert len(missing) == 1
            # order preserved around the removed sentence
            assert una == [s for s in ans if s != missing[0]]
            assert answerable.pair_id == unanswerable.pair_id
            assert answerable.item_map == unanswerable.item_map

    def test_shared_metadata_and_cut_edge(self):
        config = make_config(num_vars=6, ans_depth=4, cut_depth=2)
        answerable, unanswerable = generate_pair(config, 0)
        assert answerable.metadata == unanswerable.metadata
        assert answerable.metadata["cutEdge"] == {"parent": 1, "child": 2}
        assert answerable.metadata["config"]["numVars"] == 6

    def test_gold_answer_in_price_range(self):
        for index in range(20):
            answerable, unanswerable = generate_pair(make_config(count=1), index)
            assert 5 <= answerable.gold_answer <= 15
            assert unanswerable.gold_answer is None

    def test_label_not_confirmed_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "solve_exact", lambda formulas, target: Determination.underdetermined())
        with pytest.raises(CertificationError, match="label answerable but oracle says underdetermined"):
            generate_pair(make_config(), 0)


class TestEliminationCount:
    """Each label is certified once: one exact elimination per instance.

    The root walk runs once per certified instance, generated, verified or
    rendered: the gold text and `render` read the walk `verify_instance` made.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        # count through every module that imported a function, not just the oracle
        calls = {"solve_exact": [], "solve_all": []}
        for name, log in calls.items():
            original = getattr(oracle, name)

            def counted(*args, original=original, log=log, **kwargs):
                log.append(args)
                return original(*args, **kwargs)

            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] != "pricetree" or module is None:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        return calls

    def test_two_per_generated_pair(self, calls):
        generate_corpus(make_config(num_vars=7, ans_depth=4, cut_depth=2, count=5))
        assert len(calls["solve_exact"]) == 2 * 5
        assert len(calls["solve_all"]) == 2 * 5

    def test_one_per_verified_instance(self, calls):
        dataset = generate_corpus(make_config(count=3))
        for log in calls.values():
            log.clear()
        for instance in dataset.instances:
            assert verify_instance(instance).label_confirmed
        assert len(calls["solve_exact"]) == len(dataset.instances)
        assert len(calls["solve_all"]) == len(dataset.instances)

    @pytest.mark.parametrize("variant", ["answerable", "unanswerable"])
    def test_one_per_render(self, calls, tmp_path, capsys, variant):
        path = tmp_path / "corpus.jsonl"
        write_dataset(generate_corpus(make_config(count=2)), path)
        for log in calls.values():
            log.clear()
        assert main(["render", "--in", str(path), "--id", f"s11-p000001-{variant}"]) == 0
        assert "certification: confirmed" in capsys.readouterr().out
        assert len(calls["solve_exact"]) == 1
        assert len(calls["solve_all"]) == 1


# (numVars, ansDepth, cutDepth, compositeName, order): small to 45/40, both orders, and simple
# names up to the 9 built-in dishes
GOLD_SHAPES = [
    (4, 2, 1, False, "forward"),
    (9, 8, 7, False, "random"),
    (10, 8, 4, True, "random"),
    (45, 8, 3, True, "forward"),
    (45, 40, 20, True, "random"),
    (45, 40, 1, True, "random"),
]


@pytest.mark.parametrize("shape", GOLD_SHAPES, ids=["-".join(map(str, shape)) for shape in GOLD_SHAPES])
def test_gold_text_from_the_certification_walk_equals_one_from_a_fresh_walk(shape):
    num_vars, ans_depth, cut_depth, composite, order = shape
    config = make_config(
        num_vars=num_vars, ans_depth=ans_depth, cut_depth=cut_depth, composite_name=composite, order=order, count=3
    )
    for instance in generate_corpus(config).instances:
        fresh = render_gold_solution(
            instance.formulas,
            instance.condition_sentences,
            instance.item_map,
            instance.questioned_var,
            oracle.solve_all(instance.formulas),
        )
        assert instance.gold_solution_text == fresh


class TestGenerateCorpus:
    def test_counts(self):
        dataset = generate_corpus(make_config(count=5))
        assert len(dataset.instances) == 10
        assert dataset.certification["failures"] == 0

    def test_singleton(self):
        dataset = generate_corpus(make_config(count=1))
        assert [i.variant for i in dataset.instances] == ["answerable", "unanswerable"]

    def test_order_insensitive_sub_seeds(self):
        config = make_config(count=6, order="random")
        corpus = generate_corpus(config)
        shuffled_indices = [4, 0, 5, 2, 1, 3]
        regenerated = []
        for index in shuffled_indices:
            regenerated.extend(generate_pair(config, index))
        corpus_lines = sorted(json.dumps(to_json(i)) for i in corpus.instances)
        region_lines = sorted(json.dumps(to_json(i)) for i in regenerated)
        assert corpus_lines == region_lines

    def test_parallel_generation_matches_sequential(self):
        # per-index sub-streams make pairs independent, so any degree of
        # generation parallelism must give the same corpus
        config = make_config(count=12, order="random", composite_name=True)
        sequential = generate_corpus(config).instances
        with ThreadPoolExecutor(max_workers=6) as executor:
            pairs = list(executor.map(lambda i: generate_pair(config, i), range(config.count)))
        parallel = [inst for pair in pairs for inst in pair]
        assert parallel == sequential


class TestSerialization:
    def test_round_trip_identity(self):
        dataset = generate_corpus(make_config(count=4, composite_name=True, order="random"))
        lines = dataset_to_lines(dataset)
        back = dataset_from_lines(lines)
        assert back.config == dataset.config
        assert back.instances == dataset.instances
        assert back.certification == dataset.certification

    def test_file_round_trip_and_unanswerable_field_absence(self, tmp_path):
        dataset = generate_corpus(make_config(count=2))
        path = tmp_path / "corpus.jsonl"
        write_dataset(dataset, path)
        for line in path.read_text().splitlines()[1:]:
            record = json.loads(line)
            if record["variant"] == "unanswerable":
                assert "goldAnswer" not in record
            else:
                assert isinstance(record["goldAnswer"], int)
        back = read_dataset(path).instances
        assert back == dataset.instances
        for instances in (dataset.instances, back):  # the twins of a pair share one ItemMap, read or generated
            assert [a.item_map is u.item_map for a, u in zip(instances[::2], instances[1::2])] == [True, True]
        # and a read file's lines share one ItemName per distinct name
        names = [name for instance in back for name in instance.item_map.names.values()]
        assert len(set(map(id, names))) == len({(n.dish, n.plural, n.restaurant) for n in names})

    def test_truncated_line_names_the_line(self, tmp_path):
        dataset = generate_corpus(make_config(count=2))
        path = tmp_path / "corpus.jsonl"
        lines = dataset_to_lines(dataset)
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(DatasetParseError, match=f"line {len(lines)}"):
            read_dataset(path)

    def test_missing_header_rejected(self):
        dataset = generate_corpus(make_config(count=1))
        lines = dataset_to_lines(dataset)[1:]
        with pytest.raises(DatasetParseError, match="schemaVersion"):
            dataset_from_lines(lines)

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_schema_version_must_be_the_int(self, version):
        # True == 1 and 1.0 == 1 in Python, so both once passed a `!=` check
        lines = dataset_to_lines(generate_corpus(make_config(count=1)))
        header = json.loads(lines[0])
        header["schemaVersion"] = version
        lines[0] = json.dumps(header)
        with pytest.raises(DatasetParseError) as caught:
            dataset_from_lines(lines, "corpus.jsonl")
        assert str(caught.value) == f"corpus.jsonl line 1: expected schemaVersion 1, got {version!r}"

    @pytest.mark.parametrize("key", ["config", "certification"])
    @pytest.mark.parametrize("value", [None, 5], ids=["missing", "not-an-object"])
    def test_bad_header_section_names_line_one(self, key, value):
        header = json.loads(dataset_to_lines(generate_corpus(make_config(count=1)))[0])
        if value is None:
            del header[key]
        else:
            header[key] = value
        with pytest.raises(DatasetParseError, match=f"line 1: header '{key}'"):
            dataset_from_lines([json.dumps(header)])

    @pytest.mark.parametrize("config", [{"numVars": 3}, {**to_json(make_config()), "ansDepth": 0}])
    def test_invalid_header_config_names_line_one(self, config):
        header = json.loads(dataset_to_lines(generate_corpus(make_config(count=1)))[0])
        header["config"] = config
        with pytest.raises(DatasetParseError, match="corpus.jsonl line 1: invalid header config"):
            dataset_from_lines([json.dumps(header)], source="corpus.jsonl")

    def test_unknown_variant_names_the_line(self):
        lines = dataset_to_lines(generate_corpus(make_config(count=2)))
        record = json.loads(lines[3])
        record["variant"] = "answerabel"
        lines[3] = json.dumps(record)
        with pytest.raises(DatasetParseError, match="line 4: unknown variant 'answerabel'"):
            dataset_from_lines(lines)


class TestConfigFile:
    def test_load_flat_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "numVars": 6,
                    "ansDepth": 4,
                    "cutDepth": 2,
                    "compositeName": True,
                    "order": "backward",
                    "count": 3,
                    "corpusSeed": 99,
                }
            ),
            encoding="utf-8",
        )
        config = load_gen_config(path)
        assert config == GenConfig(
            num_vars=6,
            ans_depth=4,
            cut_depth=2,
            composite_name=True,
            order="backward",
            count=3,
            corpus_seed=99,
        )

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"numVars": 4, "ansDepth": 3, "cutDepth": 1, "compositeName": false, "typo": 1}')
        with pytest.raises(InvalidConfigError, match="typo"):
            load_gen_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(InvalidConfigError):
            load_gen_config(path)


class TestPresets:
    def test_structure_grid_has_twenty_cells(self):
        cells = preset("fig-structure", corpus_seed=0, count=500)
        assert len(cells) == 20
        assert {c.ans_depth for c in cells} == {4, 5, 6, 7, 8}
        for cell in cells:
            assert cell.cut_depth == cell.ans_depth // 2
            assert cell.num_vars in (cell.ans_depth, cell.ans_depth + 2)
        assert len({cell_label(c) for c in cells}) == 20
        assert len({c.corpus_seed for c in cells}) == 20

    def test_structure_depth_seven_uses_cut_three(self):
        cells = [c for c in preset("fig-structure") if c.ans_depth == 7]
        assert cells and all(c.cut_depth == 3 for c in cells)

    def test_cutdepth_sweep(self):
        cells = preset("fig-cutdepth", corpus_seed=5)
        depth8 = [c.cut_depth for c in cells if c.ans_depth == 8]
        assert depth8 == list(range(1, 8))
        depth7 = [c.cut_depth for c in cells if c.ans_depth == 7]
        assert depth7 == list(range(1, 7))

    def test_main_table_grid(self):
        cells = preset("table-main", count=500)
        assert [c.ans_depth for c in cells] == [2, 4, 6, 8]
        assert all(c.count == 500 for c in cells)
        assert all(c.num_vars == c.ans_depth + 2 for c in cells)
        assert all(c.composite_name for c in cells)
        assert cells[0].cut_depth == 1  # the shallowest grid cell only admits one cut

    def test_unknown_preset_rejected(self):
        with pytest.raises(InvalidConfigError):
            preset("everything")

    # (numVars, ansDepth, cutDepth, compositeName, corpusSeed) of each cell at seed 7: the order sets the seeds
    PINNED = {
        "table-main": [(4, 2, 1, True, 7), (6, 4, 2, True, 8), (8, 6, 3, True, 9), (10, 8, 4, True, 10)],
        "fig-structure": [
            (4, 4, 2, False, 7), (4, 4, 2, True, 8), (6, 4, 2, False, 9), (6, 4, 2, True, 10),
            (5, 5, 2, False, 11), (5, 5, 2, True, 12), (7, 5, 2, False, 13), (7, 5, 2, True, 14),
            (6, 6, 3, False, 15), (6, 6, 3, True, 16), (8, 6, 3, False, 17), (8, 6, 3, True, 18),
            (7, 7, 3, False, 19), (7, 7, 3, True, 20), (9, 7, 3, False, 21), (9, 7, 3, True, 22),
            (8, 8, 4, False, 23), (8, 8, 4, True, 24), (10, 8, 4, False, 25), (10, 8, 4, True, 26),
        ],
        "fig-cutdepth": [
            (9, 7, 1, True, 7), (9, 7, 2, True, 8), (9, 7, 3, True, 9), (9, 7, 4, True, 10),
            (9, 7, 5, True, 11), (9, 7, 6, True, 12), (10, 8, 1, True, 13), (10, 8, 2, True, 14),
            (10, 8, 3, True, 15), (10, 8, 4, True, 16), (10, 8, 5, True, 17), (10, 8, 6, True, 18),
            (10, 8, 7, True, 19),
        ],
    }

    @pytest.mark.parametrize("name", PINNED)
    def test_grid_cells_and_seeds_are_pinned(self, name):
        cells = preset(name, corpus_seed=7, count=3)
        assert [(c.num_vars, c.ans_depth, c.cut_depth, c.composite_name, c.corpus_seed) for c in cells] == self.PINNED[name]
        assert all(c.count == 3 for c in cells)
        assert PRESET_NAMES == tuple(self.PINNED)
