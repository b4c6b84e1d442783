"""Byte pins: corpus, eval-record and report files, prompt texts and `render` output.

Each is a pure function of (config, seed).  A refactor must leave these
digests unchanged.  Only a deliberate format change, which also bumps
SCHEMA_VERSION, may re-pin them.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import replace

from pricetree.cli import main

from pricetree.corpus_io import SCHEMA_VERSION, dataset_from_lines, dataset_to_lines, write_dataset
from pricetree.formulas import CONDITION_ORDERS
from pricetree.harness.prompts import FewShotPool, build_few_shot_prompt, build_zero_shot_prompt
from pricetree.harness.report import write_report
from pricetree.harness.scoring import read_records, run_eval, write_records
from pricetree.harness.transport import ReplayTransport
from pricetree.jsonmap import LONG_TEXT
from pricetree.pipeline import GenConfig, generate_corpus
from pricetree.wording import DEFAULT_DISHES, QUESTION_PHRASINGS

from factories import make_corpus, make_profile

CORPUS_SHA256 = "10101f603fb8b9fb64d5a7589d703726332fd2272b2ee174a685796f92ba9334"
RECORDS_SHA256 = "c7fe98782549996e1b6b2cbdfa5725791c5ded77053e43a41d442a1ef71e48b3"
LONG_RECORDS_SHA256 = "605aaad7654851526f11c1aa62d85de2b3524bca1ff1343a793b035a20361b38"
METRICS_SHA256 = "538184bb5e1fa5e206bf0a41e009879ce52e58f2b1c45c962f3f450e77feedcb"
METRICS_TXT_SHA256 = "3b20d38df4a065ba5673001ea6d561cf4b21fe0060673447c83d592c441957ca"
RENDER_SHA256 = "a60513543a4eedfa7681d5fc08c49ea5658d43bf067601038a2ab3251105d6f7"
PROMPTS_SHA256 = "02f9b7e41d03460ea99f75f0be6aff52dd3a3f3fe6796a20777033bf32d71330"
SERIES_SHA256 = {
    "by_structure.csv": "b7dc80e67052aabcd3a173b4040a1c8c8dd2d60a48b42b3a53218656955900f3",
    "by_cut_depth.csv": "340b15999ab55669febd506ab97881a69d3b860ced73b740db94e4aff71beff3",
}


def digest_grid() -> list[GenConfig]:
    """Depths 2..8, widths d and d+2, every cut, both namings, orders and phrasings."""
    shapes = [
        (num_vars, depth, cut, composite)
        for depth in range(2, 9)
        for num_vars in (depth, depth + 2)
        for cut in range(1, depth)
        for composite in (False, True)
        if composite or num_vars <= len(DEFAULT_DISHES)
    ]
    cells = [
        dict(num_vars=v, ans_depth=d, cut_depth=c, composite_name=comp, order=o, question_phrasing=q)
        for (v, d, c, comp), o, q in itertools.product(shapes, CONDITION_ORDERS, QUESTION_PHRASINGS)
    ]
    cells += [
        dict(num_vars=45, ans_depth=8, cut_depth=4, composite_name=True, order="random"),
        dict(num_vars=45, ans_depth=40, cut_depth=20, composite_name=True, order="random"),
    ]
    return [GenConfig(count=2, corpus_seed=seed, **cell) for seed, cell in enumerate(cells)]


def test_schema_version_is_pinned():
    assert SCHEMA_VERSION == 1


def test_corpus_bytes_are_pinned_and_reserialize(tmp_path):
    grid = digest_grid()
    assert len(grid) == 632
    digest = hashlib.sha256()
    file_digest = hashlib.sha256()
    path = tmp_path / "corpus.jsonl"
    for config in grid:
        dataset = generate_corpus(config)
        lines = dataset_to_lines(dataset)
        assert dataset_to_lines(dataset_from_lines(lines)) == lines, config
        digest.update(("\n".join(lines) + "\n").encode("utf-8"))
        write_dataset(dataset, path)
        file_digest.update(path.read_bytes())
    assert digest.hexdigest() == CORPUS_SHA256
    # a corpus file is its lines, each ended by "\n", so the files hash alike
    assert file_digest.hexdigest() == CORPUS_SHA256


def _scripted_responses(dataset) -> dict[str, str]:
    """Every outcome bucket once in a while; the last instance has no response."""
    responses = {}
    for k, inst in enumerate(dataset.instances[:-1]):
        gold = inst.gold_answer if inst.gold_answer is not None else 9
        responses[inst.id] = (
            "Answer: unknown.",
            f"Working through the facts. Answer: {gold}",
            f"The answer is ${gold + 1},000.",
            "I cannot tell.",
            "answer: 12.5",
        )[k % 5]
    return responses


def _pinned_records():
    """Zero- and few-shot replay records of one corpus, with wall-time latency set to 0."""
    corpus = make_corpus(num_vars=6, ans_depth=4, cut_depth=2, composite_name=True, order="random", count=6)
    pool = make_corpus(corpus_seed=12, count=4)
    transport = ReplayTransport(_scripted_responses(corpus))
    profile = make_profile(concurrency=1, max_retries=0)
    records = run_eval(corpus, profile, "zero", transport)
    records += run_eval(corpus, profile, "few", transport, pool=pool, eval_seed=3)
    # latency is wall time, the one field that is not a function of the inputs
    return [replace(r, latency_ms=None if r.transport_failed else 0.0) for r in records]


def test_record_bytes_are_pinned_and_reserialize(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(_pinned_records(), path)
    again = tmp_path / "again.jsonl"
    write_records(read_records(path), again)
    assert again.read_bytes() == path.read_bytes()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RECORDS_SHA256


def _long_responses(dataset) -> dict[str, str]:
    """Multi-line worked replies of 2-8 KB, as a model writes them, in every outcome bucket.

    Each holds newlines and quotes; every second one also backslashes, and
    every third one tabs and carriage returns as well.
    """
    responses = {}
    for k, inst in enumerate(dataset.instances):
        gold = inst.gold_answer if inst.gold_answer is not None else 9
        steps = [f'Step {n}: "{sentence}"' for n, sentence in enumerate(inst.condition_sentences, start=1)]
        if k % 2:
            steps = [f"{step} So \\(x_{n}\\) is fixed." for n, step in enumerate(steps)]
        if k % 3 == 2:
            steps = [f"\t{step}\r" for step in steps]
        tail = ("Answer: unknown.", f"Answer: {gold}", f"The answer is ${gold + 1},000.", "I cannot tell.")[k % 4]
        responses[inst.id] = "\n".join(steps * (2 + k % 5)) + f"\n\n{tail}"
    return responses


def test_long_response_record_bytes_are_pinned(tmp_path):
    corpus = make_corpus(num_vars=12, ans_depth=8, cut_depth=4, composite_name=True, order="random", count=6)
    responses = _long_responses(corpus)
    assert min(map(len, responses.values())) > LONG_TEXT
    records = run_eval(corpus, make_profile(concurrency=1, max_retries=0), "zero", ReplayTransport(responses))
    path = tmp_path / "records.jsonl"
    write_records([replace(r, latency_ms=0.0) for r in records], path)
    assert read_records(path) == [replace(r, latency_ms=0.0) for r in records]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LONG_RECORDS_SHA256


def test_report_bytes_are_pinned(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(_pinned_records(), path)
    write_report(read_records(path), ["ansDepth", "cutDepth"], tmp_path / "report")
    metrics = (tmp_path / "report" / "metrics.json").read_bytes()
    assert hashlib.sha256(metrics).hexdigest() == METRICS_SHA256
    text = (tmp_path / "report" / "metrics.txt").read_bytes()
    assert hashlib.sha256(text).hexdigest() == METRICS_TXT_SHA256
    for name, expected in SERIES_SHA256.items():
        assert hashlib.sha256((tmp_path / "report" / name).read_bytes()).hexdigest() == expected, name


def test_prompt_texts_are_pinned():
    # the hallucination rates rest on this exact wording: zero- and few-shot, with and without reasoning
    corpus = make_corpus(num_vars=6, ans_depth=4, cut_depth=2, composite_name=True, order="random", count=3)
    pool = FewShotPool.prepare(make_corpus(corpus_seed=12, count=4), corpus)
    digest = hashlib.sha256()
    for is_reasoning in (False, True):
        profile = make_profile(is_reasoning=is_reasoning)
        for instance, order in zip(corpus.instances, pool.orders(5, len(corpus.instances))):
            few = build_few_shot_prompt(instance, pool, order, profile)
            for messages in (build_zero_shot_prompt(instance, profile), few.messages):
                for message in messages:
                    digest.update(f"{message.role}\0{message.content}\0".encode("utf-8"))
                digest.update(b"\1")
            digest.update(("\0".join(few.exemplar_ids) + "\1").encode("utf-8"))
    assert digest.hexdigest() == PROMPTS_SHA256


def test_render_output_is_pinned(tmp_path, capsys):
    # every 40th grid cell and the two 45-variable ones; both variants of each first pair
    grid = digest_grid()
    digest = hashlib.sha256()
    path = tmp_path / "corpus.jsonl"
    for config in grid[::40] + grid[-2:]:
        write_dataset(generate_corpus(replace(config, count=1)), path)
        for variant in ("answerable", "unanswerable"):
            assert main(["render", "--in", str(path), "--id", f"s{config.corpus_seed}-p000000-{variant}"]) == 0
            digest.update(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == RENDER_SHA256
