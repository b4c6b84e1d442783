from __future__ import annotations

import json

import pytest

from pricetree.errors import DatasetParseError, InvalidConfigError, TransportError
from pricetree.jsonmap import from_json, to_json
from pricetree.harness.scoring import (
    OUTCOME_CORRECT_ANSWER,
    OUTCOME_CORRECT_UNANSWERABLE,
    OUTCOME_FALSE_UNANSWERABLE,
    OUTCOME_HALLUCINATION,
    OUTCOME_WRONG_ANSWER,
    VERDICT_NUMBER,
    VERDICT_UNKNOWN,
    VERDICT_UNPARSEABLE,
    EvalRecord,
    ParsedAnswer,
    extract_answer,
    read_records,
    run_eval,
    score_outcome,
    write_records,
)
from pricetree.harness.transport import ReplayTransport, mock_responses

from factories import make_corpus, make_profile


class TestExtractAnswer:
    def test_unknown_after_trigger(self):
        parsed = extract_answer("Some reasoning.\nAnswer: unknown.")
        assert parsed.verdict == VERDICT_UNKNOWN

    def test_plain_number(self):
        assert extract_answer("...\nAnswer: 6") == ParsedAnswer(VERDICT_NUMBER, 6, ": 6")

    def test_unknown_before_last_trigger_is_ignored(self):
        parsed = extract_answer("the answer is unknown in general. Final Answer: 12")
        assert parsed.verdict == VERDICT_NUMBER and parsed.value == 12

    def test_unknown_after_last_trigger_wins_over_numbers(self):
        parsed = extract_answer("answer: 5 ... actually it is unknown")
        assert parsed.verdict == VERDICT_UNKNOWN

    def test_case_insensitive(self):
        assert extract_answer("ANSWER: UNKNOWN!!").verdict == VERDICT_UNKNOWN
        assert extract_answer("AnSwEr: 42").value == 42

    def test_no_trigger_is_unparseable(self):
        assert extract_answer("I refuse to engage.").verdict == VERDICT_UNPARSEABLE

    def test_currency_commas_and_trailing_period(self):
        assert extract_answer("Answer: $14.").value == 14
        assert extract_answer("Answer: 1,200 dollars").value == 1200

    def test_non_integer_is_unparseable(self):
        assert extract_answer("Answer: 6.5").verdict == VERDICT_UNPARSEABLE

    def test_integral_decimal_accepted(self):
        assert extract_answer("Answer: 6.00") == ParsedAnswer(VERDICT_NUMBER, 6, ": 6.00")

    def test_trigger_with_no_usable_tail(self):
        assert extract_answer("Answer: x").verdict == VERDICT_UNPARSEABLE

    def test_total_on_empty_input(self):
        assert extract_answer("").verdict == VERDICT_UNPARSEABLE

    def test_lowercasing_is_idempotent(self):
        text = "ANSWER: Unknown."
        assert extract_answer(text) == extract_answer(text.lower())


class TestScoreOutcome:
    def test_unanswerable_number_is_hallucination(self):
        parsed = ParsedAnswer(VERDICT_NUMBER, 11)
        assert score_outcome("unanswerable", None, parsed) == OUTCOME_HALLUCINATION

    def test_unanswerable_unparseable_is_hallucination(self):
        parsed = ParsedAnswer(VERDICT_UNPARSEABLE)
        assert score_outcome("unanswerable", None, parsed) == OUTCOME_HALLUCINATION

    def test_unanswerable_unknown_is_correct(self):
        parsed = ParsedAnswer(VERDICT_UNKNOWN)
        assert score_outcome("unanswerable", None, parsed) == OUTCOME_CORRECT_UNANSWERABLE

    def test_answerable_gold_match(self):
        assert score_outcome("answerable", 11, ParsedAnswer(VERDICT_NUMBER, 11)) == OUTCOME_CORRECT_ANSWER
        assert score_outcome("answerable", 11, ParsedAnswer(VERDICT_NUMBER, 12)) == OUTCOME_WRONG_ANSWER

    def test_answerable_unknown_is_false_unanswerable(self):
        assert score_outcome("answerable", 11, ParsedAnswer(VERDICT_UNKNOWN)) == OUTCOME_FALSE_UNANSWERABLE

    def test_answerable_unparseable_lands_in_wrong_answer_bucket(self):
        assert score_outcome("answerable", 11, ParsedAnswer(VERDICT_UNPARSEABLE)) == OUTCOME_WRONG_ANSWER


class FailingTransport:
    """Fails permanently for a chosen set of instance ids."""

    def __init__(self, failing_ids, response="Answer: unknown."):
        self.failing_ids = set(failing_ids)
        self.response = response

    def complete(self, messages, instance_id=None):
        if instance_id in self.failing_ids:
            raise TransportError("boom")
        return self.response


def mock(name: str, corpus) -> ReplayTransport:
    return ReplayTransport(mock_responses(name, corpus))


class TestRunEval:
    def test_mock_unknown_outcomes(self):
        corpus = make_corpus(count=3)
        records = run_eval(corpus, make_profile(), "zero", mock("unknown", corpus))
        assert [r.instance_id for r in records] == [i.id for i in corpus.instances]
        by_variant = {r.instance_id: r for r in records}
        for instance in corpus.instances:
            record = by_variant[instance.id]
            if instance.variant == "answerable":
                assert record.outcome == OUTCOME_FALSE_UNANSWERABLE
            else:
                assert record.outcome == OUTCOME_CORRECT_UNANSWERABLE
            assert record.response == "Answer: unknown."
            assert record.config_cell["ansDepth"] == 3

    def test_mock_gold_is_all_correct(self):
        corpus = make_corpus(count=3)
        records = run_eval(corpus, make_profile(), "zero", mock("gold", corpus))
        assert all(
            r.outcome in (OUTCOME_CORRECT_ANSWER, OUTCOME_CORRECT_UNANSWERABLE) for r in records
        )

    def test_transport_failures_are_flagged_not_fatal(self):
        corpus = make_corpus(count=2)
        failing = {corpus.instances[0].id}
        records = run_eval(
            corpus, make_profile(max_retries=0), "zero", FailingTransport(failing)
        )
        failed = [r for r in records if r.transport_failed]
        assert [r.instance_id for r in failed] == list(failing)
        assert failed[0].outcome is None and failed[0].response is None

    def test_few_shot_records_exemplars(self):
        corpus = make_corpus(count=2, corpus_seed=12)
        pool = make_corpus(count=5, corpus_seed=34)
        records = run_eval(
            corpus,
            make_profile(),
            "few",
            mock("unknown", corpus),
            pool=pool,
            eval_seed=9,
        )
        assert all(len(r.exemplar_ids) == 6 for r in records)
        again = run_eval(
            corpus,
            make_profile(),
            "few",
            mock("unknown", corpus),
            pool=pool,
            eval_seed=9,
        )
        assert [r.exemplar_ids for r in records] == [r.exemplar_ids for r in again]

    def test_few_shot_requires_pool(self):
        corpus = make_corpus(count=1)
        with pytest.raises(InvalidConfigError, match="pool"):
            run_eval(corpus, make_profile(), "few", mock("unknown", corpus))

    def test_invalid_mode_rejected(self):
        corpus = make_corpus(count=1)
        with pytest.raises(InvalidConfigError, match="mode"):
            run_eval(corpus, make_profile(), "one", mock("unknown", corpus))


class TestRecordsIO:
    def test_round_trip(self, tmp_path):
        corpus = make_corpus(count=2)
        records = run_eval(corpus, make_profile(), "zero", mock("gold", corpus))
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        assert read_records(path) == records

    def test_rescoring_from_persisted_responses(self, tmp_path):
        # responses are stored verbatim, so the scoring rule can be re-applied
        corpus = make_corpus(count=2)
        records = run_eval(corpus, make_profile(), "zero", mock("gold", corpus))
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        for record in read_records(path):
            parsed = extract_answer(record.response)
            assert score_outcome(record.variant, record.gold_answer, parsed) == record.outcome

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_response_with_a_unicode_line_separator_round_trips(self, tmp_path, separator):
        # JSON keeps these characters unescaped when non-ASCII is kept, so only "\n" ends a line
        corpus = make_corpus(count=1)
        responses = {inst.id: f"Step one.{separator}Answer: unknown." for inst in corpus.instances}
        records = run_eval(corpus, make_profile(), "zero", ReplayTransport(responses))
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        assert read_records(path) == records

    def test_malformed_line_names_the_line(self, tmp_path):
        corpus = make_corpus(count=1)
        record = run_eval(corpus, make_profile(), "zero", mock("gold", corpus))[0]
        mistyped = {**to_json(record), "configCell": 5}  # once read without a check; `report` then crashed
        path = tmp_path / "records.jsonl"
        for line, match in [({"instanceId": "a"}, "line 1"), (mistyped, "line 1: configCell must be dict, got int")]:
            path.write_text(json.dumps(line) + "\n", encoding="utf-8")
            with pytest.raises(DatasetParseError, match=match):
                read_records(path)


def test_record_shape():
    record = EvalRecord(
        instance_id="i",
        pair_id="p",
        variant="answerable",
        mode="zero",
        outcome=OUTCOME_CORRECT_ANSWER,
        verdict=VERDICT_NUMBER,
        value=7,
        raw_tail=": 7",
        response="Answer: 7",
        latency_ms=1.0,
        transport_failed=False,
        config_cell={"ansDepth": 3},
        gold_answer=7,
    )
    assert from_json(EvalRecord, to_json(record)) == record
