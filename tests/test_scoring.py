from __future__ import annotations

import json
import re
import sys
import threading
import time
from dataclasses import replace

import pytest

from pricetree.errors import DatasetParseError, InvalidConfigError, TransportError
from pricetree.jsonmap import from_json, to_json
from pricetree.harness import scoring
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
    check_eval_request,
    extract_answer,
    read_records,
    run_eval,
    score_outcome,
    write_records,
)
from pricetree.harness.prompts import FewShotPool
from pricetree.harness.transport import ReplayTransport, mock_responses
from pricetree.rng import substream

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


class CountingTransport:
    """Replays responses and records each call's instance id; the `fail_at`-th call raises.

    Responses for the ids in `slow` take 5 ms, so concurrent calls complete out of order.
    """

    def __init__(self, responses, fail_at=None, slow=()):
        self.responses = responses
        self.fail_at = fail_at
        self.slow = set(slow)
        self.calls = []
        self._lock = threading.Lock()

    def complete(self, messages, instance_id=None):
        with self._lock:
            self.calls.append(instance_id)
            call = len(self.calls)
        if call == self.fail_at:
            raise RuntimeError(f"call {call} failed")
        if instance_id in self.slow:
            time.sleep(0.005)
        return self.responses[instance_id]


def mock(name: str, corpus) -> ReplayTransport:
    return ReplayTransport(mock_responses(name, corpus))


def run_eval_bounded(*args, seconds=60, **kwargs):
    """run_eval on a helper thread with threads switching every microsecond; fails if it hangs."""
    result = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: result.append(run_eval(*args, **kwargs)), daemon=True)
        runner.start()
        runner.join(timeout=seconds)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive() and len(result) == 1
    return result[0]


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

    @pytest.mark.parametrize("mode", ["zero", "few"])
    def test_concurrency_changes_no_record(self, mode):
        corpus = make_corpus(count=12, corpus_seed=12)
        pool = make_corpus(count=5, corpus_seed=34) if mode == "few" else None
        runs = []
        for concurrency in (1, 4):
            transport = CountingTransport(mock_responses("gold", corpus), slow=[i.id for i in corpus.instances[::3]])
            records = run_eval_bounded(corpus, make_profile(concurrency=concurrency), mode, transport, pool=pool)
            assert sorted(transport.calls) == sorted(i.id for i in corpus.instances)  # each sent once
            assert [r.instance_id for r in records] == [i.id for i in corpus.instances]
            runs.append([replace(r, latency_ms=0.0) for r in records])
        assert runs[0] == runs[1]

    def test_few_shot_records_past_a_chunk_of_orders_keep_their_own_exemplars(self):
        # 1,030 records: the orders from record 1,024 on are drawn by whichever worker takes that record
        corpus = make_corpus(num_vars=4, ans_depth=2, count=515, corpus_seed=12)
        pool = make_corpus(count=5, corpus_seed=34)
        prepared = FewShotPool.prepare(pool, corpus)
        expected = []
        for index in range(len(corpus.instances)):
            stream, split = substream(7, index), prepared.answerable_count
            picked = stream.distinct_indices(split, 3)
            picked += [split + i for i in stream.distinct_indices(len(prepared.ids) - split, 3)]
            expected.append([prepared.ids[picked[i]] for i in stream.permutation(6)])
        for concurrency in (1, 4):
            records = run_eval_bounded(
                corpus, make_profile(concurrency=concurrency), "few", mock("gold", corpus), pool=pool, eval_seed=7
            )
            assert [r.exemplar_ids for r in records] == expected

    def test_one_worker_starts_no_thread(self, monkeypatch):
        corpus = make_corpus(count=12, corpus_seed=12)
        pool = make_corpus(count=5, corpus_seed=34)
        runs = [run_eval(corpus, make_profile(concurrency=4), "few", mock("gold", corpus), pool=pool)]

        def no_thread(*args, **kwargs):
            raise AssertionError("run_eval started a thread at concurrency 1")

        monkeypatch.setattr(scoring.threading, "Thread", no_thread)
        runs.append(run_eval(corpus, make_profile(concurrency=1), "few", mock("gold", corpus), pool=pool))
        assert [replace(r, latency_ms=0.0) for r in runs[0]] == [replace(r, latency_ms=0.0) for r in runs[1]]

    def test_caller_error_is_raised_while_a_helper_still_holds_its_request(self):
        class Interrupt(BaseException):
            pass

        corpus = make_corpus(count=1)  # two instances: one for the caller, one for the helper
        helper_in_flight, release, helper_done = threading.Event(), threading.Event(), threading.Event()
        raised = []

        class BlockingTransport:
            def complete(self, messages, instance_id=None):
                if threading.current_thread() is caller:
                    assert helper_in_flight.wait(timeout=60)
                    raise Interrupt
                helper_in_flight.set()
                release.wait(timeout=60)
                helper_done.set()
                return "Answer: unknown."

        def call():
            try:
                run_eval(corpus, make_profile(concurrency=2), "zero", BlockingTransport())
            except Interrupt as exc:
                raised.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        try:
            caller.start()
            caller.join(timeout=30)  # at concurrency 2 the caller is a worker, so this returns at once
            assert not caller.is_alive() and len(raised) == 1
            assert helper_in_flight.is_set() and not helper_done.is_set()
        finally:
            release.set()
        assert helper_done.wait(timeout=60)

    def test_leaking_pool_rejected_before_any_request(self):
        corpus = make_corpus(count=3, corpus_seed=12)
        pool = make_corpus(count=5, corpus_seed=34)
        leaked = corpus.instances[3]
        pool = replace(pool, instances=[*pool.instances, leaked])
        transport = CountingTransport(mock_responses("gold", corpus))
        with pytest.raises(InvalidConfigError, match=f"target's pair {leaked.pair_id};"):
            run_eval(corpus, make_profile(), "few", transport, pool=pool)
        assert transport.calls == []

    @pytest.mark.parametrize("k", [1, 4])
    def test_unexpected_error_stops_the_run(self, k):
        corpus = make_corpus(count=3)
        transport = CountingTransport(mock_responses("gold", corpus), fail_at=k)
        with pytest.raises(RuntimeError, match=f"call {k} failed"):
            run_eval(corpus, make_profile(concurrency=1), "zero", transport)
        assert len(transport.calls) == k

    def test_few_shot_requires_pool(self):
        corpus = make_corpus(count=1)
        with pytest.raises(InvalidConfigError, match="pool"):
            run_eval(corpus, make_profile(), "few", mock("unknown", corpus))

    def test_zero_shot_rejects_a_pool(self):
        corpus = make_corpus(count=1, corpus_seed=12)
        transport = CountingTransport(mock_responses("gold", corpus))
        with pytest.raises(InvalidConfigError, match="zero-shot mode takes no exemplar pool"):
            run_eval(corpus, make_profile(), "zero", transport, pool=make_corpus(count=2, corpus_seed=34))
        assert transport.calls == []

    def test_invalid_mode_rejected(self):
        corpus = make_corpus(count=1)
        with pytest.raises(InvalidConfigError, match="mode"):
            run_eval(corpus, make_profile(), "one", mock("unknown", corpus))


class TestCheckEvalRequest:
    @pytest.mark.parametrize(
        "mode, pool_given, eval_seed, message",
        [
            ("one", True, -1, "mode must be 'zero' or 'few', got 'one'"),
            ("few", False, -1, "evalSeed must be >= 0, got -1"),
            ("few", False, 0, "few-shot mode needs an exemplar pool"),
            ("zero", True, 0, "zero-shot mode takes no exemplar pool"),
        ],
    )
    def test_each_rule_raises_its_text_in_order(self, mode, pool_given, eval_seed, message):
        with pytest.raises(InvalidConfigError) as excinfo:
            check_eval_request(mode, pool_given, eval_seed)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("mode, pool_given", [("zero", False), ("few", True)])
    def test_valid_requests_accepted(self, mode, pool_given):
        assert check_eval_request(mode, pool_given, 0) is None


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

    def test_repeated_instance_id_keeps_both_records(self, tmp_path):
        # zero- and few-shot runs, or replicates of one mode, may share a file; `report` counts each record
        corpus = make_corpus(count=1)
        zero = run_eval(corpus, make_profile(), "zero", mock("gold", corpus))
        again = run_eval(corpus, make_profile(), "zero", mock("unknown", corpus))
        path = tmp_path / "records.jsonl"
        write_records(zero + again, path)
        records = read_records(path)
        assert records == zero + again
        assert [record.instance_id for record in records] == [record.instance_id for record in zero] * 2

    def test_malformed_line_names_the_line(self, tmp_path):
        corpus = make_corpus(count=1)
        record = run_eval(corpus, make_profile(), "zero", mock("gold", corpus))[0]
        data = to_json(record)
        nested = [{**data["configCell"], "ansDepth": value} for value in ([2], {"a": 1})]
        path = tmp_path / "records.jsonl"
        for line, message in [  # each configCell was once read without a check; `report` then crashed
            ({"instanceId": "a"}, "line 1: missing key 'pairId'"),
            ({**data, "configCell": 5}, "line 1: configCell must be dict, got int"),
            *(
                ({**data, "configCell": cell}, f"line 1: configCell must be an object of JSON scalars, got {json.dumps(cell)}")
                for cell in nested
            ),
        ]:
            path.write_text(json.dumps(line) + "\n", encoding="utf-8")
            with pytest.raises(DatasetParseError, match=re.escape(message)):
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
