"""Answer extraction and outcome scoring.

The parsing rule: lowercase the response, find the last occurrence of the
trigger word "answer", and call the response "unknown" if that word appears
anywhere after the trigger.  Otherwise the first integer-valued number
token after the trigger is the model's answer.  Responses with no trigger,
or no usable number, are unparseable.
"""

from __future__ import annotations

import itertools
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

from ..errors import InvalidConfigError, TransportError
from ..jsonmap import check_scalar_object, from_json, long_text, read_json_lines, to_json_line, write_json_lines
from ..pipeline import ANSWERABLE, Dataset, ProblemInstance
from .prompts import FewShotPool, ModelProfile, build_few_shot_prompt, build_zero_shot_prompt
from .transport import query_model

TRIGGER = "answer"

VERDICT_UNKNOWN = "unknown"
VERDICT_NUMBER = "number"
VERDICT_UNPARSEABLE = "unparseable"

OUTCOME_CORRECT_UNANSWERABLE = "correct_unanswerable"
OUTCOME_HALLUCINATION = "hallucination"
OUTCOME_CORRECT_ANSWER = "correct_answer"
OUTCOME_WRONG_ANSWER = "wrong_answer"
OUTCOME_FALSE_UNANSWERABLE = "false_unanswerable"

_NUMBER_TOKEN = re.compile(r"[-+]?\$?\d[\d,]*(?:\.\d+)?")


@dataclass
class ParsedAnswer:
    verdict: Optional[str]  # None when no response came back
    value: Optional[int] = None
    raw_tail: str = ""


def extract_answer(response: str) -> ParsedAnswer:
    """Deterministic, case-insensitive, total parse of a model response."""
    lowered = response.lower()
    pos = lowered.rfind(TRIGGER)
    if pos < 0:
        return ParsedAnswer(VERDICT_UNPARSEABLE)
    tail = lowered[pos + len(TRIGGER):]
    if "unknown" in tail:
        return ParsedAnswer(VERDICT_UNKNOWN, raw_tail=tail)
    match = _NUMBER_TOKEN.search(tail)
    if match:
        token = match.group().replace("$", "").replace(",", "")
        value = float(token)
        if value.is_integer():
            return ParsedAnswer(VERDICT_NUMBER, value=int(value), raw_tail=tail)
    return ParsedAnswer(VERDICT_UNPARSEABLE, raw_tail=tail)


def score_outcome(variant: str, gold_answer: Optional[int], parsed: ParsedAnswer) -> str:
    """Pure outcome function; every record lands in exactly one bucket.

    Unparseable responses to answerable questions count against accuracy
    (wrong-answer bucket); the verdict field keeps them distinguishable.
    """
    if variant != ANSWERABLE:
        if parsed.verdict == VERDICT_UNKNOWN:
            return OUTCOME_CORRECT_UNANSWERABLE
        return OUTCOME_HALLUCINATION
    if parsed.verdict == VERDICT_UNKNOWN:
        return OUTCOME_FALSE_UNANSWERABLE
    if parsed.verdict == VERDICT_NUMBER and parsed.value == gold_answer:
        return OUTCOME_CORRECT_ANSWER
    return OUTCOME_WRONG_ANSWER


# ---------------------------------------------------------------------------
# Evaluation records
# ---------------------------------------------------------------------------

MODES = ("zero", "few")  # zero-shot, or few-shot with an exemplar pool
GROUPABLE_KEYS = ("ansDepth", "cutDepth", "numVars", "compositeName", "order")


@dataclass
class EvalRecord:
    instance_id: str
    pair_id: str
    variant: str
    mode: str  # one of MODES
    outcome: Optional[str]  # None when the transport failed
    verdict: Optional[str]
    value: Optional[int]
    raw_tail: str
    response: Optional[str] = long_text()  # persisted verbatim so scoring can be re-run
    latency_ms: Optional[float]
    transport_failed: bool
    config_cell: dict
    gold_answer: Optional[int]
    exemplar_ids: Optional[list[str]] = None


def _config_cell(instance: ProblemInstance) -> dict:
    config = instance.metadata.get("config", {})
    return {key: config.get(key) for key in GROUPABLE_KEYS}


def check_eval_request(mode: str, pool_given: bool, eval_seed: int) -> None:
    """The eval arguments' rules, checked before any file is read or request sent."""
    if mode not in MODES:
        raise InvalidConfigError(f"mode must be {' or '.join(map(repr, MODES))}, got {mode!r}")
    if eval_seed < 0:
        raise InvalidConfigError(f"evalSeed must be >= 0, got {eval_seed}")
    if mode == "few" and not pool_given:
        raise InvalidConfigError("few-shot mode needs an exemplar pool")
    if mode == "zero" and pool_given:
        raise InvalidConfigError("zero-shot mode takes no exemplar pool")


def run_eval(
    dataset: Dataset,
    profile: ModelProfile,
    mode: str,
    transport,
    pool: Optional[Dataset] = None,
    eval_seed: int = 0,
    sleep=time.sleep,
) -> list[EvalRecord]:
    """Score every instance of a dataset with `profile.concurrency` requests in flight.

    The caller is one of those workers.  The arguments (:func:`check_eval_request`)
    and the few-shot pool are checked once, before any request is sent.  Few-shot
    record i draws its exemplars from ``substream(eval_seed, i)``; the orders are
    drawn a chunk of records at a time (:meth:`FewShotPool.orders`).  Records come
    back in dataset order.  Transport failures (after retries) yield records
    flagged as excluded; any other exception stops every worker from taking
    another instance and is re-raised once the caller's own request is done.
    """
    check_eval_request(mode, pool is not None, eval_seed)
    if pool is None:
        orders = itertools.repeat(None)
    else:
        exemplars = FewShotPool.prepare(pool, dataset)
        orders = exemplars.orders(eval_seed, len(dataset.instances))

    def evaluate(instance: ProblemInstance, order: Optional[Sequence[int]]) -> EvalRecord:
        exemplar_ids = None
        if order is None:
            messages = build_zero_shot_prompt(instance, profile)
        else:
            prompt = build_few_shot_prompt(instance, exemplars, order, profile)
            messages = prompt.messages
            exemplar_ids = prompt.exemplar_ids
        failed = False
        try:
            response, latency = query_model(profile, messages, transport, instance.id, sleep)
        except TransportError:
            failed, response, latency = True, None, None
        parsed = ParsedAnswer(None) if failed else extract_answer(response)
        return EvalRecord(
            instance_id=instance.id,
            pair_id=instance.pair_id,
            variant=instance.variant,
            mode=mode,
            outcome=None if failed else score_outcome(instance.variant, instance.gold_answer, parsed),
            verdict=parsed.verdict,
            value=parsed.value,
            raw_tail=parsed.raw_tail,
            response=response,
            latency_ms=latency,
            transport_failed=failed,
            config_cell=_config_cell(instance),
            gold_answer=instance.gold_answer,
            exemplar_ids=exemplar_ids,
        )

    records: list[Optional[EvalRecord]] = [None] * len(dataset.instances)
    todo = enumerate(zip(dataset.instances, orders))
    lock = threading.Lock()
    stop = threading.Event()
    errors: list[BaseException] = []

    def work() -> None:
        while True:
            with lock:
                item = None if stop.is_set() else next(todo, None)
            if item is None:
                return
            try:
                records[item[0]] = evaluate(*item[1])
            except BaseException as exc:  # re-raised by the caller
                with lock:
                    errors.append(exc)
                    stop.set()

    count = min(profile.concurrency, len(records))
    helpers = [threading.Thread(target=work, daemon=True) for _ in range(count - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
        if not errors:  # on an error the helpers finish only the requests they hold
            for helper in helpers:
                helper.join()
    finally:
        stop.set()  # an interrupted caller leaves only the requests already in flight
    if errors:
        raise errors[0]
    return records


def write_records(records: list[EvalRecord], path: str | Path) -> None:
    write_json_lines(path, map(to_json_line, records))


def _record(data: dict) -> EvalRecord:
    """`from_json` of a records line; configCell, whose items group the report, must hold only scalars."""
    record = from_json(EvalRecord, data)
    check_scalar_object("configCell", record.config_cell)
    return record


def iter_records(path: str | Path) -> Iterator[EvalRecord]:
    """The records of a records file, each read and checked as it is taken."""
    return read_json_lines(path, _record, None)  # one instance may have several records


def read_records(path: str | Path) -> list[EvalRecord]:
    return list(iter_records(path))
