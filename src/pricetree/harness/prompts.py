"""Prompt construction and model profiles.

Non-reasoning profiles get a chain-of-thought system message plus the user
message; reasoning profiles get the user message only and never receive a
temperature.  Few-shot prompts prepend 3 answerable and 3 unanswerable
worked examples drawn from a held-out pool, interleaved in stream order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..errors import InvalidConfigError
from ..jsonmap import read_json_file
from ..pipeline import ANSWERABLE, Dataset, ProblemInstance
from ..rng import PcgStream

SYSTEM_MESSAGE = (
    "As an expert problem solver, solve step by step the following mathematical questions."
)

USER_TEMPLATE = (
    "Please solve the following math question, and then answer in the form 'Answer: x'. "
    "If the known conditions are not sufficient to answer the question, "
    "please answer in the form 'Answer: unknown.'.\n\n"
    "Question: {question}\n\n"
    "Your solution: "
)


@dataclass(frozen=True)
class Message:
    role: str  # "system" | "user"
    content: str


@dataclass(frozen=True)
class ModelProfile:
    """Endpoint plus decoding parameters for one evaluated model."""

    endpoint: str
    model: str
    is_reasoning: bool = False
    max_tokens: int = 4000
    temperature: float = 0.0
    max_completion_tokens: int = 32000
    reasoning_effort: str = "high"
    api_key_env: Optional[str] = None
    concurrency: int = 8
    max_retries: int = 3
    timeout_seconds: float = 120.0


def load_profile(path: str | Path) -> ModelProfile:
    return read_json_file(ModelProfile, path, "profile")


def build_zero_shot_prompt(instance: ProblemInstance, profile: ModelProfile) -> list[Message]:
    messages = []
    if not profile.is_reasoning:
        messages.append(Message("system", SYSTEM_MESSAGE))
    messages.append(Message("user", USER_TEMPLATE.format(question=instance.full_text)))
    return messages


def _answer_line(instance: ProblemInstance) -> str:
    if instance.variant == ANSWERABLE:
        return f"Answer: {instance.gold_answer}"
    return "Answer: unknown."


def _exemplar_block(instance: ProblemInstance) -> str:
    return (
        f"Question: {instance.full_text}\n\n"
        f"Your solution: {instance.gold_solution_text}\n"
        f"{_answer_line(instance)}"
    )


@dataclass(frozen=True)
class FewShotPrompt:
    messages: list[Message]
    exemplar_ids: list[str]


def build_few_shot_prompt(
    instance: ProblemInstance,
    pool: Dataset,
    rng: PcgStream,
    profile: ModelProfile,
) -> FewShotPrompt:
    """3 answerable + 3 unanswerable worked examples before the target question.

    The pool must not contain the target's pair: exemplars sharing a tree
    with the question under evaluation would leak its solution.
    """
    if any(p.pair_id == instance.pair_id for p in pool.instances):
        raise InvalidConfigError(
            f"few-shot pool contains the target's pair {instance.pair_id}; "
            "use a pool generated from a distinct corpus seed"
        )
    answerable = [p for p in pool.instances if p.variant == ANSWERABLE]
    unanswerable = [p for p in pool.instances if p.variant != ANSWERABLE]
    if len(answerable) < 3 or len(unanswerable) < 3:
        raise InvalidConfigError(
            f"few-shot pool needs at least 3 instances of each variant, "
            f"got {len(answerable)} answerable and {len(unanswerable)} unanswerable"
        )
    picked = [answerable[i] for i in rng.distinct_indices(len(answerable), 3)]
    picked += [unanswerable[i] for i in rng.distinct_indices(len(unanswerable), 3)]
    exemplars = [picked[i] for i in rng.permutation(6)]

    body = (
        "Please solve the following math question, and then answer in the form 'Answer: x'. "
        "If the known conditions are not sufficient to answer the question, "
        "please answer in the form 'Answer: unknown.'. "
        "Here are some worked examples.\n\n"
        + "\n\n".join(_exemplar_block(e) for e in exemplars)
        + f"\n\nQuestion: {instance.full_text}\n\nYour solution: "
    )
    messages = []
    if not profile.is_reasoning:
        messages.append(Message("system", SYSTEM_MESSAGE))
    messages.append(Message("user", body))
    return FewShotPrompt(messages=messages, exemplar_ids=[e.id for e in exemplars])
