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

INSTRUCTION = (
    "Please solve the following math question, and then answer in the form 'Answer: x'. "
    "If the known conditions are not sufficient to answer the question, "
    "please answer in the form 'Answer: unknown.'."
)


@dataclass
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
    concurrency: int = 8  # requests in flight at once
    max_retries: int = 3
    timeout_seconds: float = 120.0

    def __post_init__(self) -> None:
        for key, value, least in (
            ("concurrency", self.concurrency, 1),
            ("maxRetries", self.max_retries, 0),
            ("maxTokens", self.max_tokens, 1),
            ("maxCompletionTokens", self.max_completion_tokens, 1),
        ):
            if value < least:
                raise InvalidConfigError(f"{key} must be >= {least}, got {value}")
        if not self.timeout_seconds > 0:  # also rejects NaN
            raise InvalidConfigError(f"timeoutSeconds must be > 0, got {self.timeout_seconds}")


def load_profile(path: str | Path) -> ModelProfile:
    return read_json_file(ModelProfile, path, "profile")


def _messages(profile: ModelProfile, user: str) -> list[Message]:
    """The user message, after the system message unless the profile is a reasoning one."""
    if profile.is_reasoning:
        return [Message("user", user)]
    return [Message("system", SYSTEM_MESSAGE), Message("user", user)]


def _question(instance: ProblemInstance) -> str:
    return f"Question: {instance.full_text}\n\nYour solution: "


def build_zero_shot_prompt(instance: ProblemInstance, profile: ModelProfile) -> list[Message]:
    return _messages(profile, f"{INSTRUCTION}\n\n{_question(instance)}")


def _exemplar_block(instance: ProblemInstance) -> str:
    answer = instance.gold_answer if instance.variant == ANSWERABLE else "unknown."
    return f"{_question(instance)}{instance.gold_solution_text}\nAnswer: {answer}"


@dataclass
class FewShotPrompt:
    messages: list[Message]
    exemplar_ids: list[str]


@dataclass(frozen=True)
class FewShotPool:
    """A held-out exemplar pool checked against one target corpus, split by variant in pool order.

    Build it with :meth:`prepare`, once per run, so the checks and the split
    are not repeated for every prompt.
    """

    answerable: tuple[ProblemInstance, ...]
    unanswerable: tuple[ProblemInstance, ...]

    @classmethod
    def prepare(cls, pool: Dataset, target: Dataset) -> "FewShotPool":
        """Reject a pool that shares a pair with the target or lacks 3 instances of a variant.

        Exemplars sharing a tree with a question under evaluation would leak
        its solution.
        """
        pool_pairs = {p.pair_id for p in pool.instances}
        leaked = next((t.pair_id for t in target.instances if t.pair_id in pool_pairs), None)
        if leaked is not None:
            raise InvalidConfigError(
                f"few-shot pool contains the target's pair {leaked}; "
                "use a pool generated from a distinct corpus seed"
            )
        answerable = tuple(p for p in pool.instances if p.variant == ANSWERABLE)
        unanswerable = tuple(p for p in pool.instances if p.variant != ANSWERABLE)
        if len(answerable) < 3 or len(unanswerable) < 3:
            raise InvalidConfigError(
                f"few-shot pool needs at least 3 instances of each variant, "
                f"got {len(answerable)} answerable and {len(unanswerable)} unanswerable"
            )
        return cls(answerable, unanswerable)


def build_few_shot_prompt(
    instance: ProblemInstance,
    pool: FewShotPool,
    rng: PcgStream,
    profile: ModelProfile,
) -> FewShotPrompt:
    """3 answerable + 3 unanswerable worked examples before the target question.

    `pool` comes from :meth:`FewShotPool.prepare` on the corpus `instance` belongs to.
    """
    answerable, unanswerable = pool.answerable, pool.unanswerable
    picked = [answerable[i] for i in rng.distinct_indices(len(answerable), 3)]
    picked += [unanswerable[i] for i in rng.distinct_indices(len(unanswerable), 3)]
    exemplars = [picked[i] for i in rng.permutation(6)]

    body = (
        f"{INSTRUCTION} Here are some worked examples.\n\n"
        + "\n\n".join(_exemplar_block(e) for e in exemplars)
        + f"\n\n{_question(instance)}"
    )
    return FewShotPrompt(messages=_messages(profile, body), exemplar_ids=[e.id for e in exemplars])
