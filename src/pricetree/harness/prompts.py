"""Prompt construction and model profiles.

Non-reasoning profiles get a chain-of-thought system message plus the user
message; reasoning profiles get the user message only and never receive a
temperature.  Few-shot prompts prepend EXEMPLARS_PER_VARIANT worked examples
of each variant from a held-out pool, in the order each record's stream
draws (:meth:`FewShotPool.orders`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

from ..errors import InvalidConfigError
from ..jsonmap import read_json_file
from ..pipeline import ANSWERABLE, Dataset, ProblemInstance
from ..rng import EXEMPLARS_PER_VARIANT, exemplar_orders

SYSTEM_MESSAGE = (
    "As an expert problem solver, solve step by step the following mathematical questions."
)

INSTRUCTION = (
    "Please solve the following math question, and then answer in the form 'Answer: x'. "
    "If the known conditions are not sufficient to answer the question, "
    "please answer in the form 'Answer: unknown.'."
)

FEW_SHOT_HEADER = f"{INSTRUCTION} Here are some worked examples."
MAX_CONCURRENCY = 1024  # requests in flight at once, the most a profile may ask for


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
        if self.concurrency > MAX_CONCURRENCY:  # run_eval starts a thread per worker
            raise InvalidConfigError(f"concurrency must be <= {MAX_CONCURRENCY}, got {self.concurrency}")
        # each test also rejects NaN; a socket timeout past about 9.2e9 s overflows at the first request
        if not 0 <= self.temperature < math.inf:
            raise InvalidConfigError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not 0 < self.timeout_seconds <= 1e9:
            raise InvalidConfigError(f"timeoutSeconds must be > 0 and <= 1e9, got {self.timeout_seconds}")


def load_profile(path: str | Path) -> ModelProfile:
    return read_json_file(ModelProfile, path, "profile")


# one object in every prompt; nothing mutates a prompt's messages
_SYSTEM = Message("system", SYSTEM_MESSAGE)


def _messages(profile: ModelProfile, user: str) -> list[Message]:
    """The user message, after the system message unless the profile is a reasoning one."""
    if profile.is_reasoning:
        return [Message("user", user)]
    return [_SYSTEM, Message("user", user)]


def _question(instance: ProblemInstance) -> str:
    return f"Question: {instance.full_text}\n\nYour solution: "


def build_zero_shot_prompt(instance: ProblemInstance, profile: ModelProfile) -> list[Message]:
    return _messages(profile, f"{INSTRUCTION}\n\n{_question(instance)}")


def answer_line(instance: ProblemInstance) -> str:
    """The right response's last line: the gold answer, or unknown when there is none."""
    return f"Answer: {'unknown.' if instance.gold_answer is None else instance.gold_answer}"


def _exemplar_block(instance: ProblemInstance) -> str:
    return f"{_question(instance)}{instance.gold_solution_text}\n{answer_line(instance)}"


@dataclass
class FewShotPrompt:
    messages: list[Message]
    exemplar_ids: list[str]


@dataclass(frozen=True)
class FewShotPool:
    """A held-out exemplar pool checked against one target corpus, split by variant in pool order.

    Build it with :meth:`prepare`, once per run, so the checks, the split
    and each exemplar's worked text are not repeated for every prompt.
    """

    ids: tuple[str, ...]  # of the answerable instances, then the unanswerable ones
    blocks: tuple[str, ...]  # the worked text of each instance, in the order of `ids`
    answerable_count: int  # the unanswerable instances start at this index of `ids` and `blocks`

    @classmethod
    def prepare(cls, pool: Dataset, target: Dataset) -> "FewShotPool":
        """Reject a pool that shares a pair with the target or lacks EXEMPLARS_PER_VARIANT of a variant.

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
        if min(len(answerable), len(unanswerable)) < EXEMPLARS_PER_VARIANT:
            raise InvalidConfigError(
                f"few-shot pool needs at least {EXEMPLARS_PER_VARIANT} instances of each variant, "
                f"got {len(answerable)} answerable and {len(unanswerable)} unanswerable"
            )
        ordered = answerable + unanswerable
        return cls(tuple(p.id for p in ordered), tuple(map(_exemplar_block, ordered)), len(answerable))

    def orders(self, seed: int, count: int) -> Iterator[list[int]]:
        """The exemplars of each record i < count, as indices into `ids` and `blocks`, shuffled.

        Record i takes EXEMPLARS_PER_VARIANT distinct answerable and as many
        unanswerable exemplars, drawn from ``substream(seed, i)``
        (:func:`rng.exemplar_orders`).
        """
        return exemplar_orders(seed, count, self.answerable_count, len(self.ids))


def build_few_shot_prompt(
    instance: ProblemInstance,
    pool: FewShotPool,
    order: Sequence[int],
    profile: ModelProfile,
) -> FewShotPrompt:
    """The worked examples `order` picks, in that order, before the target question.

    `pool` comes from :meth:`FewShotPool.prepare` on the corpus `instance`
    belongs to, and `order` from its :meth:`FewShotPool.orders`.
    """
    body = "\n\n".join([FEW_SHOT_HEADER, *[pool.blocks[i] for i in order], _question(instance)])
    return FewShotPrompt(_messages(profile, body), [pool.ids[i] for i in order])
