from __future__ import annotations

import json
from dataclasses import FrozenInstanceError, replace

import pytest
from pricetree.errors import InvalidConfigError
from pricetree.harness import prompts
from pricetree.harness.prompts import (
    EXEMPLARS_PER_VARIANT,
    SYSTEM_MESSAGE,
    FewShotPool,
    Message,
    ModelProfile,
    build_few_shot_prompt,
    build_zero_shot_prompt,
    load_profile,
)
from pricetree.harness.scoring import run_eval
from pricetree.harness.transport import ReplayTransport, mock_responses

from factories import make_corpus, make_profile


class TestProfiles:
    def test_defaults_match_the_protocol(self):
        profile = make_profile()
        assert profile.max_tokens == 4000
        assert profile.temperature == 0.0
        assert profile.max_completion_tokens == 32000
        assert profile.reasoning_effort == "high"
        assert profile.concurrency == 8

    def test_frozen_and_hashable(self):
        # checked only in __post_init__
        profile = make_profile()
        with pytest.raises(FrozenInstanceError):
            profile.concurrency = 0
        assert hash(profile) == hash(make_profile())

    def test_load_profile_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"endpoint": "x", "model": "m", "maxtokens": 3}))
        with pytest.raises(InvalidConfigError, match="maxtokens"):
            load_profile(path)

    def test_load_profile(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(
            json.dumps(
                {
                    "endpoint": "https://api.example.com/v1/chat/completions",
                    "model": "big-model",
                    "isReasoning": True,
                    "apiKeyEnv": "EXAMPLE_KEY",
                }
            )
        )
        profile = load_profile(path)
        assert profile.is_reasoning and profile.api_key_env == "EXAMPLE_KEY"
        assert isinstance(profile, ModelProfile)

    @pytest.mark.parametrize(
        "value, message",
        [
            ({"temperature": float("nan")}, "temperature must be finite and >= 0, got nan"),
            ({"temperature": float("inf")}, "temperature must be finite and >= 0, got inf"),
            ({"temperature": -0.5}, "temperature must be finite and >= 0, got -0.5"),
            ({"timeoutSeconds": float("inf")}, "timeoutSeconds must be > 0 and <= 1e9, got inf"),
            ({"timeoutSeconds": 1e300}, "timeoutSeconds must be > 0 and <= 1e9, got 1e+300"),
            ({"timeoutSeconds": float("nan")}, "timeoutSeconds must be > 0 and <= 1e9, got nan"),
        ],
    )
    def test_load_profile_rejects_values_a_request_cannot_carry(self, tmp_path, value, message):
        # an infinite timeout overflowed socket.settimeout at the first live request, and a NaN
        # temperature was sent as NaN, which is not JSON
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"endpoint": "x", "model": "m", **value}))  # json writes NaN and Infinity
        with pytest.raises(InvalidConfigError) as error:
            load_profile(path)
        assert str(error.value) == f"{path}: {message}"

    @pytest.mark.parametrize("value", [0, 1025, 100_000])
    def test_load_profile_bounds_concurrency(self, tmp_path, value):
        # run_eval starts concurrency - 1 threads, so a typo of 100000 started one per record
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"endpoint": "x", "model": "m", "concurrency": value}))
        with pytest.raises(InvalidConfigError) as error:
            load_profile(path)
        bound = ">= 1" if value < 1 else "<= 1024"
        assert str(error.value) == f"{path}: concurrency must be {bound}, got {value}"

    @pytest.mark.parametrize(
        "key, field, value",
        [
            ("temperature", "temperature", 0),
            ("timeoutSeconds", "timeout_seconds", 1e9),
            ("concurrency", "concurrency", 1),
            ("concurrency", "concurrency", 1024),
        ],
    )
    def test_load_profile_takes_values_at_the_bounds(self, tmp_path, key, field, value):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"endpoint": "x", "model": "m", key: value}))
        assert getattr(load_profile(path), field) == value


class TestZeroShot:
    def test_non_reasoning_gets_system_plus_user(self):
        corpus = make_corpus(count=1)
        unanswerable = corpus.instances[1]
        messages = build_zero_shot_prompt(unanswerable, make_profile())
        assert [m.role for m in messages] == ["system", "user"]
        assert messages[0].content == SYSTEM_MESSAGE
        assert "please answer in the form 'Answer: unknown.'" in messages[1].content

    def test_every_prompt_shares_one_system_message_that_run_eval_leaves_unchanged(self):
        target, pool = make_corpus(count=3, corpus_seed=12), make_corpus(count=5, corpus_seed=34)
        seen = []

        class Recording(ReplayTransport):
            def complete(self, messages, instance_id=None):
                seen.append(messages[0])
                return super().complete(messages, instance_id)

        transport = Recording(mock_responses("gold", target))
        run_eval(target, make_profile(concurrency=4), "zero", transport)
        run_eval(target, make_profile(concurrency=4), "few", transport, pool=pool)
        assert len(seen) == 12 and all(message is prompts._SYSTEM for message in seen)
        assert prompts._SYSTEM == Message("system", SYSTEM_MESSAGE)

    def test_reasoning_gets_user_only(self):
        corpus = make_corpus(count=1)
        messages = build_zero_shot_prompt(corpus.instances[1], make_profile(is_reasoning=True))
        assert [m.role for m in messages] == ["user"]

    def test_question_substituted_verbatim(self):
        corpus = make_corpus(count=1)
        instance = corpus.instances[0]
        messages = build_zero_shot_prompt(instance, make_profile())
        assert instance.full_text in messages[-1].content


class TestFewShot:
    def pool(self):
        return make_corpus(count=5, corpus_seed=777)

    def target_corpus(self):
        return make_corpus(count=1, corpus_seed=888)

    def target(self):
        return self.target_corpus().instances[1]

    def prepared(self):
        return FewShotPool.prepare(self.pool(), self.target_corpus())

    def order(self, seed: int = 1) -> list[int]:
        return next(self.prepared().orders(seed, 1))

    def test_deterministic_given_seed(self):
        pool, target, profile = self.prepared(), self.target(), make_profile()
        first = build_few_shot_prompt(target, pool, next(pool.orders(5, 1)), profile)
        second = build_few_shot_prompt(target, pool, next(pool.orders(5, 1)), profile)
        assert first == second

    def test_three_of_each_variant(self):
        pool, target = self.pool(), self.target()
        prompt = build_few_shot_prompt(target, self.prepared(), self.order(), make_profile())
        assert len(prompt.exemplar_ids) == 6
        variants = [pool.by_id(i).variant for i in prompt.exemplar_ids]
        assert variants.count("answerable") == 3
        assert variants.count("unanswerable") == 3

    def test_exemplars_carry_solution_and_answer(self):
        pool, target = self.pool(), self.target()
        prompt = build_few_shot_prompt(target, self.prepared(), self.order(), make_profile())
        body = prompt.messages[-1].content
        for exemplar_id in prompt.exemplar_ids:
            exemplar = pool.by_id(exemplar_id)
            assert exemplar.full_text in body
            assert exemplar.gold_solution_text in body
            if exemplar.variant == "answerable":
                assert f"Answer: {exemplar.gold_answer}" in body
        assert "Answer: unknown." in body
        assert body.rstrip().endswith("Your solution:")
        assert body.index(target.full_text) > body.index(pool.by_id(prompt.exemplar_ids[-1]).full_text)

    def test_pool_containing_target_pair_rejected(self):
        pool = self.pool()
        leaked = pool.instances[2].pair_id
        target = self.target_corpus()
        target = replace(target, instances=[*target.instances, pool.instances[2]])
        with pytest.raises(InvalidConfigError, match=f"pool contains the target's pair {leaked};"):
            FewShotPool.prepare(pool, target)

    def test_pool_too_small_rejected(self):
        pool = make_corpus(count=2, corpus_seed=777)
        with pytest.raises(InvalidConfigError, match="at least 3"):
            FewShotPool.prepare(pool, self.target_corpus())

    @pytest.mark.parametrize(
        "short, counts", [("answerable", "2 answerable and 5 unanswerable"), ("unanswerable", "5 answerable and 2 unanswerable")]
    )
    def test_pool_one_short_of_a_variant_rejected(self, short, counts):
        pool = self.pool()  # 5 pairs
        kept = [p for p in pool.instances if p.variant == short][: EXEMPLARS_PER_VARIANT - 1]
        pool = replace(pool, instances=[*kept, *(p for p in pool.instances if p.variant != short)])
        with pytest.raises(InvalidConfigError) as excinfo:
            FewShotPool.prepare(pool, self.target_corpus())
        assert str(excinfo.value) == f"few-shot pool needs at least 3 instances of each variant, got {counts}"

    def test_pool_split_keeps_pool_order(self):
        pool = self.pool()
        prepared = self.prepared()
        split = prepared.answerable_count
        assert list(prepared.ids[:split]) == [p.id for p in pool.instances if p.variant == "answerable"]
        assert list(prepared.ids[split:]) == [p.id for p in pool.instances if p.variant == "unanswerable"]

    def test_each_exemplar_text_is_built_once_per_run(self, monkeypatch):
        target, pool = make_corpus(count=12, corpus_seed=12), make_corpus(count=5, corpus_seed=34)
        built = []
        block = prompts._exemplar_block
        monkeypatch.setattr(prompts, "_exemplar_block", lambda instance: built.append(instance.id) or block(instance))
        records = run_eval(target, make_profile(), "few", ReplayTransport(mock_responses("gold", target)), pool=pool)
        assert len(records) == 24 and len(pool.instances) == 10
        assert sorted(built) == sorted(p.id for p in pool.instances)

    def test_target_never_sampled_across_seeds(self):
        pool, target, profile = self.pool(), self.target(), make_profile()
        prepared = self.prepared()
        for seed in range(1000):
            prompt = build_few_shot_prompt(target, prepared, next(prepared.orders(seed, 1)), profile)
            assert target.id not in prompt.exemplar_ids
            assert all(pool.by_id(i).pair_id != target.pair_id for i in prompt.exemplar_ids)
