#!/usr/bin/env python3
"""The whole evaluation loop without a network: mock responses, replay, reports.

The `unknown` mock refuses every question (never hallucinates, never
answers), the `five` mock answers 5 to everything (always hallucinates),
and the `gold` mock plays a perfect model.  A replay transport then shows
how recorded responses are re-scored.
"""

import json
import tempfile
from pathlib import Path

from pricetree import GenConfig, generate_corpus
from pricetree.harness import (
    ReplayTransport,
    aggregate,
    build_zero_shot_prompt,
    format_text_table,
    mock_responses,
    run_eval,
)
from pricetree.harness.prompts import ModelProfile

profile = ModelProfile(endpoint="offline://nowhere", model="demo-model")
config = GenConfig(
    num_vars=7,
    ans_depth=5,
    cut_depth=2,
    composite_name=True,
    order="random",
    count=40,
    corpus_seed=99,
)
dataset = generate_corpus(config)

print("== the prompt a model would see ==")
for message in build_zero_shot_prompt(dataset.instances[1], profile):
    print(f"[{message.role}] {message.content}\n")

for name in ("unknown", "five", "gold"):
    records = run_eval(dataset, profile, "zero", ReplayTransport(mock_responses(name, dataset)))
    table = aggregate(records, ["ansDepth"])
    print(f"== mock:{name} ==")
    print(format_text_table(table))
    print()

# replay: a recorded run where the model hallucinated on 30% of the
# unanswerable questions and solved 80% of the answerable ones
responses = {}
unanswerable = [i for i in dataset.instances if i.variant == "unanswerable"]
answerable = [i for i in dataset.instances if i.variant == "answerable"]
for k, instance in enumerate(unanswerable):
    responses[instance.id] = "Answer: 9" if k < 12 else "Answer: unknown."
for k, instance in enumerate(answerable):
    gold = instance.gold_answer if k < 32 else instance.gold_answer + 1
    responses[instance.id] = f"Let me work through this. Answer: {gold}"

replay_path = Path(tempfile.mkdtemp()) / "replay.jsonl"
replay_path.write_text(
    "\n".join(
        json.dumps({"instanceId": i, "responseText": t}) for i, t in responses.items()
    ),
    encoding="utf-8",
)
records = run_eval(dataset, profile, "zero", ReplayTransport.from_file(replay_path))
print("== replayed recorded run ==")
print(format_text_table(aggregate(records, ["ansDepth", "cutDepth"])))
