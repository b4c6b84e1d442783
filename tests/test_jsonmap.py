from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from pricetree.harness.prompts import ModelProfile
from pricetree.jsonmap import from_file_json, from_json, to_json
from pricetree.pipeline import ProblemInstance

from factories import make_corpus


@dataclass(frozen=True)
class Tagged:
    tags: set[int]


def profile(**values) -> ModelProfile:
    return from_file_json(ModelProfile, {"endpoint": "e", "model": "m", **values}, "profile")


@pytest.mark.parametrize("call", [lambda: to_json(Tagged({1})), lambda: from_json(Tagged, {"tags": [1]})])
def test_annotation_without_a_json_form_raises_on_first_use(call):
    with pytest.raises(NotImplementedError, match="tags: no JSON form"):
        call()


def test_bool_is_not_an_int():
    with pytest.raises(TypeError, match="concurrency must be int, got bool"):
        profile(concurrency=True)


def test_int_is_a_float():
    assert profile(timeoutSeconds=120).timeout_seconds == 120
    with pytest.raises(TypeError, match="timeoutSeconds must be float, got str"):
        profile(timeoutSeconds="120")


def test_unknown_formula_kind_is_named():
    data = json.loads(json.dumps(make_corpus(count=1).instances[0].to_json_dict()))
    data["formulas"][0]["kind"] = "quadratic"
    with pytest.raises(ValueError, match="unknown formula kind 'quadratic'"):
        ProblemInstance.from_json_dict(data)
