from __future__ import annotations

import json
import os
import stat
from dataclasses import dataclass, replace
from json.encoder import ESCAPE_DCT, encode_basestring

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pricetree import jsonmap
from pricetree.corpus_io import dataset_from_lines, dataset_to_lines
from pricetree.errors import DatasetParseError, PricetreeError
from pricetree.formulas import Linear, RootValue
from pricetree.harness.prompts import ModelProfile
from pricetree.harness.scoring import EvalRecord
from pricetree.jsonmap import (
    LONG_TEXT,
    from_file_json,
    from_json,
    json_line,
    json_lines,
    to_json,
    to_json_line,
    write_json_lines,
    write_text,
)
from pricetree.pipeline import GenConfig, ProblemInstance
from pricetree.wording import ItemMap, ItemName

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


@pytest.mark.parametrize(
    "required, built",
    [
        ({"numVars": 4, "ansDepth": 3, "cutDepth": 1, "compositeName": True}, GenConfig(4, 3, 1, True)),
        ({"endpoint": "e", "model": "m"}, ModelProfile("e", "m")),
    ],
)
def test_missing_file_keys_take_the_defaults(required, built):
    assert from_file_json(type(built), required, "file") == built


def test_bool_is_not_an_int():
    with pytest.raises(TypeError, match="concurrency must be int, got bool"):
        profile(concurrency=True)


def test_int_is_a_float():
    assert profile(timeoutSeconds=120).timeout_seconds == 120
    with pytest.raises(TypeError, match="timeoutSeconds must be float, got str"):
        profile(timeoutSeconds="120")


def test_unknown_formula_kind_is_named():
    data = json.loads(json.dumps(to_json(make_corpus(count=1).instances[0])))
    data["formulas"][0]["kind"] = "quadratic"
    with pytest.raises(ValueError, match="unknown formula kind 'quadratic'"):
        ProblemInstance.from_json_dict(data)


def _first_linear(record: dict) -> dict:
    return next(f for f in record["formulas"] if f["kind"] == "linear")


def _rename_name_key(record: dict, key: str) -> None:
    names = record["itemMap"]["names"]
    names[key] = names.pop("1")


# a fault in line 3 of a corpus, and the whole message reading it gives
_DECODE_FAULTS = {
    "formula rhs": (lambda r: _first_linear(r).update(rhs="3"), "rhs must be int, got str"),
    "item dish": (lambda r: r["itemMap"]["names"]["1"].update(dish=5), "dish must be str, got int"),
    "names key": (lambda r: _rename_name_key(r, "x"), "invalid literal for int() with base 10: 'x'"),
    "names key with a space": (
        lambda r: _rename_name_key(r, " 1"), "names key must be an int in canonical form, got ' 1'"
    ),
    "names key with a leading zero": (
        lambda r: _rename_name_key(r, "01"), "names key must be an int in canonical form, got '01'"
    ),
    "names key with an underscore": (
        lambda r: _rename_name_key(r, "1_0"), "names key must be an int in canonical form, got '1_0'"
    ),
    "names key with a plus sign": (
        lambda r: _rename_name_key(r, "+3"), "names key must be an int in canonical form, got '+3'"
    ),
    "names key in Arabic-Indic digits": (
        lambda r: _rename_name_key(r, "\u0663"), "names key must be an int in canonical form, got '\u0663'"
    ),
    "condition sentence": (
        lambda r: r.update(conditionSentences=[1]), "conditionSentences must be str, got int"
    ),
    "formula kind": (lambda r: r["formulas"][0].update(kind="quadratic"), "unknown formula kind 'quadratic'"),
    "formula kind missing": (lambda r: r["formulas"][0].pop("kind"), "unknown formula kind None"),
    "formula not an object": (lambda r: r.update(formulas=[3]), "formulas must be dict, got int"),
    "formulas not a list": (lambda r: r.update(formulas=None), "formulas must be list, got NoneType"),
    "names not an object": (lambda r: r["itemMap"].update(names=[]), "names must be dict, got list"),
    "item not an object": (lambda r: r["itemMap"]["names"].update({"1": "x"}), "names must be dict, got str"),
    "item restaurant missing": (lambda r: r["itemMap"]["names"]["1"].pop("restaurant"), "missing key 'restaurant'"),
    "itemMap composite": (lambda r: r["itemMap"].update(composite=1), "composite must be bool, got int"),
    "goldAnswer": (lambda r: r.update(goldAnswer="3"), "goldAnswer must be int, got str"),
    "formula variable without a name": (
        lambda r: r["formulas"].append({"kind": "rootValue", "var": 99, "value": 7}),
        "variables not in itemMap.names: 99",
    ),
    "questionedVar without a name": (
        lambda r: r.update(questionedVar=99), "variables not in itemMap.names: 99"
    ),
    "item names dropped": (
        lambda r: (r["itemMap"]["names"].pop("1"), r["itemMap"]["names"].pop("3")),
        "variables not in itemMap.names: 1, 3",
    ),
    "first of two fields": (
        lambda r: (r.update(conditionSentences=[1]), _first_linear(r).update(rhs="3")),
        "conditionSentences must be str, got int",
    ),
    "first of two formula keys": (
        lambda r: _first_linear(r).update(rhs="3", parentCoeff=True), "parentCoeff must be int, got bool"
    ),
}


def _corpus_lines() -> list[str]:
    return dataset_to_lines(make_corpus(count=2, composite_name=True))


@pytest.mark.parametrize("fault", list(_DECODE_FAULTS))
def test_decoder_names_the_first_fault(fault):
    mutate, reason = _DECODE_FAULTS[fault]
    lines = _corpus_lines()
    record = json.loads(lines[2])
    mutate(record)
    lines[2] = json.dumps(record, ensure_ascii=False)
    with pytest.raises(DatasetParseError) as caught:
        dataset_from_lines(lines, "corpus.jsonl")
    assert str(caught.value) == f"corpus.jsonl line 3: {reason}"


def test_decoder_accepts_a_null_restaurant():
    lines = _corpus_lines()
    record = json.loads(lines[2])
    record["itemMap"]["names"]["1"]["restaurant"] = None
    lines[2] = json.dumps(record, ensure_ascii=False)
    instance = dataset_from_lines(lines).instances[1]
    assert instance.item_map.names[1].restaurant is None
    assert instance.item_map.names[1].dish == record["itemMap"]["names"]["1"]["dish"]


# The corpus reader (corpus_io) gives a line whose itemMap equals the previous line's that line's ItemMap,
# and a freshly decoded map the file's first ItemName of each name.  A line 3 whose itemMap no longer equals
# line 2's is checked afresh: _DECODE_FAULTS faults line 3's itemMap after a valid line 2.


def test_a_twin_whose_item_map_differs_in_one_name_is_decoded_afresh():
    lines = _corpus_lines()
    record = json.loads(lines[2])
    record["itemMap"]["names"]["1"]["dish"] = "other dish"
    lines[2] = json.dumps(record, ensure_ascii=False)
    answerable, unanswerable = dataset_from_lines(lines).instances[:2]
    assert unanswerable.item_map is not answerable.item_map
    assert unanswerable.item_map.names[1].dish == "other dish"
    assert answerable.item_map.names[1].dish != "other dish"
    assert all(unanswerable.item_map.names[var] is name for var, name in answerable.item_map.names.items() if var != 1)


def test_a_first_instance_line_without_an_item_map_is_a_missing_key():
    lines = _corpus_lines()
    record = json.loads(lines[1])
    del record["itemMap"]
    lines[1] = json.dumps(record, ensure_ascii=False)
    with pytest.raises(DatasetParseError) as caught:
        dataset_from_lines(lines, "corpus.jsonl")
    assert str(caught.value) == "corpus.jsonl line 2: missing key 'itemMap'"


def test_an_object_of_another_class_is_not_taken_for_a_nested_one():
    data = to_json(make_corpus(count=1).instances[0])
    data["itemMap"] = ItemName("pie", "pies")
    with pytest.raises(TypeError) as caught:
        from_json(ProblemInstance, data)
    assert str(caught.value) == "itemMap must be dict, got ItemName"


# Strings that need escaping, are not ASCII or hold lone surrogates, ints past 64 bits, and float
# fields holding ints, -0.0, NaN and infinities: the inputs where an encoder may part from the stdlib's.
# Long strings, at and around jsonmap.LONG_TEXT characters and up to 4 KB, hold up to 5 of the 34
# escaped characters (often a backslash, a quote, a newline or a tab), so a long_text field takes
# both the replace path and its C-escaper fallback.
_UNESCAPED = ["a", " ", "\x7f", "\u2028", "é", "😀", "\ud800", "\udfff"]
_LONG_LENGTHS = [LONG_TEXT - 1, LONG_TEXT, LONG_TEXT + 1, 2 * LONG_TEXT + 1, 3 * LONG_TEXT, 4 * LONG_TEXT]
_ESCAPED = st.one_of(st.sampled_from('\\"\n\t'), st.sampled_from(list(ESCAPE_DCT)))


@st.composite
def _long_texts(draw) -> str:
    escaped = draw(st.lists(_ESCAPED, max_size=5, unique=True))
    unit = draw(st.text(st.sampled_from(escaped + _UNESCAPED), min_size=1, max_size=40)) + "".join(escaped)
    length = draw(st.sampled_from(_LONG_LENGTHS))
    return (unit * (length // len(unit) + 1))[:length]


_texts = st.one_of(
    st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u2028\u2029é€😀\ud800\udfff'), st.characters())),
    _long_texts(),
)
_ints = st.one_of(st.integers(), st.integers(min_value=2**70), st.integers(max_value=-(2**70)))
_floats = st.one_of(st.floats(), st.integers())
_json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), _ints, st.sampled_from([-0.0, float("nan"), 1e400, -1e400]), st.floats(), _texts
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_texts, inner, max_size=3),
    max_leaves=8,
)
_objects = st.dictionaries(_texts, _json_values, max_size=4)

_instances = st.builds(
    ProblemInstance,
    id=_texts,
    variant=_texts,
    full_text=_texts,
    condition_sentences=st.lists(_texts, max_size=3).map(tuple),
    formulas=st.lists(
        st.builds(RootValue, _ints, _ints) | st.builds(Linear, _ints, _ints, _ints, _ints, _ints), max_size=3
    ).map(tuple),
    item_map=st.builds(
        ItemMap, st.booleans(), st.dictionaries(_ints, st.builds(ItemName, _texts, _texts, st.none() | _texts))
    ),
    questioned_var=_ints,
    gold_answer=st.none() | _ints,
    gold_solution_text=_texts,
    pair_id=_texts,
    metadata=_objects,
)
_records = st.builds(
    EvalRecord,
    *[_texts] * 4,
    outcome=st.none() | _texts,
    verdict=st.none() | _texts,
    value=st.none() | _ints,
    raw_tail=_texts,
    response=st.none() | _texts,
    latency_ms=st.none() | _floats,
    transport_failed=st.booleans(),
    config_cell=_objects,
    gold_answer=st.none() | _ints,
    exemplar_ids=st.none() | st.lists(_texts, max_size=3),
)
_configs = st.builds(
    GenConfig,
    num_vars=st.just(5),
    ans_depth=st.just(3),
    cut_depth=st.just(1),
    composite_name=st.booleans(),
    count=st.integers(min_value=1, max_value=2**32),
    corpus_seed=st.integers(min_value=0),
    dish_vocab=st.none() | _texts,
    restaurant_vocab=st.none() | _texts,
)

_EVERY_OPTIONAL_NONE = [
    ProblemInstance("i", "unanswerable", "t", (), (), ItemMap(False, {1: ItemName("d", "ds")}), 1, None, "g", "p", {}),
    EvalRecord("i", "p", "answerable", "zero", None, None, None, "", None, None, True, {}, None, None),
    GenConfig(num_vars=5, ans_depth=3, cut_depth=1, composite_name=True),
]


@settings(deadline=None, max_examples=300)
@given(obj=st.one_of(_instances, _records, _configs))
@example(obj=_EVERY_OPTIONAL_NONE[0])
@example(obj=_EVERY_OPTIONAL_NONE[1])
@example(obj=_EVERY_OPTIONAL_NONE[2])
def test_text_encoder_writes_the_stdlib_line(obj):
    line = to_json_line(obj)
    parsed = json.loads(line)
    assert line == stdlib_line(parsed)  # the stdlib's encoding of its own parse, which is to_json(obj)
    assert to_json_line(from_json(type(obj), parsed)) == line


_MIXES = {
    "nothing escaped": "The soup costs $4 more than é or 😀.\u2028\x7f ",
    "newlines": "Step 1: the soup costs $4 more.\n",
    "newlines and quotes": 'Step 1: the "soup" costs $4 more.\n',
    "three escaped": 'Step 1: the "soup" costs \\(4\\) more.\n',
    "four escaped": 'Step 1:\tthe "soup" costs \\(4\\) more.\n',
    "every escaped": "".join(ESCAPE_DCT) + "é😀\ud800",
    "dense": "a\n",
}


@pytest.mark.parametrize("length", [LONG_TEXT - 1, LONG_TEXT, LONG_TEXT + 1, 3 * LONG_TEXT + 1])
@pytest.mark.parametrize("mix", list(_MIXES))
def test_long_text_is_escaped_as_the_stdlib_escapes_it(mix, length):
    text = (_MIXES[mix] * length)[:length]
    assert jsonmap._escaped(text) == encode_basestring(text)
    record = replace(_EVERY_OPTIONAL_NONE[1], response=text)
    assert json.loads(to_json_line(record))["response"] == text
    assert to_json_line(record) == stdlib_line(to_json(record))


@settings(max_examples=500)
@given(text=_long_texts())
def test_escaped_is_the_stdlib_escape(text):
    assert jsonmap._escaped(text) == encode_basestring(text)


@pytest.mark.parametrize("char", list(ESCAPE_DCT))
def test_each_escaped_character_is_escaped_in_a_long_text_alone_and_after_a_backslash(char):
    for text in (f"{char}é" * LONG_TEXT, f"\\{char}é" * LONG_TEXT):
        assert jsonmap._escaped(text) == encode_basestring(text)


class _Text(str):
    pass


@pytest.mark.parametrize("length", [10, LONG_TEXT - 1, LONG_TEXT])
def test_a_long_text_field_holding_a_str_subclass_writes_the_stdlib_line(length):
    value = _Text(('Step 1: the "soup" costs \\(4\\) more.\n' * length)[:length])
    for obj in (replace(_EVERY_OPTIONAL_NONE[1], response=value), replace(_EVERY_OPTIONAL_NONE[0], full_text=value)):
        line = to_json_line(obj)
        assert line == stdlib_line(json.loads(line))
        assert value in json.loads(line).values()


@pytest.mark.parametrize("value", [7, None, ["x"] * (LONG_TEXT + 1), b"x" * LONG_TEXT])
def test_a_long_text_field_holding_a_value_that_is_not_a_str_raises(value):
    objs = [replace(_EVERY_OPTIONAL_NONE[0], full_text=value)]  # not Optional: None is not a str there
    if value is not None:
        objs.append(replace(_EVERY_OPTIONAL_NONE[1], response=value))
    for obj in objs:
        with pytest.raises(TypeError) as error:
            to_json_line(obj)
        with pytest.raises(TypeError) as stdlib_error:
            encode_basestring(value)
        assert str(error.value) == str(stdlib_error.value)
        assert error.value.__context__ is None  # not raised while handling another error


def test_a_missing_gold_answer_is_left_out_of_the_line():
    line = to_json_line(_EVERY_OPTIONAL_NONE[0])
    assert "goldAnswer" not in json.loads(line)
    assert from_json(ProblemInstance, json.loads(line)) == _EVERY_OPTIONAL_NONE[0]


def stdlib_line(value) -> str:
    return json.JSONEncoder(ensure_ascii=False).encode(value)


@settings(max_examples=300)
@given(value=_json_values)
@example(value={"latencyMs": -0.0, "configCell": {"ansDepth": 8, "mode": "few"}, "x": [1e400, float("nan")]})
@example(value="\ud800")
def test_json_line_is_the_stdlib_encoding(value):
    assert json_line(value) == stdlib_line(value)


def test_json_line_raises_the_stdlib_type_error_and_recovers():
    value = {"a": [1, {"b": object()}]}
    with pytest.raises(TypeError) as stdlib_error:
        stdlib_line(value)
    with pytest.raises(TypeError) as error:
        json_line(value)
    assert str(error.value) == str(stdlib_error.value) == "Object of type object is not JSON serializable"
    shared = {"k": 1}
    assert json_line([shared, shared]) == '[{"k": 1}, {"k": 1}]'  # no stale circular-reference marker


def test_json_line_without_the_c_accelerator_is_the_stdlib_encode(monkeypatch):
    monkeypatch.setattr(jsonmap, "c_make_encoder", None)
    encode = jsonmap._line_encoder()
    assert encode.__func__ is json.JSONEncoder.encode and encode.__self__.ensure_ascii is False
    for value in ({"é": [1.5, None, True, "\x00"]}, 2.0, float("nan"), "\ud800", 10**30):
        assert encode(value) == json_line(value) == stdlib_line(value)


_VALID_LINES = [
    "{}",
    '{"a": [1, 2.5, -0.0, null, true, false], "b": {"c": "é\\u00e9\\n"}}',
    '{"a":1,"b":[]}',
    '{"n": 1e400, "m": -Infinity, "nan": NaN}',
    '{"s": "\\ud800"}',
    ' {"lead": 1}',  # whitespace that a caller did not strip
    '{"trail": 1} ',
    '{"deep": ' + "[" * 500 + "]" * 500 + "}",
]


@pytest.mark.parametrize("line", _VALID_LINES)
def test_json_lines_decodes_as_json_loads(line):
    assert repr(list(json_lines([(1, line)], "src", lambda data: data, None))) == repr([json.loads(line)])


_MALFORMED_LINES = {
    "byte order mark": '\ufeff{"a": 1}',
    "text after the object": '{"a": 1} x',
    "two objects": '{"a": 1}{"b": 2}',
    "truncated object": '{"a": 1, "b": [1, 2',
    "trailing comma": '{"a": 1,}',
    "unterminated string": '{"a": "b',
    "control character": '{"a": "\x01"}',
    "not JSON": "x",
    "top-level list": "[1, 2]",
    "top-level string": '"a"',
    "top-level NaN": "NaN",
    "100,000 nested lists": "[" * 100_000,
}


@pytest.mark.parametrize("fault", list(_MALFORMED_LINES))
def test_json_lines_reports_what_json_loads_reports(fault):
    line = _MALFORMED_LINES[fault]
    try:
        data = json.loads(line)
    except (ValueError, RecursionError) as exc:
        reason = str(exc)
    else:
        assert not isinstance(data, dict)
        reason = "expected a JSON object"
    with pytest.raises(DatasetParseError) as caught:
        list(json_lines([(1, '{"ok": 1}'), (7, line)], "records.jsonl", dict, None))
    assert str(caught.value) == f"records.jsonl line 7: {reason}"


_REPEATING = [(1, '{"id": "a", "n": 1}'), (3, '{"id": "b", "n": 2}'), (4, '{"id": "a", "n": 3}'), (6, "x")]


def test_json_lines_without_a_key_keeps_repeated_ids():
    lines = _REPEATING[:3]
    assert list(json_lines(lines, "records.jsonl", dict, None)) == [json.loads(text) for _, text in lines]


def test_json_lines_with_a_key_rejects_the_repeat_naming_both_lines():
    # the repeat is found in the one pass, before the malformed line after it is read
    with pytest.raises(DatasetParseError) as caught:
        list(json_lines(_REPEATING, "corpus.jsonl", dict, "id"))
    assert str(caught.value) == "corpus.jsonl line 4: id 'a' repeats line 1"


def test_json_lines_checks_the_key_after_converting_the_line():
    def convert(data):
        if data["n"] == 3:
            raise ValueError("n must not be 3")
        return data

    with pytest.raises(DatasetParseError) as caught:
        list(json_lines(_REPEATING, "corpus.jsonl", convert, "id"))
    assert str(caught.value) == "corpus.jsonl line 4: n must not be 3"


def test_write_text_makes_the_directory_and_keeps_line_ends(tmp_path):
    path = tmp_path / "new" / "deeper" / "series.csv"
    write_text(path, ["a,b\r\n", "1,2\r\n", "é\n"])
    assert path.read_bytes() == "a,b\r\n1,2\r\né\n".encode("utf-8")
    write_json_lines(str(tmp_path / "fresh" / "r.jsonl"), iter(['{"a": 1}', '{"b": 2}']))
    assert (tmp_path / "fresh" / "r.jsonl").read_bytes() == b'{"a": 1}\n{"b": 2}\n'
    write_text(path, ["x\n"])  # a long file rewritten with shorter text keeps no tail of the old one
    assert path.read_bytes() == b"x\n"


def test_write_text_leaves_a_hard_link_to_the_old_file_as_it_was(tmp_path):
    path = tmp_path / "records.jsonl"
    write_text(path, ["old\n"])
    (tmp_path / "kept.jsonl").hardlink_to(path)
    write_text(path, ["new\n"])
    assert path.read_bytes() == b"new\n"
    assert (tmp_path / "kept.jsonl").read_bytes() == b"old\n"


def test_write_text_follows_a_symlink_and_writes_a_pipe_in_place(tmp_path):
    target = tmp_path / "target.csv"
    target.write_bytes(b"target, longer than the new text\n")
    link = tmp_path / "series.csv"
    link.symlink_to(target)
    write_text(link, ["new\n"])
    assert link.is_symlink()
    assert target.read_bytes() == b"new\n"
    pipe = tmp_path / "out.jsonl"  # as given by `--out /dev/stdout` or `--out /dev/fd/63`, both symlinks
    os.mkfifo(pipe)
    (tmp_path / "stdout").symlink_to(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)  # open now, so write_text's open does not wait
    try:
        write_text(pipe, ['{"a": 1}\n'])
        write_text(tmp_path / "stdout", ['{"b": 2}\n'])
        assert os.read(reader, 1024) == b'{"a": 1}\n{"b": 2}\n'
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(pipe).st_mode)
    assert (tmp_path / "stdout").is_symlink()


def test_write_text_under_a_file_is_one_error_naming_it(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("keep", encoding="utf-8")
    with pytest.raises(PricetreeError) as caught:
        write_text(taken / "r.jsonl", ["x\n"])
    assert str(caught.value) == f"{taken}: cannot write (File exists)"
    with pytest.raises(PricetreeError) as caught:
        write_text(tmp_path, ["x\n"])
    assert str(caught.value) == f"{tmp_path}: cannot write (Is a directory)"
    assert taken.read_text(encoding="utf-8") == "keep"
