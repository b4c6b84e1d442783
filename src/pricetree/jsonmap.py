"""The package's file framings and the JSON form of its dataclasses.

A file is text lines (vocabularies), one JSON object (configs, profiles) or
JSON Lines (corpora, records, replays: one object per line, blank lines
skipped, UTF-8, non-ASCII kept, ``\\n`` after every line).  Only this module
opens, decodes and splits files; a missing, unreadable, non-UTF-8 or badly
framed file is a PricetreeError naming the path, and the line if there is one.

A dataclass field ``snake_case`` is stored under the key ``snakeCase``, in
field order.  A plan built once per class from its annotations gives each
field an encoder and a decoder that checks the JSON type, raising a TypeError
naming the key; from the plan each class gets one compiled encoder and one
compiled decoder, which `to_json` and `from_json` use.  The plan knows int
(not bool), float (int too), bool, str, dict, Optional[T], tuple[T, ...],
list[T], dict[int, T] (string keys), nested dataclasses and Unions of
dataclasses told apart by a ``kind`` ClassVar; any other annotation raises
when the plan is built.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import typing
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Union

from .errors import DatasetParseError, InvalidConfigError, PricetreeError

json_line = json.JSONEncoder(ensure_ascii=False).encode  # one JSON Lines entry, without its line end


def _read_text(path: str | Path) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise PricetreeError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise PricetreeError(f"{path} line {line}: not UTF-8 ({exc.reason})") from exc


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 file, split at ``\\n`` only: JSON strings may hold U+2028."""
    return _read_text(path).split("\n")


def nonblank_lines(lines: Iterable[str]) -> list[tuple[int, str]]:
    """(line number from 1, stripped text) of each line that is not blank."""
    return [(n, text) for n, line in enumerate(lines, start=1) if (text := line.strip())]


def json_lines(numbered: list[tuple[int, str]], source: str, convert: Callable[[dict], Any]) -> list:
    """`convert` the JSON object on each numbered line; any failure names the line."""
    converted = []
    try:
        for n, line in numbered:
            data = json.loads(line)
            if not isinstance(data, dict):
                raise TypeError("expected a JSON object")
            converted.append(convert(data))
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)
        raise DatasetParseError(f"{source} line {n}: {reason}") from exc
    return converted


def read_json_lines(path: str | Path, convert: Callable[[dict], Any]) -> list:
    """`convert` each entry of a JSON Lines file."""
    return json_lines(nonblank_lines(read_lines(path)), str(path), convert)


def write_json_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write `json_line` entries to a UTF-8 file, each ended by ``\\n``."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(line + "\n" for line in lines)
    except OSError as exc:
        raise PricetreeError(f"{path}: cannot write ({exc.strerror or exc})") from exc


def read_json_file(cls: type, path: str | Path, what: str):
    """`cls` from a file holding one JSON object written by hand: a config or a profile."""
    try:
        data = json.loads(_read_text(path))  # a read failure is a PricetreeError, not caught here
        if not isinstance(data, dict):
            raise TypeError("expected a JSON object")
        return from_file_json(cls, data, what)
    except (InvalidConfigError, TypeError, ValueError) as exc:
        raise InvalidConfigError(f"{path}: {exc}") from exc


_PLAIN = {int: (int,), float: (float, int), bool: (bool,), str: (str,), dict: (dict,)}


def _expect(key: str, types: tuple, value):
    """`value` if its type is one of `types` (so a bool is not an int), else a TypeError naming `key`."""
    if type(value) in types:
        return value
    raise TypeError(f"{key} must be {types[0].__name__}, got {type(value).__name__}")


def _codec(tp, key: str) -> tuple[Optional[Callable], Callable, Optional[tuple]]:
    """(encoder, None when the value is its own JSON form; checking decoder;
    checked types: the JSON types allowed when a type check is the whole
    decoding, else None) of one annotation."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in _PLAIN:  # values that are their own JSON form
        return None, functools.partial(_expect, key, _PLAIN[tp]), _PLAIN[tp]
    if dataclasses.is_dataclass(tp):
        encode, decode = _compiled(tp)
        return encode, lambda value: decode(_expect(key, (dict,), value)), None
    if origin is Union and type(None) in args:
        enc, dec, types = _codec(Union[tuple(arg for arg in args if arg is not type(None))], key)
        return (
            enc and (lambda v: v if v is None else enc(v)),
            lambda v: v if v is None else dec(v),
            types and types + (type(None),),  # last: `_expect` names the first type
        )
    if origin is Union and all(isinstance(getattr(c, "kind", None), str) for c in args):
        encoders = {c: _compiled(c)[0] for c in args}
        decoders = {c.kind: _compiled(c)[1] for c in args}
        def decode_tagged(value):
            tag = _expect(key, (dict,), value).get("kind")
            if tag not in decoders:
                raise ValueError(f"unknown {key.removesuffix('s')} kind {tag!r}")
            return decoders[tag](value)
        return (lambda v: {"kind": v.kind, **encoders[type(v)](v)}), decode_tagged, None
    if origin is list or (origin is tuple and args[1:] == (...,)):
        enc, dec, _ = _codec(args[0], key)
        encode = enc and (lambda v: [enc(item) for item in v])
        return encode, lambda value: origin(map(dec, _expect(key, (list,), value))), None
    if origin is dict and args[0] is int:  # JSON object keys are strings
        enc, dec, _ = _codec(args[1], key)
        return (
            lambda v: {str(k): item if enc is None else enc(item) for k, item in v.items()},
            lambda value: {int(k): dec(item) for k, item in _expect(key, (dict,), value).items()},
            None,
        )
    raise NotImplementedError(f"{key}: no JSON form for the annotation {tp!r}")


@functools.cache
def _plan(cls: type) -> tuple:
    """(camelCase key, field name, encoder, decoder, checked types) of each field of a dataclass, in field order."""
    hints = typing.get_type_hints(cls)
    names = [field.name for field in dataclasses.fields(cls)]
    keys = [re.sub("_(.)", lambda m: m[1].upper(), name) for name in names]
    return tuple((key, name, *_codec(hints[name], key)) for key, name in zip(keys, names))


@functools.cache
def _compiled(cls: type) -> tuple[Callable, Callable]:
    """(encode, decode) of a dataclass: straight-line code built once from its plan.

    As `dataclasses` builds ``__init__``, the source is generated and exec'd.
    The decoder reads the keys in field order, so the first missing or
    mistyped one is reported; a value that needs no conversion has its type
    checked inline, and any other goes through its field's decoder.
    """
    env: dict[str, Any] = {"cls": cls, "_expect": _expect}
    items, decode = [], ["def decode(data):"]
    for i, (key, name, enc, dec, types) in enumerate(_plan(cls)):
        env[f"e{i}"], env[f"d{i}"], env[f"t{i}"] = enc, dec, types
        items.append(f"{key!r}: obj.{name}" if enc is None else f"{key!r}: e{i}(obj.{name})")
        if types is None:
            decode.append(f"    v{i} = d{i}(data[{key!r}])")
        else:
            decode.append(f"    v{i} = data[{key!r}]")
            decode.append(f"    if type(v{i}) not in t{i}: _expect({key!r}, t{i}, v{i})")
    decode.append(f"    return cls({', '.join(f'v{i}' for i in range(len(items)))})")
    encode = ["def encode(obj):", f"    return {{{', '.join(items)}}}"]
    exec("\n".join(encode + decode), env)
    return env["encode"], env["decode"]


def to_json(obj) -> dict:
    """Every field of a dataclass instance under its camelCase key, in its JSON form."""
    return _compiled(type(obj))[0](obj)


def from_json(cls: type, data: dict):
    """Build `cls` from data this package wrote; a missing key is a KeyError, a mistyped value a TypeError."""
    return _compiled(cls)[1](data)


def from_file_json(cls: type, data: dict, what: str):
    """Build `cls` from a hand-written file, where a key may be mistyped or left out.

    Unknown keys, and missing keys of fields without a default, raise
    InvalidConfigError naming them; other missing keys take the default.
    """
    plan = _plan(cls)
    unknown = sorted(set(data) - {key for key, *_ in plan})
    if unknown:
        raise InvalidConfigError(f"unknown {what} keys: {', '.join(unknown)}")
    missing = [
        key
        for (key, *_), field in zip(plan, dataclasses.fields(cls))
        if key not in data and field.default is field.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise InvalidConfigError(f"missing {what} keys: {', '.join(missing)}")
    return cls(**{name: decode(data[key]) for key, name, _, decode, _ in plan if key in data})
