"""The package's file framings and the camelCase JSON keys of its dataclasses.

A file is text lines (vocabularies), one JSON object (configs, profiles) or
JSON Lines (corpora, records, replays: one object per line, blank lines
skipped, UTF-8, non-ASCII kept, ``\\n`` after every line).  Only this module
opens, decodes and splits files; a missing, unreadable, non-UTF-8 or badly
framed file is a PricetreeError naming the path, and the line if there is one.

A dataclass field ``snake_case`` is stored under the key ``snakeCase``, in
field order; the key table is derived once per class.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path
from typing import Any, Callable, Iterable

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


@functools.cache
def json_keys(cls: type) -> dict[str, str]:
    """camelCase JSON key -> dataclass field name, in field order."""
    keys = {}
    for field in dataclasses.fields(cls):
        head, *rest = field.name.split("_")
        keys[head + "".join(word.capitalize() for word in rest)] = field.name
    return keys


def to_json(obj) -> dict:
    """Every field of a dataclass instance under its camelCase key."""
    values = vars(obj)
    return {key: values[name] for key, name in json_keys(type(obj)).items()}


def from_json(cls: type, data: dict):
    """Build `cls` from data this package wrote, passing fields in field order.

    A missing key raises KeyError and data that is not an object TypeError,
    which the file readers report as a malformed line.
    """
    return cls(*[data[key] for key in json_keys(cls)])


def from_file_json(cls: type, data: dict, what: str):
    """Build `cls` from a hand-written file, where a key may be mistyped or left out.

    Unknown keys, and missing keys of fields without a default, raise
    InvalidConfigError naming them; other missing keys take the default.
    """
    keys = json_keys(cls)
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise InvalidConfigError(f"unknown {what} keys: {', '.join(unknown)}")
    missing = [
        key
        for key, field in zip(keys, dataclasses.fields(cls))
        if key not in data
        and field.default is dataclasses.MISSING
        and field.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise InvalidConfigError(f"missing {what} keys: {', '.join(missing)}")
    return cls(**{keys[key]: value for key, value in data.items()})
