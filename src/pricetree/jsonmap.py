"""camelCase JSON keys for the package's dataclasses.

Corpus lines, config and profile files and eval records all store a field
``snake_case`` under the key ``snakeCase``, in dataclass field order.  The
key table is derived once per class.
"""

from __future__ import annotations

import dataclasses
import functools

from .errors import InvalidConfigError


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
