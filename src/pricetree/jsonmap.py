"""The package's file framings and the JSON form of its dataclasses.

A file is text lines (vocabularies), one JSON object (configs, profiles) or
JSON Lines (corpora, records, replays: one object per line, blank lines
skipped, UTF-8, non-ASCII kept, ``\\n`` after every line).  Only this module
opens files and makes directories.  Every file is read through `read_lines`,
one line at a time, so a text-lines or JSON Lines reader holds no more of the
file than the line it is on; a one-object file is joined whole.
A missing, unreadable, non-UTF-8 or badly framed file, or a repeat of the key
a JSON Lines reader names as unique, is a PricetreeError naming the path, and
the line if there is one; a file with a bad byte anywhere fails as not UTF-8.
`write_text` writes every output (corpora, records, the report's text, JSON
and CSV files) whole, as a new file that replaces a regular file at its path,
and makes its missing directories.

A dataclass field ``snake_case`` is stored under the key ``snakeCase``, in
field order; a field made with `omitted_when_none` is left out when it is None
and read as None when its key is missing.  From its annotations each class
gets two functions, generated once as straight-line source and exec'd:

- `to_json_line` writes the JSON Lines text of an instance with one
  ``%``-template, nested dataclasses, sequences, tagged unions and int-keyed
  dicts inline.  Strings go through the stdlib's C escaper (the one
  ``JSONEncoder(ensure_ascii=False)`` uses), except a `long_text` field's
  value, which goes to `_escaped` whatever it holds.  `_escaped` alone
  decides, by type and length: a str of LONG_TEXT (1,024) characters or more
  it writes with one ``str.replace`` per escaped character it holds,
  backslash first, when it holds at most one such character per 1,024
  characters and at most three; any other value, a shorter one or one that
  is not a str, it leaves to the C escaper.  Ints go through ``%d``, and
  float and ``dict`` values through `json_line`, so the text is `json_line`
  of its own parse byte for byte.  `json_line` is one C encoder of the stdlib, built
  at import as ``JSONEncoder(ensure_ascii=False)`` builds one on every call;
  `json_lines` runs one C scanner, built at import, on each line, and leaves a
  line it cannot take whole to ``json.loads``, so every error text is the
  stdlib's.
- `from_json` reads the keys in field order, depth first, and checks the JSON
  type of every value inline, nested ones too, so the first missing key
  (KeyError) or mistyped value (TypeError naming its key) is the one reported.
  A nested dataclass field whose value is already an instance of its class
  takes it as it is: so a reader may hand it an object it decoded before.

`to_json`, the same form as dicts and lists, is the parse of that line, so the
generated encoder is the one statement of each class's JSON form; it serves the
header config and ``metadata.config``.  The mapping knows int (not bool),
float (int too), bool, str, dict, Optional[T], tuple[T, ...], list[T],
dict[int, T] (string keys, each exactly as ``str(int)`` writes it), nested
dataclasses and Unions of dataclasses told apart by a ``kind`` ClassVar; any
other annotation raises on first use.
"""

from __future__ import annotations

import dataclasses
import errno
import functools
import json
import os
import re
import stat
import typing
from contextlib import suppress
# encode_basestring: the escaper of ensure_ascii=False; ESCAPE_DCT: the text of each escape it writes
from json.encoder import ESCAPE_DCT, c_make_encoder, encode_basestring
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Union

from .errors import DatasetParseError, InvalidConfigError, PricetreeError


def _line_encoder() -> Callable[[Any], str]:
    """The C encoder that ``JSONEncoder(ensure_ascii=False).encode`` builds per call, built once.

    It keeps no markers dict, so it does not detect circular references:
    one shared dict would keep stale ids after an exception and could later
    report a false one.  The package hands it only acyclic values that it
    built or parsed.  Without the C accelerator it is the stdlib's encode.
    """
    stdlib = json.JSONEncoder(ensure_ascii=False)
    if c_make_encoder is None:
        return stdlib.encode
    encode = c_make_encoder(None, stdlib.default, encode_basestring, None, ": ", ", ", False, False, True)

    def json_line(value) -> str:
        """One JSON Lines entry, without its line end: ``JSONEncoder(ensure_ascii=False).encode(value)``."""
        return "".join(encode(value, 0))

    return json_line


json_line = _line_encoder()
_scan = json.JSONDecoder().scan_once  # the scanner json.loads runs, without its wrappers


def _cannot_read(path: str | Path, exc: OSError) -> PricetreeError:
    return PricetreeError(f"{path}: cannot read ({exc.strerror or exc})")


def _not_utf8(path: str | Path, line: int, exc: UnicodeDecodeError) -> PricetreeError:
    return PricetreeError(f"{path} line {line}: not UTF-8 ({exc.reason})")


def read_lines(path: str | Path) -> Iterator[str]:
    """The lines of a UTF-8 file, each read and decoded as it is taken, with the ``\\n`` that ends it.

    Lines end at ``\\n`` only (JSON strings may hold U+2028), and no UTF-8
    sequence holds that byte, so each line decodes as it would in the whole
    text.  A line that is not UTF-8 raises, naming its number.
    """
    try:
        with open(path, "rb") as fh:
            for n, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise _not_utf8(path, n, exc) from exc
                yield line
    except OSError as exc:
        raise _cannot_read(path, exc) from exc


def nonblank_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line number from 1, stripped text) of each line that is not blank, as the lines are taken."""
    return ((n, text) for n, line in enumerate(lines, start=1) if (text := line.strip()))


def read_rest(numbered: Iterator) -> None:
    """Take the rest of `numbered`, on the way to raising an error found in an earlier line.

    A later line of a file that is not UTF-8 raises here instead, so a file
    with a bad byte anywhere fails as not UTF-8, whatever else is wrong with
    it, though its lines are read one at a time.
    """
    for _ in numbered:
        pass


def json_lines(
    numbered: Iterable[tuple[int, str]], source: str, convert: Callable[[dict], Any], unique: str | None
) -> Iterator:
    """`convert` the JSON object on each numbered line, as the lines are taken; any failure names the line.

    A converted line whose `unique` key (None: entries may repeat) repeats an
    earlier line's is rejected, naming both: it would be read twice or
    silently win.  So every such key read is kept.  Each line is scanned once
    by the stdlib's scanner; a line with no value at its start, or with text
    after its value, goes to ``json.loads``, which raises its own error.  A
    failure takes the rest of `numbered` (`read_rest`) before it is raised.
    """
    numbered = iter(numbered)
    first_line: dict = {}
    for n, line in numbered:
        try:
            try:
                data, end = _scan(line, 0)
            except StopIteration:
                end = -1
            if end != len(line):
                data = json.loads(line)
            if not isinstance(data, dict):
                raise TypeError("expected a JSON object")
            converted = convert(data)
            if unique is not None and first_line.setdefault(key := data[unique], n) != n:
                raise ValueError(f"{unique} {key!r} repeats line {first_line[key]}")
        except (KeyError, TypeError, ValueError, RecursionError) as exc:  # a RecursionError: nested too deeply
            read_rest(numbered)
            reason = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)
            raise DatasetParseError(f"{source} line {n}: {reason}") from exc
        yield converted


def read_json_lines(path: str | Path, convert: Callable[[dict], Any], unique: str | None) -> Iterator:
    """`convert` each entry of a JSON Lines file as it is read; its `unique` key, if any, names one line each."""
    return json_lines(nonblank_lines(read_lines(path)), str(path), convert, unique)


def _cannot_write(path: str | Path, exc: OSError) -> PricetreeError:
    return PricetreeError(f"{exc.filename or path}: cannot write ({exc.strerror or exc})")


def make_parents(path: str | Path) -> None:
    """Make the missing directories of output file `path`, failing as `write_text` does, on a directory too."""
    try:
        if Path(path).is_dir():  # write_text's open would fail the same way, but only once the work is done
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _cannot_write(path, exc) from exc


def write_text(path: str | Path, chunks: Iterable[str]) -> None:
    """Write `chunks` to a new UTF-8 file as they come, line ends as given, making its missing directories.

    A regular file at `path` is unlinked first, never truncated: a hard link to
    it keeps the old bytes, and its mode is not kept.  A symlink is followed
    (``/dev/stdout`` is one), and a pipe or a device is written in place.
    Nothing is fsynced, and ext4 starts no writeback at close for a new file as
    it does for a truncated one: a crash soon after an overwrite can leave the
    output empty or missing.
    """
    try:
        try:
            # truncating a file whose data is on disk frees its blocks and starts
            # writeback at close; a new file's data can stay in the page cache
            with suppress(FileNotFoundError):
                if stat.S_ISREG(os.lstat(path).st_mode):
                    os.unlink(path)
            fh = open(path, "w", encoding="utf-8", newline="")
        except (FileNotFoundError, NotADirectoryError):  # a missing directory, or a file in its place
            # mkdir only now: on an existing directory it cost 25-45 us, half a small corpus file's write
            make_parents(path)
            fh = open(path, "w", encoding="utf-8", newline="")
        with fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise _cannot_write(path, exc) from exc


def write_json_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write `json_line` entries to a UTF-8 file, each ended by ``\\n``."""
    write_text(path, (line + "\n" for line in lines))


def read_json_file(cls: type, path: str | Path, what: str):
    """`cls` from a file holding one JSON object written by hand: a config or a profile."""
    try:
        data = json.loads("".join(read_lines(path)))  # a read failure is a PricetreeError, not caught here
        if not isinstance(data, dict):
            raise TypeError("expected a JSON object")
        return from_file_json(cls, data, what)
    except (InvalidConfigError, TypeError, ValueError, RecursionError) as exc:
        raise InvalidConfigError(f"{path}: {exc}") from exc


_PLAIN = {int: (int,), float: (float, int), bool: (bool,), str: (str,), dict: (dict,)}

_OMIT_NONE = "pricetree.jsonmap.omitNone"
_LONG = "pricetree.jsonmap.longText"


def omitted_when_none() -> Any:
    """A dataclass field left out of the JSON form when it is None, and read as None when its key is missing."""
    return dataclasses.field(metadata={_OMIT_NONE: True})


def long_text() -> Any:
    """A str (or Optional[str]) dataclass field whose value may run to kilobytes: a corpus text or a model response.

    Each of its values goes to `_escaped`, which picks the escaper by type
    and length.  Other fields keep the bare C escaper: the call and its length
    test would cost every short string about 45 ns.  A value that is not a
    str raises the C escaper's TypeError, as in any field.
    """
    return dataclasses.field(metadata={_LONG: True})


@functools.cache
def _fields(cls: type) -> tuple:
    """(camelCase key, field name, annotation, left out when None, long text) of each field of a dataclass,
    in field order."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (re.sub("_(.)", lambda m: m[1].upper(), f.name), f.name, hints[f.name], _OMIT_NONE in f.metadata,
         _LONG in f.metadata)
        for f in dataclasses.fields(cls)
    )


@functools.cache
def _shape(tp, key: str) -> tuple[str, Any]:
    """(form, detail) of an annotation that has a JSON form; any other raises."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in _PLAIN:  # values that are their own JSON form
        return "plain", _PLAIN[tp]
    if dataclasses.is_dataclass(tp):
        return "object", tp
    if origin is Union and type(None) in args:
        return "optional", Union[tuple(arg for arg in args if arg is not type(None))]
    if origin is Union and all(isinstance(getattr(c, "kind", None), str) for c in args):
        return "tagged", args
    if origin is list or (origin is tuple and args[1:] == (...,)):
        return "sequence", (origin, args[0])
    if origin is dict and args[0] is int:  # JSON object keys are strings
        return "intKeyed", args[1]
    raise NotImplementedError(f"{key}: no JSON form for the annotation {tp!r}")


def check_scalar_object(key: str, value) -> None:
    """Raise the TypeError of a value that is not a JSON object whose values are all scalars."""
    if type(value) is not dict or not {list, dict}.isdisjoint(map(type, value.values())):
        raise TypeError(f"{key} must be an object of JSON scalars, got {json.dumps(value)}")


def _mistyped(key: str, types: tuple, value):
    """The TypeError of a value whose type is not one of `types` (so a bool is not an int)."""
    raise TypeError(f"{key} must be {types[0].__name__}, got {type(value).__name__}")


def _untagged(key: str, value):
    raise TypeError(f"{key} must be one of its tagged classes, got {type(value).__name__}")


LONG_TEXT = 1024  # characters: below this the C escaper beats the fixed cost of _escaped's scans
_ESCAPES = tuple(ESCAPE_DCT.items())  # backslash first: the escapes of the others hold backslashes


def _escaped(text: str) -> str:
    """``encode_basestring(text)``: the escaper of every `long_text` value, chosen here by its type and length.

    A value that is not a str (which the C escaper rejects with its own
    TypeError), a str subclass, or a text shorter than LONG_TEXT goes to the
    C escaper.  A longer text is escaped in a few whole-string passes.

    JSON escapes only ``\\``, ``"`` and U+0000-U+001F, each as ESCAPE_DCT
    writes it.  One ``in`` scan per such character finds those the text
    holds, and one ``replace`` per found character escapes them all.  The C
    escaper costs about 3 ns per character; the 34 scans about 1.5 us at
    1 KB and 2.5 us at 4 KB; each replace about 0.45 ns per character and
    20 ns per escape.  So a text holding more than one found character per
    LONG_TEXT characters, or more than three, goes to the C escaper as soon
    as the scans find one too many.  A text in which one character in ten
    or more is escaped is slower here than in the C escaper.
    """
    if type(text) is not str or len(text) < LONG_TEXT:
        return encode_basestring(text)
    most = 3 if len(text) >= 3 * LONG_TEXT else len(text) // LONG_TEXT  # replaces worth making
    found = []
    for char, escape in _ESCAPES:
        if char in text:
            if len(found) == most:
                return encode_basestring(text)
            found.append((char, escape))
    for char, escape in found:
        text = text.replace(char, escape)
    return f'"{text}"'


class _Source:
    """Generated source: its lines, fresh local names, and the objects it names."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.env: dict[str, Any] = {
            "_mistyped": _mistyped, "_untagged": _untagged, "_str": encode_basestring, "_escaped": _escaped,
            "json_line": json_line,
        }
        self.count = 0

    def name(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def ref(self, value) -> str:
        name = self.name("r")
        self.env[name] = value
        return name


# The text encoder: `src` is an expression that may be evaluated more than once.


def _filled(template: str, args: list[str]) -> str:
    """Expression of a %-template filled with the values of `args`."""
    if template == "%s":
        return args[0]
    return f"({template!r} % ({''.join(arg + ', ' for arg in args)}))"


def _literal(text: str) -> str:
    return text.replace("%", "%%")


def _to_text(tp, src: str, key: str, out: _Source, long: bool = False) -> tuple[str, list[str]]:
    """(%-template, expressions filling its slots) of the JSON text of `src`, whose annotation is `tp`;
    `long`: a `long_text` field."""
    form, detail = _shape(tp, key)
    if form == "plain":
        if tp is str:
            return "%s", [f"{'_escaped' if long else '_str'}({src})"]
        if tp is int:
            return "%d", [src]
        if tp is bool:
            return "%s", [f"('true' if {src} else 'false')"]
        return "%s", [f"json_line({src})"]  # float and dict: 1.0, NaN and Infinity as the stdlib writes them
    if form == "optional":
        return "%s", [f"('null' if {src} is None else {_filled(*_to_text(detail, src, key, out, long))})"]
    if form == "object":
        return _text_object(detail, src, out)
    if form == "tagged":
        chain = f"_untagged({key!r}, {src})"
        for cls in reversed(detail):
            chain = f"{_filled(*_text_object(cls, src, out, kind=True))} if type({src}) is {out.ref(cls)} else {chain}"
        return "%s", [f"({chain})"]
    item = out.name("e")
    if form == "sequence":
        if detail[1] is str:
            return "[%s]", [f"', '.join(map(_str, {src}))"]
        return "[%s]", [f"', '.join([{_filled(*_to_text(detail[1], item, key, out))} for {item} in {src}])"]
    number = out.name("k")
    template, args = _to_text(detail, item, key, out)
    pair = _filled('"%d": ' + template, [number, *args])
    return "{%s}", [f"', '.join([{pair} for {number}, {item} in {src}.items()])"]


def _text_object(cls: type, src: str, out: _Source, kind: bool = False) -> tuple[str, list[str]]:
    template, args = "{", []
    if kind:
        template += _literal(f'"kind": {encode_basestring(cls.kind)}')
    for key, name, tp, omit, long in _fields(cls):
        value, more = _to_text(tp, f"{src}.{name}", key, out, long)
        pair = ("" if template == "{" else ", ") + _literal(encode_basestring(key) + ": ") + value
        if not omit:
            template, args = template + pair, args + more
        elif template == "{":
            raise NotImplementedError(f"{key}: a field left out when None must follow another field")
        else:
            template += "%s"
            args.append(f"('' if {src}.{name} is None else {_filled(pair, more)})")
    return template + "}", args


# Decoders: `src` is a local name holding a JSON value.


def _check(src: str, types: tuple, key: str, out: _Source, indent: str) -> None:
    allowed = out.ref(types)
    test = f"is not {types[0].__name__}" if len(types) == 1 else f"not in {allowed}"
    out.lines.append(f"{indent}if type({src}) {test}: _mistyped({key!r}, {allowed}, {src})")


def _decode(tp, src: str, key: str, out: _Source, indent: str) -> str:
    """Add the lines that check and decode `src`, whose annotation is `tp`; return the
    local name of the value, which is `src` when the JSON value is its own form."""
    form, detail = _shape(tp, key)
    lines = out.lines
    if form == "plain":
        _check(src, detail, key, out, indent)
        return src
    if form == "optional":
        lines.append(f"{indent}if {src} is not None:")
        value = _decode(detail, src, key, out, indent + "    ")
        if value != src:
            lines.append(f"{indent}    {src} = {value}")
        return src
    if form == "sequence":
        (origin, item_tp), item, value = detail, out.name("e"), out.name("v")
        _check(src, (list,), key, out, indent)
        start = len(lines)
        lines.append(f"{indent}for {item} in {src}:")
        each = _decode(item_tp, item, key, out, indent + "    ")
        if each == item:  # each element checked in place
            lines.append(f"{indent}{value} = {origin.__name__}({src})")
        else:
            lines.insert(start, f"{indent}{value} = []")
            lines.append(f"{indent}    {value}.append({each})")
            if origin is tuple:
                lines.append(f"{indent}{value} = tuple({value})")
        return value
    value = out.name("v")
    if form == "object":  # an instance of the class is taken as it is
        lines.append(f"{indent}if type({src}) is not dict:")
        lines.append(f"{indent}    if type({src}) is not {out.ref(detail)}: _mistyped({key!r}, (dict,), {src})")
        lines.append(f"{indent}    {value} = {src}")
        lines.append(f"{indent}else:")
        return _decode_object(detail, src, out, indent + "    ", value)
    _check(src, (dict,), key, out, indent)
    if form == "tagged":
        tag = out.name("t")
        lines.append(f"{indent}{tag} = {src}.get('kind')")
        for n, cls in enumerate(detail):
            lines.append(f"{indent}{'elif' if n else 'if'} {tag} == {cls.kind!r}:")
            _decode_object(cls, src, out, indent + "    ", value)
        lines.append(f"{indent}else:")
        lines.append(f"{indent}    raise ValueError({'unknown ' + key.removesuffix('s') + ' kind '!r} + repr({tag}))")
        return value
    text, number, item = out.name("k"), out.name("n"), out.name("e")
    lines += [f"{indent}{value} = {{}}", f"{indent}for {text}, {item} in {src}.items():"]
    lines.append(f"{indent}    {number} = int({text})")
    # int() also takes ' 1', '01', '1_0', '+1' and non-ASCII digits
    reason = f"{key} key must be an int in canonical form, got "
    lines.append(f"{indent}    if str({number}) != {text}:")
    lines.append(f"{indent}        raise ValueError({reason!r} + repr({text}))")
    each = _decode(detail, item, key, out, indent + "    ")
    lines.append(f"{indent}    {value}[{number}] = {each}")
    return value


def _decode_object(cls: type, src: str, out: _Source, indent: str, instance: str = "") -> str:
    """Add the lines that read each field of `cls` from the dict `src`, in field order,
    and build the instance into the local `instance` (a fresh one if not given); return its name."""
    values = []
    for key, name, tp, omit, _ in _fields(cls):
        value = out.name("v")
        out.lines.append(f"{indent}{value} = {src}{f'.get({key!r})' if omit else f'[{key!r}]'}")
        values.append(_decode(tp, value, key, out, indent))
    instance = instance or out.name("v")
    out.lines.append(f"{indent}{instance} = {out.ref(cls)}({', '.join(values)})")
    return instance


@functools.cache
def _compiled(cls: type) -> tuple[Callable, Callable]:
    """(to_json_line, from_json) of a dataclass.

    As `dataclasses` builds ``__init__``, each is generated as straight-line
    source, with nested values inline, and exec'd once.
    """
    out = _Source()
    text = _filled(*_text_object(cls, "obj", out))
    out.lines += ["def encode(obj):", f"    return {text}"]
    out.lines.append("def decode(data):")
    out.lines.append(f"    return {_decode_object(cls, 'data', out, '    ')}")
    exec("\n".join(out.lines), out.env)
    return out.env["encode"], out.env["decode"]


def to_json(obj) -> dict:
    """Every field of a dataclass instance under its camelCase key, in its JSON form: the parse of its line."""
    return json.loads(to_json_line(obj))


def to_json_line(obj) -> str:
    """The JSON Lines text of a dataclass instance, without its line end, written straight from its fields."""
    return _compiled(type(obj))[0](obj)


def from_json(cls: type, data: dict):
    """Build `cls` from data this package wrote; a missing key is a KeyError, a mistyped value a TypeError."""
    return _compiled(cls)[1](data)


def from_file_json(cls: type, data: dict, what: str):
    """Build `cls` from a hand-written file, where a key may be mistyped or left out.

    Unknown keys, and missing keys of fields without a default, raise
    InvalidConfigError naming them; other missing keys take the default.
    """
    fields = _fields(cls)
    unknown = sorted(set(data) - {key for key, *_ in fields})
    if unknown:
        raise InvalidConfigError(f"unknown {what} keys: {', '.join(unknown)}")
    # every default of a file-read class is a JSON scalar, its own JSON form
    defaults = {key: field.default for (key, *_), field in zip(fields, dataclasses.fields(cls)) if key not in data}
    missing = [key for key, default in defaults.items() if default is dataclasses.MISSING]
    if missing:
        raise InvalidConfigError(f"missing {what} keys: {', '.join(missing)}")
    return from_json(cls, {**data, **defaults})
