"""JSONL serialization for corpora, plus the flat config file format.

A corpus file is one header line carrying the schema version, the config
echo and the certification summary, followed by one instance per line.
Field order is fixed, so regenerating a corpus from the same seed yields
byte-identical files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import DatasetParseError, InvalidConfigError
from .jsonmap import (
    from_file_json,
    json_line,
    json_lines,
    nonblank_lines,
    read_json_file,
    read_lines,
    read_rest,
    to_json,
    to_json_line,
    write_json_lines,
)
from .pipeline import Dataset, GenConfig, ProblemInstance

SCHEMA_VERSION = 1


def dataset_to_lines(dataset: Dataset) -> list[str]:
    header = {
        "schemaVersion": SCHEMA_VERSION,
        "config": to_json(dataset.config),
        "certification": dataset.certification,
    }
    return [json_line(header), *map(to_json_line, dataset.instances)]


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    write_json_lines(path, dataset_to_lines(dataset))


def _corpus(lines: Iterable[str], source: str) -> tuple[GenConfig, dict, Iterator[ProblemInstance]]:
    """The config and certification of a corpus's header, read and checked at once, and its instances,
    each read and checked as it is taken."""
    numbered = nonblank_lines(lines)
    try:
        first = next(numbered, None)
        if first is None:
            raise DatasetParseError(f"{source}: empty corpus file")
        (header,) = json_lines([first], source, dict, None)
        n = first[0]
        version = header.get("schemaVersion")
        if type(version) is not int or version != SCHEMA_VERSION:  # True and 1.0 equal 1 too
            raise DatasetParseError(
                f"{source} line {n}: expected schemaVersion {SCHEMA_VERSION}, got {version!r}"
            )
        for key in ("config", "certification"):
            if not isinstance(header.get(key), dict):
                raise DatasetParseError(f"{source} line {n}: header {key!r} must be a JSON object")
        try:
            config = from_file_json(GenConfig, header["config"], "config")
        except (InvalidConfigError, TypeError, ValueError) as exc:
            raise DatasetParseError(f"{source} line {n}: invalid header config ({exc})") from exc
    except DatasetParseError:
        read_rest(numbered)
        raise
    return config, header["certification"], json_lines(numbered, source, _instance_reader(), "id")


def _instance_reader() -> Callable[[dict], ProblemInstance]:
    """`from_json_dict` for the instance lines of one file, whose twins share one ItemMap, as generated.

    A line whose raw itemMap equals the previous line's takes that line's
    ItemMap, checked there; ``==`` takes 1 for true, so composite, the map's
    only number, must also be a bool.  A map decoded afresh takes the file's
    first ItemName of each (dish, plural, restaurant).
    """
    names: dict = {}
    last_raw, last_map = None, None

    def read(data: dict) -> ProblemInstance:
        nonlocal last_raw, last_map
        raw = data.get("itemMap")  # a missing key is from_json's error, in field order
        if raw is not None and raw == last_raw and type(raw["composite"]) is bool:
            data["itemMap"] = last_map
            return ProblemInstance.from_json_dict(data)
        instance = ProblemInstance.from_json_dict(data)
        last_raw, last_map = raw, instance.item_map
        last_map.names = {
            var: names.setdefault((name.dish, name.plural, name.restaurant), name)
            for var, name in last_map.names.items()
        }
        return instance

    return read


def dataset_from_lines(lines: Iterable[str], source: str = "<memory>") -> Dataset:
    config, certification, instances = _corpus(lines, source)
    return Dataset(config=config, instances=list(instances), certification=certification)


def read_dataset(path: str | Path) -> Dataset:
    return dataset_from_lines(read_lines(path), source=str(path))


def iter_instances(path: str | Path) -> Iterator[ProblemInstance]:
    """The instances of a corpus file, each read and checked as it is taken, once its header is checked."""
    return _corpus(read_lines(path), str(path))[2]


def load_gen_config(path: str | Path) -> GenConfig:
    """Flat JSON config file mirroring the generation settings; unknown keys rejected."""
    return read_json_file(GenConfig, path, "config")
