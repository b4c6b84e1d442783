"""JSONL serialization for corpora, plus the flat config file format.

A corpus file is one header line carrying the schema version, the config
echo and the certification summary, followed by one instance per line.
Field order is fixed, so regenerating a corpus from the same seed yields
byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import DatasetParseError, InvalidConfigError
from .pipeline import ANSWERABLE, UNANSWERABLE, Dataset, GenConfig, ProblemInstance

SCHEMA_VERSION = 1


def _dumps(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False)


def dataset_to_lines(dataset: Dataset) -> list[str]:
    header = {
        "schemaVersion": SCHEMA_VERSION,
        "config": dataset.config.to_json_dict(),
        "certification": dataset.certification,
    }
    return [_dumps(header)] + [_dumps(inst.to_json_dict()) for inst in dataset.instances]


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    Path(path).write_text("\n".join(dataset_to_lines(dataset)) + "\n", encoding="utf-8")


def dataset_from_lines(lines: list[str], source: str = "<memory>") -> Dataset:
    stripped = [(n, line) for n, line in enumerate(lines, start=1) if line.strip()]
    if not stripped:
        raise DatasetParseError(f"{source}: empty corpus file")

    def parse(n: int, line: str) -> dict:
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetParseError(f"{source} line {n}: {exc}") from exc
        if not isinstance(data, dict):
            raise DatasetParseError(f"{source} line {n}: expected a JSON object")
        return data

    first_n, first_line = stripped[0]
    header = parse(first_n, first_line)
    if "schemaVersion" not in header:
        raise DatasetParseError(f"{source} line {first_n}: missing schemaVersion header")
    if header["schemaVersion"] != SCHEMA_VERSION:
        raise DatasetParseError(
            f"{source} line {first_n}: unsupported schemaVersion {header['schemaVersion']!r}"
        )
    for key in ("config", "certification"):
        if not isinstance(header.get(key), dict):
            raise DatasetParseError(f"{source} line {first_n}: header {key!r} must be a JSON object")
    try:
        config = GenConfig.from_json_dict(header["config"])
    except InvalidConfigError as exc:
        raise DatasetParseError(f"{source} line {first_n}: invalid header config ({exc})") from exc

    instances = []
    for n, line in stripped[1:]:
        data = parse(n, line)
        try:
            instance = ProblemInstance.from_json_dict(data)
        except (KeyError, TypeError) as exc:
            raise DatasetParseError(f"{source} line {n}: malformed instance ({exc})") from exc
        if instance.variant not in (ANSWERABLE, UNANSWERABLE):
            raise DatasetParseError(f"{source} line {n}: unknown variant {instance.variant!r}")
        instances.append(instance)
    return Dataset(config=config, instances=instances, certification=header["certification"])


def read_dataset(path: str | Path) -> Dataset:
    text = Path(path).read_text(encoding="utf-8")
    return dataset_from_lines(text.splitlines(), source=str(path))


def load_gen_config(path: str | Path) -> GenConfig:
    """Flat JSON config file mirroring the generation settings; unknown keys rejected."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise InvalidConfigError(f"{path}: config must be a flat JSON object")
    return GenConfig.from_json_dict(data)
