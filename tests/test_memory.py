"""`verify` and `report` read their input one line at a time and keep only tallies; `render` keeps only
the instance it prints.

Each command runs in a fresh interpreter, on a 45-variable, ansDepth-40
corpus (about 20 KB a line) of 50 and of 500 pairs and on its mock records,
and reports its own peak resident set size.  Before the readers streamed,
`verify` peaked at about 41 MiB on the small corpus and 97 MiB on the large.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pricetree
from pricetree.cli import main

pytest.importorskip("resource")  # each command reports its peak through it

GROWTH_MIB = 10  # the most the peak may grow from 50 to 500 pairs
# the command's own peak, in bytes (ru_maxrss is KiB on Linux, bytes on macOS), on stderr after its output
_PEAK = (
    "import resource, sys; from pricetree.cli import main; code = main(sys.argv[1:]); "
    "scale = 1 if sys.platform == 'darwin' else 1024; "
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale, file=sys.stderr); sys.exit(code)"
)
# Linux counts in a process's ru_maxrss the peak of the memory it replaced at exec: a child of this
# test run would report the run's own peak.  So a bare interpreter starts the command as its child.
_LAUNCH = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


def _peak_mib(*args: str) -> float:
    src = str(Path(pricetree.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-c", _LAUNCH, sys.executable, "-c", _PEAK, *args]
    run = subprocess.run(command, capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    return int(run.stderr.splitlines()[-1]) / 2**20


@pytest.fixture(scope="module")
def deep_files(tmp_path_factory) -> dict[int, tuple[Path, Path]]:
    """(corpus, its mock records) of 50 and of 500 pairs, at seed 11."""
    tmp_path = tmp_path_factory.mktemp("deep")
    config = tmp_path / "deep.json"
    config.write_text(json.dumps({"numVars": 45, "ansDepth": 40, "cutDepth": 20, "compositeName": True}))
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"endpoint": "offline://none", "model": "mock"}))
    files = {}
    for pairs in (50, 500):
        corpus, records = tmp_path / f"deep{pairs}.jsonl", tmp_path / f"records{pairs}.jsonl"
        generate_args = ["--config", str(config), "--seed", "11", "--count", str(pairs), "--out", str(corpus)]
        assert main(["generate", *generate_args]) == 0
        eval_args = ["--profile", str(profile), "--mode", "zero", "--transport", "mock:gold", "--out", str(records)]
        assert main(["eval", "--in", str(corpus), *eval_args]) == 0
        files[pairs] = corpus, records
    return files


def test_verify_and_report_peaks_do_not_grow_with_the_file(deep_files, tmp_path):
    peaks = {}
    for pairs, (corpus, records) in deep_files.items():
        peaks["verify", pairs] = _peak_mib("verify", "--in", str(corpus))
        report_args = ["--group", "ansDepth", "--out", str(tmp_path / f"report{pairs}")]
        peaks["report", pairs] = _peak_mib("report", "--in", str(records), *report_args)
    for command in ("verify", "report"):
        assert peaks[command, 500] - peaks[command, 50] < GROWTH_MIB, peaks


def test_render_peak_does_not_grow_with_the_file(deep_files):
    """`render` keeps only the instance it prints, here the last pair's answerable one, though it reads every
    line; while it read the whole corpus it peaked at about 38 MiB at 50 pairs and 63 MiB at 500."""
    peaks = {
        pairs: _peak_mib("render", "--in", str(corpus), "--id", f"s11-p{pairs - 1:06d}-answerable")
        for pairs, (corpus, _) in deep_files.items()
    }
    assert peaks[500] - peaks[50] < GROWTH_MIB, peaks
