#!/usr/bin/env python3
"""End-to-end benchmark of pricetree: generate, verify, eval and report.

    python3 benchmarks/run.py --workload corpus-small --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/`` of that checkout and nowhere else.  A run builds its inputs from
``--seed``, sets up (imports, vocabulary, fixture corpora), then repeats
rounds of fixed work for ``--seconds``.  A round runs the five batch
phases of the command line, each timed around the package calls alone:

    generate   generate_corpus + write_dataset per cell       (pricetree generate)
    verify     read_dataset + verify_instance per instance     (pricetree verify)
    eval_zero  run_eval(mode="zero") over scripted responses   (pricetree eval)
    eval_few   run_eval(mode="few", pool=...)                  (pricetree eval --pool)
    report     write_records -> read_records -> write_report   (pricetree report)

Rates are medians over rounds of phase times scaled by a calibration
workload timed beside them (see Clock), and the process keeps to one CPU.
Outputs are checked every round.  A mismatch counts as a failed operation
(one pair, instance or record) and makes the command exit 1.  The last line
of stdout is one JSON object: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  Files go to
``.bench_work/`` (removed at exit) and ``.bench_out/`` (results, spans) in
the checkout.  benchmarks/NOTES.md says why the workloads are what they are.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent  # the checkout this script belongs to
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("corpus-small", "corpus-deep", "eval-offline")
PHASE_ORDER = ("generate", "verify", "eval_zero", "eval_few", "report")
RATE_METRICS = {
    "generate": ("generate_pairs_per_s", "pairs/s"),
    "verify": ("verify_instances_per_s", "instances/s"),
    "eval_zero": ("eval_zero_records_per_s", "records/s"),
    "eval_few": ("eval_few_records_per_s", "records/s"),
    "report": ("report_records_per_s", "records/s"),
}
END_TO_END = ("setup_s",) + tuple(name for name, _ in RATE_METRICS.values()) + ("peak_rss_mib",)
SETUP_PROBES = 5
CONCURRENCY = 1  # replay is CPU-bound under the GIL: a second thread adds only switching noise
FLAKY_SHARE = 0.1  # share of target ids whose first transport attempt fails transiently
GROUP_BY = ["ansDepth", "cutDepth"]
CALIBRATION_REF_S = 0.003  # calibration work time the scaled seconds refer to
CALIBRATE_EVERY_S = 0.05
ESTIMATOR = "median over rounds of calibration-scaled phase time"
ESTIMATOR_WHY = (
    "each CPU of the host switches between speeds up to 2x apart for spells of under a second "
    "to tens of seconds, so raw minima and medians of 20 s runs spread 30-60% across runs; "
    "calibration-scaled medians on one pinned CPU spread 3-6%"
)
_SENTINEL_WORDS = ("answer", "unknown")


def import_package() -> SimpleNamespace:
    """The checkout's own pricetree modules; exits 2 when ``src/pricetree`` is missing."""
    sys.path.insert(0, str(SRC))
    try:
        pricetree = importlib.import_module("pricetree")
    except ImportError as exc:
        print(f"error: cannot import pricetree from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if SRC.resolve() not in Path(pricetree.__file__).resolve().parents:
        print(f"error: pricetree imported from {pricetree.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    names = (
        "rng", "tree", "formulas", "wording", "oracle", "pipeline", "corpus_io", "errors",
        "harness.prompts", "harness.transport", "harness.scoring", "harness.report",
    )
    mods = {name.split(".")[-1]: importlib.import_module(f"pricetree.{name}") for name in names}
    return SimpleNamespace(numpy=importlib.import_module("numpy"), **mods)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    """Generation configs plus the eval target and few-shot pool built from them."""

    name: str
    gen_cells: list  # GenConfig: generated, written, read back and verified every round
    target_cells: list  # GenConfig: concatenated into the eval target during set-up
    pool_cells: list  # GenConfig: the few-shot pool, seeds disjoint from the target's
    eval_seed: int = 0


def make_workload(pt: SimpleNamespace, name: str, seed: int) -> Workload:
    """The inputs of one workload, a pure function of (name, seed)."""
    rng = random.Random(f"{name}:{seed}")
    corpus_seeds = iter(rng.sample(range(1, 2**31), 512))
    orders = pt.formulas.CONDITION_ORDERS
    phrasings = pt.wording.QUESTION_PHRASINGS
    order_offset, phrasing_offset = rng.randrange(len(orders)), rng.randrange(len(phrasings))

    def cell(i: int, num_vars: int, depth: int, cut: int, composite: bool, count: int, **kw):
        kw.setdefault("order", orders[(i + order_offset) % len(orders)])
        kw.setdefault("question_phrasing", phrasings[(i + phrasing_offset) % len(phrasings)])
        return pt.pipeline.GenConfig(
            num_vars=num_vars, ans_depth=depth, cut_depth=cut, composite_name=composite,
            count=count, corpus_seed=next(corpus_seeds), **kw,
        )

    def reseeded(cells: list, count: int) -> list:
        return [replace(c, corpus_seed=next(corpus_seeds), count=count) for c in cells]

    max_simple = len(pt.wording.DEFAULT_DISHES)
    if name == "corpus-small":
        shapes = [
            (v, d, comp)
            for d in range(2, 9)
            for v in (d, d + 2)
            for comp in (False, True)
            if comp or v <= max_simple
        ]
        gen = [cell(i, v, d, rng.randint(1, d - 1), comp, count=4) for i, (v, d, comp) in enumerate(shapes)]
        return Workload(name, gen, reseeded(gen, 8), reseeded(gen, 4), eval_seed=seed)
    if name == "corpus-deep":
        # fixed cuts and orders: both move elimination cost, so seeds vary only the trees
        shapes = [(8, 2), (8, 4), (8, 6), (40, 10), (40, 20), (40, 30)]
        gen = [
            cell(i, 45, d, c, True, count=4, order=orders[i % len(orders)])
            for i, (d, c) in enumerate(shapes)
        ]
        return Workload(name, gen, gen, reseeded(gen, 2), eval_seed=seed)
    if name == "eval-offline":
        # the table-main preset shape: a 400-instance target and a 400-instance pool
        target = [
            cell(i, d + 2, d, d // 2, True, count=50, order="random", question_phrasing=rng.choice(phrasings))
            for i, d in enumerate((2, 4, 6, 8))
        ]
        gen = [replace(c, count=8) for c in target]
        return Workload(name, gen, target, reseeded(target, 50), eval_seed=seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def cell_fact(config) -> str:
    mode = "composite" if config.composite_name else "simple"
    return (
        f"v{config.num_vars}/d{config.ans_depth}/c{config.cut_depth}/{mode}/{config.order}/"
        f"{config.question_phrasing}/n{config.count}/s{config.corpus_seed}"
    )


# ---------------------------------------------------------------------------
# Scripted model responses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expected:
    outcome: str
    verdict: str
    value: int | None


def script_responses(pt: SimpleNamespace, instances: list, rng: random.Random) -> tuple[dict, dict, set]:
    """Responses covering every outcome bucket, what scoring must make of them, and the flaky ids."""
    s = pt.scoring
    responses, expected, flaky = {}, {}, set()
    for inst in instances:
        reasoning = "Let me restate the facts. " + " ".join(f"{c}." for c in inst.condition_sentences)
        if any(word in reasoning.lower() for word in _SENTINEL_WORDS):
            raise ValueError(f"{inst.id}: scripted reasoning contains a trigger word")
        if inst.variant == pt.pipeline.ANSWERABLE:
            bucket = rng.choice(("correct", "wrong", "unknown", "unparseable"))
            gold = inst.gold_answer
            if bucket == "correct":
                tail, exp = f"Answer: {gold}", Expected(s.OUTCOME_CORRECT_ANSWER, s.VERDICT_NUMBER, gold)
            elif bucket == "wrong":
                wrong = gold + rng.randint(1, 3)
                tail, exp = f"Answer: ${wrong}.", Expected(s.OUTCOME_WRONG_ANSWER, s.VERDICT_NUMBER, wrong)
            elif bucket == "unknown":
                tail, exp = "Answer: unknown.", Expected(s.OUTCOME_FALSE_UNANSWERABLE, s.VERDICT_UNKNOWN, None)
            else:
                tail, exp = "So the price follows.", Expected(s.OUTCOME_WRONG_ANSWER, s.VERDICT_UNPARSEABLE, None)
        else:
            bucket = rng.choice(("unknown", "number", "unparseable"))
            if bucket == "unknown":
                tail, exp = "Answer: unknown.", Expected(s.OUTCOME_CORRECT_UNANSWERABLE, s.VERDICT_UNKNOWN, None)
            elif bucket == "number":
                guess = rng.randint(5, 15)
                tail, exp = f"Answer: {guess}", Expected(s.OUTCOME_HALLUCINATION, s.VERDICT_NUMBER, guess)
            else:
                tail, exp = "Answer: it depends.", Expected(s.OUTCOME_HALLUCINATION, s.VERDICT_UNPARSEABLE, None)
        responses[inst.id] = f"{reasoning}\n{tail}"
        expected[inst.id] = exp
        if rng.random() < FLAKY_SHARE:
            flaky.add(inst.id)
    return responses, expected, flaky


class FlakyReplay:
    """Replays scripted responses; each flaky id fails transiently on its first attempt."""

    def __init__(self, pt: SimpleNamespace, responses: dict, flaky: set):
        self._replay = pt.transport.ReplayTransport(responses)
        self._error = pt.errors.TransientTransportError
        self._pending = set(flaky)
        self._lock = threading.Lock()
        self.attempts = 0

    def complete(self, messages, instance_id=None):
        with self._lock:
            self.attempts += 1
            first = instance_id in self._pending
            self._pending.discard(instance_id)
        if first:
            raise self._error("scripted transient failure")
        return self._replay.complete(messages, instance_id)


def _no_sleep(seconds: float) -> None:
    """Backoff stand-in: the scripted failures need no real wait."""


# ---------------------------------------------------------------------------
# Calibrated timing
# ---------------------------------------------------------------------------


def calibration_work(numpy) -> int:
    """Fixed interpreter work of the kinds the package does: Fraction arithmetic,
    dict updates, string formatting, JSON and single numpy draws."""
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
    counts: dict[int, int] = {}
    parts = []
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        parts.append(f"{i % 9 + 1} pies cost {i % 13} dollars more than a burger")
    json.loads(json.dumps({"sentences": parts[:800], "counts": counts}))
    gen = numpy.random.Generator(numpy.random.PCG64(7))
    total = sum(int(gen.integers(5, 16)) for _ in range(400))
    return len(" ".join(parts)) + total + acc.numerator


def calibrate(numpy) -> float:
    """Seconds the calibration work takes now."""
    start = time.perf_counter()
    calibration_work(numpy)
    return time.perf_counter() - start


class Clock:
    """Times one phase in segments of at least CALIBRATE_EVERY_S.

    The calibration work is timed at each segment boundary, and each segment
    is scaled by CALIBRATION_REF_S over the mean calibration time around it.
    The scaled sum is the phase's time on a host that runs the calibration
    work in CALIBRATION_REF_S.  On the shared hosts this runs on, each CPU
    switches between speeds up to 2x apart, for spells of under a second to
    tens of seconds; scaling cancels most of that, and the raw seconds are
    kept beside it.
    """

    def __init__(self, numpy) -> None:
        self._numpy = numpy
        self.raw = self.scaled = 0.0
        self._cal = calibrate(numpy)
        self._start = time.perf_counter()

    def lap(self, force: bool = False) -> None:
        """Close the running segment if it is long enough, or if forced."""
        now = time.perf_counter()
        if now - self._start < CALIBRATE_EVERY_S and not force:
            return
        cal = calibrate(self._numpy)
        segment = now - self._start
        self.raw += segment
        self.scaled += segment * CALIBRATION_REF_S / ((self._cal + cal) / 2)
        self._cal = cal
        self._start = time.perf_counter()


# ---------------------------------------------------------------------------
# The benchmark
# ---------------------------------------------------------------------------


def _serialize(pt: SimpleNamespace, dataset) -> bytes:
    """The bytes write_dataset puts on disk."""
    return ("\n".join(pt.corpus_io.dataset_to_lines(dataset)) + "\n").encode("utf-8")


def _merged(pt: SimpleNamespace, cells: list, built: dict):
    instances = [inst for c in cells for inst in built[c].instances]
    return pt.pipeline.Dataset(config=cells[0], instances=instances, certification={})


@dataclass
class Bench:
    """Fixtures, round runner and output checks for one workload."""

    pt: SimpleNamespace
    workload: Workload
    workdir: Path
    attempted: int = 0
    failed: int = 0
    failure_notes: list = field(default_factory=list)
    bytes_written: int = 0
    instances_written: int = 0
    confirmed: int = 0
    verified: int = 0
    transport_attempts: int = 0
    transport_calls: int = 0

    def setup(self) -> None:
        pt, w = self.pt, self.workload
        pt.wording.load_vocabulary(None, None)
        built = {}
        for c in dict.fromkeys(w.target_cells + w.pool_cells + w.gen_cells):
            built[c] = pt.pipeline.generate_corpus(c)
        self.expected_sha = {c: hashlib.sha256(_serialize(pt, built[c])).hexdigest() for c in w.gen_cells}
        self.digest = hashlib.sha256("".join(self.expected_sha[c] for c in w.gen_cells).encode()).hexdigest()
        self.target = _merged(pt, w.target_cells, built)
        self.pool = _merged(pt, w.pool_cells, built)
        rng = random.Random(f"responses:{w.name}:{w.eval_seed}")
        self.responses, self.expected, self.flaky = script_responses(pt, self.target.instances, rng)
        self.tally = self._expected_tally()
        self.profile = pt.prompts.ModelProfile(
            endpoint="offline://scripted", model="scripted", concurrency=CONCURRENCY, max_retries=3
        )
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.paths = [(c, self.workdir / f"cell{i:02d}.jsonl") for i, c in enumerate(w.gen_cells)]
        self.units = {
            "generate": sum(c.count for c in w.gen_cells),
            "verify": 2 * sum(c.count for c in w.gen_cells),
            "eval_zero": len(self.target.instances),
            "eval_few": len(self.target.instances),
            "report": 2 * len(self.target.instances),
        }
        self._round_trip_checked: set = set()

    # -- failure accounting ----------------------------------------------------

    def _fail(self, ops: int, note: str) -> None:
        self.failed += ops
        if len(self.failure_notes) < 20:
            self.failure_notes.append(note)
            print(f"check failed: {note}", file=sys.stderr)

    def _crash(self, ops: int, where: str) -> None:
        """Count a package call that raised; called from its except block."""
        self._fail(ops, f"{where} raised {traceback.format_exc(limit=3).strip().splitlines()[-1]}")
        if len(self.failure_notes) <= 3:
            traceback.print_exc()

    # -- phases ----------------------------------------------------------------

    def run_round(self, phases=PHASE_ORDER, on_phase=None) -> dict[str, tuple[float, float]]:
        """One round of fixed work: (seconds, scaled seconds) per phase; see Clock."""
        times, state = {}, {}
        for phase in phases:
            gc.collect()
            clock = Clock(self.pt.numpy)
            if on_phase:
                on_phase(phase)
            getattr(self, f"_{phase}")(state, clock)
            clock.lap(force=True)
            if on_phase:
                on_phase(None)
            times[phase] = (clock.raw, clock.scaled)
            self.attempted += self.units[phase]
            getattr(self, f"_check_{phase}")(state)
        return times

    def _generate(self, state: dict, clock: Clock) -> None:
        pt, done = self.pt, []
        for config, path in self.paths:
            try:
                pt.corpus_io.write_dataset(pt.pipeline.generate_corpus(config), path)
                done.append((config, path))
            except Exception:
                self._crash(config.count, f"generate {cell_fact(config)}")
            clock.lap()
        state["written"] = done

    def _check_generate(self, state: dict) -> None:
        for config, path in state["written"]:
            data = path.read_bytes()
            self.bytes_written += len(data)
            self.instances_written += 2 * config.count
            if hashlib.sha256(data).hexdigest() != self.expected_sha[config]:
                self._fail(config.count, f"{path.name}: bytes differ from the same cell generated in set-up")

    def _verify(self, state: dict, clock: Clock) -> None:
        pt, results = self.pt, []
        for config, path in state["written"]:
            try:
                dataset = pt.corpus_io.read_dataset(path)
                results.append((config, path, dataset, [pt.oracle.verify_instance(i) for i in dataset.instances]))
            except Exception:
                self._crash(2 * config.count, f"verify {path.name}")
            clock.lap()
        state["verified"] = results

    def _check_verify(self, state: dict) -> None:
        for config, path, dataset, reports in state["verified"]:
            if len(reports) != 2 * config.count:
                self._fail(abs(2 * config.count - len(reports)), f"{path.name}: {len(reports)} instances read")
            for inst, rep in zip(dataset.instances, reports):
                self.verified += 1
                ok = rep.label_confirmed and (inst.variant != "answerable" or rep.path_solver_agrees is True)
                self.confirmed += ok
                if not ok:
                    self._fail(1, f"{inst.id}: not certified ({rep.failure})")
            if config not in self._round_trip_checked:
                self._round_trip_checked.add(config)
                if _serialize(self.pt, dataset) != path.read_bytes():
                    self._fail(len(reports), f"{path.name}: parsing and re-serializing changes the bytes")

    def _eval(self, state: dict, mode: str) -> None:
        transport = FlakyReplay(self.pt, self.responses, self.flaky)
        records = None
        try:
            records = self.pt.scoring.run_eval(
                self.target, self.profile, mode, transport, pool=self.pool if mode == "few" else None,
                eval_seed=self.workload.eval_seed, sleep=_no_sleep,
            )
        except Exception:
            self._crash(len(self.target.instances), f"run_eval mode={mode}")
        state[mode] = (records, transport)

    def _eval_zero(self, state: dict, clock: Clock) -> None:
        self._eval(state, "zero")

    def _eval_few(self, state: dict, clock: Clock) -> None:
        self._eval(state, "few")

    def _check_eval(self, state: dict, mode: str) -> None:
        records, transport = state[mode]
        if records is None:
            return
        target_ids = [inst.id for inst in self.target.instances]
        if [r.instance_id for r in records] != target_ids:
            self._fail(len(target_ids), f"eval {mode}: records do not match the target's instances")
            return
        for record in records:
            exp = self.expected[record.instance_id]
            got = (record.outcome, record.verdict, record.value)
            if record.transport_failed or got != (exp.outcome, exp.verdict, exp.value) or record.mode != mode:
                self._fail(1, f"eval {mode} {record.instance_id}: scored {got}, script implies {exp}")
        self.transport_calls += len(records)
        self.transport_attempts += transport.attempts
        if transport.attempts != len(records) + len(self.flaky):
            self._fail(
                abs(transport.attempts - len(records) - len(self.flaky)),
                f"eval {mode}: {transport.attempts} transport attempts, script implies "
                f"{len(records) + len(self.flaky)}",
            )

    def _check_eval_zero(self, state: dict) -> None:
        self._check_eval(state, "zero")

    def _check_eval_few(self, state: dict) -> None:
        self._check_eval(state, "few")

    def _report(self, state: dict, clock: Clock) -> None:
        pt, done, n = self.pt, {}, len(self.target.instances)
        for mode in ("zero", "few"):
            records = state[mode][0]
            if records is None:
                self._fail(n, f"report {mode}: eval produced no records")
                continue
            path, out = self.workdir / f"records-{mode}.jsonl", self.workdir / f"report-{mode}"
            try:
                pt.scoring.write_records(records, path)
                back = pt.scoring.read_records(path)
                pt.report.write_report(back, GROUP_BY, out)
                done[mode] = (back, out)
            except Exception:
                self._crash(n, f"report {mode}")
            clock.lap()
        state["reported"] = done

    def _check_report(self, state: dict) -> None:
        n = len(self.target.instances)
        for mode, (back, out) in state["reported"].items():
            if back != state[mode][0]:
                self._fail(n, f"report {mode}: records read back differ from those written")
                continue
            cells = json.loads((out / "metrics.json").read_text(encoding="utf-8"))["cells"]
            got = {key: sum(c[key] for c in cells) for key in self.tally}
            if got != self.tally:
                self._fail(n, f"report {mode}: tallies {got}, script implies {self.tally}")

    def _expected_tally(self) -> dict:
        """Report totals over all cells that the scripted responses imply."""
        s = self.pt.scoring
        exp = [self.expected[inst.id] for inst in self.target.instances]
        return {
            "n": len(exp),
            "hallucinations": sum(e.outcome == s.OUTCOME_HALLUCINATION for e in exp),
            "correct": sum(e.outcome == s.OUTCOME_CORRECT_ANSWER for e in exp),
            "falseUnanswerable": sum(e.outcome == s.OUTCOME_FALSE_UNANSWERABLE for e in exp),
            "unparseable": sum(e.verdict == s.VERDICT_UNPARSEABLE for e in exp),
            "excluded": 0,
        }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def estimate(samples: list[tuple[float, float]]) -> float:
    """Per-round time the rates are built from: the median scaled time (see ESTIMATOR_WHY)."""
    return statistics.median(scaled for _, scaled in samples)


def measure(bench: Bench, seconds: float) -> dict[str, list[float]]:
    """Untraced rounds for `seconds` after one warm-up round."""
    bench.run_round()
    times = {phase: [] for phase in PHASE_ORDER}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for phase, t in bench.run_round().items():
            times[phase].append(t)
    return times


def measure_traced(bench: Bench, seconds: float):
    """Traced rounds, alternating with untraced generate phases for the tracing overhead."""
    tr = tracing.Tracer()
    bench.run_round()

    def on_phase(phase):
        tr.phase = phase
        tr.active = phase is not None

    traced = {phase: [] for phase in PHASE_ORDER}
    untraced_generate = []
    rounds = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        tr.install()
        try:
            for phase, t in bench.run_round(on_phase=on_phase).items():
                traced[phase].append(t)
        finally:
            tr.uninstall()
        rounds += 1
        untraced_generate.append(bench.run_round(phases=("generate",))["generate"])
    return tr, traced, untraced_generate, rounds


def end_to_end_metrics(bench: Bench, seconds: float, setup_times: list) -> tuple[dict, dict]:
    times = measure(bench, seconds)
    values = {"setup_s": (estimate(setup_times), "s")}
    for phase, (name, unit) in RATE_METRICS.items():
        values[name] = (bench.units[phase] / estimate(times[phase]), unit)
    values["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    return values, {"setupProbesS": setup_times, "roundStats": round_stats(times), "roundTimesS": times}


def traced_metrics(bench: Bench, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    tr, traced, untraced_generate, rounds = measure_traced(bench, seconds)
    units = {phase: bench.units[phase] * rounds for phase in PHASE_ORDER}
    traced_ns = int(sum(raw for ts in traced.values() for raw, _ in ts) * 1e9)
    values = tracing.per_layer_metrics(tr, units, traced_ns)
    corpora = tr.calls.get(("generate", "pipeline.generate_corpus"), 0)
    values["wording.load_vocabulary.calls_per_corpus"] = (
        tr.calls.get(("generate", "wording.load_vocabulary"), 0) / max(corpora, 1), "calls/corpus")
    values["oracle.label_confirmed_frac"] = (bench.confirmed / max(bench.verified, 1), "frac")
    values["corpus_io.bytes_per_instance"] = (bench.bytes_written / max(bench.instances_written, 1), "B")
    values["harness.transport.attempts_per_call"] = (
        bench.transport_attempts / max(bench.transport_calls, 1), "attempts/call")
    values["trace.generate_slowdown"] = (estimate(traced["generate"]) / estimate(untraced_generate), "x")
    tr.write_spans(spans_path)
    return values, {
        "tracedRounds": rounds,
        "spansKept": len(tr.spans),
        "spansDropped": tr.dropped_spans,
        "absent": tr.absent,
        "tracedGeneratePairsPerS": bench.units["generate"] / estimate(traced["generate"]),
        "untracedGeneratePairsPerS": bench.units["generate"] / estimate(untraced_generate),
        "roundStats": round_stats(traced),
    }


def probe_setup(pt: SimpleNamespace, workload: str, seed: int) -> tuple[float, float]:
    """(seconds from starting a fresh interpreter to the end of set-up, the same scaled as by Clock).

    The probe also times the calibration work after its imports and after
    its set-up; those seconds are left out of the set-up time and join the
    calibrations taken here before and after the probe in its scale.
    """
    cals = [calibrate(pt.numpy)]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    word, *probe_cals = line.split() or [""]
    if code != 0 or word != "ready" or len(probe_cals) != 2:
        raise RuntimeError(f"set-up probe exited {code} after printing {line!r}")
    elapsed -= sum(map(float, probe_cals))
    cals += [*map(float, probe_cals), calibrate(pt.numpy)]
    return elapsed, elapsed * CALIBRATION_REF_S / statistics.mean(cals)


def pin_to_one_cpu() -> None:
    """Keep this process, its eval worker thread and its set-up probes on one CPU.

    On the shared hosts this was tuned on, each CPU changes speed on its own,
    so calibration work timed on one CPU says little about work that ran on
    another.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "pricetree").rglob("*.py")))


def facts(pt: SimpleNamespace, bench: Bench) -> dict:
    return {
        "workload": bench.workload.name,
        "nproc": os.cpu_count(),
        "cpusUsed": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": pt.numpy.__version__,
        "machine": platform.machine(),
        "sourceLines": source_lines(),
        "corpusDigest": bench.digest,
        "cells": [cell_fact(c) for c in bench.workload.gen_cells],
        "targetInstances": len(bench.target.instances),
        "poolInstances": len(bench.pool.instances),
        "unitsPerRound": bench.units,
        "concurrency": CONCURRENCY,
        "flakyIds": len(bench.flaky),
        "estimator": ESTIMATOR,
        "estimatorWhy": ESTIMATOR_WHY,
    }


def round_stats(times: dict[str, list[float]]) -> dict:
    out = {}
    for phase, ts in times.items():
        if ts:
            out[phase] = {
                "rounds": len(ts),
                "min_s": min(t for t, _ in ts),
                "median_s": statistics.median(t for t, _ in ts),
                "median_scaled_s": estimate(ts),
            }
    return out


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="non-negative workload seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics of a traced run")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    pin_to_one_cpu()
    pt = import_package()
    workload = make_workload(pt, args.workload, args.seed)
    workdir = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    if args.probe_setup:
        cals = [calibrate(pt.numpy)]
        try:
            Bench(pt, workload, workdir).setup()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        cals.append(calibrate(pt.numpy))
        print("ready", *cals, flush=True)
        return 0

    setup_times = [] if args.trace else [probe_setup(pt, args.workload, args.seed) for _ in range(SETUP_PROBES)]
    bench = Bench(pt, workload, workdir)
    try:
        bench.setup()
        if args.trace:
            values, extra = traced_metrics(bench, args.seconds, OUT_DIR / f"{args.workload}-s{args.seed}-spans.jsonl")
        else:
            values, extra = end_to_end_metrics(bench, args.seconds, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # fails while another run is using it

    ops_failed_frac = bench.failed / max(bench.attempted, 1)
    info = {**facts(pt, bench), **extra, "opsFailedFrac": ops_failed_frac, "failures": bench.failure_notes}
    for name, (value, unit) in values.items():
        print(f"{name:58s} {_fmt(value):>14s} {unit}")
    print(f"{'ops_failed_frac':58s} {_fmt(ops_failed_frac):>14s} failed/attempted")
    print("facts: " + json.dumps({k: v for k, v in info.items() if k != "roundTimesS"}, sort_keys=True))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "facts": info}, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
