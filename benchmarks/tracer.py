"""Span tracing of pricetree's public functions, installed from outside the package.

Each traced function is rebound, in every loaded ``pricetree`` module that
holds a reference to it (``pricetree.oracle.solve_exact`` and the copy that
``pricetree.pipeline`` imported alike), to a wrapper that records a span:
function, start, end, parent span and the pair, instance or record id it
works on.  Calls are counted per benchmark phase and self time (duration
minus the part of the interval that child spans cover) is summed per
function as spans close.  A function missing from the package is reported
as absent, never raised, so the benchmark keeps running when a later
version deletes or merges one.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path

# layer (module under ``pricetree.``) -> traced public functions
TRACED = {
    "rng": ("substream",),
    "tree": ("sample_var_values", "build_tree", "bfs_edges"),
    "formulas": ("sample_formula", "order_formulas"),
    "wording": (
        "load_vocabulary",
        "assign_items",
        "render_formula_fixed",
        "render_question",
        "assemble_text",
        "render_gold_solution",
    ),
    "pipeline": ("generate_corpus", "build_pair"),
    "oracle": ("solve_exact", "verify_instance", "solve_by_path", "forward_order", "constraint_component"),
    "corpus_io": ("dataset_to_lines", "write_dataset", "read_dataset", "dataset_from_lines"),
    "harness.prompts": ("build_zero_shot_prompt", "build_few_shot_prompt"),
    "harness.transport": ("query_model",),
    "harness.scoring": ("run_eval", "extract_answer", "score_outcome", "write_records", "read_records"),
    "harness.report": ("aggregate", "write_report"),
}

# benchmark phase -> (unit of work, traced names whose calls per unit are reported)
_GENERATE = (
    "rng.substream",
    "tree.sample_var_values",
    "tree.build_tree",
    "tree.bfs_edges",
    "formulas.sample_formula",
    "formulas.order_formulas",
    "wording.load_vocabulary",
    "wording.assign_items",
    "wording.render_formula_fixed",
    "wording.render_question",
    "wording.assemble_text",
    "wording.render_gold_solution",
    "pipeline.generate_corpus",
    "pipeline.build_pair",
    "oracle.solve_exact",
    "oracle.verify_instance",
    "oracle.solve_by_path",
    "oracle.forward_order",
    "oracle.constraint_component",
    "corpus_io.dataset_to_lines",
    "corpus_io.write_dataset",
)
_VERIFY = (
    "oracle.solve_exact",
    "oracle.verify_instance",
    "oracle.solve_by_path",
    "oracle.forward_order",
    "oracle.constraint_component",
    "corpus_io.read_dataset",
    "corpus_io.dataset_from_lines",
)
_EVAL = (
    "harness.transport.query_model",
    "harness.scoring.run_eval",
    "harness.scoring.extract_answer",
    "harness.scoring.score_outcome",
)
PHASES = {
    "generate": ("pair", _GENERATE),
    "verify": ("instance", _VERIFY),
    "eval_zero": ("record", ("harness.prompts.build_zero_shot_prompt",) + _EVAL),
    "eval_few": ("record", ("harness.prompts.build_few_shot_prompt", "rng.substream") + _EVAL),
    "report": (
        "record",
        (
            "harness.scoring.write_records",
            "harness.scoring.read_records",
            "harness.report.aggregate",
            "harness.report.write_report",
        ),
    ),
}

TRACED_NAMES = tuple(f"{layer}.{func}" for layer, funcs in TRACED.items() for func in funcs)

MAX_KEPT_SPANS = 50_000  # spans kept for the output file; statistics cover every span


def _unit_of(func: str, args: tuple, kwargs: dict):
    """The pair, instance or record id a call works on, when its arguments name one."""
    if func == "build_pair":
        config, index = args[0], args[1]
        return f"s{config.corpus_seed}-p{index:06d}"
    if func == "query_model":
        return args[3] if len(args) > 3 else kwargs.get("instance_id")
    if args and isinstance(getattr(args[0], "id", None), str):
        return args[0].id  # a ProblemInstance
    return None


class _Frame:
    __slots__ = ("span_id", "fid", "start", "child_ns", "unit", "parent", "foreign")

    def __init__(self, span_id, fid, start, unit, parent):
        self.span_id = span_id
        self.fid = fid
        self.start = start
        self.child_ns = 0
        self.unit = unit
        self.parent = parent
        self.foreign = None  # (start, end) of children that ran on other threads


def _covered(intervals: list, lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Records spans for the traced functions while installed and active.

    Spans opened on a worker thread with nothing open on that thread (the
    evaluation calls that ``run_eval`` hands to its thread pool) take the
    innermost span open on the installing thread as their parent.
    """

    def __init__(self) -> None:
        self.phase: str | None = None
        self.active = False
        self.calls: dict[tuple[str, str], int] = {}
        self.self_ns = dict.fromkeys(TRACED_NAMES, 0)
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.absent: list[str] = []
        self._bindings: list[tuple] = []  # (module, attribute, original, wrapper)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list[_Frame] = []
        self._next_id = 1
        self._prepare()

    # -- binding --------------------------------------------------------------

    def _prepare(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "pricetree" and m]
        for layer, funcs in TRACED.items():
            module = sys.modules.get(f"pricetree.{layer}")
            for func in funcs:
                original = getattr(module, func, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{func}")
                    continue
                wrapper = self._wrap(f"{layer}.{func}", func, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bindings.append((mod, attr, original, wrapper))

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        self._local.stack = self._main_stack

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, func: str, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            unit = _unit_of(func, args, kwargs)
            if unit is None and parent is not None:
                unit = parent.unit
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = _Frame(span_id, name, 0, unit, parent)
            stack.append(frame)
            frame.start = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer._close(frame, end, same_thread=bool(stack))

        return traced

    def _close(self, frame: _Frame, end: int, same_thread: bool) -> None:
        duration = end - frame.start
        covered = frame.child_ns
        with self._lock:
            if frame.foreign:
                covered += _covered(frame.foreign, frame.start, end)
            parent = frame.parent
            if parent is not None:
                if same_thread:
                    parent.child_ns += duration
                else:
                    if parent.foreign is None:
                        parent.foreign = []
                    parent.foreign.append((frame.start, end))
            self.self_ns[frame.fid] += max(duration - covered, 0)
            key = (self.phase, frame.fid)
            self.calls[key] = self.calls.get(key, 0) + 1
            if len(self.spans) < MAX_KEPT_SPANS:
                self.spans.append(
                    (frame.span_id, frame.fid, frame.start, end,
                     parent.span_id if parent else None, frame.unit, self.phase)
                )
            else:
                self.dropped_spans += 1

    def write_spans(self, path: Path) -> None:
        """One JSON object per span, in the order the spans closed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start_ns", "end_ns", "parent", "unit", "phase")
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def per_layer_metrics(tracer: Tracer, units: dict[str, int], traced_ns: int) -> dict[str, tuple[float, str]]:
    """Calls per unit of each phase, self microseconds per call and share of traced time."""
    metrics: dict[str, tuple[float, str]] = {}
    for phase, (unit, names) in PHASES.items():
        for name in names:
            calls = tracer.calls.get((phase, name), 0)
            metrics[f"{name}.{phase}.calls_per_unit"] = (calls / max(units[phase], 1), f"calls/{unit}")
    for name in TRACED_NAMES:
        calls = sum(n for (_, fid), n in tracer.calls.items() if fid == name)
        self_ns = tracer.self_ns[name]
        metrics[f"{name}.self_us"] = (self_ns / calls / 1000 if calls else 0.0, "us")
        metrics[f"{name}.share"] = (self_ns / traced_ns if traced_ns else 0.0, "frac")
    return metrics
