"""Command-line interface.

Subcommands: generate, verify, render, eval, report.  Every command exits
nonzero on any failure, including certification failures, so the CLI is
safe to use as a pipeline gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import Optional, TextIO

from .corpus_io import iter_instances, load_gen_config, read_dataset, write_dataset
from .errors import PricetreeError
from .formulas import formula_edges
from .harness.prompts import load_profile
from .harness.report import format_text_table, write_report
from .harness.scoring import MODES, check_eval_request, iter_records, run_eval, write_records
from .harness.transport import MOCK_NAMES, check_transport_spec, make_transport
from .jsonmap import make_parents
from .oracle import SOLVER_FAILURE, UNDERDETERMINED, component_of, verify_instance
from .pipeline import (
    PRESET_NAMES,
    ProblemInstance,
    cell_label,
    generate_corpus,
    preset,
)
from .tree import ROOT, children_by_parent
from .wording import check_vocabulary, load_vocabulary


def _summary_stream(out: str | Path) -> TextIO:
    """Where a command's summary of writing `out` goes: stderr when `out` is the file on stdout (fd 1, as for
    ``--out /dev/stdout``), so a piped corpus or records file holds only its JSON lines; stdout otherwise."""
    try:
        return sys.stderr if os.path.samestat(os.stat(out), os.fstat(1)) else sys.stdout
    except OSError:  # fd 1 closed, or `out` gone
        return sys.stdout


def _cmd_generate(args: argparse.Namespace) -> int:
    overrides = {
        field: value
        for field, value in (("corpus_seed", args.seed), ("count", args.count))
        if value is not None
    }
    if args.preset:
        configs = preset(args.preset, **overrides)
        for config in configs:  # fail before the first file is written
            vocab = load_vocabulary(config.dish_vocab, config.restaurant_vocab)
            check_vocabulary(vocab, config.num_vars, config.composite_name)
        outputs = [(config, Path(args.out) / f"{cell_label(config)}.jsonl") for config in configs]
    else:
        outputs = [(dataclasses.replace(load_gen_config(args.config), **overrides), args.out)]
    for config, path in outputs:
        dataset = generate_corpus(config)
        write_dataset(dataset, path)
        print(f"wrote {len(dataset.instances)} instances to {path}", file=_summary_stream(path))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Certify each instance as it is read, keeping only the tallies; a FAIL line may come before a later
    line's read error."""
    total = failures = path_disagreements = 0
    for instance in iter_instances(args.input):
        total += 1
        report = verify_instance(instance)
        if report.label_confirmed:
            continue
        print(f"FAIL {instance.id}: {report.failure}")
        if report.failure_kind == SOLVER_FAILURE:
            path_disagreements += 1
        else:
            failures += 1
    print(
        f"certified {total - failures - path_disagreements}/{total} instances "
        f"({failures} label failures, {path_disagreements} solver disagreements)"
    )
    return 1 if failures or path_disagreements else 0


def _render_tree(instance: ProblemInstance, prices: Optional[dict]) -> list[str]:
    """The formula tree from the root, each node with the walk's price; no verdicts when prices is None."""
    children = children_by_parent(formula_edges(instance.formulas))

    def describe(var: int) -> str:
        name = instance.item_map.names[var].display
        if prices is None:
            verdict = "no verdict"
        elif prices.get(var) is None:
            verdict = UNDERDETERMINED
        else:
            verdict = f"{prices[var]} dollars"
        mark = "  <- questioned" if var == instance.questioned_var else ""
        return f"x{var} ({name}): {verdict}{mark}"

    lines = ["root"]
    seen: set[int] = set()

    def walk(node: int, prefix: str) -> None:
        kids = children.get(node, [])
        for i, child in enumerate(kids):
            last = i == len(kids) - 1
            lines.append(f"{prefix}{'`-' if last else '|-'} {describe(child)}")
            if child not in seen:  # a variable with two parents, or on a cycle, is expanded once
                seen.add(child)
                walk(child, prefix + ("   " if last else "|  "))

    walk(ROOT, "")
    # a cut instance is a forest: show subtrees detached from the root too
    for var in sorted(v for v in children if v != ROOT):
        if var in seen:
            continue
        seen.add(var)
        lines.append(f"(detached) {describe(var)}")
        walk(var, "   ")
    return lines


def _cmd_render(args: argparse.Namespace) -> int:
    # every line is read, keeping only the match, so a later line's error is still the command's
    found = [instance for instance in iter_instances(args.input) if instance.id == args.id]
    if not found:
        raise PricetreeError(f"no instance with id {args.id!r} in {args.input}")
    instance = found[0]
    report = verify_instance(instance)
    prices, ends = report.walk or (None, None)  # None when the formulas are not a forest
    print(f"id: {instance.id}  variant: {instance.variant}")
    print()
    print(instance.full_text)
    print()
    print("\n".join(_render_tree(instance, prices)))
    print()
    if instance.gold_answer is not None:
        print(f"gold answer: {instance.gold_answer}")
    print(f"gold solution: {instance.gold_solution_text}")
    status = "confirmed" if report.label_confirmed else f"FAILED ({report.failure})"
    if ends is None:
        print(f"certification: {status}")
    else:
        component = component_of(ends, instance.questioned_var)
        equations = sum(f.child_var in component for f in instance.formulas)
        print(f"certification: {status}; component {len(component)} variables / {equations} formulas")
    return 0 if report.label_confirmed else 1


def _cmd_eval(args: argparse.Namespace) -> int:
    # argument errors come before any file is read
    check_eval_request(args.mode, args.pool is not None, args.seed)
    check_transport_spec(args.transport)
    make_parents(args.out)  # before any request, whose response would be lost
    dataset = read_dataset(args.input)
    profile = load_profile(args.profile)
    pool = None if args.pool is None else read_dataset(args.pool)
    transport = make_transport(args.transport, profile, dataset)
    records = run_eval(
        dataset, profile, args.mode, transport, pool=pool, eval_seed=args.seed
    )
    write_records(records, args.out)
    excluded = sum(1 for r in records if r.transport_failed)
    print(f"wrote {len(records)} records to {args.out} ({excluded} transport failures)", file=_summary_stream(args.out))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    group_by = [key.strip() for key in args.group.split(",") if key.strip()]
    table = write_report(iter_records(args.input), group_by, args.out)  # tallied as read
    print(format_text_table(table))
    print(f"report written to {args.out} ({len(table.cells)} cells)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pricetree",
        description="Generate, certify and evaluate paired answerable/unanswerable "
        "price word problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a certified corpus")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="flat JSON config file")
    source.add_argument("--preset", choices=PRESET_NAMES, help="named configuration grid")
    p.add_argument("--out", required=True, help="output JSONL path (a directory for presets)")
    p.add_argument("--seed", type=int, default=None, help="corpus seed")
    p.add_argument("--count", type=int, default=None, help="pairs per configuration")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="re-certify every instance of a corpus")
    p.add_argument("--in", dest="input", required=True, help="corpus JSONL")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="pretty-print one instance")
    p.add_argument("--in", dest="input", required=True, help="corpus JSONL")
    p.add_argument("--id", required=True, help="instance id")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("eval", help="query a model over a corpus and score the answers")
    p.add_argument("--in", dest="input", required=True, help="corpus JSONL")
    p.add_argument("--profile", required=True, help="model profile JSON")
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--pool", default=None, help="held-out corpus for few-shot exemplars (--mode few only)")
    p.add_argument("--transport", required=True, help=f"live | replay:<file> | mock:<{'|'.join(MOCK_NAMES)}>")
    p.add_argument("--out", required=True, help="output records JSONL")
    p.add_argument("--seed", type=int, default=0, help="seed for few-shot exemplar draws")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="aggregate scored records into tables and CSV series")
    p.add_argument("--in", dest="input", required=True, help="records JSONL")
    p.add_argument("--group", required=True, help="comma-separated grouping keys, e.g. ansDepth")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PricetreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
