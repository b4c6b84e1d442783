#!/usr/bin/env python3
"""Generate a corpus, then re-certify every label independently.

The pipeline already refuses to emit uncertified instances; this demo runs
the same oracle again from the outside, the way `pricetree verify` does,
and inspects the component structure of the unanswerable variants.  The
questioned variable's component comes from the ends of the root walk that
each `VerificationReport` keeps, read by `component_of`.
"""

from collections import Counter

from pricetree import GenConfig, component_of, generate_corpus, verify_instance


def questioned_component(instance, report):
    """The questioned variable's component, and the number of formulas defining its variables."""
    _, ends = report.walk
    component = component_of(ends, instance.questioned_var)
    return component, sum(f.child_var in component for f in instance.formulas)


config = GenConfig(
    num_vars=9,
    ans_depth=6,
    cut_depth=3,
    composite_name=True,
    order="random",
    count=50,
    corpus_seed=7,
)
dataset = generate_corpus(config)
print(f"generated {len(dataset.instances)} instances ({config.count} pairs)")

verdicts = Counter()
component_sizes = Counter()
for instance in dataset.instances:
    report = verify_instance(instance)
    assert report.label_confirmed, report.failure
    verdicts[(instance.variant, report.determination.kind)] += 1
    if instance.variant == "unanswerable":
        # m variables held together by m-1 equations: underdetermined by counting
        component, equations = questioned_component(instance, report)
        assert equations == len(component) - 1
        component_sizes[len(component)] += 1

print("\nverdicts by variant:")
for (variant, kind), n in sorted(verdicts.items()):
    print(f"  {variant:13s} -> {kind:15s} x{n}")

print("\ncut-off component sizes across the corpus:")
for size, n in sorted(component_sizes.items()):
    print(f"  {size} variables / {size - 1} equations: {n} instances")

# drill into one unanswerable instance
instance = next(i for i in dataset.instances if i.variant == "unanswerable")
component, equations = questioned_component(instance, verify_instance(instance))
names = {v: instance.item_map.names[v].display for v in sorted(component)}
print(f"\nexample: {instance.id}")
print(f"  questioned: x{instance.questioned_var} ({names[instance.questioned_var]})")
print(f"  stranded with: {names}")
print(f"  equations touching the component: {equations}")
