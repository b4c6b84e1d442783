"""Property tests over randomly drawn generation configs.

The heavyweight exhaustive sweeps live in the acceptance module; these
checks explore the config space more adversarially but with fewer examples.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pricetree.corpus_io import dataset_from_lines, dataset_to_lines
from pricetree.formulas import Formula, Linear, RootValue, formula_edges
from pricetree.harness.scoring import extract_answer
from pricetree.jsonmap import to_json
from pricetree.oracle import (
    Determination,
    component_of,
    solve_all,
    solve_exact,
    verify_instance,
)
from pricetree.pipeline import GenConfig, generate_corpus, generate_pair
from pricetree.rng import substream
from pricetree.tree import children_by_parent, sample_var_values
from pricetree.wording import DEFAULT_DISHES

import sentence_parser


@st.composite
def gen_configs(draw: st.DrawFn) -> GenConfig:
    ans_depth = draw(st.integers(2, 8))
    composite = draw(st.booleans())
    max_extra = 4 if composite else min(4, len(DEFAULT_DISHES) - ans_depth)
    num_vars = ans_depth + draw(st.integers(0, max_extra))
    return GenConfig(
        num_vars=num_vars,
        ans_depth=ans_depth,
        cut_depth=draw(st.integers(1, ans_depth - 1)),
        composite_name=composite,
        order=draw(st.sampled_from(["forward", "backward", "random"])),
        corpus_seed=draw(st.integers(0, 2**32 - 1)),
        count=1,
    )


common = settings(deadline=None, max_examples=60)


@common
@given(config=gen_configs(), index=st.integers(0, 50))
def test_pair_generation_is_deterministic(config: GenConfig, index: int):
    first = generate_pair(config, index)
    second = generate_pair(config, index)
    assert [to_json(i) for i in first] == [to_json(i) for i in second]


@common
@given(config=gen_configs(), index=st.integers(0, 50))
def test_pair_delta_and_shared_draws(config: GenConfig, index: int):
    answerable, unanswerable = generate_pair(config, index)
    ans = list(answerable.condition_sentences)
    una = list(unanswerable.condition_sentences)
    missing = [s for s in ans if s not in una]
    assert len(missing) == 1
    assert una == [s for s in ans if s != missing[0]]
    assert answerable.item_map == unanswerable.item_map
    assert answerable.metadata == unanswerable.metadata
    assert answerable.full_text.replace(f"{missing[0]}. ", "") == unanswerable.full_text


@common
@given(config=gen_configs(), index=st.integers(0, 50))
def test_oracle_certifies_both_variants(config: GenConfig, index: int):
    answerable, unanswerable = generate_pair(config, index)
    ans_report = verify_instance(answerable)
    una_report = verify_instance(unanswerable)
    assert ans_report.label_confirmed and una_report.label_confirmed
    assert ans_report.determination.value == answerable.gold_answer
    assert type(ans_report.determination.value) is int
    assert 5 <= answerable.gold_answer <= 15
    component, equations = walk_component(unanswerable.formulas, unanswerable.questioned_var)
    assert component == cut_subtree(unanswerable)
    assert equations == len(component) - 1


def walk_component(formulas, target: int) -> tuple[set[int], int]:
    """The target's component by the root walk, and the number of formulas defining its variables."""
    _, ends = solve_all(formulas)
    component = component_of(ends, target)
    return component, sum(f.child_var in component for f in formulas)


def cut_subtree(instance) -> set[int]:
    """The cut child and every variable below it in the formula tree, a witness built without the walk."""
    children = children_by_parent(formula_edges(instance.formulas))
    subtree, todo = set(), [instance.metadata["cutEdge"]["child"]]
    while todo:
        var = todo.pop()
        subtree.add(var)
        todo.extend(children.get(var, ()))
    return subtree


def walk_verdict(prices: dict, var: int) -> Determination:
    """The verdict a `solve_all` map gives one variable, as `solve_exact` would state it."""
    price = prices.get(var)
    return Determination.underdetermined() if price is None else Determination.unique(price)


@common
@given(config=gen_configs(), index=st.integers(0, 50))
def test_forward_substitution_matches_elimination(config: GenConfig, index: int):
    answerable, unanswerable = generate_pair(config, index)
    path = solve_all(answerable.formulas)[0][answerable.questioned_var]
    exact = solve_exact(list(answerable.formulas), answerable.questioned_var)
    assert type(path) is int and path == exact.value == answerable.gold_answer
    assert solve_all(unanswerable.formulas)[0][unanswerable.questioned_var] is None


@st.composite
def any_shape_configs(draw: st.DrawFn) -> GenConfig:
    """The small shapes of `gen_configs`, or a 45-variable cell at ansDepth 8 or 40."""
    if draw(st.booleans()):
        return draw(gen_configs())
    ans_depth = draw(st.sampled_from((8, 40)))
    return GenConfig(
        num_vars=45,
        ans_depth=ans_depth,
        cut_depth=draw(st.integers(1, ans_depth - 1)),
        composite_name=True,
        order=draw(st.sampled_from(("forward", "backward", "random"))),
        corpus_seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(deadline=None, max_examples=40)
@given(config=any_shape_configs(), index=st.integers(0, 50))
def test_root_walk_matches_elimination_on_every_variable(config: GenConfig, index: int):
    for instance in generate_pair(config, index):
        prices, ends = solve_all(instance.formulas)
        assert set(prices) == set(ends) == set(range(1, config.num_vars + 1))
        for var in prices:
            assert walk_verdict(prices, var) == solve_exact(instance.formulas, var), var


@common
@given(config=gen_configs(), index=st.integers(0, 50))
def test_sentences_round_trip(config: GenConfig, index: int):
    answerable, _ = generate_pair(config, index)
    for formula, sentence in zip(answerable.formulas, answerable.condition_sentences):
        assert sentence_parser.roundtrips(formula, sentence, answerable.item_map)


@st.composite
def formula_lists(draw: st.DrawFn) -> tuple[list[Formula], int]:
    """Arbitrary small systems, mostly true of some hidden values so that
    unique and underdetermined verdicts show up beside inconsistent ones.
    Self-relations, zero coefficients, repeated or conflicting direct
    values, and a target that no formula names are all in reach."""
    num_vars = draw(st.integers(1, 7))
    var = st.integers(0, num_vars - 1)
    coeff = st.integers(-3, 3)
    hidden = draw(st.lists(st.integers(-20, 20), min_size=num_vars, max_size=num_vars))
    formulas: list[Formula] = []
    for _ in range(draw(st.integers(0, 9))):
        noise = draw(st.sampled_from((0, 0, 0, 1, -2)))
        if draw(st.booleans()):
            v = draw(var)
            formulas.append(RootValue(v, hidden[v] + noise))
        else:
            p, c, a, b = draw(var), draw(var), draw(coeff), draw(coeff)
            formulas.append(Linear(p, c, a, b, a * hidden[p] + b * hidden[c] + noise))
    return formulas, draw(st.integers(0, num_vars))  # num_vars itself is in no formula


@st.composite
def forward_systems(draw: st.DrawFn) -> tuple[list[Formula], int]:
    """Complete, forward-ordered systems with arbitrary right-hand sides.

    x2 is always an odd number over 2, so the root walk must leave exact
    integers at least once; later quotients by 2 or 3 are often inexact too.
    Each later formula ties one new variable, as the child, to a known one,
    so the system stays a forest.
    """
    coeff = st.sampled_from((-3, -2, -1, 1, 2, 3))
    rhs = st.integers(-60, 60)
    root, a = draw(st.integers(-20, 20)), draw(coeff)
    formulas: list[Formula] = [RootValue(1, root), Linear(1, 2, a, 2, a * root + 2 * draw(rhs) + 1)]
    num_vars = draw(st.integers(2, 8))
    for new in range(3, num_vars + 1):
        known = draw(st.integers(1, new - 1))
        formulas.append(Linear(known, new, draw(coeff), draw(coeff), draw(rhs)))
    return formulas, draw(st.integers(1, num_vars))


@settings(deadline=None, max_examples=300)
@given(system=forward_systems())
def test_path_solver_falls_back_to_fractions(system):
    formulas, target = system
    prices, _ = solve_all(formulas)
    assert solve_exact(formulas, target) == Determination.unique(prices[target])
    assert type(prices[2]) is Fraction and prices[2].denominator == 2
    # a whole price is an int in both solvers, also below a fractional one (x2 is never whole)
    for var, price in prices.items():
        assert type(solve_exact(formulas, var).value) is type(price), (var, price)


def dense_rref(formulas: list[Formula], target_var: int) -> Determination:
    """Reference verdict: dense reduced row echelon form over Fractions."""
    variables = sorted({v for f in formulas for v in f.variables()} | {target_var})
    col = {v: i for i, v in enumerate(variables)}
    n = len(variables)
    matrix = []
    for f in formulas:
        row = [Fraction(0)] * (n + 1)
        if isinstance(f, RootValue):
            row[col[f.var]] += 1
            row[n] = Fraction(f.value)
        else:
            row[col[f.parent]] += f.parent_coeff
            row[col[f.child]] += f.child_coeff
            row[n] = Fraction(f.rhs)
        matrix.append(row)
    pivot_cols: list[int] = []
    for c in range(n):
        r = len(pivot_cols)
        p = next((i for i in range(r, len(matrix)) if matrix[i][c]), None)
        if p is None:
            continue
        matrix[r], matrix[p] = matrix[p], matrix[r]
        matrix[r] = [x / matrix[r][c] for x in matrix[r]]
        for i, row in enumerate(matrix):
            if i != r and row[c]:
                matrix[i] = [x - row[c] * y for x, y in zip(row, matrix[r])]
        pivot_cols.append(c)
    if any(row[n] for row in matrix[len(pivot_cols):]):
        return Determination.inconsistent()
    t = col[target_var]
    if t not in pivot_cols:
        return Determination.underdetermined()
    row = matrix[pivot_cols.index(t)]
    if any(row[c] for c in range(n) if c != t):
        return Determination.underdetermined()
    return Determination.unique(row[n])


@settings(deadline=None, max_examples=400)
@given(system=formula_lists(), data=st.data())
def test_solve_exact_matches_dense_reference_in_any_order(system, data):
    formulas, target = system
    verdict = solve_exact(formulas, target)
    assert verdict == dense_rref(formulas, target)
    shuffled = data.draw(st.permutations(formulas))
    assert solve_exact(shuffled, target) == verdict


@settings(deadline=None, max_examples=400)
@given(system=formula_lists())
def test_root_walk_matches_elimination_wherever_it_answers(system):
    formulas, target = system
    walked = solve_all(formulas)
    if walked is not None:
        prices, _ = walked
        for var in {*prices, target}:
            det = solve_exact(formulas, var)
            assert walk_verdict(prices, var) == det, var
            assert type(det.value) is type(prices.get(var)), var  # an int when whole, in both solvers


@st.composite
def deep_systems(draw: st.DrawFn) -> tuple[list[Formula], int]:
    """A generated 45-variable answerable system at ansDepth 8 or 40, with one formula
    dropped or one random relation added, true of the hidden prices or off by a little."""
    ans_depth = draw(st.sampled_from((8, 40)))
    config = GenConfig(
        num_vars=45,
        ans_depth=ans_depth,
        cut_depth=ans_depth // 2,
        composite_name=True,
        corpus_seed=draw(st.integers(0, 2**32 - 1)),
    )
    index = draw(st.integers(0, 50))
    formulas = list(generate_pair(config, index)[0].formulas)
    if draw(st.booleans()):
        # the dropped formula's child is a likely underdetermined target
        touched = formulas.pop(draw(st.integers(0, len(formulas) - 1))).child_var
    else:
        values = sample_var_values(45, substream(config.corpus_seed, index))  # the pair's first draws
        var, coeff = st.integers(1, 45), st.sampled_from((-3, -2, -1, 1, 2, 3))
        p, c, a, b = draw(var), draw(var), draw(coeff), draw(coeff)
        rhs = a * values[p] + b * values[c] + draw(st.sampled_from((0, 0, 1, -2)))
        formulas.insert(draw(st.integers(0, len(formulas))), Linear(p, c, a, b, rhs))
        touched = c
    return formulas, draw(st.sampled_from((ans_depth, touched)) | st.integers(1, 45))


@settings(deadline=None, max_examples=25)
@given(system=deep_systems())
def test_solve_exact_matches_dense_reference_on_deep_pairs(system):
    formulas, target = system
    assert solve_exact(formulas, target) == dense_rref(formulas, target)


@settings(deadline=None, max_examples=25)
@given(system=deep_systems(), data=st.data())
def test_solve_exact_matches_dense_reference_on_shuffled_deep_pairs(system, data):
    # the pivot sequence follows the formula order, so a shuffle takes the elimination down other paths
    formulas, target = system
    shuffled = data.draw(st.permutations(formulas))
    assert solve_exact(shuffled, target) == dense_rref(formulas, target)


@settings(deadline=None, max_examples=20)
@given(config=gen_configs())
def test_serialization_round_trip(config: GenConfig):
    dataset = generate_corpus(config)
    back = dataset_from_lines(dataset_to_lines(dataset))
    assert back.config == dataset.config
    assert back.instances == dataset.instances


@settings(deadline=None, max_examples=200)
@given(text=st.text(max_size=200))
def test_extract_answer_is_total_and_stable(text: str):
    parsed = extract_answer(text)
    assert parsed.verdict in ("unknown", "number", "unparseable")
    assert extract_answer(text.lower()) == parsed
    if parsed.verdict == "number":
        assert isinstance(parsed.value, int)
