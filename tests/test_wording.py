from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence

from pricetree.errors import CertificationError, InvalidConfigError, PricetreeError
from pricetree.formulas import Linear, RootValue
from pricetree.jsonmap import from_json, to_json
from pricetree.oracle import solve_all
from pricetree.pipeline import GenConfig, generate_corpus
from pricetree.rng import PcgStream
from pricetree.wording import (
    DEFAULT_DISHES,
    QUESTION_PHRASINGS,
    Dish,
    ItemMap,
    ItemName,
    Vocabulary,
    assemble_text,
    assign_items,
    check_vocabulary,
    load_vocabulary,
    needs_phrasing_coin,
    render_formula_fixed,
    render_gold_solution,
    render_question,
)

from streams import ScriptedStream
import reference_pair
import sentence_parser


def simple_items(*names: str) -> ItemMap:
    by_singular = {d.singular: d for d in DEFAULT_DISHES}
    return ItemMap(
        names={
            i: ItemName(by_singular[n].singular, by_singular[n].plural)
            for i, n in enumerate(names, start=1)
        },
        composite=False,
    )


def composite_items(*pairs: tuple[str, str]) -> ItemMap:
    by_singular = {d.singular: d for d in DEFAULT_DISHES}
    return ItemMap(
        names={
            i: ItemName(by_singular[dish].singular, by_singular[dish].plural, restaurant)
            for i, (dish, restaurant) in enumerate(pairs, start=1)
        },
        composite=True,
    )


class TestAssignItems:
    def test_pinned_reference_assignment(self):
        items = assign_items(4, False, load_vocabulary(None, None), ScriptedStream([[0, 1, 2, 3]]))
        assert [items.names[i].dish for i in range(1, 5)] == [
            "burger",
            "scrambled egg",
            "BLT sandwich",
            "pie",
        ]

    def test_minimal_composite_vocabulary_forces_both_pairs(self):
        vocab = Vocabulary(
            dishes=(Dish("burger", "burgers"),),
            restaurants=("Urban Plate", "Bistro Nice"),
        )
        items = assign_items(2, True, vocab, ScriptedStream([[1, 0]]))
        displays = {items.names[1].display, items.names[2].display}
        assert displays == {"burger at Urban Plate", "burger at Bistro Nice"}

    def test_composite_displays_never_collide(self):
        vocab = load_vocabulary(None, None)
        for seed in range(1000):
            items = assign_items(10, True, vocab, PcgStream(SeedSequence(seed)))
            displays = [n.display for n in items.names.values()]
            assert len(set(displays)) == 10

    def test_insufficient_vocabulary_names_required_size(self):
        with pytest.raises(InvalidConfigError, match="at least 12 dishes"):
            assign_items(12, False, load_vocabulary(None, None), PcgStream(SeedSequence(0)))
        tiny = Vocabulary(dishes=(Dish("pie", "pies"),), restaurants=("Texas BBQ",))
        with pytest.raises(InvalidConfigError, match="at least 2 dish/restaurant pairs"):
            assign_items(2, True, tiny, PcgStream(SeedSequence(0)))

    @pytest.mark.parametrize(
        "composite, pool, message",
        [
            (False, 9, "simple naming needs at least 10 dishes, vocabulary offers 9"),
            (True, 45, "composite naming needs at least 46 dish/restaurant pairs, vocabulary offers 45"),
        ],
        ids=["simple", "composite"],
    )
    def test_pool_boundary(self, vocab, composite, pool, message):
        check_vocabulary(vocab, pool, composite)
        items = assign_items(pool, composite, vocab, PcgStream(SeedSequence(0)))
        assert len({name.display for name in items.names.values()}) == pool
        with pytest.raises(InvalidConfigError) as exc:
            check_vocabulary(vocab, pool + 1, composite)
        assert str(exc.value) == message


class TestVocabularyFiles:
    def test_dish_file_with_explicit_and_default_plurals(self, tmp_path):
        path = tmp_path / "dishes.txt"
        path.write_text("taco\nbowl of ramen|bowls of ramen\n\nwrap\n", encoding="utf-8")
        dishes = load_vocabulary(path, None).dishes
        assert dishes == (
            Dish("taco", "tacos"),
            Dish("bowl of ramen", "bowls of ramen"),
            Dish("wrap", "wraps"),
        )

    def test_duplicate_entries_rejected(self, tmp_path):
        path = tmp_path / "dishes.txt"
        path.write_text("taco\ntaco\n", encoding="utf-8")
        with pytest.raises(InvalidConfigError, match="duplicate"):
            load_vocabulary(path, None)
        rest = tmp_path / "rest.txt"
        rest.write_text("Cafe One\nCafe One\n", encoding="utf-8")
        with pytest.raises(InvalidConfigError, match="duplicate"):
            load_vocabulary(None, rest)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "dishes.txt"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(InvalidConfigError):
            load_vocabulary(path, None)

    @pytest.mark.parametrize("line", ["|pies", "taco|", "|"])
    def test_dish_missing_singular_or_plural_rejected(self, tmp_path, line):
        path = tmp_path / "dishes.txt"
        path.write_text(f"wrap\n{line}\n", encoding="utf-8")
        with pytest.raises(InvalidConfigError) as exc:
            load_vocabulary(path, None)
        assert str(exc.value) == f"{path} line 2: dish entry {line!r} needs a singular and a plural"

    def test_a_bad_byte_after_a_bad_entry_is_the_error_reported(self, tmp_path):
        # the file is read one line at a time; a bad byte anywhere still fails it as not UTF-8
        path = tmp_path / "dishes.txt"
        path.write_bytes(b"|pies\nwrap\n\xff\n")
        with pytest.raises(PricetreeError) as exc:
            load_vocabulary(path, None)
        assert str(exc.value) == f"{path} line 3: not UTF-8 (invalid start byte)"

    def test_restaurant_file_too_small_for_composite_pool(self, tmp_path):
        rest = tmp_path / "rest.txt"
        rest.write_text("Cafe One\n", encoding="utf-8")
        vocab = load_vocabulary(None, rest)
        assert vocab.restaurants == ("Cafe One",)
        with pytest.raises(InvalidConfigError) as exc:
            check_vocabulary(vocab, 10, True)
        assert str(exc.value) == "composite naming needs at least 10 dish/restaurant pairs, vocabulary offers 9"


class TestRenderFormula:
    def test_difference_less_phrasing(self):
        items = simple_items("burger", "scrambled egg")
        sentence = render_formula_fixed(Linear(1, 2, 2, -3, 4), items, "less")
        assert sentence == "3 scrambled eggs cost 4 dollars less than 2 burgers"

    def test_difference_more_phrasing(self):
        items = simple_items("burger", "scrambled egg")
        sentence = render_formula_fixed(Linear(1, 2, 2, -3, 4), items, "more")
        assert sentence == "2 burgers cost 4 dollars more than 3 scrambled eggs"

    def test_sum_with_composite_names(self):
        items = composite_items(("pizza", "Taste Good Cuisine"), ("lasagna", "Taste Good Cuisine"))
        sentence = render_formula_fixed(Linear(1, 2, 1, 3, 48), items)
        assert sentence == (
            "A pizza at Taste Good Cuisine and 3 lasagnas at Taste Good Cuisine "
            "cost 48 dollars"
        )

    def test_sum_with_two_unit_quantities(self):
        items = composite_items(("scrambled egg", "Bistro Nice"), ("piece of cheese cake", "Mike's Place"))
        sentence = render_formula_fixed(Linear(1, 2, 1, 1, 21), items)
        assert sentence == (
            "A scrambled egg at Bistro Nice and a piece of cheese cake at Mike's Place "
            "cost 21 dollars"
        )

    def test_same_price_template(self):
        items = simple_items("pie", "fruit tart")
        sentence = render_formula_fixed(Linear(1, 2, 1, -1, 0), items)
        assert sentence == "The price of a pie is the same as the price of a fruit tart"

    def test_negative_rhs_swaps_roles(self):
        # 1*x1 - 2*x2 = -7 reads as 2*x2 - 1*x1 = 7
        items = simple_items("pie", "burger")
        more = render_formula_fixed(Linear(1, 2, 1, -2, -7), items, "more")
        assert more == "2 burgers cost 7 dollars more than a pie"
        less = render_formula_fixed(Linear(1, 2, 1, -2, -7), items, "less")
        assert less == "A pie costs 7 dollars less than 2 burgers"

    def test_both_negative_coefficients_render_as_sum(self):
        items = simple_items("pie", "burger")
        sentence = render_formula_fixed(Linear(1, 2, -2, -1, -25), items)
        assert sentence == "2 pies and a burger cost 25 dollars"

    def test_negative_parent_positive_child(self):
        # -2*x1 + 1*x2 = 3 reads as 1*x2 - 2*x1 = 3
        items = simple_items("pie", "burger")
        sentence = render_formula_fixed(Linear(1, 2, -2, 1, 3), items, "more")
        assert sentence == "A burger costs 3 dollars more than 2 pies"

    def test_root_value_uses_singular_article(self):
        items = simple_items("burger")
        assert render_formula_fixed(RootValue(1, 14), items) == "A burger costs 14 dollars"

    def test_phrasing_coin_only_for_difference_shape(self):
        assert needs_phrasing_coin(Linear(1, 2, 2, -3, 4))
        assert not needs_phrasing_coin(Linear(1, 2, 2, -3, 0))
        assert not needs_phrasing_coin(Linear(1, 2, 2, 3, 40))
        assert not needs_phrasing_coin(RootValue(1, 14))
        items = simple_items("burger", "scrambled egg")
        with pytest.raises(CertificationError):
            render_formula_fixed(Linear(1, 2, 2, -3, 4), items, None)

    def test_render_formula_draws_the_coin(self):
        # the phrasing coin picks one of two wordings of the same fact
        items = simple_items("burger", "scrambled egg")
        less = render_formula_fixed(Linear(1, 2, 2, -3, 4), items, "less")
        more = render_formula_fixed(Linear(1, 2, 2, -3, 4), items, "more")
        assert "less than" in less and "more than" in more

    def test_subject_verb_agreement(self):
        items = simple_items("burger", "scrambled egg")
        singular_lead = render_formula_fixed(Linear(1, 2, 3, -1, 13), items, "less")
        assert singular_lead.startswith("A scrambled egg costs")
        plural_lead = render_formula_fixed(Linear(1, 2, 1, -3, 2), items, "less")
        assert plural_lead.startswith("3 scrambled eggs cost ")


class TestRenderQuestion:
    def test_default_phrasing(self):
        items = simple_items("burger", "scrambled egg", "BLT sandwich")
        assert render_question(items, 3) == "Question: how much does a BLT sandwich cost?"

    def test_composite_name(self):
        items = composite_items(("burger", "Taste Good Cuisine"),)
        assert render_question(items, 1) == (
            "Question: how much does a burger at Taste Good Cuisine cost?"
        )

    def test_price_of_phrasing(self):
        items = simple_items("pie")
        assert render_question(items, 1, "price-of") == "Question: what is the price of a pie?"

    def test_unknown_phrasing_rejected(self):
        with pytest.raises(InvalidConfigError) as exc:
            render_question(simple_items("pie"), 1, "riddle")
        assert str(exc.value) == "question phrasing must be one of ('how-much', 'price-of'), got 'riddle'"

    def test_phrasing_order_is_pinned(self):
        # digest grids and benchmark cells index phrasings by position
        assert QUESTION_PHRASINGS == ("how-much", "price-of")


class TestAssembleText:
    def test_sentence_count_and_terminators(self):
        text = assemble_text(["A pie costs 5 dollars", "A burger costs 3 dollars"], "Question: how much?")
        assert text == "A pie costs 5 dollars. A burger costs 3 dollars. Question: how much?"

    @settings(max_examples=300)
    @given(st.lists(st.text()), st.text())
    @example([], "Question: how much?")
    @example(["A pie costs 5 dollars"], "Question: how much?")
    @example(["", ".", ". "], "")
    def test_equals_each_sentence_with_its_period_then_the_question(self, sentences, question):
        expected = " ".join(f"{s}." for s in sentences) + " " + question
        assert assemble_text(sentences, question) == expected


class TestGoldSolutions:
    def test_reference_pair_narratives(self):
        answerable, unanswerable = reference_pair.build_reference_pair()
        assert answerable.gold_solution_text == reference_pair.ANSWERABLE_SOLUTION
        assert unanswerable.gold_solution_text == reference_pair.UNANSWERABLE_SOLUTION

    def test_fractional_prices_in_narrative(self):
        # x2 = (8 - 5) / 2 and x4 = (10 - 9) / 2 are not integers; the sentences
        # are given out of order, as a shuffled instance gives them
        formulas = [RootValue(1, 5), Linear(1, 2, 1, 2, 8), Linear(2, 3, 2, -1, 0), Linear(3, 4, 3, 2, 10)]
        items = simple_items("pie", "burger", "pizza", "lasagna")
        sentences = [render_formula_fixed(f, items) for f in formulas]
        order = [3, 1, 0, 2]
        shuffled = [formulas[i] for i in order]
        text = render_gold_solution(shuffled, [sentences[i] for i in order], items, 4, solve_all(shuffled))
        assert text == (
            "It is given as a fact that a pie costs 5 dollars. "
            "Combine with the fact that a pie and 2 burgers cost 8 dollars, we get a burger costs 3/2 dollars. "
            "Combine with the fact that the price of 2 burgers is the same as the price of a pizza, "
            "we get a pizza costs 3 dollars. "
            "Combine with the fact that 3 pizzas and 2 lasagnas cost 10 dollars, we get a lasagna costs 1/2 dollars."
        )

    def test_component_counts_in_narrative(self):
        # pure chain of depth 4, cut two steps above the question: the
        # stranded component is x2, x3, x4 held together by two formulas
        formulas = [
            RootValue(1, 10),
            Linear(1, 2, 1, -1, 0),
            Linear(2, 3, 1, -1, 0),
            Linear(3, 4, 1, -1, 0),
        ]
        items = simple_items("pie", "burger", "pizza", "lasagna")
        sentences = [render_formula_fixed(f, items) for f in formulas]
        kept = [(f, s) for f, s in zip(formulas, sentences) if f.child_var != 2]
        kept_formulas = [f for f, _ in kept]
        text = render_gold_solution(kept_formulas, [s for _, s in kept], items, 4, solve_all(kept_formulas))
        assert "There are 3 variables but only 2 linear formulas" in text
        assert text.startswith("All we know about the prices of lasagna, pizza and burger is: ")

    def test_no_walk_raises(self):
        # a walk of None means the formulas are not a forest: no gold text is written from them
        formulas = [RootValue(1, 5), RootValue(1, 6)]
        assert solve_all(formulas) is None
        items = simple_items("pie")
        sentences = [render_formula_fixed(f, items) for f in formulas]
        with pytest.raises(CertificationError, match="^gold solution: formulas are not a forest$"):
            render_gold_solution(formulas, sentences, items, 1, None)


class TestSentenceRoundTrip:
    def test_reference_sentences_roundtrip(self):
        answerable, _ = reference_pair.build_reference_pair()
        for formula, sentence in zip(answerable.formulas, answerable.condition_sentences):
            assert sentence_parser.roundtrips(formula, sentence, answerable.item_map)

    def test_all_template_shapes_roundtrip(self):
        items = composite_items(
            ("piece of cheese cake", "Mike's Place"), ("scrambled egg", "Texas BBQ")
        )
        cases = [
            RootValue(1, 7),
            Linear(1, 2, 2, 3, 60),      # sum
            Linear(1, 2, -2, -3, -60),   # sum after negation
            Linear(1, 2, 2, -3, 0),      # same price
            Linear(1, 2, 2, -3, 5),      # difference, positive rhs
            Linear(1, 2, 2, -3, -5),     # difference, negative rhs
            Linear(1, 2, -2, 3, 5),      # negative parent coefficient
        ]
        for formula in cases:
            for phrasing in (("more", "less") if needs_phrasing_coin(formula) else (None,)):
                sentence = render_formula_fixed(formula, items, phrasing)
                assert sentence_parser.roundtrips(formula, sentence, items), sentence


# dish and restaurant files for a file vocabulary: vowel-initial, uppercase and lowercase dishes
_DISH_LINES = "apple pie|apple pies\nIrish stew\nBLT sandwich|BLT sandwiches\nomelette\ntaco\n"
_RESTAURANT_LINES = "Harbor Grill\nUrban Plate\nOak & Ivy\n"


@pytest.fixture(params=["built-in", "files"])
def any_vocab(request, tmp_path) -> Vocabulary:
    if request.param == "built-in":
        return load_vocabulary(None, None)
    dishes, restaurants = tmp_path / "dishes.txt", tmp_path / "restaurants.txt"
    dishes.write_text(_DISH_LINES, encoding="utf-8")
    restaurants.write_text(_RESTAURANT_LINES, encoding="utf-8")
    return load_vocabulary(dishes, restaurants)


def _phrases(name: ItemName) -> tuple:
    return (name.display, name.display_plural, name.article, name.one, name.one_capitalized)


class TestPooledNames:
    @pytest.mark.parametrize("composite", [False, True], ids=["simple", "composite"])
    def test_assign_items_equals_names_built_per_pair(self, any_vocab, composite):
        # the reference builds each name from its draw index k: dish k // R, restaurant k % R
        restaurants = any_vocab.restaurants if composite else (None,)
        pool = len(any_vocab.dishes) * len(restaurants)
        for seed in range(300):
            num_vars = 1 + seed % pool
            items = assign_items(num_vars, composite, any_vocab, PcgStream(SeedSequence(seed)))
            draws = PcgStream(SeedSequence(seed)).distinct_indices(pool, num_vars)
            reference = {}
            for var, k in enumerate(draws, start=1):
                dish = any_vocab.dishes[k // len(restaurants)]
                reference[var] = ItemName(dish.singular, dish.plural, restaurants[k % len(restaurants)])
            assert items == ItemMap(composite=composite, names=reference)
            assert [_phrases(n) for n in items.names.values()] == [_phrases(n) for n in reference.values()]

    def test_built_in_vocabulary_is_one_object(self):
        assert load_vocabulary(None, None) is load_vocabulary(None, None)

    def test_pairs_from_one_vocabulary_share_name_objects(self):
        # 45 composite variables use every built-in name, so each pair holds all 45
        config = GenConfig(num_vars=45, ans_depth=8, cut_depth=4, composite_name=True, count=2, corpus_seed=3)
        first, _, second, _ = generate_corpus(config).instances
        pooled = load_vocabulary(None, None).composite_names
        by_display = {name.display: name for name in first.item_map.names.values()}
        assert len(by_display) == 45
        for name in second.item_map.names.values():
            assert by_display[name.display] is name
            assert any(name is p for p in pooled)

    @pytest.mark.parametrize("composite", [False, True], ids=["simple", "composite"])
    def test_decoded_names_have_the_pooled_phrases(self, any_vocab, composite):
        pool = any_vocab.composite_names if composite else any_vocab.simple_names
        for pooled in pool:
            pooled.one_capitalized  # cached before the encode: it must not reach the JSON
            decoded = from_json(ItemName, to_json(pooled))
            assert decoded == pooled and decoded is not pooled
            assert _phrases(decoded) == _phrases(pooled)
            assert to_json(pooled) == to_json(ItemName(pooled.dish, pooled.plural, pooled.restaurant))

    @pytest.mark.parametrize(
        "name, phrases",
        [
            (ItemName("apple pie", "apple pies"), ("apple pie", "apple pies", "an", "an apple pie", "An apple pie")),
            (
                ItemName("Irish stew", "Irish stews", "Oak & Ivy"),
                ("Irish stew at Oak & Ivy", "Irish stews at Oak & Ivy", "an", "an Irish stew at Oak & Ivy",
                 "An Irish stew at Oak & Ivy"),
            ),
            (
                ItemName("BLT sandwich", "BLT sandwiches"),
                ("BLT sandwich", "BLT sandwiches", "a", "a BLT sandwich", "A BLT sandwich"),
            ),
            (
                ItemName("Greek salad", "Greek salads", "Texas BBQ"),
                ("Greek salad at Texas BBQ", "Greek salads at Texas BBQ", "a", "a Greek salad at Texas BBQ",
                 "A Greek salad at Texas BBQ"),
            ),
            (
                ItemName("burger", "burgers", "Texas BBQ"),
                ("burger at Texas BBQ", "burgers at Texas BBQ", "a", "a burger at Texas BBQ",
                 "A burger at Texas BBQ"),
            ),
        ],
        ids=["vowel", "uppercase-vowel-composite", "uppercase", "uppercase-composite", "composite"],
    )
    def test_decoded_name_phrases(self, name, phrases):
        decoded = from_json(ItemName, to_json(name))
        assert _phrases(decoded) == _phrases(name) == phrases


_SHAPES = [
    GenConfig(num_vars=4, ans_depth=2, cut_depth=1, composite_name=False, count=20, corpus_seed=1),
    GenConfig(num_vars=9, ans_depth=6, cut_depth=3, composite_name=False, order="forward", count=20, corpus_seed=2),
    GenConfig(num_vars=10, ans_depth=8, cut_depth=5, composite_name=True, order="backward", count=20, corpus_seed=3),
    GenConfig(num_vars=45, ans_depth=40, cut_depth=20, composite_name=True, count=5, corpus_seed=4),
]


class TestSharedSentenceShape:
    @pytest.mark.parametrize("config", _SHAPES, ids=lambda c: f"v{c.num_vars}-d{c.ans_depth}-{c.order}")
    def test_coins_and_sentences_follow_the_public_renderer(self, config):
        for answerable, unanswerable in zip(*[iter(generate_corpus(config).instances)] * 2):
            coins = answerable.metadata["phrasing"]
            assert unanswerable.metadata["phrasing"] == coins
            assert set(coins.values()) <= {"more", "less"}
            assert set(coins) == {str(f.child_var) for f in answerable.formulas if needs_phrasing_coin(f)}
            for inst in (answerable, unanswerable):
                for f, sentence in zip(inst.formulas, inst.condition_sentences):
                    assert render_formula_fixed(f, inst.item_map, coins.get(str(f.child_var))) == sentence
