"""Item naming and sentence templates.

Variables are mapped injectively to display names (optionally composite,
"<dish> at <restaurant>"), formulas become one sentence each via fixed
templates, and gold solutions are rendered from the root walk
(`oracle.solve_all`) that certified the instance, kept in its
`VerificationReport`, as either a spine-walk narrative (answerable) or an
information-count argument over the questioned variable's component
(unanswerable).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

from .errors import CertificationError, InvalidConfigError
from .formulas import Formula, Linear
from .jsonmap import nonblank_lines, read_lines, read_rest
from .oracle import Walk, component_of
from .rng import PcgStream

# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

VOWELS = "aeiou"


@dataclass(frozen=True)
class Dish:
    singular: str
    plural: str


DEFAULT_DISHES = (
    Dish("burger", "burgers"),
    Dish("scrambled egg", "scrambled eggs"),
    Dish("BLT sandwich", "BLT sandwiches"),
    Dish("pie", "pies"),
    Dish("Greek salad", "Greek salads"),
    Dish("piece of cheese cake", "pieces of cheese cake"),
    Dish("fruit tart", "fruit tarts"),
    Dish("lasagna", "lasagnas"),
    Dish("pizza", "pizzas"),
)

DEFAULT_RESTAURANTS = (
    "Urban Plate",
    "Taste Good Cuisine",
    "Texas BBQ",
    "Bistro Nice",
    "Mike's Place",
)


@dataclass(frozen=True)
class Vocabulary:
    """Dishes and restaurants.  Each naming mode's `ItemName`s are built on first use and shared
    by every pair drawn; name k is dish k // R at restaurant k % R (simple names: R = 1, no restaurant)."""

    dishes: tuple[Dish, ...]
    restaurants: tuple[str, ...]

    @cached_property
    def simple_names(self) -> tuple[ItemName, ...]:
        return tuple(ItemName(dish.singular, dish.plural) for dish in self.dishes)

    @cached_property
    def composite_names(self) -> tuple[ItemName, ...]:
        return tuple(ItemName(dish.singular, dish.plural, r) for dish in self.dishes for r in self.restaurants)


DEFAULT_VOCABULARY = Vocabulary(dishes=DEFAULT_DISHES, restaurants=DEFAULT_RESTAURANTS)


def _vocabulary_entries(path: str | Path, what: str, parse) -> tuple:
    """`parse(line)` -> (name, entry), or ValueError saying what the line lacks; names must be unique."""
    entries = {}
    numbered = nonblank_lines(read_lines(path))
    try:
        for n, line in numbered:
            try:
                name, entry = parse(line)
            except ValueError as exc:
                raise InvalidConfigError(f"{path} line {n}: {what} entry {line!r} {exc}") from None
            if name in entries:
                raise InvalidConfigError(f"{path} line {n}: duplicate {what} entry {name!r}")
            entries[name] = entry
    except InvalidConfigError:
        read_rest(numbered)
        raise
    if not entries:
        raise InvalidConfigError(f"{path}: no {what} entries")
    return tuple(entries.values())


def _dish(line: str) -> tuple[str, Dish]:
    singular, sep, plural = (part.strip() for part in line.partition("|"))
    if not singular or (sep and not plural):
        raise ValueError("needs a singular and a plural")
    return singular, Dish(singular, plural if sep else singular + "s")


def load_vocabulary(dish_path: Optional[str], restaurant_path: Optional[str]) -> Vocabulary:
    """The vocabulary from UTF-8 files, one unique entry per non-blank line; None: the built-in list.

    Dish file: "singular|plural", or "singular" alone for the plural
    singular+"s".  Restaurant file: the display name.  No file: `DEFAULT_VOCABULARY`.
    """
    if not dish_path and not restaurant_path:
        return DEFAULT_VOCABULARY
    dishes = _vocabulary_entries(dish_path, "dish", _dish) if dish_path else DEFAULT_DISHES
    restaurants = (
        _vocabulary_entries(restaurant_path, "restaurant", lambda line: (line, line))
        if restaurant_path
        else DEFAULT_RESTAURANTS
    )
    return Vocabulary(dishes=dishes, restaurants=restaurants)


# ---------------------------------------------------------------------------
# Item assignment
# ---------------------------------------------------------------------------


@dataclass
class ItemName:
    """One item's name; each phrase is computed on first use and kept, so treat it as read-only."""

    dish: str
    plural: str
    restaurant: Optional[str] = None

    @cached_property
    def display(self) -> str:
        return f"{self.dish} at {self.restaurant}" if self.restaurant else self.dish

    @cached_property
    def display_plural(self) -> str:
        return f"{self.plural} at {self.restaurant}" if self.restaurant else self.plural

    @cached_property
    def article(self) -> str:
        return "an" if self.dish[0].lower() in VOWELS else "a"

    @cached_property
    def one(self) -> str:
        """The one-item phrase, "a burger at Texas BBQ"."""
        return f"{self.article} {self.display}"

    @cached_property
    def one_capitalized(self) -> str:
        """The one-item phrase opening a sentence, "A burger at Texas BBQ"."""
        return f"{self.article.capitalize()} {self.display}"


@dataclass
class ItemMap:
    composite: bool
    names: dict[int, ItemName]


def _name_pool(vocab: Vocabulary, composite: bool) -> tuple[ItemName, ...]:
    return vocab.composite_names if composite else vocab.simple_names


def check_vocabulary(vocab: Vocabulary, num_vars: int, composite: bool) -> None:
    """Raise unless the vocabulary can name num_vars distinct items in this mode."""
    pool = len(_name_pool(vocab, composite))
    if num_vars > pool:
        mode, unit = ("composite", "dish/restaurant pairs") if composite else ("simple", "dishes")
        raise InvalidConfigError(f"{mode} naming needs at least {num_vars} {unit}, vocabulary offers {pool}")


def assign_items(num_vars: int, composite: bool, vocab: Vocabulary, rng: PcgStream) -> ItemMap:
    """Injective uniform draw of names for x1..x_num_vars from the vocabulary's shared ones."""
    check_vocabulary(vocab, num_vars, composite)
    pool = _name_pool(vocab, composite)
    names = {var: pool[k] for var, k in enumerate(rng.distinct_indices(len(pool), num_vars), start=1)}
    return ItemMap(composite=composite, names=names)


# ---------------------------------------------------------------------------
# Sentence templates
# ---------------------------------------------------------------------------

PHRASING_MORE = "more"
PHRASING_LESS = "less"


def _quantity(count: int, item: ItemName, capitalize: bool = False) -> str:
    if count == 1:
        return item.one_capitalized if capitalize else item.one
    return f"{count} {item.display_plural}"


def _cost_verb(count: int) -> str:
    return "costs" if count == 1 else "cost"


def _template_form(f: Linear):
    """Normalize to one of the three sentence shapes, positive coefficients.

    sum:  a1*x1 + a2*x2 = total  (total > 0)
    same: a1*x1 - a2*x2 = 0
    diff: lead - trail = amount  (amount > 0); a negative right-hand side is
          the same shape with the roles exchanged.
    """
    a, b, c = f.parent_coeff, f.child_coeff, f.rhs
    if a > 0 and b > 0:
        return ("sum", (a, f.parent), (b, f.child), c)
    if a < 0 and b < 0:
        return ("sum", (-a, f.parent), (-b, f.child), -c)
    if a > 0:
        plus, minus = (a, f.parent), (-b, f.child)
    else:
        plus, minus = (b, f.child), (-a, f.parent)
    if c == 0:
        return ("same", plus, minus, 0)
    if c > 0:
        return ("diff", plus, minus, c)
    return ("diff", minus, plus, -c)


def _sentence_form(f: Formula):
    """`_template_form` of a Linear, None for a RootValue: one per formula, for coin and sentence."""
    return _template_form(f) if isinstance(f, Linear) else None


def _needs_coin(form) -> bool:
    return form is not None and form[0] == "diff"


def needs_phrasing_coin(f: Formula) -> bool:
    """True for the difference shape, whose wording is a two-way choice."""
    return _needs_coin(_sentence_form(f))


def render_formula_fixed(f: Formula, items: ItemMap, phrasing: Optional[str] = None) -> str:
    """One sentence for one formula, with the difference wording pinned.

    `phrasing` is "more" or "less" and is required exactly when
    `needs_phrasing_coin(f)` holds.
    """
    return _render_formula(f, _sentence_form(f), items, phrasing)


def _render_formula(f: Formula, form, items: ItemMap, phrasing: Optional[str]) -> str:
    """`render_formula_fixed` given the formula's `_sentence_form`."""
    if form is None:
        return f"{items.names[f.var].one_capitalized} costs {f.value} dollars"

    shape, first, second, amount = form
    (n1, v1), (n2, v2) = first, second
    item1, item2 = items.names[v1], items.names[v2]
    if shape == "sum":
        return (
            f"{_quantity(n1, item1, capitalize=True)} and {_quantity(n2, item2)} "
            f"cost {amount} dollars"
        )
    if shape == "same":
        return (
            f"The price of {_quantity(n1, item1)} is the same as "
            f"the price of {_quantity(n2, item2)}"
        )
    if phrasing not in (PHRASING_MORE, PHRASING_LESS):
        raise CertificationError(f"difference sentence needs a phrasing, got {phrasing!r}")
    if phrasing == PHRASING_MORE:
        return (
            f"{_quantity(n1, item1, capitalize=True)} {_cost_verb(n1)} "
            f"{amount} dollars more than {_quantity(n2, item2)}"
        )
    return (
        f"{_quantity(n2, item2, capitalize=True)} {_cost_verb(n2)} "
        f"{amount} dollars less than {_quantity(n1, item1)}"
    )


QUESTION_TEMPLATES = {
    "how-much": "Question: how much does {} cost?",
    "price-of": "Question: what is the price of {}?",
}
QUESTION_PHRASINGS = tuple(QUESTION_TEMPLATES)


def render_question(items: ItemMap, questioned_var: int, phrasing: str = "how-much") -> str:
    if phrasing not in QUESTION_PHRASINGS:
        raise InvalidConfigError(f"question phrasing must be one of {QUESTION_PHRASINGS}, got {phrasing!r}")
    return QUESTION_TEMPLATES[phrasing].format(items.names[questioned_var].one)


# ---------------------------------------------------------------------------
# Problem text and gold solutions
# ---------------------------------------------------------------------------


def assemble_text(sentences: Sequence[str], question: str) -> str:
    """The problem text: each condition sentence with its period, then the question."""
    return ". ".join(sentences) + ". " + question if sentences else " " + question


def _lowercase_first(sentence: str) -> str:
    return sentence[0].lower() + sentence[1:] if sentence else sentence


def _join_names(names: list[str]) -> str:
    if len(names) == 1:
        return names[0]
    return ", ".join(names[:-1]) + " and " + names[-1]


def render_gold_solution(
    formulas: Sequence[Formula],
    sentences: Sequence[str],
    items: ItemMap,
    questioned_var: int,
    walked: Optional[Walk],
) -> str:
    """The gold text, read from `walked`, the formulas' `solve_all` walk.

    `build_pair` passes the walk `oracle.verify_instance` made to certify
    the label, so no second walk is made; None (no forest) raises.
    When the walk prices the questioned variable (answerable): restate each
    spine fact from the direct value down, with the price it yields.
    Otherwise (unanswerable): count the facts left about the questioned
    variable's component.
    """
    if walked is None:
        raise CertificationError("gold solution: formulas are not a forest")
    prices, ends = walked
    if prices.get(questioned_var) is not None:
        by_child = {f.child_var: (f, s) for f, s in zip(formulas, sentences)}
        end = ends[questioned_var]
        parts = []
        var = questioned_var
        while var != end:
            f, sentence = by_child[var]
            # str() gives the same digits for an int and an integral Fraction
            parts.append(
                f"Combine with the fact that {_lowercase_first(sentence)}, "
                f"we get {items.names[var].one} costs {prices[var]!s} dollars."
            )
            var = f.parent
        parts.append(f"It is given as a fact that {_lowercase_first(by_child[end][1])}.")
        return " ".join(reversed(parts))

    component = component_of(ends, questioned_var)
    names = [items.names[v].display for v in sorted(component, reverse=True)]
    facts = [_lowercase_first(s) for f, s in zip(formulas, sentences) if f.child_var in component]
    formula_word = "linear formula" if len(facts) == 1 else "linear formulas"
    target = items.names[questioned_var]
    return (
        f"All we know about the prices of {_join_names(names)} is: "
        f"{'. '.join(facts)}. "
        f"There are {len(component)} variables but only {len(facts)} {formula_word}, "
        f"so we cannot calculate the price of {target.one}."
    )
