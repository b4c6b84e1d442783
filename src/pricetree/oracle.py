"""Exact-arithmetic certification of instance labels.

Two independent solvers: an integer elimination over rows of at most two
variables (total on any formula list), and a walk from each variable up its
child -> parent links (total on any forest, which every generated variant
is).  The walk keeps exact integers and falls back to a ``Fraction`` when a
division is not exact, and records where each variable's walk ended, from
which ``component_of`` gives the questioned variable's component that the
unanswerable gold text and ``render`` count.
Certification cross-checks the two solvers and the stated label on both
variants, and its report keeps the walk, so the gold text and ``render``
read it without walking again; nothing here ever touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Optional, Sequence

from .formulas import Formula, RootValue

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import ProblemInstance

# Instance labels: an answerable target must be unique, an unanswerable one underdetermined.
ANSWERABLE = "answerable"
UNANSWERABLE = "unanswerable"

UNIQUE = "unique"
UNDERDETERMINED = "underdetermined"
INCONSISTENT = "inconsistent"


@dataclass
class Determination:
    """Oracle verdict for one target variable."""

    kind: str
    value: Optional[Fraction] = None

    @classmethod
    def unique(cls, value: Fraction) -> "Determination":
        return cls(UNIQUE, value)

    @classmethod
    def underdetermined(cls) -> "Determination":
        return cls(UNDERDETERMINED)

    @classmethod
    def inconsistent(cls) -> "Determination":
        return cls(INCONSISTENT)

    @property
    def is_unique(self) -> bool:
        return self.kind == UNIQUE


LABEL_FAILURE = "label"  # the elimination contradicts the stated label or gold answer
SOLVER_FAILURE = "solver"  # the label holds, but the root walk gives another verdict or none

Walk = tuple[dict[int, int | Fraction | None], dict[int, int]]  # `solve_all`'s (prices, ends)


@dataclass
class VerificationReport:
    """Outcome of certifying one instance against the oracle."""

    determination: Determination
    path_solver_agrees: bool
    label_confirmed: bool
    failure: Optional[str] = None
    failure_kind: Optional[str] = None  # LABEL_FAILURE or SOLVER_FAILURE; None when the label is confirmed
    walk: Optional[Walk] = field(default=None, repr=False, compare=False)  # the verdict's solve_all; None: no forest


def solve_exact(formulas: Sequence[Formula], target_var: int) -> Determination:
    """Decide the target variable by integer elimination over two-variable rows.

    Each formula becomes a row ``a*x_u + b*x_v = c`` in integers, where the
    ``v`` term may be absent; a variable named twice is merged and a zero
    coefficient dropped.  Rows never grow: eliminating ``x`` with a pivot on
    ``{x, y}`` turns a row on ``{x, z}`` into ``m*row - n*pivot`` on
    ``{y, z}``, merged when ``y == z`` and divided by the gcd of its
    integers.  Every variable but the target leaves: one held by a single
    row leaves with it, unsolved, as that row can be met whatever values the
    others take; any other is eliminated, on a one-variable pivot row when
    there is one.  The rows left over involve the target alone.  Any
    ``0 = nonzero`` row, or two rows giving the target different values,
    make the system inconsistent; otherwise a target coefficient makes the
    target unique, and its ``Fraction`` is built only then.
    """
    rows: list[Optional[tuple]] = [None] * len(formulas)  # (u, a, v, b, c), None once gone
    holders: dict[int, set[int]] = {}  # each non-target variable -> the rows holding it
    peel: list[int] = []  # variables held by one row when pushed
    units: list[int] = []  # rows in one non-target variable when pushed
    left: list[tuple[int, int]] = []  # (a, c) of each row a*target = c

    def settle(i: int, u, a: int, v, b: int, c: int) -> bool:
        """File row i, or drop it when it holds no variable; False when it reads 0 = nonzero."""
        if u == v:
            a, v, b = a + b, None, 0
        if not b:
            v = None
        if not a:
            u, a, v, b = v, b, None, 0
        if u is None:
            rows[i] = None
            return not c
        if v == target_var:
            u, a, v, b = v, b, u, a
        g = gcd(a, b, c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        if v is None:
            if u == target_var:
                rows[i] = None
                left.append((a, c))
                return True
            units.append(i)
        rows[i] = (u, a, v, b, c)
        for var in (u, v):
            if var is not None and var != target_var:
                held = holders.get(var)
                if held is None:
                    holders[var] = {i}
                    peel.append(var)
                else:
                    held.add(i)
        return True

    def release(var, i: int) -> None:  # row i no longer holds var; a no-op for the target or an absent term
        held = holders.get(var)
        if held is not None:
            held.discard(i)
            if len(held) == 1:
                peel.append(var)
            elif not held:
                del holders[var]

    for i, f in enumerate(formulas):
        if isinstance(f, RootValue):
            consistent = settle(i, f.var, 1, None, 0, f.value)
        else:
            consistent = settle(i, f.parent, f.parent_coeff, f.child, f.child_coeff, f.rhs)
        if not consistent:
            return Determination.inconsistent()

    while holders:
        if peel:
            x = peel.pop()
            held = holders.get(x)
            if held is not None and len(held) == 1:
                (p,) = held
                del holders[x]
                u, _, v, _, _ = rows[p]
                rows[p] = None
                release(v if u == x else u, p)
            continue
        while units and (rows[units[-1]] is None or rows[units[-1]][2] is not None):
            units.pop()  # no longer a one-variable row
        if units:
            p = units.pop()
            x = rows[p][0]
        else:
            x = next(iter(holders))
            p = next(iter(holders[x]))
        pu, pa, pv, pb, pc = rows[p]
        if pv == x:
            pa, pv, pb = pb, pu, pa
        rows[p] = None
        held = holders.pop(x)
        held.discard(p)
        release(pv, p)
        for i in held:
            u, a, v, b, c = rows[i]
            if v == x:
                a, v, b = b, u, a
            release(v, i)
            g = gcd(pa, a)
            m, n = pa // g, a // g
            if not settle(i, v, m * b, pv, -n * pb, m * c - n * pc):
                return Determination.inconsistent()

    values = set()  # (coefficient, rhs) of each row in the target, reduced
    for a, b in left:
        g = gcd(a, b) if a > 0 else -gcd(a, b)
        values.add((a // g, b // g))
    if len(values) > 1:
        return Determination.inconsistent()
    if not values:
        return Determination.underdetermined()
    a, b = values.pop()
    return Determination.unique(Fraction(b, a))


_OPEN = object()  # marks a variable whose walk is under way, so meeting it again closes a cycle


def solve_all(formulas: Sequence[Formula]) -> Optional[Walk]:
    """Every named variable's price and walk end, from one memoised walk up the child -> parent links.

    A walk that ends at a direct value gives an exact price, kept an int while
    every quotient is exact; one that ends at a variable no formula defines
    gives None, underdetermined.  The second map takes each variable to the
    variable its walk ended at, which `component_of` reads.  The result is
    None when the formulas are not a forest: a variable is the child of two
    formulas, a walk meets a cycle (a self-relation included), or a
    coefficient is 0.  On a forest every formula pins its child given its
    parent, so the system is consistent and no elimination is needed.
    """
    defining = {f.child_var: f for f in formulas}
    if len(defining) < len(formulas):
        return None
    prices: dict = {}
    ends: dict[int, int] = {}
    for var in defining:
        if var in prices:
            continue
        walk = []  # the Linear formulas met, from the start upwards
        while var not in prices:
            f = defining.get(var)
            if f is None or type(f) is RootValue:
                prices[var] = None if f is None else f.value
                ends[var] = var
            elif not (f.parent_coeff and f.child_coeff):
                return None
            else:
                prices[var] = _OPEN
                walk.append(f)
                var = f.parent
        price = prices[var]
        if price is _OPEN:
            return None
        end = ends[var]
        for f in reversed(walk):
            if price is not None:  # an int while the quotient is exact, else a Fraction
                num, den = f.rhs - f.parent_coeff * price, f.child_coeff
                price = num // den if type(num) is int and not num % den else Fraction(num, den)
            prices[f.child] = price
            ends[f.child] = end
    return prices, ends


def component_of(ends: dict[int, int], var: int) -> set[int]:
    """var's component on a forest: every variable whose `solve_all` walk ends where var's does.

    A variable in no formula is a component of its own.
    """
    end = ends.get(var, var)
    return {var, *(v for v, e in ends.items() if e == end)}


def verify_instance(instance: "ProblemInstance") -> VerificationReport:
    """Certify one instance's label by elimination and by root walk; mismatches are reported, never fixed."""
    target = instance.questioned_var
    det = solve_exact(instance.formulas, target)
    walked = solve_all(instance.formulas)
    verdict = None  # the root walk's verdict on the target, None when the formulas are not a forest
    if walked is not None:
        price = walked[0].get(target)
        verdict = Determination.underdetermined() if price is None else Determination.unique(price)

    failure = None
    if instance.variant == ANSWERABLE:
        if not det.is_unique:
            failure = f"label answerable but oracle says {det.kind}"
        elif det.value != instance.gold_answer:
            failure = f"oracle value {det.value} != gold answer {instance.gold_answer}"
    elif instance.variant == UNANSWERABLE:
        if det.kind != UNDERDETERMINED:
            failure = f"label unanswerable but oracle says {det.kind}"
    else:
        failure = f"unknown variant {instance.variant!r}"
    kind = None if failure is None else LABEL_FAILURE
    if kind is None and verdict is None:  # the walk is asked only once the label holds
        failure, kind = "path solver: formulas are not a forest", SOLVER_FAILURE
    elif kind is None and verdict != det:
        failure, kind = "path solver disagrees with elimination", SOLVER_FAILURE

    return VerificationReport(
        determination=det,
        path_solver_agrees=verdict == det,
        label_confirmed=failure is None,
        failure=failure,
        failure_kind=kind,
        walk=walked,
    )
