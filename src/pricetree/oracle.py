"""Exact-arithmetic certification of instance labels.

Two independent solvers: an integer elimination over rows of at most two
variables (total on any formula list), and a walk from each variable up its
child -> parent links (total on any forest, which every generated variant
is).  Both give a whole value as an int and build a ``Fraction`` only for
one that is not whole.  The walk also records where each variable's walk
ended, from which ``component_of`` gives the questioned variable's
component that the unanswerable gold text and ``render`` count.
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
    """Oracle verdict for one target variable: a unique one carries its value, an int when whole."""

    kind: str
    value: Optional[int | Fraction] = None

    @classmethod
    def unique(cls, value: int | Fraction) -> "Determination":
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
    coefficient dropped.  Rows never grow, and are dropped but never edited:
    eliminating ``x`` with a pivot on ``{x, y}`` replaces a row on ``{x, z}``
    with a new row ``m*row - n*pivot`` on ``{y, z}``, merged when ``y == z``
    and divided by the gcd of its integers.  Every variable but the target
    leaves: one held by a single row leaves with it, unsolved, as that row
    can be met whatever values the others take; any other is eliminated, on
    a one-variable pivot row when there is one.  The rows left over involve
    the target alone.  Any ``0 = nonzero`` row, or two rows giving the
    target different values, make the system inconsistent; otherwise a
    target coefficient makes the target unique, as an int when the value is
    whole and a ``Fraction`` only when it is not.
    """
    rows: list[Optional[tuple]] = []  # (u, a, v, b, c) with u never the target and b = 0 without v; None once gone
    held: dict[int, list[int]] = {}  # each non-target variable -> every row filed on it, append-only
    live: dict[int, int] = {}  # each non-target variable still in play -> how many live rows hold it
    peel: list[int] = []  # variables that may be held by one row or none, checked when popped
    units: list[int] = []  # rows in one non-target variable
    left: list[tuple[int, int]] = []  # (a, c) of each row a*target = c
    todo = [  # rows to file: the input, then each pivot's combined rows
        (f.var, 1, None, 0, f.value) if type(f) is RootValue else (f.parent, f.parent_coeff, f.child, f.child_coeff, f.rhs)
        for f in formulas
    ]
    while True:
        for u, a, v, b, c in todo:
            if u == v or not (a and b):
                if u == v:
                    a, v, b = a + b, None, 0
                if not b:
                    v = None
                if not a:
                    u, a, v, b = v, b, None, 0
                if u is None:
                    if c:
                        return Determination.inconsistent()
                    continue
            if u == target_var:
                if v is None:
                    left.append((a, c))
                    continue
                u, a, v, b = v, b, u, a
            i = len(rows)
            rows.append((u, a, v, b, c))
            n = live.get(u, 0)
            live[u] = n + 1
            if n:
                held[u].append(i)
            else:
                held[u] = [i]
                peel.append(u)
            if v is None:
                units.append(i)
            elif v != target_var:
                n = live.get(v, 0)
                live[v] = n + 1
                if n:
                    held[v].append(i)
                else:
                    held[v] = [i]
                    peel.append(v)
        todo.clear()
        while peel:
            x = peel.pop()
            n = live.get(x, 2)
            if n > 1:  # gone already, or held by more rows since it was pushed
                continue
            del live[x]
            if n:
                for p in held[x]:
                    if rows[p] is not None:
                        break
                u, _, v, _, _ = rows[p]
                rows[p] = None
                v = v if u == x else u
                if v in live:
                    live[v] = n = live[v] - 1
                    if n < 2:
                        peel.append(v)
        if not live:
            break
        while units and rows[units[-1]] is None:
            units.pop()
        if units:
            p = units.pop()
            x = rows[p][0]
        else:
            x = next(iter(live))
            p = next(i for i in held[x] if rows[i] is not None)
        pu, pa, pv, pb, pc = rows[p]
        if pv == x:
            pa, pv, pb = pb, pu, pa
        del live[x]
        for i in held[x]:  # the pivot row and every row it eliminates x from
            row = rows[i]
            if row is None:
                continue
            rows[i] = None
            u, a, v, b, c = row
            if v == x:
                a, v, b = b, u, a
            if v in live:  # v's combined row files it again; pv may lose rows, so it is pushed below
                live[v] -= 1
            if i == p:
                continue
            g = gcd(pa, a)
            m, n = pa // g, a // g
            b, d, c = m * b, -n * pb, m * c - n * pc
            if v == pv:
                b, d = b + d, 0
            g = gcd(b, d, c)
            if g > 1:
                b, d, c = b // g, d // g, c // g
            todo.append((v, b, pv, d, c))
        if pv in live:
            peel.append(pv)

    values = set()  # (coefficient, rhs) of each row in the target, reduced
    for a, c in left:
        g = gcd(a, c) if a > 0 else -gcd(a, c)
        values.add((a // g, c // g))
    if len(values) > 1:
        return Determination.inconsistent()
    if not values:
        return Determination.underdetermined()
    a, c = values.pop()
    return Determination.unique(c if a == 1 else Fraction(c, a))


_OPEN = object()  # marks a variable whose walk is under way, so meeting it again closes a cycle


def solve_all(formulas: Sequence[Formula]) -> Optional[Walk]:
    """Every named variable's price and walk end, from one memoised walk up the child -> parent links.

    A walk that ends at a direct value gives an exact price, an int when it
    is whole, as in `solve_exact`; one that ends at a variable no formula
    defines gives None, underdetermined.  The second map takes each variable
    to the variable its walk ended at, which `component_of` reads.  The
    result is None when the formulas are not a forest: a variable is the
    child of two formulas, a walk meets a cycle (a self-relation included),
    or a coefficient is 0.  On a forest every formula pins its child given
    its parent, so the system is consistent and no elimination is needed.
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
            if price is not None:  # an int when the quotient is whole, after a Fraction too
                num, den = f.rhs - f.parent_coeff * price, f.child_coeff
                price = num // den if not num % den else Fraction(num, den)
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
