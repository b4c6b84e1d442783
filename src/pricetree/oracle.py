"""Exact-arithmetic certification of instance labels.

Two independent solvers: a sparse, fraction-free integer elimination (total
on any formula list) and a forward-substitution pass that only works on
complete instances in forward order.  The pass keeps exact integers and
falls back to a ``Fraction`` when a division is not exact.  Certification
cross-checks them and the stated label; nothing here ever touches floating
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from typing import TYPE_CHECKING, Optional

from .errors import NotForwardSolvableError
from .formulas import Formula, Linear, RootValue, formula_edges
from .tree import breadth_first

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import ProblemInstance

# Instance labels: an answerable target must be unique, an unanswerable one underdetermined.
ANSWERABLE = "answerable"
UNANSWERABLE = "unanswerable"

UNIQUE = "unique"
UNDERDETERMINED = "underdetermined"
INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of certifying one instance against the oracle."""

    determination: Determination
    path_solver_agrees: Optional[bool]
    label_confirmed: bool
    failure: Optional[str] = None


_RHS = -1  # sparse-row key of the right-hand side
_TARGET = 0  # sparse-row key of the target; the other variables get keys 1, 2, ...


def _integer_rows(formulas: list[Formula], target_var: int) -> tuple[list[dict], dict[int, set[int]]]:
    """Sparse integer rows, key -> coefficient, with no zero entries stored; and, for each
    non-target key, the set of rows holding it."""
    keys = {target_var: _TARGET}
    rows: list[dict[int, int]] = []
    holding: dict[int, set[int]] = {}
    for i, f in enumerate(formulas):
        if isinstance(f, RootValue):
            terms, rhs = ((f.var, 1),), f.value
        else:
            terms, rhs = ((f.parent, f.parent_coeff), (f.child, f.child_coeff)), f.rhs
        row = {_RHS: rhs} if rhs else {}
        for var, coeff in terms:
            # accumulate: a degenerate relation may name one variable twice
            key = keys.setdefault(var, len(keys))
            total = row.get(key, 0) + coeff
            if total:
                row[key] = total
            else:
                row.pop(key, None)
        for key in row:
            if key > _TARGET:
                holding.setdefault(key, set()).add(i)
        rows.append(row)
    return rows, holding


def _holds_other(row: dict[int, int]) -> bool:
    """Whether a row still holds a variable besides the target."""
    return len(row) > (_RHS in row) + (_TARGET in row)


def solve_exact(formulas: list[Formula], target_var: int) -> Determination:
    """Decide the target variable by fraction-free sparse integer elimination.

    Every variable but the target is eliminated in turn, in integers as in
    Bareiss (1968), with rows kept small by gcd division.  The pivot is the
    active row with the fewest entries, on its variable held by the fewest
    other rows; each of those rows becomes ``a*row - b*pivot`` with ``a, b``
    reduced by their gcd, and is then divided by the gcd of its entries.
    The pivot row leaves the system: it alone still holds its variable, so
    it can be met whatever values the other rows take.  The rows left over
    involve the target alone.  Any ``0 = nonzero`` row, or two rows giving
    the target different values, make the system inconsistent; otherwise a
    target coefficient makes the target unique, and its ``Fraction`` is
    built only then.
    """
    rows, holding = _integer_rows(formulas, target_var)
    active: dict[int, dict[int, int]] = {}  # rows that still hold a non-target variable
    left: list[dict[int, int]] = []  # rows in the target alone
    for i, row in enumerate(rows):
        if _holds_other(row):
            active[i] = row
        else:
            left.append(row)

    queue = [(len(row), i) for i, row in active.items()]  # (size, row); stale entries skipped
    heapify(queue)
    while queue:
        size, p = heappop(queue)
        pivot = active.get(p)
        if pivot is None or len(pivot) != size:
            continue
        del active[p]
        keys = []  # the pivot's non-target keys
        col, fewest = None, len(rows)  # the first of them with the fewest other holders
        for key in pivot:
            if key > _TARGET:
                holders = holding[key]
                holders.discard(p)
                keys.append(key)
                if len(holders) < fewest:
                    col, fewest = key, len(holders)
        if not fewest:  # no other row holds the column: nothing to update
            continue
        keys.remove(col)
        pivot_coeff = pivot[col]
        for i in holding.pop(col):
            row = active[i]
            g = gcd(pivot_coeff, row[col])
            a, b = pivot_coeff // g, row[col] // g
            if a != 1:
                for key in row:
                    row[key] *= a
            for key, v in pivot.items():
                total = row.get(key, 0) - b * v
                if total:
                    row[key] = total
                else:
                    row.pop(key, None)
            g = gcd(*row.values())
            if g > 1:
                for key in row:
                    row[key] //= g
            for key in keys:
                if key in row:
                    holding[key].add(i)
                else:
                    holding[key].discard(i)
            if _holds_other(row):
                heappush(queue, (len(row), i))
            else:
                left.append(active.pop(i))

    values = set()  # (coefficient, rhs) of each row in the target, reduced
    for row in left:
        a, b = row.get(_TARGET, 0), row.get(_RHS, 0)
        if a:
            g = gcd(a, b) if a > 0 else -gcd(a, b)
            values.add((a // g, b // g))
        elif b:
            return Determination.inconsistent()
    if len(values) > 1:
        return Determination.inconsistent()
    if not values:
        return Determination.underdetermined()
    a, b = values.pop()
    return Determination.unique(Fraction(b, a))


def exact_quotient(num: int | Fraction, den: int) -> int | Fraction:
    """``num / den`` as an int when it divides exactly, else as a Fraction."""
    if type(num) is int:
        q, r = divmod(num, den)
        if not r:
            return q
    return Fraction(num, den)


def solve_by_path(formulas: list[Formula], target_var: int) -> Fraction:
    """Single left-to-right pass over a forward-ordered, complete instance.

    Each formula must introduce at most one new variable; hitting one with
    two unknowns means the list was not forward-solvable (a cut instance, or
    a generator bug).  Values stay ints while every quotient is exact, as
    it is on any generated instance, whose hidden prices are integers.
    """
    known: dict[int, int | Fraction] = {}
    for pos, f in enumerate(formulas):
        if isinstance(f, RootValue):
            known[f.var] = f.value
            continue
        parent = known.get(f.parent)
        child = known.get(f.child)
        if child is None:
            if parent is None:
                raise NotForwardSolvableError(
                    f"formula {pos} relates x{f.parent} and x{f.child}, both unknown"
                )
            known[f.child] = exact_quotient(f.rhs - f.parent_coeff * parent, f.child_coeff)
        elif parent is None:
            known[f.parent] = exact_quotient(f.rhs - f.child_coeff * child, f.parent_coeff)
    if target_var not in known:
        raise NotForwardSolvableError(f"target x{target_var} never resolved")
    return Fraction(known[target_var])


def forward_order(formulas: list[Formula]) -> list[Formula]:
    """Rebuild breadth-first order from the parent/child structure.

    Every variable is the child of exactly one formula, so the edge set is
    recoverable from any ordering of a complete instance.
    """
    by_child = {f.child_var: f for f in formulas}
    return [by_child[child] for _, child in breadth_first(formula_edges(formulas))]


def constraint_component(formulas: list[Formula], target_var: int) -> tuple[set[int], int]:
    """Variables connected to the target, and the formulas touching them.

    Union-find over formula incidence: a two-variable formula joins its
    endpoints, a direct value formula only touches its own variable.
    """
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for f in formulas:
        if isinstance(f, Linear):
            union(f.parent, f.child)
        else:
            find(f.var)
    find(target_var)

    root = find(target_var)
    component = {v for v in parent if find(v) == root}
    equations = sum(1 for f in formulas if find(f.child_var) == root)
    return component, equations


def verify_instance(instance: "ProblemInstance") -> VerificationReport:
    """Certify one instance's label; mismatches are reported, never fixed."""
    target = instance.questioned_var
    det = solve_exact(list(instance.formulas), target)

    failure = None
    path_agrees: Optional[bool] = None
    if instance.variant == ANSWERABLE:
        if not det.is_unique:
            failure = f"label answerable but oracle says {det.kind}"
        elif det.value != instance.gold_answer:
            failure = f"oracle value {det.value} != gold answer {instance.gold_answer}"
        else:
            try:
                path_value = solve_by_path(forward_order(list(instance.formulas)), target)
                path_agrees = path_value == det.value
            except NotForwardSolvableError as exc:
                path_agrees = False
                failure = f"path solver failed: {exc}"
            if path_agrees is False and failure is None:
                failure = "path solver disagrees with elimination"
    elif instance.variant == UNANSWERABLE:
        if det.kind != UNDERDETERMINED:
            failure = f"label unanswerable but oracle says {det.kind}"
    else:
        failure = f"unknown variant {instance.variant!r}"

    return VerificationReport(
        determination=det,
        path_solver_agrees=path_agrees,
        label_confirmed=failure is None,
        failure=failure,
    )
