"""Exact-arithmetic certification of instance labels.

Two independent solvers: full Gaussian elimination over rationals (total on
any formula list) and a forward-substitution pass that only works on
complete instances in forward order.  Certification cross-checks them and
the stated label; nothing here ever touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .errors import NotForwardSolvableError
from .formulas import Formula, Linear, RootValue, formula_edges
from .tree import breadth_first

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import ProblemInstance

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

    target_var: int
    determination: Determination
    component_size: int
    equation_count: int
    path_solver_agrees: Optional[bool]
    label_confirmed: bool
    failure: Optional[str] = None


_RHS = -1  # sparse-row key for the right-hand side


def _rows_for(formulas: list[Formula], columns: dict[int, int]) -> list[dict[int, object]]:
    """Sparse rows: column -> coefficient, with the RHS under the _RHS key.

    Entries start as plain ints and are promoted to Fraction only when a
    pivot normalization divides them; zero entries are never stored.
    """
    rows: list[dict[int, object]] = []
    for f in formulas:
        row: dict[int, object] = {}
        if isinstance(f, RootValue):
            terms = [(columns[f.var], 1)]
            rhs = f.value
        else:
            # accumulate: a degenerate relation may name one variable twice
            terms = [(columns[f.parent], f.parent_coeff), (columns[f.child], f.child_coeff)]
            rhs = f.rhs
        for col, coeff in terms:
            total = row.get(col, 0) + coeff
            if total:
                row[col] = total
            else:
                row.pop(col, None)
        if rhs:
            row[_RHS] = rhs
        rows.append(row)
    return rows


def solve_exact(formulas: list[Formula], target_var: int) -> Determination:
    """Decide the target variable by Gaussian elimination over rationals.

    Reduces the full system to reduced row echelon form, pivoting on the
    first nonzero entry per column.  The target is Unique exactly when its
    column is a pivot column and that pivot row involves no free variable.
    Rows are sparse; these systems are tree-shaped, so eliminations touch a
    handful of entries each.
    """
    variables = sorted({v for f in formulas for v in f.variables()} | {target_var})
    columns = {v: i for i, v in enumerate(variables)}
    rows = _rows_for(formulas, columns)
    n_cols = len(variables)

    pivot_row_of: dict[int, int] = {}  # column -> row index
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pivot_row = rows[r]
        pivot_value = pivot_row[c]
        if pivot_value != 1:
            scale = Fraction(1, pivot_value) if isinstance(pivot_value, int) else 1 / pivot_value
            for k in pivot_row:
                pivot_row[k] = pivot_row[k] * scale
        for i in range(len(rows)):
            if i == r:
                continue
            row = rows[i]
            factor = row.get(c)
            if not factor:
                continue
            for k, v in pivot_row.items():
                updated = row.get(k, 0) - factor * v
                if updated:
                    row[k] = updated
                else:
                    row.pop(k, None)
        pivot_row_of[c] = r
        r += 1

    for row in rows[r:]:
        if row.get(_RHS):
            return Determination.inconsistent()

    target_col = columns[target_var]
    if target_col not in pivot_row_of:
        return Determination.underdetermined()
    row = rows[pivot_row_of[target_col]]
    if any(k not in (target_col, _RHS) for k in row):
        return Determination.underdetermined()
    return Determination.unique(Fraction(row.get(_RHS, 0)))


def solve_by_path(formulas: list[Formula], target_var: int) -> Fraction:
    """Single left-to-right pass over a forward-ordered, complete instance.

    Each formula must introduce at most one new variable; hitting one with
    two unknowns means the list was not forward-solvable (a cut instance, or
    a generator bug).
    """
    known: dict[int, Fraction] = {}
    for pos, f in enumerate(formulas):
        if isinstance(f, RootValue):
            known[f.var] = Fraction(f.value)
            continue
        has_parent = f.parent in known
        has_child = f.child in known
        if has_parent and has_child:
            continue
        if not has_parent and not has_child:
            raise NotForwardSolvableError(
                f"formula {pos} relates x{f.parent} and x{f.child}, both unknown"
            )
        if has_parent:
            known[f.child] = Fraction(f.rhs - f.parent_coeff * known[f.parent], f.child_coeff)
        else:
            known[f.parent] = Fraction(f.rhs - f.child_coeff * known[f.child], f.parent_coeff)
    if target_var not in known:
        raise NotForwardSolvableError(f"target x{target_var} never resolved")
    return known[target_var]


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
    component, equations = constraint_component(list(instance.formulas), target)

    failure = None
    path_agrees: Optional[bool] = None
    if instance.variant == "answerable":
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
    else:
        if det.kind != UNDERDETERMINED:
            failure = f"label unanswerable but oracle says {det.kind}"

    return VerificationReport(
        target_var=target,
        determination=det,
        component_size=len(component),
        equation_count=equations,
        path_solver_agrees=path_agrees,
        label_confirmed=failure is None,
        failure=failure,
    )
