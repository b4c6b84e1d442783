"""Linear price constraints sampled for tree edges.

A root edge pins a variable to its hidden value.  Any other edge (x_i, x_j)
becomes ``a*x_i + b*x_j = a*v_i + b*v_j`` with a, b drawn from the nonzero
integers in [-3, 3], so every formula is satisfied exactly by the hidden
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, Union

from .errors import InvalidConfigError
from .rng import PcgStream
from .tree import ROOT

COEFFICIENT_CHOICES = (-3, -2, -1, 1, 2, 3)

CONDITION_ORDERS = ("forward", "backward", "random")


@dataclass
class RootValue:
    """Direct unit-price statement for one variable: x_var = value."""

    kind: ClassVar[str] = "rootValue"  # tag of the serialized form
    var: int
    value: int

    @property
    def child_var(self) -> int:
        return self.var

    def variables(self) -> tuple[int, ...]:
        return (self.var,)


@dataclass
class Linear:
    """Two-variable relation: parent_coeff*x_parent + child_coeff*x_child = rhs."""

    kind: ClassVar[str] = "linear"  # tag of the serialized form
    parent: int
    child: int
    parent_coeff: int
    child_coeff: int
    rhs: int

    @property
    def child_var(self) -> int:
        return self.child

    def variables(self) -> tuple[int, ...]:
        return (self.parent, self.child)


Formula = Union[RootValue, Linear]


def formula_edges(formulas: Iterable[Formula]) -> Iterator[tuple[int, int]]:
    """The (parent, child) tree edge of each formula; a direct value hangs off the root."""
    return ((ROOT if isinstance(f, RootValue) else f.parent, f.child_var) for f in formulas)


def sample_formula(parent: int, child: int, values: dict[int, int], coefficients: Iterator[int]) -> Formula:
    """Concrete formula for one edge; root edges take no coefficients, others the next two drawn."""
    if parent == ROOT:
        return RootValue(var=child, value=values[child])
    a = next(coefficients)
    b = next(coefficients)
    rhs = a * values[parent] + b * values[child]
    return Linear(parent=parent, child=child, parent_coeff=a, child_coeff=b, rhs=rhs)


def order_formulas(formulas: list[Formula], order: str, rng: PcgStream) -> list[Formula]:
    """Arrange the condition list; only "random" consumes draws."""
    if order == "forward":
        return list(formulas)
    if order == "backward":
        return list(reversed(formulas))
    if order == "random":
        perm = rng.permutation(len(formulas))
        return [formulas[i] for i in perm]
    raise InvalidConfigError(f"order must be one of {CONDITION_ORDERS}, got {order!r}")
