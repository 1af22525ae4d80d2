"""Incremental exact rank tracking by sparse Gaussian elimination.

Vectors are sparse dicts mapping mutually comparable keys to exact rationals;
keys that do not compare raise `ValueError`. A vector that is not a `dict`
of nonzero `int` and `Fraction` values goes through `poly.checked_terms`, as
the input of every element constructor does: each value through `poly.exact`
(a `float` is converted exactly, a value it cannot read, `None` too, raises
`ValueError`) and then zeros dropped; a vector that is not a mapping raises
`ValueError`, and `None` or an empty one is the zero vector. Every sum goes
through `poly.add_into`. Invariant: no stored coefficient is zero, and each
is an `int` or a `fractions.Fraction`, never a `float`. Each stored row is
scaled so its smallest coordinate (its pivot) has coefficient 1, and pivots
are distinct across rows, so reducing a vector means repeatedly cancelling
its smallest coordinate until it is either empty or introduces a new pivot. All arithmetic is rational: rank decisions are
exact, never a float tolerance. Scaling a new row by its pivot is the only
division; a pivot of 1 or -1 keeps the row integral, any other pivot divides
through `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable

from .poly import Rational, add_into, checked_terms, scaled

Vector = dict[Hashable, Rational]
_EXACT = frozenset((int, Fraction))


class RowSpace:
    """Grows one vector at a time; `rank` is the dimension of the span.

    A space keeps only its rows. For a dependency witness, reduce `[A | I]`:
    give the i-th vector an extra key i, after every other key, with
    coefficient 1. The vector is dependent exactly when the residual
    `add_with_witness` returns has its pivot among the extra keys, and then
    the residual is a relation among the vectors (`wreath.certify_embedding`).
    """

    def __init__(self):
        self._rows: dict[Hashable, Vector] = {}  # pivot -> row (row[pivot] == 1)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduce(self, vec: Vector) -> Vector:
        """Normal form of `vec` modulo the current span (forward elimination)."""
        if isinstance(vec, dict) and all(vals := vec.values()) and _EXACT.issuperset(map(type, vals)):
            residual = dict(vec)
        else:
            residual = checked_terms(vec, lambda key: key)
        rows = self._rows
        while residual:
            try:
                pivot = min(residual)
            except TypeError:  # two keys that do not compare
                raise ValueError("the keys of a vector must be mutually comparable") from None
            row = rows.get(pivot)
            if row is None:
                break
            add_into(residual, row, -residual[pivot])
        return residual

    def add(self, vec: Vector) -> bool:
        """Insert a vector; returns True iff the rank grew."""
        return self.add_with_witness(vec)[0]

    def add_with_witness(self, vec: Vector) -> tuple[bool, Vector]:
        """Insert a vector; returns (grew, residual).

        The residual is `reduce(vec)` before the insert: empty when the rank
        did not grow, else the new row before it is scaled to pivot 1. The
        caller must not mutate it: for a pivot of 1 it is the stored row.
        """
        residual = self.reduce(vec)
        if not residual:
            return False, residual
        pivot = min(residual)
        lead = residual[pivot]
        self._rows[pivot] = residual if lead == 1 else scaled(residual, -1 if lead == -1 else Fraction(1, lead))
        return True, residual
