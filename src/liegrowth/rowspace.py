"""Incremental exact rank tracking by sparse Gaussian elimination.

Vectors are sparse dicts mapping mutually comparable keys to exact rationals;
keys that do not compare raise `ValueError`. A zero entry of an input vector
is dropped, any entry but an `int` or a `Fraction` goes through `poly.exact`
(a `float` is converted exactly, a value it cannot read raises `ValueError`),
and every sum goes through `poly.add_into`. Invariant: no stored coefficient
is zero, and each is an `int` or a `fractions.Fraction`, never a `float`.
Each stored row is scaled so its smallest coordinate (its pivot) has
coefficient 1, and pivots are distinct across rows, so reducing a vector
means repeatedly cancelling its smallest coordinate until it is either empty
or introduces a new pivot. All arithmetic is rational: rank decisions are
exact, never a float tolerance. Scaling a new row by its pivot is the only
division; a pivot of 1 or -1 keeps the row integral, any other pivot divides
through `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable

from .poly import Rational, add_into, exact, scaled

Vector = dict[Hashable, Rational]
_EXACT = frozenset((int, Fraction))


def _divide(vec: dict, lead: Rational) -> dict:
    """vec / lead exactly, with integral quotients stored as `int`.

    A lead of 1 returns `vec` itself, so callers pass a dict they own.
    """
    if lead == 1:
        return vec
    if lead == -1:
        return {k: -c for k, c in vec.items()}
    return scaled(vec, Fraction(1, lead))


class RowSpace:
    """Grows one vector at a time; `rank` is the dimension of the span.

    With track=True every stored row remembers its expansion in terms of the
    vectors that were inserted (by insertion id), so a dependent insert can
    report the exact linear combination that produces it.
    """

    def __init__(self, track: bool = False):
        self._rows: dict[Hashable, Vector] = {}  # pivot -> row (row[pivot] == 1)
        self._track = track
        self._combos: dict[Hashable, dict[int, Rational]] = {}
        self._inserts = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: Vector, combo: dict[int, Rational] | None = None) -> Vector:
        """The residual of `vec` modulo the span; adds the expansion of what
        was subtracted into `combo` when one is given (tracked spaces only)."""
        vals = vec.values()
        if all(vals) and _EXACT.issuperset(map(type, vals)):
            residual = dict(vec)
        else:
            residual = {k: exact(c) for k, c in vec.items() if c}
        rows = self._rows
        while residual:
            try:
                pivot = min(residual)
            except TypeError:  # two keys that do not compare
                raise ValueError("the keys of a vector must be mutually comparable") from None
            row = rows.get(pivot)
            if row is None:
                break
            factor = residual[pivot]
            add_into(residual, row, -factor)
            if combo is not None:
                add_into(combo, self._combos[pivot], factor)
        return residual

    def _store(self, residual: Vector) -> tuple[Hashable, Rational]:
        """Store a nonzero residual as the row of its pivot; returns (pivot, lead)."""
        pivot = min(residual)
        lead = residual[pivot]
        row = _divide(residual, lead)
        row[pivot] = 1
        self._rows[pivot] = row
        return pivot, lead

    def reduce(self, vec: Vector) -> Vector:
        """Normal form of `vec` modulo the current span (forward elimination)."""
        return self._reduce(vec)

    def add(self, vec: Vector) -> bool:
        """Insert a vector; returns True iff the rank grew."""
        if self._track:
            return self.add_with_witness(vec)[0]
        residual = self._reduce(vec)
        if not residual:
            return False
        self._store(residual)
        return True

    def add_with_witness(self, vec: Vector) -> tuple[bool, dict[int, Rational]]:
        """Insert a vector.

        Returns (True, {}) when the rank grew. Returns (False, combo) when the
        vector was already in the span; with tracking enabled, combo maps
        insertion ids of previously added vectors to coefficients such that
        vec = sum(combo[i] * inserted_i). Insertion ids count every call,
        `add` included, dependent or not.
        """
        insert_id = self._inserts
        self._inserts += 1
        combo: dict[int, Rational] = {}
        residual = self._reduce(vec, combo if self._track else None)
        if not residual:
            return False, combo
        pivot, lead = self._store(residual)
        if self._track:
            # row = (vec - sum combo_i * inserted_i) / lead
            expansion = {insert_id: 1}
            for idx, c in combo.items():
                expansion[idx] = -c
            self._combos[pivot] = _divide(expansion, lead)
        return True, {}
