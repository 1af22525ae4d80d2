from __future__ import annotations

import random

from hypothesis import strategies as st

from liegrowth.expr import Bracket, Generator


def x_gens(d: int) -> list[Generator]:
    return [Generator("x", i) for i in range(d)]


@st.composite
def lie_exprs(draw, d: int = 3, max_size: int = 6):
    """Random bracketings over x1..xd with at most max_size leaves."""
    size = draw(st.integers(min_value=1, max_value=max_size))
    return _build(draw, d, size)


def _build(draw, d: int, size: int):
    if size == 1:
        return Generator("x", draw(st.integers(0, d - 1)))
    split = draw(st.integers(1, size - 1))
    return Bracket(_build(draw, d, split), _build(draw, d, size - split))


@st.composite
def lie_dags(draw, d: int = 3, max_brackets: int = 10):
    """Bracketings over x1..xd that share nodes: each new bracket takes two
    earlier nodes, leaves or brackets, so a subtree may recur by identity."""
    nodes = x_gens(d)
    for _ in range(draw(st.integers(min_value=1, max_value=max_brackets))):
        left, right = (nodes[draw(st.integers(0, len(nodes) - 1))] for _ in range(2))
        nodes.append(Bracket(left, right))
    return nodes[-1]


def seeded_rng(seed: int = 0) -> random.Random:
    return random.Random(seed)


def augment(vec: dict, idx: int) -> dict:
    """`vec` as the idx-th row of [A | I]: each key k becomes (0, k), and the
    extra key (1, idx), which sorts after all of them, gets coefficient 1."""
    return {**{(0, k): c for k, c in vec.items()}, (1, idx): 1}


def add_augmented(space, vec: dict, idx: int) -> tuple[bool, dict]:
    """Add augment(vec, idx) to a `RowSpace` and read its residual the way
    `wreath.certify_embedding` does: (True, {}) when the rank of the A part
    grew, else (False, witness) with vec == sum(witness[i] * vector i)."""
    residual = space.add_with_witness(augment(vec, idx))[1]
    if min(residual) < (1, 0):
        return True, {}
    return False, {i: -c for (_, i), c in residual.items() if i != idx}


def combine(witness: dict, vectors: list[dict]) -> dict:
    """sum(witness[i] * vectors[i]) without its zero entries."""
    total: dict = {}
    for idx, c in witness.items():
        for k, v in vectors[idx].items():
            total[k] = total.get(k, 0) + c * v
    return {k: v for k, v in total.items() if v}
