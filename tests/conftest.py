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


def seeded_rng(seed: int = 0) -> random.Random:
    return random.Random(seed)
