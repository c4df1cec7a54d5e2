"""Shared generators: seeded random diagrams and hypothesis strategies."""

from __future__ import annotations

import random
from fractions import Fraction

import hypothesis.strategies as st

from brat.bratteli import BratteliDiagram
from brat.ordered_group import CyclicOrderedGroup, QuadraticElement, QuadraticIrrationalGroup
from brat.supernatural import OMEGA, SupernaturalNumber

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def random_diagram(
    rng: random.Random,
    max_width: int = 4,
    max_entry: int = 5,
    max_depth: int = 8,
    tail_probability: float = 0.4,
) -> BratteliDiagram:
    """A valid random diagram: nonzero rows and columns, square tail."""
    depth = rng.randint(1, max_depth)
    levels = [1] + [rng.randint(1, max_width) for _ in range(depth)]
    tail = rng.random() < tail_probability
    if tail:
        levels[depth] = levels[depth - 1] if depth >= 2 else 1
    matrices = []
    for n in range(1, depth + 1):
        rows, cols = levels[n], levels[n - 1]
        matrix = [[rng.randint(0, max_entry) for _ in range(cols)] for _ in range(rows)]
        for i in range(rows):
            if all(v == 0 for v in matrix[i]):
                matrix[i][rng.randrange(cols)] = rng.randint(1, max_entry)
        for j in range(cols):
            if all(matrix[i][j] == 0 for i in range(rows)):
                matrix[rng.randrange(rows)][j] = rng.randint(1, max_entry)
        matrices.append(tuple(tuple(row) for row in matrix))
    return BratteliDiagram(tuple(levels), tuple(matrices), "repeat-last" if tail else None)


def finite_supernaturals(max_exponent: int = 6, primes=SMALL_PRIMES, max_size: int = 4):
    return st.dictionaries(
        st.sampled_from(primes), st.integers(1, max_exponent), max_size=max_size
    ).map(SupernaturalNumber)


def supernaturals(max_exponent: int = 6, primes=SMALL_PRIMES, max_size: int = 4):
    exponent = st.one_of(st.integers(1, max_exponent), st.just(OMEGA))
    return st.dictionaries(st.sampled_from(primes), exponent, max_size=max_size).map(
        SupernaturalNumber
    )


@st.composite
def diagrams(draw, max_width: int = 3, max_depth: int = 4, max_entry: int = 3, allow_tail: bool = True):
    depth = draw(st.integers(1, max_depth))
    levels = [1] + [draw(st.integers(1, max_width)) for _ in range(depth)]
    tail = draw(st.booleans()) if allow_tail else False
    if tail:
        levels[depth] = levels[depth - 1] if depth >= 2 else 1
    matrices = []
    for n in range(1, depth + 1):
        rows, cols = levels[n], levels[n - 1]
        matrix = [[draw(st.integers(0, max_entry)) for _ in range(cols)] for _ in range(rows)]
        for i in range(rows):
            if all(v == 0 for v in matrix[i]):
                matrix[i][draw(st.integers(0, cols - 1))] = draw(st.integers(1, max_entry))
        for j in range(cols):
            if all(matrix[i][j] == 0 for i in range(rows)):
                matrix[draw(st.integers(0, rows - 1))][j] = draw(st.integers(1, max_entry))
        matrices.append(tuple(tuple(row) for row in matrix))
    return BratteliDiagram(tuple(levels), tuple(matrices), "repeat-last" if tail else None)


@st.composite
def ordered_groups(draw):
    """A valid cyclic or quadratic group: the cyclic unit is a nonzero
    combination of the generators; the quadratic unit's denominator has
    only primes of H, and a negative unit is negated."""
    if draw(st.booleans()):
        generators = draw(st.lists(st.integers(1, 30), min_size=1, max_size=4))
        unit = sum(draw(st.integers(0, 3)) * g for g in generators) or generators[0]
        return CyclicOrderedGroup(tuple(generators), unit)
    h = draw(supernaturals(max_exponent=3, primes=(2, 3, 5)))
    denominator = 1
    for p, e in h.items():
        denominator *= p ** draw(st.integers(0, 3 if e is OMEGA else e))
    q = Fraction(draw(st.integers(1, 50)), denominator)
    z = draw(st.integers(-20, 20))
    d = draw(st.sampled_from((2, 3, 5, 6, 7, 10, 11, 13)))
    if q * q < d * z * z and z < 0:  # q + z*sqrt(d) < 0
        q, z = -q, -z
    return QuadraticIrrationalGroup(h, d, QuadraticElement(q, z))
