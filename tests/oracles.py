"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written against different primitives
than the package: path counting materializes actual edges instead of
multiplying matrices, semigroup membership grows a closure set instead
of running the coin scan, divisor searches enumerate witnesses, and
signs of quadratic irrationals come from 1000-digit interval
arithmetic.  Slow but obviously correct.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from brat.bratteli import CERTIFIED, REPEAT_LAST, TRUNCATED, BratteliDiagram
from brat.ordered_group import CyclicOrderedGroup, DivisorClosureReport
from brat.primes import factorize
from brat.supernatural import OMEGA, SupernaturalNumber


def materialized_edges(diagram: BratteliDiagram, level: int) -> list[tuple[int, int, int]]:
    """Every edge into `level` as (edge_id, source_index, target_index),
    parallel edges repeated."""
    matrix = diagram.matrix_at(level)
    edges = []
    eid = 0
    for i, row in enumerate(matrix):
        for j, multiplicity in enumerate(row):
            for _ in range(multiplicity):
                edges.append((eid, j, i))
                eid += 1
    return edges


def enumerated_path_heights(diagram: BratteliDiagram, depth: int) -> tuple[tuple[int, ...], ...]:
    """Heights by explicitly listing every root path as a tuple of edge ids.

    Exponential in depth; callers must keep the diagrams small.
    """
    frontier: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    heights = [(1,)]
    for level in range(1, depth + 1):
        edges = materialized_edges(diagram, level)
        frontier = [
            (dst, path + (eid,))
            for vertex, path in frontier
            for eid, src, dst in edges
            if src == vertex
        ]
        seen = set(path for _, path in frontier)
        assert len(seen) == len(frontier), "path enumeration produced duplicates"
        counts = [0] * diagram.width_at(level)
        for vertex, _ in frontier:
            counts[vertex] += 1
        heights.append(tuple(counts))
    return tuple(heights)


def edge_walk_heights(diagram: BratteliDiagram, depth: int) -> tuple[tuple[int, ...], ...]:
    """Heights by walking materialized edge lists one edge at a time."""
    counts = (1,)
    heights = [counts]
    for level in range(1, depth + 1):
        new = [0] * diagram.width_at(level)
        for _, src, dst in materialized_edges(diagram, level):
            new[dst] += counts[src]
        counts = tuple(new)
        heights.append(counts)
    return tuple(heights)


def semigroup_closure(generators: tuple[int, ...], limit: int) -> set[int]:
    """All semigroup members up to `limit`, by saturating a set."""
    members = {0}
    frontier = [0]
    while frontier:
        value = frontier.pop()
        for g in generators:
            nxt = value + g
            if nxt <= limit and nxt not in members:
                members.add(nxt)
                frontier.append(nxt)
    return members


def reachable_table(a: int, b: int, limit: int) -> list[bool]:
    """reach[x] for 0 <= x <= limit: is x a sum of copies of a and b?
    Filled left to right from x - a and x - b, so it needs no gcd, no
    inverse and no ordering of the two generators."""
    reach = [True] + [False] * limit
    for x in range(1, limit + 1):
        reach[x] = (x >= a and reach[x - a]) or (x >= b and reach[x - b])
    return reach


def brute_unit_divisor(group: CyclicOrderedGroup, n: int, closure: set[int] | None = None):
    """Search every candidate witness 0..unit directly."""
    if closure is None:
        closure = semigroup_closure(group.generators, group.unit)
    for x in range(group.unit + 1):
        if n * x == group.unit and x in closure:
            return x
    return None


def brute_coprime_divisor_property(group: CyclicOrderedGroup):
    """Test all pairs n, m <= unit, not just integer divisors."""
    closure = semigroup_closure(group.generators, group.unit)
    u = group.unit
    for n in range(1, u + 1):
        for m in range(n, u + 1):
            if math.gcd(n, m) != 1:
                continue
            if brute_unit_divisor(group, n, closure) is None:
                continue
            if brute_unit_divisor(group, m, closure) is None:
                continue
            if brute_unit_divisor(group, n * m, closure) is None:
                return (n, m)
    return None


def reference_coprime_divisor_property(group: CyclicOrderedGroup) -> DivisorClosureReport:
    """The integer scan: every n in 1..unit that divides the unit with a
    witness in the cone, then the first coprime pair (n, m), n < m, of
    them whose product does not."""
    closure = semigroup_closure(group.generators, group.unit)
    u = group.unit
    divisors = [n for n in range(1, u + 1) if u % n == 0 and u // n in closure]
    for n, m in combinations(divisors, 2):
        # coprime divisors: n * m divides the unit, so only its witness can fail
        if math.gcd(n, m) == 1 and u // (n * m) not in closure:
            return DivisorClosureReport(False, (n, m))
    return DivisorClosureReport(True)


def brute_max_supernatural_exponents(group: CyclicOrderedGroup) -> dict[int, int]:
    """Per-prime sup of k with p**k dividing the unit, by direct scan."""
    closure = semigroup_closure(group.generators, group.unit)
    exponents: dict[int, int] = {}
    for p in range(2, group.unit + 1):
        if any(p % q == 0 for q in range(2, p)):
            continue
        k = 0
        while p ** (k + 1) <= group.unit and brute_unit_divisor(group, p ** (k + 1), closure) is not None:
            k += 1
        if k:
            exponents[p] = k
    return exponents


def reference_first_revisit(diagram: BratteliDiagram, depth: int):
    """(s, t) for the first revisit n_t = n_s of the normalized heights in
    the tail, L = given_depth - 1 <= s < t <= depth, least t first, found by
    comparing every pair of tail levels, with no window: O(depth**2).  None
    for a finite diagram, or when no two tail levels up to `depth` agree."""
    if not diagram.is_infinite:
        return None
    heights = edge_walk_heights(diagram, depth)
    normalized = [tuple(x // math.gcd(*v) for x in v) for v in heights]
    tail = range(max(diagram.given_depth - 1, 0), depth + 1)
    return next(((s, t) for t in tail for s in range(tail.start, t) if normalized[s] == normalized[t]), None)


def reference_walk_end(diagram: BratteliDiagram, depth: int) -> int:
    """Where a walk that keeps no vectors and meets no revisit ends, by the
    direct route.  With L = given_depth - 1 and a k-wide tail: if the height
    gcd at L + k equals the one at L, so every ratio r_{L+1} ... r_{L+k} is
    1, the first level j > L + k whose normalized heights sum to more than
    those of level j - 1; else, or when no such level comes by `depth`,
    `depth`."""
    if not diagram.is_infinite:
        return depth
    heights = edge_walk_heights(diagram, depth)
    gcds = [math.gcd(*v) for v in heights]
    sums = [sum(v) // g for v, g in zip(heights, gcds)]
    first = diagram.given_depth + diagram.levels[-1]  # L + k + 1
    if first > depth or gcds[first - 1] != gcds[first - 1 - diagram.levels[-1]]:
        return depth
    return next((j for j in range(first, depth + 1) if sums[j] > sums[j - 1]), depth)


def reference_mu(diagram: BratteliDiagram, depth: int) -> tuple[SupernaturalNumber, str]:
    """(value, exactness) of the invariant by the direct route: factorize
    the height gcd at `depth`, then give OMEGA to every prime of the
    cycle product gcds[t] / gcds[s], where (s, t) is the first revisit."""
    heights = edge_walk_heights(diagram, depth)
    gcds = [math.gcd(*v) for v in heights]
    exponents = dict(factorize(gcds[depth]))
    if not diagram.is_infinite:
        return SupernaturalNumber(exponents), CERTIFIED if depth == diagram.given_depth else TRUNCATED
    revisit = reference_first_revisit(diagram, depth)
    if revisit is None:
        return SupernaturalNumber(exponents), TRUNCATED
    s, t = revisit
    exponents.update(dict.fromkeys(factorize(gcds[t] // gcds[s]), OMEGA))
    return SupernaturalNumber(exponents), CERTIFIED


def reference_odometer_tail(diagram: BratteliDiagram, depth: int):
    """The odometer's tail by the direct route: REPEAT_LAST exactly when
    the first revisit (s, t) has t - s == 1."""
    revisit = reference_first_revisit(diagram, depth)
    return REPEAT_LAST if revisit and revisit[1] - revisit[0] == 1 else None


def reference_rsub(diagram: BratteliDiagram, entries, stage: int, depth: int):
    """(lambda, s) at the first level s in stage..depth where the vector,
    pushed one materialized edge at a time, is lambda times the heights
    of `edge_walk_heights`, or None.  lambda is read off as the single
    value of the entrywise ratios, so no cross-multiplication is shared
    with the library."""
    heights = edge_walk_heights(diagram, depth)
    counts = tuple(entries)
    for s in range(stage, depth + 1):
        if s > stage:
            pushed = [0] * diagram.width_at(s)
            for _, src, dst in materialized_edges(diagram, s):
                pushed[dst] += counts[src]
            counts = tuple(pushed)
        ratios = {Fraction(x, h) for x, h in zip(counts, heights[s])}
        if len(ratios) == 1:
            return ratios.pop(), s
    return None


def reference_divide(diagram: BratteliDiagram, entries, stage: int, m: int, depth: int):
    """(s, v / m) at the first level s in stage..depth where every entry
    of the vector, pushed one materialized edge at a time, divides by m,
    or None.  The whole vector is tested, never its content."""
    counts = tuple(entries)
    for s in range(stage, depth + 1):
        if s > stage:
            pushed = [0] * diagram.width_at(s)
            for _, src, dst in materialized_edges(diagram, s):
                pushed[dst] += counts[src]
            counts = tuple(pushed)
        if all(x % m == 0 for x in counts):
            return s, tuple(x // m for x in counts)
    return None


def search_scaled_representation(unit: int, g: int, p: int, span: int = 4) -> bool:
    """Does some integer a satisfy (a/p) * unit = g?  Direct search over
    the only possible neighborhood |a| <= |g|*p/unit + span."""
    bound = abs(g) * p // unit + span
    return any(a * unit == g * p for a in range(-bound, bound + 1))


def fraction(x) -> Fraction:
    """The Fraction of a brat Rational, which does no arithmetic itself."""
    return Fraction(x.numerator, x.denominator)


# The quadratic group Q(h) + sqrt(d)*Z in Fraction arithmetic, with an
# element as a pair (rational part, sqrt(d) coefficient): brat computes
# with the integer terms of its own Rational instead.

def fraction_sign(q: Fraction, z: int, d: int) -> int:
    """Sign of q + z*sqrt(d): that of the term of larger magnitude, by squares
    (they never tie, as sqrt(d) is irrational), or of q when z is 0."""
    if z == 0 or q * q > d * z * z:
        return (q > 0) - (q < 0)
    return 1 if z > 0 else -1


def fraction_in_group(h: SupernaturalNumber, q: Fraction) -> bool:
    """Whether q lies in Q(h): the denominator divided out by h's primes, each
    at most its exponent times, leaves 1."""
    den = q.denominator
    for p, e in h.items():
        while den % p == 0 and (e is OMEGA or e > 0):
            den, e = den // p, e if e is OMEGA else e - 1
    return den == 1


def factored_contains(h: SupernaturalNumber, q) -> bool:
    """Whether q lies in Q(h) by factorizing its denominator: the denominator's
    supernatural number divides h."""
    return SupernaturalNumber.from_int(q.denominator).divides(h)


def fraction_unit_divisor(group, n: int):
    """unit/n as (rational part, coefficient) when it lies in the group, else None."""
    q, z = fraction(group.unit.q) / n, Fraction(group.unit.z, n)
    return (q, int(z)) if z.denominator == 1 and fraction_in_group(group.h_number, q) else None


def fraction_max_supernatural(group, cap: int = 40) -> SupernaturalNumber:
    """p**k divides the unit for each k up to the exponent of p: counted up to
    `cap`, where it stands for OMEGA, over the primes of h, q and z."""
    q, z = fraction(group.unit.q), group.unit.z
    candidates = set(group.h_number.primes) | set(factorize(abs(q.numerator))) | set(factorize(abs(z) or 1))
    exponents = {}
    for p in candidates:
        k = 0
        while k < cap and fraction_unit_divisor(group, p ** (k + 1)) is not None:
            k += 1
        exponents[p] = OMEGA if k == cap else k
    return SupernaturalNumber(exponents)


def fraction_rational_subgroup_member(group, h: Fraction, w: int):
    """(m, q) with m*(h + w*sqrt(d)) = q*unit, reduced, or None: the element
    is lambda*unit for lambda = h / unit.q exactly when w = lambda * unit.z."""
    ratio = h / fraction(group.unit.q)
    return (ratio.denominator, ratio.numerator) if ratio * group.unit.z == w else None


def interval_sign(q: Fraction, z: int, d: int) -> int:
    """Sign of q + z*sqrt(d) from 1000-digit interval arithmetic."""
    from mpmath import iv

    iv.dps = 1000
    value = iv.mpf(q.numerator) / q.denominator + z * iv.sqrt(d)
    if value.a > 0:
        return 1
    if value.b < 0:
        return -1
    raise AssertionError("interval too wide to decide the sign of %s + %d*sqrt(%d)" % (q, z, d))


def naive_ell(exponents: dict[int, int | None], j: int) -> int:
    """Direct transcription of the stage formula; None encodes the
    infinite exponent."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < j:
        if all(candidate % p != 0 for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    value = 1
    for p in primes:
        if p in exponents:
            e = exponents[p]
            value *= p ** (j if e is None else min(j, e))
    return value


def naive_prime_index(p: int) -> int:
    """1-based position of the prime p, by trial division of 2..p."""
    return sum(all(k % d for d in range(2, math.isqrt(k) + 1)) for k in range(2, p + 1))


def stabilization_stage(number) -> int:
    """Smallest stage S >= 1 from which every ratio naive_ell(j) /
    naive_ell(j-1) is the product L of the OMEGA primes.

    Past the stage after every support prime has entered and every
    finite exponent is full, each ratio is L, so the scan starts there
    and walks down while the ratio below is still L."""
    raw = {p: (None if e is OMEGA else e) for p, e in number.items()}
    limit = math.prod(p for p, e in raw.items() if e is None)
    stage = 1 + max([0] + [max(naive_prime_index(p), e or 0) for p, e in raw.items()])
    above = naive_ell(raw, stage - 1)
    while stage > 1:
        below = naive_ell(raw, stage - 2)
        if above != below * limit:
            break
        stage, above = stage - 1, below
    return stage


def tensor_odometer(diagram: BratteliDiagram, ratios) -> BratteliDiagram:
    """D ⊗ O for the odometer O with ratios c_1 ... c_G, G = given_depth:
    level by level M_n ⊗ [[c_n]] = c_n M_n.  On a repeating tail O repeats
    c = c_G, so the tail matrix A becomes c A."""
    matrices = tuple(tuple(tuple(c * x for x in row) for row in matrix)
                     for c, matrix in zip(ratios, diagram.matrices, strict=True))
    return BratteliDiagram(diagram.levels, matrices, diagram.tail)


def tensor_diagrams(first: BratteliDiagram, second: BratteliDiagram) -> BratteliDiagram:
    """D1 ⊗ D2: level n holds the pairs of the factors' vertices and
    M_n = M1_n ⊗ M2_n, the Kronecker product.  A finite factor goes on with
    identity matrices past its last level, which leaves its algebra as it
    is, so the product repeats a tail when either factor does."""
    infinite = first.is_infinite or second.is_infinite
    depth = max(d.given_depth + (infinite and not d.is_infinite) for d in (first, second))

    def matrix(d, n):
        if n <= d.given_depth or d.is_infinite:
            return d.matrix_at(n)
        k = d.levels[-1]
        return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))

    matrices = tuple(tuple(tuple(x * y for x in row1 for y in row2) for row1 in matrix(first, n)
                           for row2 in matrix(second, n)) for n in range(1, depth + 1))
    return BratteliDiagram((1, *map(len, matrices)), matrices, REPEAT_LAST if infinite else None)


def first_bracket_past(text: str, depth: int) -> int | None:
    """The index of the first bracket of `text` nested more than `depth`
    deep, or None, by a character walk that tracks quotes and escapes: a
    string runs from a quote to the next quote no backslash escapes, a
    backslash outside a string is a plain character, and a bracket inside a
    string does not count."""
    level, quoted, escaped = 0, False, False
    for index, char in enumerate(text):
        if quoted:  # an unescaped quote ends the string; a backslash escapes the next character
            quoted, escaped = escaped or char != '"', not escaped and char == "\\"
        elif char == '"':
            quoted = True
        elif char in "[{":
            level += 1
            if level > depth:
                return index
        elif char in "]}":
            level -= 1
    return None
