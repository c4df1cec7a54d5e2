"""Metamorphic properties of the invariant, from the theory rather than
from the walk: each compares two computations that share no shortcut,
so a change to the walk, its tail certificate or its searches that
breaks one of them shows here."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from brat.bratteli import (
    CERTIFIED,
    BratteliDiagram,
    DiagramError,
    k0_unit_divisor,
    maximal_uhf,
    odometer,
    scale_unit_stage,
    telescope,
    tower_profile,
    uhf_embeds,
)
from brat.ordered_group import group_from_data, max_supernatural
from brat.primes import factorize
from brat.supernatural import OMEGA, SupernaturalNumber
from gen import SMALL_PRIMES, diagrams, supernaturals
from oracles import tensor_diagrams, tensor_odometer

WIDE = dict(max_width=4, max_depth=5, max_entry=6)


def _depth(diagram: BratteliDiagram, extra: int) -> int:
    return diagram.given_depth + (extra if diagram.is_infinite else 0)


@settings(max_examples=200)
@given(diagrams(**WIDE), st.integers(0, 6), st.data())
def test_mu_ignores_the_order_of_each_levels_vertices(diagram, extra, data):
    # level n is reordered by perms[n]; a repeating tail maps its last
    # level to itself, so the last two levels share one permutation
    perms = [data.draw(st.permutations(range(k))) for k in diagram.levels]
    if diagram.is_infinite and diagram.given_depth >= 2:
        perms[-1] = perms[-2]
    matrices = tuple(tuple(tuple(m[i][j] for j in perms[n - 1]) for i in perms[n])
                     for n, m in enumerate(diagram.matrices, start=1))
    permuted = BratteliDiagram(diagram.levels, matrices, diagram.tail)
    depth = _depth(diagram, extra)
    assert maximal_uhf(permuted, depth) == maximal_uhf(diagram, depth)


@settings(max_examples=200)
@given(diagrams(**WIDE).filter(lambda d: d.is_infinite), st.data())
def test_telescoped_tail_keeps_mu(diagram, data):
    # the tail survives when the last segment starts at L = given_depth - 1
    # or later, so at least two cuts lie there; any cuts may precede them
    start = data.draw(st.integers(max(diagram.given_depth - 1, 1), diagram.given_depth + 3))
    steps = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    head = data.draw(st.sets(st.integers(1, start - 1))) if start > 1 else set()
    cuts = sorted(head) + [start + sum(steps[:i]) for i in range(len(steps) + 1)]
    short = telescope(diagram, cuts)
    assert short.is_infinite
    mu, reference = maximal_uhf(short, len(cuts)), maximal_uhf(diagram, cuts[-1])
    # a revisit between the last two cuts is one the full walk meets too
    assert mu.exactness != CERTIFIED or reference.exactness == CERTIFIED
    if mu.exactness == reference.exactness:
        assert mu.value == reference.value


@settings(max_examples=200)
@given(diagrams(**WIDE), st.integers(0, 8))
def test_odometer_keeps_mu_unless_the_period_exceeds_one(diagram, extra):
    depth = _depth(diagram, extra)
    period = tower_profile(diagram, depth).period
    mu, reference = maximal_uhf(odometer(diagram, depth), depth), maximal_uhf(diagram, depth)
    if period in (None, 0, 1):
        assert mu.value == reference.value
    if period == 1:
        assert mu.exactness == reference.exactness == CERTIFIED


@settings(max_examples=200)
@given(diagrams(**WIDE), st.integers(0, 6), supernaturals(primes=SMALL_PRIMES + (23, 29, 1000003)))
def test_embed_answers_what_mu_divides(diagram, extra, number):
    # uhf_embeds reads v_p at the number's own primes, maximal_uhf factors
    # every ratio; the number has OMEGA exponents and primes mu lacks
    depth = _depth(diagram, extra)
    mu, answer = maximal_uhf(diagram, depth), uhf_embeds(number, diagram, depth)
    assert (answer == "yes") == number.divides(mu.value)
    assert (answer == "no-certified") == (not number.divides(mu.value) and mu.exactness == CERTIFIED)


@settings(max_examples=200)
@given(diagrams(**WIDE), st.integers(0, 4), st.integers(1, 400))
def test_k0_unit_divisor_hits_exactly_when_n_divides_the_gcd(diagram, extra, n):
    depth = _depth(diagram, extra)
    profile = tower_profile(diagram, depth)
    witness = k0_unit_divisor(diagram, n, depth)
    assert (witness is not None) == (profile.gcds[depth] % n == 0)
    if witness is not None:
        stage = witness.stage
        assert [s for s in range(depth + 1) if profile.gcds[s] % n == 0][0] == stage
        assert tuple(n * x for x in witness.entries) == profile.heights[stage]


@settings(max_examples=300)
@given(diagrams(max_width=3, max_depth=3, max_entry=4).filter(lambda d: d.is_infinite),
       st.integers(0, 4), st.integers(2, 200))
def test_theta_outside_is_never_found_deeper(diagram, extra, denominator):
    # "outside the rational group" is a proof, so no deeper stage may
    # absorb the denominator; "not yet divisible" promises nothing
    depth = _depth(diagram, extra)
    try:
        scale_unit_stage(diagram, Fraction(1, denominator), depth)
    except DiagramError:
        return
    except ValueError:
        assert k0_unit_divisor(diagram, denominator, depth + 30) is None


@settings(max_examples=200)
@given(diagrams(**WIDE), st.integers(0, 6), st.data())
def test_an_odometer_factor_scales_mu_and_keeps_its_exactness(diagram, extra, data):
    # D ⊗ O has D's primitive vectors and the gcds g_n c_1 ... c_n, so the
    # same revisit; its period's ratios all carry the tail ratio c
    ratios = data.draw(st.lists(st.integers(1, 12), min_size=diagram.given_depth, max_size=diagram.given_depth))
    depth = _depth(diagram, extra)
    tensored = tensor_odometer(diagram, ratios)
    assert tower_profile(tensored, depth).vectors == tower_profile(diagram, depth).vectors
    mu, got = maximal_uhf(diagram, depth), maximal_uhf(tensored, depth)
    assert got.exactness == mu.exactness
    expected = mu.value * SupernaturalNumber.from_int(math.prod(ratios) * ratios[-1] ** (depth - len(ratios)))
    if diagram.is_infinite and mu.exactness == CERTIFIED:
        expected = SupernaturalNumber({**dict(expected.items()), **dict.fromkeys(factorize(ratios[-1]), OMEGA)})
    assert got.value == expected


@settings(max_examples=200)
@given(diagrams(max_width=3, max_depth=3, max_entry=4), diagrams(max_width=3, max_depth=3, max_entry=4),
       st.integers(0, 6))
def test_mu_of_a_tensor_product_is_a_multiple_of_the_factors_mus(first, second, extra):
    # n1 | [1] in K0(A1) and n2 | [1] in K0(A2) give n1 n2 | [1 ⊗ 1]; that
    # the two are equal is not proved, so only divisibility is asserted
    mus = [maximal_uhf(d, _depth(d, extra)) for d in (first, second, tensor_diagrams(first, second))]
    if all(mu.exactness == CERTIFIED for mu in mus):
        assert (mus[0].value * mus[1].value).divides(mus[2].value)


def test_effros_shen_diagrams_have_mu_one():
    # K0 of the continued-fraction diagram of an irrational is Z + theta*Z
    # with unit 1 (Effros and Shen, 1980), so mu is exactly 1: every
    # [[a,1],[1,0]] has det -1, so no gcd ever grows past the head's 1
    tails = [(a, ((a, 1), (1, 0))) for a in range(1, 10)]
    # two-step periods: [[a,1],[1,0]] [[b,1],[1,0]] = [[ab+1,a],[b,1]]
    tails += [(a, ((a * b + 1, a), (b, 1))) for a in range(1, 10) for b in range(1, 10)]
    for a, tail in tails:
        diagram = BratteliDiagram((1, 2, 2), (((a,), (1,)), tail), "repeat-last")
        assert set(tower_profile(diagram, 200).gcds) == {1}, tail
        assert maximal_uhf(diagram, 200).value == SupernaturalNumber(), tail


def test_the_diagram_side_meets_the_group_side():
    # the paper's Q(K0(A), [1]) = Q(G, u), checked at the invariant: ratios 3, 3
    # in front of 2 * [[4,1],[1,0]], the doubled continued-fraction step of
    # sqrt(5) = [2; 4, 4, ...], against G = Q(2^OMEGA * 3^2) + sqrt(5)*Z with
    # u = 1, whose maximum supernatural divisor is 2^OMEGA * 3^2; each
    # truncation of mu divides it and already carries its exponent of 3
    diagram = BratteliDiagram((1, 1, 1, 2, 2), (((3,),), ((3,),), ((1,), (1,)), ((8, 2), (2, 0))),
                              "repeat-last")
    group = group_from_data({"kind": "quadratic", "H": {"2": "inf", "3": 2}, "alpha_square": 5,
                             "unit": {"k": "1", "z": 0}})
    bound = max_supernatural(group)
    assert bound == SupernaturalNumber({2: OMEGA, 3: 2})
    for depth, expected in ((16, {2: 13, 3: 2}), (60, {2: 57, 3: 2})):
        mu = maximal_uhf(diagram, depth).value
        assert mu == SupernaturalNumber(expected)
        assert mu.divides(bound) and mu.exponent(3) == bound.exponent(3)
