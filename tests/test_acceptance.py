"""End-to-end acceptance checks.

One test per numbered shipping criterion, each printing a single
PASS/FAIL line (visible under `pytest -s`).  Every comparison is exact;
randomized parts run from fixed seeds so the suite is reproducible.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from brat.bratteli import (
    canonical_premorphism,
    k0_unit_divisor,
    maximal_uhf,
    odometer,
    tower_profile,
    verify_premorphism,
)
from brat.catalog import catalog_names, get_entry
from brat.ordered_group import (
    CyclicOrderedGroup,
    QuadraticElement,
    coprime_divisor_property,
    max_supernatural,
    rational_subgroup_member,
    representable_with_denominator,
    scale_unit,
    semigroup_member,
    unit_divisor,
)
from brat.primes import factorize
from brat.supernatural import SupernaturalNumber
from gen import SMALL_PRIMES, random_diagram
from oracles import (
    brute_max_supernatural_exponents,
    brute_unit_divisor,
    enumerated_path_heights,
    search_scaled_representation,
    semigroup_closure,
)

E55 = get_entry("example-5.5").payload
SQRT2 = get_entry("quadratic-sqrt2").payload


@contextmanager
def criterion(num: int, text: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        print("%s criterion %2d: %s" % ("PASS" if ok else "FAIL", num, text))


def diagram_entries():
    """The built-in diagram entries plus a few uhf-<n> representatives."""
    entries = [get_entry(name) for name in catalog_names()]
    return [e for e in entries if e.kind == "diagram"] + [get_entry("uhf-%d" % n) for n in (2, 6, 12, 30)]


def _work_depth(diagram) -> int:
    return 16 if diagram.is_infinite else diagram.given_depth


def test_criterion_01_example_55_end_to_end():
    with criterion(1, "example-5.5: mu = {3: w} certified from depth 3, gcds 1,1,3,9,27"):
        for depth in range(3, 17):
            result = maximal_uhf(E55, depth)
            assert result.value.to_data() == {"3": "inf"}
            assert result.exactness == "certified"
        assert tower_profile(E55, 4).gcds == (1, 1, 3, 9, 27)


def test_criterion_02_finite_dimensional_gcd():
    with criterion(2, "findim-4-6: mu = {2: 1} certified"):
        result = maximal_uhf(get_entry("findim-4-6").payload, 1)
        assert result.value == SupernaturalNumber({2: 1})
        assert result.exactness == "certified"


def test_criterion_03_coprime_divisor_counterexample():
    with criterion(3, "coprime divisors: unit 6 over <2,3> fails at (2,3), unit 2 holds"):
        failing = coprime_divisor_property(get_entry("cone-2-3-unit-6").payload)
        assert not failing.holds
        assert failing.counterexample == (2, 3)
        holding = coprime_divisor_property(get_entry("cone-2-3-unit-2").payload)
        assert holding.holds and holding.counterexample is None


def test_criterion_04_free_product_obstruction():
    with criterion(4, "free-product-2-3: no maximum supernatural divisor, 1 outside <2,3>"):
        assert max_supernatural(get_entry("free-product-2-3").payload) is None
        assert semigroup_member((2, 3), 1) is False


def test_criterion_05_canonical_premorphism():
    with criterion(5, "canonical premorphism verifies on catalog + 200 random diagrams"):
        rng = random.Random(550)
        pool = [entry.payload for entry in diagram_entries()]
        pool.extend(
            random_diagram(rng, max_width=4, max_entry=5, max_depth=8) for _ in range(200)
        )
        for diagram in pool:
            depth = diagram.given_depth + (2 if diagram.is_infinite else 0)
            report = verify_premorphism(
                canonical_premorphism(diagram, depth), odometer(diagram, depth), diagram
            )
            assert report.ok, diagram


def test_criterion_06_unit_divisibility_bridge():
    with criterion(6, "k0-divides agrees with divisibility into the mu truncation, n <= 200"):
        for entry in diagram_entries():
            diagram = entry.payload
            depth = _work_depth(diagram)
            truncation = SupernaturalNumber.from_int(tower_profile(diagram, depth).gcds[depth])
            for n in range(1, 201):
                witnessed = k0_unit_divisor(diagram, n, depth) is not None
                assert witnessed == SupernaturalNumber.from_int(n).divides(truncation)


def test_criterion_07_divisibility_membership_coherence():
    # Q(n) lies in Q(m) exactly when every stage denominator 1/ell(j) of n
    # does, for j up to 10, past every exponent and prime index of n drawn here
    with criterion(7, "divides = rational-group inclusion, by stage-denominator membership, 500 pairs"):
        rng = random.Random(770)

        def draw() -> SupernaturalNumber:
            support = rng.sample(SMALL_PRIMES, rng.randint(0, 4))
            return SupernaturalNumber({p: rng.randint(1, 8) for p in support})

        outcomes = set()
        for _ in range(500):
            n = draw()
            if rng.random() < 0.5:
                m = n * draw()  # related pair, usually divides
            else:
                m = draw()
            divides = n.divides(m)
            member = all(m.contains(Fraction(1, n.ell(j))) for j in range(1, 11))
            assert divides == member
            outcomes.add(divides)
        assert outcomes == {True, False}


def test_criterion_08_theta_laws():
    with criterion(8, "theta: additive, unital, positive, claim-check = search; 50 units + stages"):
        rng = random.Random(880)
        for _ in range(50):
            u = rng.randint(1, 10**6)
            group = CyclicOrderedGroup((1,), u)
            exps = factorize(u)

            def admissible() -> Fraction:
                den = 1
                for p, e in exps.items():
                    den *= p ** rng.randint(0, e)
                return Fraction(rng.randint(-50, 50), den)

            x, y = admissible(), admissible()
            assert scale_unit(group, x + y) == scale_unit(group, x) + scale_unit(group, y)
            assert scale_unit(group, Fraction(1)) == u
            if x >= 0:
                assert scale_unit(group, x) >= 0
            g, p = rng.randint(-100, 100), rng.randint(1, 50)
            m, q = rational_subgroup_member(group, g)
            assert representable_with_denominator(m, q, p) == search_scaled_representation(u, g, p)
        # stage picture on the worked example: theta(x) shows up as x times
        # the height vector at the first stage that absorbs the denominator
        from brat.bratteli import scale_unit_stage

        profile = tower_profile(E55, 12)
        for x in (Fraction(1), Fraction(1, 3), Fraction(2, 9), Fraction(5, 27)):
            got = scale_unit_stage(E55, x, 12)
            assert tuple(Fraction(e) for e in got.entries) == tuple(
                x * h for h in profile.heights[got.stage]
            )


def test_criterion_09_quadratic_rational_subgroup():
    with criterion(9, "sqrt(2) group: members are exactly z = 0 with 2-power denominator, 500 samples"):
        rng = random.Random(990)
        seen = {True: 0, False: 0}
        for _ in range(500):
            numerator = rng.randint(-40, 40)
            denominator = rng.choice((1, 2, 4, 8, 16, 3, 6, 12, 5, 20))
            z = rng.choice((-2, -1, 0, 0, 1, 2))
            q = Fraction(numerator, denominator)
            try:
                member = rational_subgroup_member(SQRT2, QuadraticElement(q, z)) is not None
            except ValueError:
                member = False  # not even in the group
            expected = z == 0 and q.denominator.bit_count() == 1
            assert member == expected
            seen[member] += 1
        assert seen[True] >= 100 and seen[False] >= 100


def test_criterion_10_oracle_equivalence():
    with criterion(10, "independent oracles: path enumeration and brute divisor searches agree"):
        rng = random.Random(1010)
        for _ in range(100):
            diagram = random_diagram(rng, max_width=3, max_entry=2, max_depth=4)
            depth = diagram.given_depth + (1 if diagram.is_infinite else 0)
            assert enumerated_path_heights(diagram, depth) == tower_profile(diagram, depth).heights
        families = ((1,), (2, 3), (3, 4), (2, 5))
        for generators in families:
            units = [u for u in range(1, 61) if semigroup_member(generators, u)]
            big = [u for u in range(61, 501) if semigroup_member(generators, u)]
            units.extend(rng.sample(big, min(10, len(big))))
            for u in units:
                group = CyclicOrderedGroup(generators, u)
                closure = semigroup_closure(generators, u)
                divisors = [n for n in range(1, u + 1) if u % n == 0]
                for n in divisors + list(range(1, min(u, 20) + 1)):
                    assert unit_divisor(group, n) == brute_unit_divisor(group, n, closure)
                number = max_supernatural(group)
                if number is None:
                    assert not coprime_divisor_property(group).holds
                else:
                    expected = brute_max_supernatural_exponents(group)
                    assert {p: e for p, e in number.items()} == expected
