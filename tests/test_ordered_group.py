import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from brat.ordered_group import (
    CyclicOrderedGroup,
    QuadraticElement,
    QuadraticIrrationalGroup,
    _residue_minima,
    coprime_divisor_property,
    group_from_data,
    is_unperforated,
    max_supernatural,
    quadratic_sign,
    rational_subgroup_member,
    representable_with_denominator,
    scale_unit,
    semigroup_member,
    unit_divisor,
)
from brat.rational import Rational
from brat.supernatural import OMEGA, SupernaturalNumber
from gen import ordered_groups
from oracles import (
    brute_coprime_divisor_property,
    brute_max_supernatural_exponents,
    brute_unit_divisor,
    fraction,
    fraction_max_supernatural,
    fraction_rational_subgroup_member,
    fraction_sign,
    fraction_unit_divisor,
    interval_sign,
    reachable_table,
    reference_coprime_divisor_property,
    search_scaled_representation,
    semigroup_closure,
)

DYADIC = SupernaturalNumber({2: OMEGA})


def sqrt2_group(k=Fraction(1), z=0, h=DYADIC):
    return QuadraticIrrationalGroup(h_number=h, alpha_square=2, unit=QuadraticElement(k, z))


class TestSemigroup:
    def test_examples(self):
        assert not semigroup_member((2, 3), 1)
        assert semigroup_member((2, 3), 7)
        assert semigroup_member((2, 3), 0)
        assert not semigroup_member((2, 3), -2)
        assert semigroup_member((4, 6), 10)
        assert not semigroup_member((4, 6), 5)
        assert not semigroup_member((4, 6), 2)

    def test_rejects_bad_generators(self):
        with pytest.raises(ValueError):
            semigroup_member((0, 3), 1)
        with pytest.raises(ValueError):
            semigroup_member((), 1)

    @given(
        st.sets(st.integers(1, 30), min_size=1, max_size=4),
        st.integers(-5, 400),
    )
    def test_matches_closure_oracle(self, gens, x):
        gens = tuple(sorted(gens))
        expected = x >= 0 and x in semigroup_closure(gens, max(x, 0))
        assert semigroup_member(gens, x) == expected

    def test_large_values_use_frobenius_shortcut(self):
        assert semigroup_member((6, 10, 15), 10**9 + 1)
        assert not semigroup_member((6, 10), 10**9 + 1)  # odd, gcd 2


def table_member(gens, x):
    """Membership read off the residue table, as for three or more generators."""
    g = math.gcd(*gens)
    if x < 0 or x % g:
        return False
    reduced = tuple(sorted({v // g for v in gens}))
    return x // g >= _residue_minima(reduced)[x // g % reduced[0]]


class TestTwoGenerators:
    def test_matches_reachability_table_exhaustively(self):
        # coprime pairs, pairs with a common factor and equal generators
        for a in range(1, 41):
            for b in range(a, 61):
                limit = a * b + 2 * b
                got = [semigroup_member((a, b), x) for x in range(-3, limit + 1)]
                assert got == [False] * 3 + reachable_table(a, b, limit), (a, b)

    @given(st.integers(1, 3000), st.integers(1, 10**12), st.integers(-10, 10**13))
    def test_matches_residue_table_at_large_x(self, a, b, x):
        assert semigroup_member((a, b), x) == table_member((a, b), x)

    @given(st.integers(2, 2000), st.integers(2, 10**12), st.integers(1, 10**15))
    def test_frobenius_number(self, a, b, above):
        assume(math.gcd(a, b) == 1)
        frobenius = a * b - a - b
        assert not semigroup_member((a, b), frobenius)
        # a members in a row cover every larger x, adding copies of a
        assert all(semigroup_member((a, b), frobenius + k) for k in range(1, a + 1))
        assert semigroup_member((b, a), frobenius + above)

    def test_builds_no_residue_table(self):
        before = _residue_minima.cache_info().misses
        assert semigroup_member((10**7 + 1, 10**7 + 2), 10**15)
        assert not semigroup_member((10**7 + 1, 10**7 + 2), (10**7 + 1) * (10**7 + 2) - 2 * 10**7 - 3)
        assert CyclicOrderedGroup((2000000000, 2000000001), 4000000001).unit == 4000000001
        assert unit_divisor(CyclicOrderedGroup((999983, 1000003), 999983 * 1000003), 999983) == 1000003
        assert _residue_minima.cache_info().misses == before


class TestCyclicDivisibility:
    def test_constructor_requires_unit_in_cone(self):
        with pytest.raises(ValueError):
            CyclicOrderedGroup((2, 3), 1)
        CyclicOrderedGroup((2, 3), 6)

    def test_unit_divisor_examples(self):
        g6 = CyclicOrderedGroup((2, 3), 6)
        assert unit_divisor(g6, 2) == 3
        assert unit_divisor(g6, 3) == 2
        assert unit_divisor(g6, 6) is None  # witness 1 is outside the cone
        assert unit_divisor(g6, 4) is None  # 4 does not divide 6
        assert unit_divisor(g6, 1) == 6

    @given(
        st.sets(st.integers(1, 12), min_size=1, max_size=3),
        st.integers(1, 60),
        st.integers(1, 70),
    )
    def test_unit_divisor_matches_brute_search(self, gens, unit, n):
        gens = tuple(sorted(gens))
        if not semigroup_member(gens, unit):
            return
        group = CyclicOrderedGroup(gens, unit)
        assert unit_divisor(group, n) == brute_unit_divisor(group, n)

    def test_residue_table_cache_holds_one_group(self):
        _residue_minima.cache_clear()
        for gens in ((7, 9, 11), (8, 9, 13)):
            before = _residue_minima.cache_info().misses
            group = CyclicOrderedGroup(gens, 7 * 9 * 11 * 13)
            for n in (1, 3, 7, 9, 11, 13, 21, 77):
                unit_divisor(group, n)
            max_supernatural(group)
            # one table per group, however often its divisors are asked
            assert _residue_minima.cache_info().misses == before + 1
        assert _residue_minima.cache_info().currsize == 1

    def test_witness_property(self):
        group = CyclicOrderedGroup((2, 3), 36)
        for n in range(1, 40):
            x = unit_divisor(group, n)
            if x is not None:
                assert n * x == group.unit
                assert semigroup_member(group.generators, x)


class TestCoprimeDivisorProperty:
    def test_catalog_examples(self):
        holds = coprime_divisor_property(CyclicOrderedGroup((2, 3), 2))
        assert holds.holds and holds.counterexample is None
        fails = coprime_divisor_property(CyclicOrderedGroup((2, 3), 6))
        assert not fails.holds
        assert fails.counterexample == (2, 3)

    def test_full_cone_always_holds(self):
        for unit in (1, 6, 30, 360):
            assert coprime_divisor_property(CyclicOrderedGroup((1,), unit)).holds

    @settings(max_examples=40)
    @given(st.sets(st.integers(1, 9), min_size=1, max_size=3), st.integers(1, 60))
    def test_matches_brute_oracle(self, gens, unit):
        gens = tuple(sorted(gens))
        if not semigroup_member(gens, unit):
            return
        group = CyclicOrderedGroup(gens, unit)
        report = coprime_divisor_property(group)
        brute = brute_coprime_divisor_property(group)
        assert report.holds == (brute is None)

    def test_quadratic_always_holds(self):
        assert coprime_divisor_property(sqrt2_group()).holds

    @settings(max_examples=80)
    @given(st.sets(st.integers(1, 40), min_size=1, max_size=3), st.integers(1, 3000))
    def test_matches_integer_scan(self, gens, unit):
        gens = tuple(sorted(gens))
        if not semigroup_member(gens, unit):
            return
        group = CyclicOrderedGroup(gens, unit)
        assert coprime_divisor_property(group) == reference_coprime_divisor_property(group)


class TestMaxSupernatural:
    def test_absent_when_property_fails(self):
        assert max_supernatural(CyclicOrderedGroup((2, 3), 6)) is None

    def test_full_cone_recovers_factorization(self):
        group = CyclicOrderedGroup((1,), 360)
        assert max_supernatural(group) == SupernaturalNumber.from_int(360)

    def test_restricted_cone_example(self):
        # unit 2 over <2,3>: even the divisor 2 lacks a cone witness,
        # so the maximum divisor is trivial but still exists
        assert max_supernatural(CyclicOrderedGroup((2, 3), 2)) == SupernaturalNumber()
        # unit 12 over <2,3>: 3 and 4 divide but 12 needs witness 1
        group = CyclicOrderedGroup((2, 3), 12)
        report = coprime_divisor_property(group)
        assert not report.holds and report.counterexample == (3, 4)
        assert max_supernatural(group) is None

    @settings(max_examples=30)
    @given(st.sets(st.integers(1, 9), min_size=1, max_size=3), st.integers(1, 60))
    def test_exponents_match_brute_scan(self, gens, unit):
        gens = tuple(sorted(gens))
        if not semigroup_member(gens, unit):
            return
        group = CyclicOrderedGroup(gens, unit)
        if not coprime_divisor_property(group).holds:
            assert max_supernatural(group) is None
            return
        number = max_supernatural(group)
        expected = brute_max_supernatural_exponents(group)
        assert number is not None and number.to_data() == {
            str(p): e for p, e in expected.items()
        }

    @settings(max_examples=150)
    @given(st.sets(st.integers(1, 40), min_size=1, max_size=4), st.integers(1, 3000))
    def test_exists_exactly_when_coprime_divisors_compose(self, gens, unit):
        # max_supernatural checks only that the product of its prime powers
        # divides the unit; the integer scan checks every coprime pair
        gens = tuple(sorted(gens))
        assume(semigroup_member(gens, unit))
        group = CyclicOrderedGroup(gens, unit)
        assert (max_supernatural(group) is None) == (not reference_coprime_divisor_property(group).holds)

    def test_maximality_on_full_cone(self):
        group = CyclicOrderedGroup((1,), 360)
        number = max_supernatural(group)
        for n in range(1, 361):
            divides = SupernaturalNumber.from_int(n).divides(number)
            assert divides == (unit_divisor(group, n) is not None)


class TestQuadraticSign:
    def test_examples(self):
        assert quadratic_sign(Fraction(1), -1, 2) == -1  # 1 < sqrt(2)
        assert quadratic_sign(Fraction(3), -2, 2) == 1  # 3 > 2*sqrt(2)
        assert quadratic_sign(Fraction(-1), 1, 2) == 1
        assert quadratic_sign(Fraction(0), 0, 2) == 0
        assert quadratic_sign(Fraction(-7, 5), -1, 3) == -1
        assert quadratic_sign(Fraction(0), -4, 5) == -1

    @given(
        st.fractions(min_value=-50, max_value=50, max_denominator=64),
        st.integers(-30, 30),
        st.sampled_from((2, 3, 5, 6, 7, 10, 11, 13)),
    )
    def test_matches_interval_arithmetic(self, q, z, d):
        got = quadratic_sign(q, z, d)
        if q == 0 and z == 0:
            assert got == 0
        else:
            assert got == interval_sign(q, z, d)


    @settings(max_examples=300)
    @given(
        st.integers(-10**6, 10**6),
        st.integers(1, 10**4),
        st.integers(-3, 3),
        st.sampled_from((2, 3, 5, 6, 7, 10, 11, 13, 9973 * 2)),
        st.booleans(),
    )
    def test_near_ties_match_mpmath(self, z, den, nudge, d, same_sign):
        # q is within a few 1/den of -z*sqrt(d), so q and z mostly have
        # opposite signs and q*q - d*z*z is tiny next to both terms;
        # same_sign flips q for the agreeing-signs branch
        from mpmath import mp, mpf, sqrt

        num = (math.isqrt(d * z * z * den * den) + nudge) * (-1 if z > 0 else 1)
        q = Fraction(-num if same_sign else num, den)
        with mp.workdps(60):
            value = mpf(q.numerator) / q.denominator + z * sqrt(d)
            assert q == z == 0 or abs(value) > mpf(10) ** -30
            expected = (value > 0) - (value < 0)
        assert quadratic_sign(q, z, d) == expected


class TestQuadraticGroup:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            sqrt2_group(k=Fraction(0))  # rational part must not vanish
        with pytest.raises(ValueError):
            sqrt2_group(k=Fraction(1, 3))  # 1/3 outside the dyadics
        with pytest.raises(ValueError):
            sqrt2_group(k=Fraction(-1))  # negative unit
        with pytest.raises(ValueError):
            QuadraticIrrationalGroup(DYADIC, 4, QuadraticElement(Fraction(1), 0))
        with pytest.raises(ValueError):
            QuadraticIrrationalGroup(DYADIC, 1, QuadraticElement(Fraction(1), 0))
        # k negative is fine while the value stays positive
        sqrt2_group(k=Fraction(-1, 2), z=1)

    def test_unit_divisor(self):
        group = sqrt2_group()  # unit 1 over the dyadics
        for k in range(1, 7):
            witness = unit_divisor(group, 2**k)
            assert witness == QuadraticElement(Fraction(1, 2**k), 0)
        assert unit_divisor(group, 3) is None
        zgroup = sqrt2_group(k=Fraction(3, 2), z=4, h=SupernaturalNumber({2: OMEGA, 3: 1}))
        assert unit_divisor(zgroup, 2) == QuadraticElement(Fraction(3, 4), 2)
        assert unit_divisor(zgroup, 8) is None  # 8 does not divide z = 4

    @given(ordered_groups(), st.integers(1, 6))
    def test_every_witness_is_positive(self, group, n):
        # n * x is the positive unit and n > 0, so x is positive with no sign test
        x = unit_divisor(group, n)
        if isinstance(x, QuadraticElement):
            assert (n * fraction(x.q), n * x.z) == (group.unit.q, group.unit.z) and group.is_member(x)
            assert quadratic_sign(x.q, x.z, group.alpha_square) == 1
        elif x is not None:
            assert n * x == group.unit and x >= 1

    def test_max_supernatural_omega_needs_zero_z(self):
        assert max_supernatural(sqrt2_group()) == DYADIC
        # 1 + 2*sqrt(2): halving once keeps the irrational part integral,
        # halving twice does not, so the 2-exponent is exactly 1
        withz = sqrt2_group(k=Fraction(1), z=2)
        assert max_supernatural(withz) == SupernaturalNumber({2: 1})
        finite = sqrt2_group(k=Fraction(8), z=0)
        assert max_supernatural(finite) == SupernaturalNumber({2: OMEGA})

    @settings(max_examples=20)
    @given(
        st.integers(-3, 6),
        st.integers(0, 2),
        st.integers(-8, 8),
    )
    def test_max_supernatural_matches_divisor_scan(self, two_shift, three_part, z):
        h = SupernaturalNumber({2: OMEGA, 3: 2})
        k = Fraction(3**three_part * 5) * Fraction(2) ** two_shift
        if quadratic_sign(k, z, 2) <= 0:
            return
        group = sqrt2_group(k=k, z=z, h=h)
        number = max_supernatural(group)
        for p in (2, 3, 5, 7):
            e = number.exponent(p)
            if e is OMEGA:
                assert z == 0 and h.exponent(p) is OMEGA
                assert unit_divisor(group, p**12) is not None
            else:
                assert unit_divisor(group, p**e) is not None
                assert unit_divisor(group, p ** (e + 1)) is None


class TestRationalSubgroup:
    def test_cyclic_examples(self):
        group = CyclicOrderedGroup((1,), 5)
        assert rational_subgroup_member(group, 2) == (5, 2)
        assert rational_subgroup_member(group, 0) == (1, 0)
        assert rational_subgroup_member(group, -10) == (1, -2)

    @given(st.integers(1, 300), st.integers(-200, 200))
    def test_cyclic_witness_reduced(self, unit, g):
        group = CyclicOrderedGroup((1,), unit)
        m, q = rational_subgroup_member(group, g)
        assert m >= 1
        assert m * g == q * unit
        assert math.gcd(m, abs(q)) == 1
        assert unit % m == 0
        for smaller in range(1, m):  # m is the least positive multiplier
            assert (smaller * g) % unit != 0

    def test_quadratic_membership(self):
        group = sqrt2_group()
        assert rational_subgroup_member(group, QuadraticElement(Fraction(3, 4), 0)) == (4, 3)
        assert rational_subgroup_member(group, QuadraticElement(Fraction(0), 1)) is None
        assert rational_subgroup_member(group, QuadraticElement(Fraction(0), 0)) == (1, 0)
        with pytest.raises(ValueError):
            rational_subgroup_member(group, QuadraticElement(Fraction(1, 3), 0))

    def test_quadratic_with_irrational_unit(self):
        # unit 3/2 + sqrt(2): members are h + sqrt(2)*(2h/3) with 2h/3 integral
        group = sqrt2_group(k=Fraction(3, 2), z=1, h=SupernaturalNumber({2: OMEGA, 3: 1}))
        for w in (-4, -1, 0, 1, 2, 9):
            h = Fraction(3, 2) * w
            m, q = rational_subgroup_member(group, QuadraticElement(h, w))
            assert m * h == q * fraction(group.unit.q)
            assert m * w == q * group.unit.z
            assert rational_subgroup_member(group, QuadraticElement(h, w + 1)) is None

    @given(st.integers(-20, 20), st.integers(0, 6))
    def test_quadratic_witness_law(self, numerator, denpow):
        group = sqrt2_group()
        h = Fraction(numerator, 2**denpow)
        result = rational_subgroup_member(group, QuadraticElement(h, 0))
        assert result is not None
        m, q = result
        assert Fraction(q, m) == h


class TestScaleUnit:
    def test_frozen_examples(self):
        group = CyclicOrderedGroup((1,), 12)
        assert scale_unit(group, Fraction(5, 6)) == 10
        assert scale_unit(group, Fraction(1, 4)) == 3
        assert scale_unit(group, Fraction(1)) == 12

    def test_rejects_outside_rational_group(self):
        group = CyclicOrderedGroup((1,), 12)
        with pytest.raises(ValueError):
            scale_unit(group, Fraction(1, 5))
        with pytest.raises(ValueError):
            scale_unit(group, Fraction(1, 8))

    def test_unsupported_on_perforated_cone(self):
        with pytest.raises(ValueError, match="unsupported"):
            scale_unit(CyclicOrderedGroup((2, 3), 6), Fraction(1, 2))
        with pytest.raises(ValueError, match="unsupported"):
            scale_unit(sqrt2_group(), Fraction(1, 2))

    @given(st.integers(1, 10**6), st.data())
    def test_group_morphism_laws(self, unit, data):
        group = CyclicOrderedGroup((1,), unit)
        number = SupernaturalNumber.from_int(unit)

        def admissible(label):
            num = data.draw(st.integers(-30, 30), label=label + "-num")
            den = 1
            for p, e in number.items():
                den *= p ** data.draw(st.integers(0, min(e, 3)), label="%s-%d" % (label, p))
            return Fraction(num, den)

        x, y = admissible("x"), admissible("y")
        assert scale_unit(group, x + y) == scale_unit(group, x) + scale_unit(group, y)
        assert scale_unit(group, Fraction(1)) == unit
        if x >= 0:
            assert scale_unit(group, x) >= 0

    @given(st.sampled_from([(1,), (1, 4), (1, 2, 3)]), st.integers(1, 720),
           st.integers(-50, 50), st.integers(1, 60))
    def test_accepts_exactly_the_rational_group(self, generators, unit, num, den):
        group = CyclicOrderedGroup(generators, unit)
        x = Fraction(num, den)
        if max_supernatural(group).contains(x):
            assert scale_unit(group, x) == x * unit
        else:
            with pytest.raises(ValueError, match="outside the rational group"):
                scale_unit(group, x)

    @given(st.integers(1, 500), st.integers(-300, 300), st.integers(1, 60))
    def test_claim_check_matches_direct_search(self, unit, g, p):
        group = CyclicOrderedGroup((1,), unit)
        m, q = rational_subgroup_member(group, g)
        assert representable_with_denominator(m, q, p) == search_scaled_representation(
            unit, g, p
        )


class TestCoprimeTransfer:
    @given(st.integers(1, 400), st.integers(1, 20), st.integers(1, 20))
    def test_full_cone_composes_coprime_divisors(self, unit, n, m):
        if math.gcd(n, m) != 1:
            return
        group = CyclicOrderedGroup((1,), unit)
        if unit_divisor(group, n) is not None and unit_divisor(group, m) is not None:
            assert unit_divisor(group, n * m) is not None


@pytest.mark.parametrize("call, message", [
    (lambda: group_from_data([2, 3]), "group must be an object, got [2, 3]"),
    (lambda: unit_divisor(CyclicOrderedGroup((2, 3), 6), 0), "divisor must be a positive integer, got 0"),
    (lambda: unit_divisor(sqrt2_group(), -2), "divisor must be a positive integer, got -2"),
    (lambda: rational_subgroup_member(sqrt2_group(), 3), "quadratic group element expected, got 3"),
    (lambda: representable_with_denominator(0, 1, 2), "m and p must be positive integers"),
    (lambda: representable_with_denominator(1, 1, 0), "m and p must be positive integers"),
], ids=["group-not-an-object", "cyclic-divisor-zero", "quadratic-divisor-negative", "quadratic-element-int",
        "denominator-m-zero", "denominator-p-zero"])
def test_refusals_name_their_reason(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_is_unperforated():
    assert is_unperforated(CyclicOrderedGroup((1,), 5))
    assert not is_unperforated(CyclicOrderedGroup((2, 3), 6))
    assert is_unperforated(sqrt2_group())


@given(ordered_groups().filter(lambda g: isinstance(g, CyclicOrderedGroup)))
def test_cyclic_unperforation_is_membership_of_1(group):
    assert is_unperforated(group) == semigroup_member(group.generators, 1)


@given(ordered_groups().filter(lambda g: isinstance(g, QuadraticIrrationalGroup)), st.integers(1, 12),
       st.integers(-6, 6), st.integers(-30, 30), st.booleans())
def test_quadratic_arithmetic_matches_the_fraction_reference(group, n, k, w, member):
    q, z, d = fraction(group.unit.q), group.unit.z, group.alpha_square
    for a, b in ((q, z), (q * k, w), (-q, z), (Fraction(k, n), w)):
        assert quadratic_sign(Rational(a), b, d) == quadratic_sign(a, b, d) == fraction_sign(a, b, d)
    witness = unit_divisor(group, n)
    assert (witness if witness is None else (fraction(witness.q), witness.z)) == fraction_unit_divisor(group, n)
    assert max_supernatural(group) == fraction_max_supernatural(group)
    h = q * k if member else q * k + w  # q*k and integers lie in the group
    element = (h, z * k) if member else (h, w)
    found = rational_subgroup_member(group, QuadraticElement(*element))
    assert found == fraction_rational_subgroup_member(group, *element)
    assert (found is not None) >= member
