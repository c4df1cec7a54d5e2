import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from brat.supernatural import OMEGA, SupernaturalNumber
from gen import SMALL_PRIMES, finite_supernaturals, supernaturals
from oracles import naive_ell

# the 303 primes below 2000, by trial division: stage j <= 300 then meets
# support primes below j, between j and j * (j.bit_length() + 2), and past it
PRIMES_TO_2000 = tuple(n for n in range(2, 2000) if all(n % d for d in range(2, math.isqrt(n) + 1)))


class TestConstruction:
    def test_from_int(self):
        assert SupernaturalNumber.from_int(12).to_data() == {"2": 2, "3": 1}
        assert SupernaturalNumber.from_int(1) == SupernaturalNumber()

    def test_zero_exponents_dropped(self):
        assert SupernaturalNumber({2: 0, 3: 1}) == SupernaturalNumber({3: 1})

    def test_rejects_non_primes(self):
        with pytest.raises(ValueError):
            SupernaturalNumber({4: 1})
        with pytest.raises(ValueError):
            SupernaturalNumber({1: 1})

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            SupernaturalNumber({2: -1})
        with pytest.raises(ValueError):
            SupernaturalNumber({2: True})
        with pytest.raises(ValueError):
            SupernaturalNumber({2: 1.5})

    def test_immutable_and_hashable(self):
        n = SupernaturalNumber({2: OMEGA})
        with pytest.raises(AttributeError):
            n._items = ()
        assert hash(n) == hash(SupernaturalNumber({2: OMEGA}))

    def test_omega_survives_pickle_and_copy(self):
        assert pickle.loads(pickle.dumps(OMEGA)) is OMEGA
        assert copy.deepcopy(OMEGA) is OMEGA


class TestValueContract:
    """The immutable-value behaviour SupernaturalNumber takes from Record."""

    VALUES = (SupernaturalNumber(), SupernaturalNumber({2: OMEGA, 3: 2, 5: 1}), SupernaturalNumber({7: OMEGA}))

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_keeps_value_and_omega_identity(self, protocol):
        for n in self.VALUES:
            back = pickle.loads(pickle.dumps(n, protocol))
            assert type(back) is SupernaturalNumber
            assert back == n and hash(back) == hash(n) and back.items() == n.items()
            assert all(e is OMEGA for p, e in back.items() if n.exponent(p) is OMEGA)
            assert [back.exponent(p) for p in (2, 3, 5, 7, 11)] == [n.exponent(p) for p in (2, 3, 5, 7, 11)]
        assert pickle.loads(pickle.dumps(OMEGA, protocol)) is OMEGA

    def test_copy_and_deepcopy(self):
        for n in self.VALUES:
            for twin in (copy.copy(n), copy.deepcopy(n)):
                assert twin == n and hash(twin) == hash(n)
                assert all(e is OMEGA for p, e in twin.items() if n.exponent(p) is OMEGA)
                assert twin.exponent(3) == n.exponent(3)

    @given(supernaturals(), st.randoms(use_true_random=False))
    def test_key_order_does_not_matter(self, n, rng):
        pairs = list(n.items())
        rng.shuffle(pairs)
        shuffled = SupernaturalNumber(dict(pairs))
        assert shuffled == n and hash(shuffled) == hash(n)
        assert shuffled.items() == n.items() and repr(shuffled) == repr(n)

    def test_hash_ignores_build_order(self):
        a = SupernaturalNumber({5: 1, 2: OMEGA, 3: 2})
        b = SupernaturalNumber(exponents={3: 2, 5: 1, 2: OMEGA, 7: 0})
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1

    def test_immutable(self):
        n = SupernaturalNumber({2: 3})
        for name in ("exponents", "_map", "bogus"):
            with pytest.raises(AttributeError):
                setattr(n, name, {})
            with pytest.raises(AttributeError):
                delattr(n, name)
        assert n.items() == ((2, 3),) and n.exponent(2) == 3

    def test_repr_and_str(self):
        assert repr(SupernaturalNumber()) == "SupernaturalNumber({})"
        assert repr(SupernaturalNumber({5: 1, 2: OMEGA, 3: 2})) == "SupernaturalNumber({2: OMEGA, 3: 2, 5: 1})"
        assert str(SupernaturalNumber({5: 1, 2: OMEGA, 3: 2})) == "2^w*3^2*5"
        assert str(SupernaturalNumber({7: 1})) == "7" and str(SupernaturalNumber()) == "1"

    def test_not_equal_to_other_types(self):
        n = SupernaturalNumber({2: 1})
        assert n != ((2, 1),) and n != {2: 1} and n != 2


class TestArithmetic:
    def test_mul_examples(self):
        a = SupernaturalNumber({2: 1})
        b = SupernaturalNumber({2: OMEGA})
        assert (a * b).exponent(2) is OMEGA
        c = SupernaturalNumber({3: 2}) * SupernaturalNumber({5: 1})
        assert c.to_data() == {"3": 2, "5": 1}

    def test_divides_examples(self):
        assert SupernaturalNumber().divides(SupernaturalNumber({2: OMEGA}))
        assert SupernaturalNumber({2: 3}).divides(SupernaturalNumber({2: OMEGA}))
        assert not SupernaturalNumber({2: OMEGA}).divides(SupernaturalNumber({2: 100}))
        assert not SupernaturalNumber({3: 1}).divides(SupernaturalNumber({2: OMEGA}))

    def test_sup_inf_examples(self):
        a = SupernaturalNumber({2: 3, 3: 1})
        b = SupernaturalNumber({2: OMEGA, 5: 1})
        assert SupernaturalNumber.sup([a, b]).to_data() == {"2": "inf", "3": 1, "5": 1}
        assert SupernaturalNumber.inf([a, b]).to_data() == {"2": 3}

    @given(finite_supernaturals(), finite_supernaturals())
    def test_from_int_multiplicative(self, a, b):
        x, y = a.to_int(), b.to_int()
        assert SupernaturalNumber.from_int(x * y) == a * b

    @given(supernaturals(), supernaturals(), supernaturals())
    def test_mul_laws(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * SupernaturalNumber() == a

    @given(supernaturals(), supernaturals())
    def test_factor_divides_product(self, a, b):
        assert a.divides(a * b)

    @given(supernaturals(), supernaturals(), supernaturals())
    def test_partial_order(self, a, b, c):
        assert a.divides(a)
        if a.divides(b) and b.divides(a):
            assert a == b
        if a.divides(b) and b.divides(c):
            assert a.divides(c)

    @given(supernaturals(), supernaturals(), supernaturals())
    def test_sup_is_least_upper_bound(self, a, b, candidate):
        s = SupernaturalNumber.sup([a, b])
        assert a.divides(s) and b.divides(s)
        if a.divides(candidate) and b.divides(candidate):
            assert s.divides(candidate)

    @given(supernaturals(), supernaturals(), supernaturals())
    def test_inf_is_greatest_lower_bound(self, a, b, candidate):
        i = SupernaturalNumber.inf([a, b])
        assert i.divides(a) and i.divides(b)
        if candidate.divides(a) and candidate.divides(b):
            assert candidate.divides(i)


class TestStages:
    def test_ell_frozen_examples(self):
        two_omega = SupernaturalNumber({2: OMEGA})
        assert two_omega.ell(1) == 2
        assert two_omega.ell(3) == 8
        assert SupernaturalNumber().ell(5) == 1
        assert SupernaturalNumber({2: OMEGA, 3: 1}).ell(2) == 12

    def test_ell_rejects_bad_stage(self):
        with pytest.raises(ValueError):
            SupernaturalNumber({2: 1}).ell(0)

    @given(supernaturals(max_exponent=5, primes=PRIMES_TO_2000, max_size=3), st.integers(1, 300))
    def test_ell_matches_direct_formula(self, n, j):
        raw = {p: (None if e is OMEGA else e) for p, e in n.items()}
        assert n.ell(j) == naive_ell(raw, j)

    @given(supernaturals(max_exponent=5, max_size=3), st.integers(1, 8))
    def test_ell_chain_divides(self, n, j):
        assert n.ell(j + 1) % n.ell(j) == 0


class TestRationalGroup:
    def test_contains_examples(self):
        n = SupernaturalNumber({2: OMEGA, 3: 1})
        assert n.contains(Fraction(5, 6))
        assert not n.contains(Fraction(1, 9))
        assert n.contains(Fraction(7))
        assert SupernaturalNumber().contains(Fraction(3))
        assert not SupernaturalNumber().contains(Fraction(1, 2))

    @given(supernaturals())
    def test_contains_one_and_integers(self, n):
        assert n.contains(Fraction(1))
        assert n.contains(Fraction(-17))

    @given(supernaturals(max_exponent=4, max_size=3), st.data())
    def test_group_closed_under_addition_and_negation(self, n, data):
        def member(label):
            numerator = data.draw(st.integers(-40, 40), label=label + "-num")
            denominator = 1
            for p, e in n.items():
                cap = 3 if e is OMEGA else min(e, 3)
                denominator *= p ** data.draw(st.integers(0, cap), label=label + "-" + str(p))
            return Fraction(numerator, denominator)

        x, y = member("x"), member("y")
        assert n.contains(x) and n.contains(y)
        assert n.contains(x + y)
        assert n.contains(-x)

    @settings(max_examples=60)
    @given(
        finite_supernaturals(max_exponent=6, primes=SMALL_PRIMES[:5], max_size=3),
        finite_supernaturals(max_exponent=6, primes=SMALL_PRIMES[:5], max_size=3),
    )
    def test_divisibility_detected_by_stage_denominators(self, n, m):
        # with primes among the first 5 and exponents <= 6, any exponent
        # disagreement is visible at a stage j <= 12
        through_stages = all(m.contains(Fraction(1, n.ell(j))) for j in range(1, 13))
        assert through_stages == n.divides(m)


class TestSerialization:
    def test_data_round_trip(self):
        n = SupernaturalNumber({2: OMEGA, 3: 1, 101: 2})
        assert SupernaturalNumber.from_data(n.to_data()) == n

    def test_keys_sorted_numerically(self):
        n = SupernaturalNumber({101: 1, 2: 1, 11: OMEGA})
        assert list(n.to_data()) == ["2", "11", "101"]

    @given(supernaturals())
    def test_round_trip_random(self, n):
        assert SupernaturalNumber.from_data(n.to_data()) == n

    def test_from_data_rejects_garbage(self):
        with pytest.raises(ValueError):
            SupernaturalNumber.from_data({"x": 1})
        with pytest.raises(ValueError):
            SupernaturalNumber.from_data({"2": "infinity"})
        with pytest.raises(ValueError):
            SupernaturalNumber.from_data({"2": 1.5})
        with pytest.raises(ValueError):
            SupernaturalNumber.from_data([1, 2])

    def test_str_form(self):
        assert str(SupernaturalNumber()) == "1"
        assert str(SupernaturalNumber({2: OMEGA, 3: 2, 5: 1})) == "2^w*3^2*5"


def test_exp_le_table():
    # OMEGA's order and addition through Python's operators, both operand orders
    assert 3 <= OMEGA
    assert OMEGA <= OMEGA
    assert not OMEGA <= 10**9
    assert 2 <= 2
    for n in (0, 1, 10**9):
        assert n + OMEGA is OMEGA and OMEGA + n is OMEGA
        assert n < OMEGA and not OMEGA < n
        assert n <= OMEGA and not OMEGA <= n
        assert OMEGA > n and not n > OMEGA
        assert OMEGA >= n and not n >= OMEGA
        assert max(n, OMEGA) is OMEGA and max(OMEGA, n) is OMEGA
        assert min(n, OMEGA) == n and min(OMEGA, n) == n
    assert OMEGA + OMEGA is OMEGA and sum([2, OMEGA, 3]) is OMEGA
    assert OMEGA >= OMEGA and not OMEGA < OMEGA and not OMEGA > OMEGA
    assert max(OMEGA, OMEGA) is OMEGA and min(OMEGA, OMEGA) is OMEGA
    assert sorted([OMEGA, 7, 0, OMEGA, 2]) == [0, 2, 7, OMEGA, OMEGA]
    for bad in (1.5, "1", None):
        with pytest.raises(TypeError):
            OMEGA + bad
        with pytest.raises(TypeError):
            OMEGA < bad
        with pytest.raises(TypeError):
            bad >= OMEGA
