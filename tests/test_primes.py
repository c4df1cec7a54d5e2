import math

import pytest
from hypothesis import given, strategies as st

from brat.primes import factorize, is_prime, prime_index, valuation


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(math.isqrt(n)) + 1))


def test_small_range_matches_trial_division():
    for n in range(0, 2000):
        assert is_prime(n) == trial_division_prime(n)


def test_known_composites_and_primes():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(561)  # Carmichael
    assert not is_prime(2**64 + 1)
    assert is_prime(2**89 - 1)  # above the deterministic range
    assert is_prime(2**64 + 13) is True  # the smallest prime above 2**64
    # 399165290221 * 798330580441 passes Miller-Rabin for every base 2..37,
    # so only the randomized rounds above 2**64 can reject it.
    assert is_prime(318665857834031151167461) is False
    # 149491 * 25587647795161 is a strong pseudoprime to every prime base up
    # to 31, so only the last base of the deterministic set rejects it
    assert is_prime(3825123056546413051) is False


@given(st.integers(2, 10**9))
def test_factorize_reconstructs(n):
    factors = factorize(n)
    product = 1
    for p, e in factors.items():
        assert is_prime(p)
        assert e >= 1
        product *= p**e
    assert product == n


def test_factorize_edge_cases():
    assert factorize(1) == {}
    assert factorize(2**10) == {2: 10}
    assert factorize(600851475143) == {71: 1, 839: 1, 1471: 1, 6857: 1}
    assert factorize(3127) == {53: 1, 59: 1}  # rho's batch gcd hits n, so Brent backtracks
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_large_semiprime():
    p, q = 1000003, 1000033
    assert factorize(p * q) == {p: 1, q: 1}


def test_prime_index_matches_trial_division():
    for index, p in enumerate((n for n in range(20000) if trial_division_prime(n)), start=1):
        assert prime_index(p) == index
    for n in (-3, 0, 1, 9, 19999):
        with pytest.raises(ValueError):
            prime_index(n)


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(48, 3) == 1
    assert valuation(-8, 2) == 3
    assert valuation(7, 2) == 0
    with pytest.raises(ValueError):
        valuation(0, 2)
