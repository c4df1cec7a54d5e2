import math
import os
import pathlib
import subprocess
import sys

import pytest
import sympy
from hypothesis import given, strategies as st

from brat import primes
from brat.primes import factorize, is_prime, prime_index, valuation

# primes up to 47 (trial division), four 30-bit primes and 2^61 - 1 (rho)
POWER_BASES = (*primes._TRIAL_PRIMES, 1073741789, 1073741783, 1073741741, 1073741723, 2**61 - 1)


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
    # rho's batch gcd hits n and so does Brent's backtrack, so rho retries with the next c
    assert factorize(3127) == {53: 1, 59: 1}
    # rho's first gcd splits a prime power
    assert factorize(65537**4) == {65537: 4}
    assert factorize(2147483647**2) == {2147483647: 2}
    with pytest.raises(ValueError):
        factorize(0)


@given(st.dictionaries(st.sampled_from(POWER_BASES), st.integers(1, 24), max_size=4))
def test_factorize_is_sympys_factorint(powers):
    n = math.prod(p**e for p, e in powers.items())
    assert list(factorize(n).items()) == sorted(sympy.factorint(n).items())


@pytest.mark.parametrize("n, expected", [
    (1093**2, {1093: 2}),  # 1093 and 3511 are the Wieferich primes: p^2 divides 2^(p-1) - 1
    (3511**2, {3511: 2}),
    (8321, {53: 1, 157: 1}),  # a base-2 pseudoprime: 2^(n-1) = 1 mod n
])
def test_factorize_where_the_prime_power_gcd_is_n(n, expected):
    # rho's first gcd finds no factor here, so Brent's cycle splits n
    assert math.gcd(n, pow(2, n, n) - 2) == n
    assert factorize(n) == expected


def test_each_prime_is_split_off_once(monkeypatch):
    calls = []
    pollard_rho = primes._pollard_rho
    monkeypatch.setattr(primes, "_pollard_rho", lambda n: calls.append(n) or pollard_rho(n))
    assert factorize((2**31 - 1)**24) == {2**31 - 1: 24}
    assert calls == [(2**31 - 1)**24]


def test_factoring_loads_no_random():
    # -S: no site, which on some installs preloads random itself
    code = "import sys; from brat.primes import factorize; print(factorize(53 * 59), 'random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(primes.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert (proc.stdout, proc.stderr) == ("{53: 1, 59: 1} False\n", "")


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
