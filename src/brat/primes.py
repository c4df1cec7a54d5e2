"""Integer primality, factorization, and prime counting.

Everything here is exact and works on arbitrary-precision integers.
Primality is decided deterministically below 2**64 through a fixed
Miller-Rabin base set; above that bound we run 40 Miller-Rabin rounds
with bases drawn from a generator seeded by the input, so repeated
calls give identical answers.  Factorization divides each prime out
whole, from what is left of n and from every piece still to be split,
so no prime is found twice: first the primes up to 47, then the ones
Pollard's rho (Brent variant) splits off.  Rho tries gcd(n, 2**n - 2)
first, which is p for n = p**k unless p is a Wieferich prime (1093 or
3511); Brent's cycle starts from n, with no random draw.  A prime's
index is counted in a sieve local to the call, so nothing is kept.
"""

import math

# Deterministic witness set for n < 2**64.  These twelve bases stop
# being enough at 318665857834031151167461 (~3.2e23), a strong
# pseudoprime to all of them; the often-quoted 3.3e24 bound needs base 41.
_SMALL_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _miller_rabin(n: int, base: int) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Exact below 2**64, 40-round probabilistic above."""
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 2**64:
        return all(_miller_rabin(n, b) for b in _SMALL_BASES)
    import random  # only past 2**64, so most requests never load it
    rng = random.Random(n)
    return all(_miller_rabin(n, rng.randrange(2, n - 1)) for _ in range(40))


def _pollard_rho(n: int) -> int:
    # A nontrivial factor of the odd composite n (see the module docstring).
    g = math.gcd(n, pow(2, n, n) - 2)
    if 1 < g < n:
        return g
    c = 1 + n % 65521
    while True:
        m = 128
        g = r = q = 1
        x = ys = y = 2
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as an exponent map."""
    if n < 1:
        raise ValueError("factorize expects a positive integer, got %r" % (n,))
    factors: dict[int, int] = {}
    pending = [n, *(p for p in _TRIAL_PRIMES if n % p == 0)]
    while n > 1:
        m = pending.pop()
        if not is_prime(m):
            d = _pollard_rho(m)
            pending += m // d, d
            continue
        factors[m] = e = valuation(n, m)
        n //= m**e
        pending = [r for q in pending if (r := q // m**valuation(q, m)) > 1]
    return dict(sorted(factors.items()))


def prime_index(p: int) -> int:
    """1-based position of the prime p in the increasing prime sequence."""
    if not is_prime(p):
        raise ValueError("%r is not a prime" % (p,))
    flags = bytearray([0, 0]) + bytearray([1]) * (p - 1)
    for q in range(2, math.isqrt(p) + 1):
        if flags[q]:
            flags[q * q::q] = bytes(len(range(q * q, p + 1, q)))
    return flags.count(1)


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n; n must be nonzero."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e
