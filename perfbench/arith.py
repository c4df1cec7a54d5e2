"""Exact arithmetic the benchmark needs, written without importing brat.

The checker must not trust the code it checks, so primality, prime
enumeration, supernatural-number arithmetic and tower recurrences are
re-derived here from their definitions.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

INF = math.inf  # the exponent omega

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 20 prime bases.

    The first 12 bases already decide every n below 3.3e24; past that the
    answer is a probable prime, which is enough for keys the program
    under test printed.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below(limit: int) -> list[int]:
    """Sieve of Eratosthenes."""
    if limit < 3:
        return []
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    return [i for i, flag in enumerate(sieve) if flag]


def first_primes(count: int) -> list[int]:
    limit = 64
    while True:
        found = primes_below(limit)
        if len(found) >= count:
            return found[:count]
        limit *= 2


def factor_small(n: int) -> dict[int, int]:
    """Trial-division factorization; only for numbers the generator chose."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def valuation(n: int, p: int) -> int:
    e = 0
    n = abs(n)
    while n and n % p == 0:
        n //= p
        e += 1
    return e


# --- supernatural numbers as {prime: exponent}, exponent int or INF ---

def sn_parse(data) -> dict[int, float]:
    if not isinstance(data, dict):
        raise ValueError("supernatural number must be an object, got %r" % (data,))
    out = {}
    for key, raw in data.items():
        p = int(key)
        if raw == "inf":
            out[p] = INF
        elif isinstance(raw, int) and not isinstance(raw, bool) and raw > 0:
            out[p] = raw
        else:
            raise ValueError("bad exponent %r" % (raw,))
    return out


def sn_data(number: dict) -> dict[str, object]:
    return {str(p): ("inf" if e == INF else int(e)) for p, e in sorted(number.items()) if e}


def sn_divides(a: dict, b: dict) -> bool:
    return all(e <= b.get(p, 0) for p, e in a.items())


def sn_mul(numbers) -> dict:
    out: dict = {}
    for n in numbers:
        for p, e in n.items():
            out[p] = out.get(p, 0) + e
    return out


def sn_sup(numbers) -> dict:
    out: dict = {}
    for n in numbers:
        for p, e in n.items():
            out[p] = max(out.get(p, 0), e)
    return out


def sn_inf(numbers) -> dict:
    numbers = list(numbers)
    common = set(numbers[0])
    for n in numbers[1:]:
        common &= set(n)
    return {p: min(n[p] for n in numbers) for p in common}


def sn_ell(number: dict, j: int) -> int:
    value = 1
    for p in first_primes(j):
        value *= p ** int(min(j, number.get(p, 0)))
    return value


def sn_contains(number: dict, x: Fraction) -> bool:
    return all(e <= number.get(p, 0) for p, e in factor_small(x.denominator).items())


def claimed_equals_int(claim: dict, n: int) -> bool:
    """Whether a finite claimed factorization is exactly n, with prime keys."""
    if any(e == INF for e in claim.values()):
        return False
    product = 1
    for p, e in claim.items():
        product *= p**e
    return product == n and all(is_prime(p) for p in claim)


class Cone:
    """Membership in the numerical semigroup generated by `gens`."""

    def __init__(self, gens):
        self.gens = sorted(set(int(g) for g in gens))
        self.step = math.gcd(*self.gens)
        self.reduced = [g // self.step for g in self.gens]
        self._least = None

    def member(self, x: int) -> bool:
        if x < 0 or x % self.step:
            return False
        x //= self.step
        if x == 0 or self.reduced[0] == 1:
            return True
        if len(self.reduced) == 2:
            a, b = self.reduced
            k = x * pow(b, -1, a) % a  # the only useful count of b
            return x - k * b >= 0
        return self._reachable(x)

    def _reachable(self, x: int) -> bool:
        # x is a member iff it is at least the least member of its residue
        # class modulo the smallest generator; those are found by Dijkstra
        a = self.reduced[0]
        if self._least is None:
            least = [0] + [None] * (a - 1)
            heap = [(0, 0)]
            while heap:
                d, r = heapq.heappop(heap)
                if d > least[r]:
                    continue
                for g in self.reduced[1:]:
                    s = (r + g) % a
                    if least[s] is None or d + g < least[s]:
                        least[s] = d + g
                        heapq.heappush(heap, (d + g, s))
            self._least = least
        return x >= self._least[x % a]


# --- diagrams as the JSON dicts brat reads ---

def matrix_at(diagram: dict, n: int):
    mats = diagram["matrices"]
    return mats[n - 1] if n <= len(mats) else mats[-1]


def width_at(diagram: dict, n: int) -> int:
    levels = diagram["levels"]
    return levels[n] if n < len(levels) else levels[-1]


def mat_vec(m, v) -> tuple[int, ...]:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def normalized(v) -> tuple[int, ...]:
    g = math.gcd(*v)
    return tuple(x // g for x in v)


class Towers:
    """Heights of one diagram, extended on demand and shared by requests."""

    def __init__(self, diagram: dict):
        self.diagram = diagram
        self.heights: list[tuple[int, ...]] = [(1,)]
        self.gcds = [1]

    def upto(self, depth: int) -> "Towers":
        while len(self.heights) <= depth:
            n = len(self.heights)
            v = mat_vec(matrix_at(self.diagram, n), self.heights[-1])
            self.heights.append(v)
            self.gcds.append(math.gcd(*v))
        return self

    def ratios(self, depth: int) -> list[int]:
        """r_n = gcd_n / gcd_(n-1) for n = 1..depth."""
        self.upto(depth)
        return [b // a for a, b in zip(self.gcds[:depth], self.gcds[1:depth + 1])]

    def cycle(self, start: int, depth: int):
        """First revisit (s, t) of the normalized height vector h_n / gcd_n
        among levels start..depth, or None.  When every level past `start`
        applies the same matrix, the normalized vector of a level fixes the
        next one and its ratio, so a revisit makes the ratios periodic with
        period t - s from level s + 1 on."""
        self.upto(depth)
        seen: dict[tuple[int, ...], int] = {}
        for n in range(start, depth + 1):
            c = normalized(self.heights[n])
            if c in seen:
                return seen[c], n
            seen[c] = n
        return None
