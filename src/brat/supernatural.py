"""Supernatural numbers and their rational groups.

A supernatural number is a formal product of primes with exponents in
the naturals extended by an infinite exponent OMEGA.  They classify
UHF algebras up to isomorphism: M_N embeds unitally into M_M exactly
when N divides M, which happens exactly when the rational group Q(N)
(fractions whose denominator uses each prime p at most exponent(p)
times) is contained in Q(M).

An exponent is a natural or OMEGA, and Python's own operators carry
its order: OMEGA + e = e + OMEGA = OMEGA, and OMEGA lies above every
natural (n < OMEGA, OMEGA <= OMEGA).  So +, <=, max, min and sorted
act on exponents directly, and min(j, OMEGA) = j.
"""

from __future__ import annotations

import math
from functools import total_ordering
from typing import Iterable, Mapping, Union

from ._record import Record, as_int, clipped
from .primes import factorize, is_prime, prime_index


@total_ordering
class _Omega:
    """The infinite exponent symbol.  Its one instance is OMEGA, which
    pickle and copy return by name."""

    __slots__ = ()

    def __repr__(self):
        return "OMEGA"

    def __reduce__(self):
        return "OMEGA"

    # OMEGA absorbs addition and lies above every natural; an int on the
    # left defers to the reflected method, so 3 + OMEGA and 3 < OMEGA work,
    # and total_ordering derives <=, > and >= from < and identity
    def __add__(self, other):
        return self if isinstance(other, (int, _Omega)) else NotImplemented

    __radd__ = __add__

    def __lt__(self, other):
        return False if isinstance(other, (int, _Omega)) else NotImplemented


OMEGA = _Omega()

Exponent = Union[int, _Omega]


class SupernaturalNumber(Record):
    """Immutable map from primes to exponents, zeros dropped: `exponents`
    becomes its (prime, exponent) pairs in increasing prime order."""

    exponents: Mapping[int, Exponent] = ()

    def __post_init__(self):
        items = []
        for p, e in sorted(dict(self.exponents).items()):
            if isinstance(p, bool) or not isinstance(p, int) or not is_prime(p):
                raise ValueError("supernatural keys must be primes, got %s" % clipped(p))
            if e is not OMEGA and as_int(e, "exponent of %d must be a natural or OMEGA" % p) < 0:
                raise ValueError("exponent of %d must be nonnegative, got %d" % (p, e))
            if e > 0:
                items.append((p, e))
        object.__setattr__(self, "exponents", tuple(items))
        object.__setattr__(self, "_map", dict(items))

    @classmethod
    def from_int(cls, n: int) -> "SupernaturalNumber":
        """The supernatural number of a positive integer."""
        if n < 1:
            raise ValueError("expected a positive integer, got %r" % (n,))
        return cls(factorize(n))

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.exponents)

    def items(self) -> tuple[tuple[int, Exponent], ...]:
        return self.exponents

    def exponent(self, p: int) -> Exponent:
        return self._map.get(p, 0)

    def to_int(self) -> int:
        """The integer value; only finite supernatural numbers have one."""
        n = 1
        for p, e in self.exponents:
            if e is OMEGA:
                raise ValueError("infinite exponent at %d has no integer value" % p)
            n *= p**e
        return n

    def __mul__(self, other: "SupernaturalNumber") -> "SupernaturalNumber":
        if not isinstance(other, SupernaturalNumber):
            return NotImplemented
        exps = dict(self._map)
        for p, e in other.exponents:
            exps[p] = exps.get(p, 0) + e
        return SupernaturalNumber(exps)

    def divides(self, other: "SupernaturalNumber") -> bool:
        """Pointwise exponent comparison; OMEGA dominates."""
        return all(e <= other.exponent(p) for p, e in self.exponents)

    @staticmethod
    def sup(values: Iterable["SupernaturalNumber"]) -> "SupernaturalNumber":
        """Least upper bound: pointwise maximum of exponents."""
        exps: dict[int, Exponent] = {}
        for sn in values:
            for p, e in sn.items():
                exps[p] = max(exps.get(p, 0), e)
        return SupernaturalNumber(exps)

    @staticmethod
    def inf(values: Iterable["SupernaturalNumber"]) -> "SupernaturalNumber":
        """Greatest lower bound: pointwise minimum of exponents."""
        values = list(values)
        if not values:
            raise ValueError("inf of no supernatural numbers is undefined")
        # a prime missing from any operand has exponent 0 there and drops out
        return SupernaturalNumber({p: min(sn.exponent(p) for sn in values) for p in values[0].primes})

    def ell(self, j: int) -> int:
        """The j-th canonical stage: prod over the first j primes p_i of
        p_i ** min(j, exponent(p_i)), with min(j, OMEGA) = j.

        The stages form a divisibility chain ell(1) | ell(2) | ... whose
        supernatural limit recovers self.  No primes are enumerated.  A
        support prime p <= j is among the first j; one at or past
        j * (j.bit_length() + 2) lies above the j-th prime; only a support
        prime between the two has its index counted.
        """
        if j < 1:
            raise ValueError("stage index must be >= 1, got %r" % (j,))
        bound = j * (j.bit_length() + 2)
        return math.prod(p ** min(j, e) for p, e in self.exponents
                         if p <= j or (p < bound and prime_index(p) <= j))

    def contains(self, x: Fraction) -> bool:
        """Whether x lies in Q(self): the denominator divides self."""
        from fractions import Fraction
        return SupernaturalNumber.from_int(Fraction(x).denominator).divides(self)

    def to_data(self) -> dict[str, object]:
        """JSON-ready form: decimal prime keys in numeric order, values
        naturals or the string "inf"."""
        return {str(p): ("inf" if e is OMEGA else e) for p, e in self.exponents}

    @classmethod
    def from_data(cls, data: Mapping[str, object]) -> "SupernaturalNumber":
        if not isinstance(data, Mapping):
            raise ValueError("supernatural number must be an object, got %s" % clipped(data))
        exps: dict[int, Exponent] = {}
        for key, raw in data.items():
            try:  # one spelling per prime: ASCII digits, no leading zero
                if str(p := int(str(key), 10)) != str(key):
                    raise ValueError
            except ValueError:
                raise ValueError("bad prime key %s" % clipped(key)) from None
            if raw == "inf":
                exps[p] = OMEGA
            elif isinstance(raw, int) and not isinstance(raw, bool):
                exps[p] = raw
            else:
                raise ValueError("bad exponent %s for prime %s" % (clipped(raw), clipped(p)))
        return cls(exps)

    def __repr__(self):
        body = ", ".join(
            "%d: %s" % (p, "OMEGA" if e is OMEGA else e) for p, e in self.exponents
        )
        return "SupernaturalNumber({%s})" % body

    def __str__(self):
        return "*".join(("%d^w" % p) if e is OMEGA else ("%d^%d" % (p, e) if e > 1 else str(p))
                        for p, e in self.exponents) or "1"
