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
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .primes import factorize, is_prime, prime_index


class _Omega:
    """The infinite exponent symbol.  A process-wide singleton."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "OMEGA"

    def __reduce__(self):
        return (_Omega, ())

    # OMEGA absorbs addition and lies above every natural; an int on the
    # left defers to the reflected method, so 3 + OMEGA and 3 < OMEGA work
    def __add__(self, other):
        return self if isinstance(other, (int, _Omega)) else NotImplemented

    __radd__ = __add__

    def __lt__(self, other):
        return False if isinstance(other, (int, _Omega)) else NotImplemented

    def __le__(self, other):
        return other is self if isinstance(other, (int, _Omega)) else NotImplemented

    def __gt__(self, other):
        return other is not self if isinstance(other, (int, _Omega)) else NotImplemented

    def __ge__(self, other):
        return True if isinstance(other, (int, _Omega)) else NotImplemented


OMEGA = _Omega()

Exponent = Union[int, _Omega]


def _check_exponent(p: int, e) -> Exponent:
    if e is OMEGA:
        return e
    if isinstance(e, bool) or not isinstance(e, int):
        raise ValueError("exponent of %d must be a natural or OMEGA, got %r" % (p, e))
    if e < 0:
        raise ValueError("exponent of %d must be nonnegative, got %d" % (p, e))
    return e


class SupernaturalNumber:
    """Immutable map from primes to exponents, zeros dropped."""

    __slots__ = ("_items", "_map")

    def __init__(self, exponents: Mapping[int, Exponent] = ()):
        items = []
        for p, e in sorted(dict(exponents).items()):
            if isinstance(p, bool) or not isinstance(p, int) or not is_prime(p):
                raise ValueError("supernatural keys must be primes, got %r" % (p,))
            e = _check_exponent(p, e)
            if e > 0:
                items.append((p, e))
        object.__setattr__(self, "_items", tuple(items))
        object.__setattr__(self, "_map", dict(items))

    def __setattr__(self, name, value):
        raise AttributeError("SupernaturalNumber is immutable")

    def __reduce__(self):
        return (SupernaturalNumber, (self._map,))

    @classmethod
    def from_int(cls, n: int) -> "SupernaturalNumber":
        """The supernatural number of a positive integer."""
        if n < 1:
            raise ValueError("expected a positive integer, got %r" % (n,))
        return cls(factorize(n))

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self._items)

    def items(self) -> tuple[tuple[int, Exponent], ...]:
        return self._items

    def exponent(self, p: int) -> Exponent:
        return self._map.get(p, 0)

    def to_int(self) -> int:
        """The integer value; only finite supernatural numbers have one."""
        n = 1
        for p, e in self._items:
            if e is OMEGA:
                raise ValueError("infinite exponent at %d has no integer value" % p)
            n *= p**e
        return n

    def __mul__(self, other: "SupernaturalNumber") -> "SupernaturalNumber":
        if not isinstance(other, SupernaturalNumber):
            return NotImplemented
        exps = dict(self._map)
        for p, e in other._items:
            exps[p] = exps.get(p, 0) + e
        return SupernaturalNumber(exps)

    def divides(self, other: "SupernaturalNumber") -> bool:
        """Pointwise exponent comparison; OMEGA dominates."""
        return all(e <= other.exponent(p) for p, e in self._items)

    def q_subset(self, other: "SupernaturalNumber") -> bool:
        """Whether Q(self) is contained in Q(other).

        The rational groups are nested exactly when the supernatural
        numbers divide, so this is divisibility under another name.
        """
        return self.divides(other)

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
        return math.prod(p ** min(j, e) for p, e in self._items
                         if p <= j or (p < bound and prime_index(p) <= j))

    def contains(self, x: Fraction) -> bool:
        """Whether x lies in Q(self): every prime power of the
        denominator stays within this number's exponents."""
        den = Fraction(x).denominator
        if den == 1:
            return True
        return all(e <= self.exponent(p) for p, e in factorize(den).items())

    def to_data(self) -> dict[str, object]:
        """JSON-ready form: decimal prime keys in numeric order, values
        naturals or the string "inf"."""
        return {str(p): ("inf" if e is OMEGA else e) for p, e in self._items}

    @classmethod
    def from_data(cls, data: Mapping[str, object]) -> "SupernaturalNumber":
        if not isinstance(data, Mapping):
            raise ValueError("supernatural number must be an object, got %r" % (data,))
        exps: dict[int, Exponent] = {}
        for key, raw in data.items():
            try:
                p = int(str(key), 10)
            except ValueError:
                raise ValueError("bad prime key %r" % (key,)) from None
            if raw == "inf":
                exps[p] = OMEGA
            elif isinstance(raw, int) and not isinstance(raw, bool):
                exps[p] = raw
            else:
                raise ValueError("bad exponent %r for prime %s" % (raw, key))
        return cls(exps)

    def __eq__(self, other):
        if not isinstance(other, SupernaturalNumber):
            return NotImplemented
        return self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        body = ", ".join(
            "%d: %s" % (p, "OMEGA" if e is OMEGA else e) for p, e in self._items
        )
        return "SupernaturalNumber({%s})" % body

    def __str__(self):
        if not self._items:
            return "1"
        return "*".join(
            ("%d^w" % p) if e is OMEGA else ("%d^%d" % (p, e) if e > 1 else str(p))
            for p, e in self._items
        )
