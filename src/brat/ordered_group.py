"""Ordered abelian groups with order unit, and unit divisibility.

Two presentations are supported.

* Cyclic: the integers ordered by the numerical semigroup generated by
  a finite set of positive integers, with a chosen unit inside the
  semigroup.  These model K0 of certain unital algebras whose positive
  cone can fail to be all of the nonnegative integers.

* Quadratic irrational: Q(N) + sqrt(d) * Z inside the reals, ordered by
  the real order, where Q(N) is the rational group of a supernatural
  number N and d >= 2 is square-free.  All arithmetic is exact; signs
  of q + z*sqrt(d) are decided by integer comparisons, never floats.

An integer n divides the unit u when n*x = u for some positive x in the
group.  The central computation is the maximum supernatural number
whose finite divisors all divide the unit.  It exists exactly when
coprime divisors of the unit always compose, which the cyclic
presentation can fail (the semigroup generated by 2 and 3 with unit 6
divides by 2 and by 3 but not by 6) and the quadratic presentation
never does, being weakly unperforated.
"""

import math
from functools import lru_cache
from itertools import combinations

from ._record import Record, as_int, clipped, reason
from .primes import factorize, valuation
from .supernatural import Exponent, SupernaturalNumber


@lru_cache(maxsize=1)  # one generator tuple per group
def _residue_minima(gens: tuple[int, ...]) -> tuple[int, ...]:
    # smallest member of the semigroup in each residue class mod a = gens[0],
    # by Böcker and Lipták's round robin (Algorithmica 48, 2007): generator b
    # joins in one turn round each of the gcd(a, b) cycles r -> r + b from its
    # least entry; gcd(gens) == 1 is assumed, so every class is reached
    a = gens[0]
    minima = [0] + [math.inf] * (a - 1)
    for b in gens[1:]:
        d = math.gcd(a, b)
        for start in range(d):
            n = min(minima[start::d])
            if n < math.inf:
                for _ in range(a // d - 1):
                    n += b
                    r = n % a
                    n = minima[r] = min(n, minima[r])
    return tuple(minima)


def semigroup_member(generators: tuple[int, ...], x: int) -> bool:
    """Whether x is a nonnegative integer combination of the generators.

    Negative x is never a member.  After reducing by the gcd, two coprime
    generators a < b have Sylvester's closed form: x = i*a + j*b forces
    j = x * b^-1 (mod a), so the least admissible j is x * b^-1 mod a and
    x is a member exactly when b*j <= x for it.  More generators use the
    least member of each residue class modulo the smallest one.
    """
    gens = sorted(set(generators))
    if not gens or any(g < 1 for g in gens):
        raise ValueError("generators must be positive integers, got %s" % clipped(generators))
    if x < 0:
        return False
    if x == 0:
        return True
    g = math.gcd(*gens)
    if x % g:
        return False
    x //= g
    gens = [a // g for a in gens]
    if len(gens) == 2:
        a, b = gens
        return x >= b * (x * pow(b, -1, a) % a)
    minima = _residue_minima(tuple(gens))
    return x >= minima[x % gens[0]]


class CyclicOrderedGroup(Record):
    """The integers with the cone generated by `generators`, unit inside."""

    generators: tuple[int, ...]
    unit: int

    def __post_init__(self):
        gens = tuple(sorted(set(as_int(g, "generators must be integers") for g in self.generators)))
        if not gens or gens[0] < 1:
            raise ValueError("generators must be positive integers, got %s" % clipped(self.generators))
        object.__setattr__(self, "generators", gens)
        if as_int(self.unit, "unit must be an integer") < 1 or not semigroup_member(gens, self.unit):
            raise ValueError("unit %s is not in the positive cone" % clipped(self.unit))

    def to_data(self) -> dict[str, object]:
        return {"kind": "cyclic", "generators": list(self.generators), "unit": self.unit}


class QuadraticElement(Record):
    """The real number q + z*sqrt(d), with d carried by the group."""

    q: "Rational"
    z: int

    def __post_init__(self):
        from .rational import Rational
        object.__setattr__(self, "q", Rational(self.q))
        as_int(self.z, "integer coefficient expected")

    def to_data(self) -> dict[str, object]:
        return {"k": str(self.q), "z": self.z}

    @classmethod
    def from_data(cls, data) -> "QuadraticElement":
        from .rational import Rational
        k = ""  # the text that Rational's error echoes
        try:
            return cls(Rational(k := str(data["k"])), data["z"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError("bad quadratic element %s: %s" % (clipped(data), reason(exc, k))) from None


def quadratic_sign(q: "Rational", z: int, d: int) -> int:
    """Exact sign of q + z*sqrt(d) for square-free d >= 2.

    With q = a/b, b > 0, it is the sign of a + w*sqrt(d) for w = b*z.
    When a and w do not disagree in sign, the sign is that of whichever
    term is nonzero.  Otherwise the larger magnitude wins: the sign is
    sign(a) times that of a*a - d*w*w, which is never 0 because sqrt(d)
    is irrational.
    """
    a, w = q.numerator, q.denominator * z
    x = (a or w) if a * w >= 0 else a * (a * a - d * w * w)
    return (x > 0) - (x < 0)


def _is_squarefree(d: int) -> bool:
    return all(e == 1 for e in factorize(d).values())


class QuadraticIrrationalGroup(Record):
    """Q(h_number) + sqrt(alpha_square) * Z with the real-line order."""

    h_number: SupernaturalNumber
    alpha_square: int
    unit: QuadraticElement

    def __post_init__(self):
        as_int(self.alpha_square, "alpha_square must be an integer")
        if self.alpha_square < 2 or not _is_squarefree(self.alpha_square):
            raise ValueError("alpha_square must be square-free and >= 2, got %s" % clipped(self.alpha_square))
        if self.unit.q == 0:
            raise ValueError("unit must have a nonzero rational part")
        if not self.h_number.contains(self.unit.q):
            raise ValueError("unit rational part %s lies outside Q(h)" % (self.unit.q,))
        if quadratic_sign(self.unit.q, self.unit.z, self.alpha_square) <= 0:
            raise ValueError("unit %s + %s*sqrt(%d) is not positive" % (self.unit.q, self.unit.z, self.alpha_square))

    def to_data(self) -> dict[str, object]:
        return {
            "kind": "quadratic",
            "H": self.h_number.to_data(),
            "alpha_square": self.alpha_square,
            "unit": self.unit.to_data(),
        }

    def is_member(self, element: QuadraticElement) -> bool:
        return self.h_number.contains(element.q)


OrderedGroup = CyclicOrderedGroup | QuadraticIrrationalGroup
GroupElement = int | QuadraticElement


def group_from_data(data) -> OrderedGroup:
    """The group that `to_data` describes: an object tagged "cyclic" or "quadratic"."""
    if not isinstance(data, dict):
        raise ValueError("group must be an object, got %s" % clipped(data))
    kind = data.get("kind")
    try:
        if kind == "cyclic":
            return CyclicOrderedGroup(tuple(data["generators"]), data["unit"])
        if kind == "quadratic":
            return QuadraticIrrationalGroup(
                h_number=SupernaturalNumber.from_data(data["H"]),
                alpha_square=data["alpha_square"],
                unit=QuadraticElement.from_data(data["unit"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("bad group description: %s" % exc) from None
    raise ValueError("group kind must be 'cyclic' or 'quadratic', got %s" % clipped(kind))


def unit_divisor(group: OrderedGroup, n: int) -> GroupElement | None:
    """A positive witness x with n*x = unit, or None.

    Cyclic: x = unit/n must be an integer in the cone.  Quadratic:
    both coordinates of the unit must divide by n inside the group,
    and the quotient is automatically positive.
    """
    if n < 1:
        raise ValueError("divisor must be a positive integer, got %r" % (n,))
    if isinstance(group, CyclicOrderedGroup):
        if group.unit % n:
            return None
        x = group.unit // n
        return x if semigroup_member(group.generators, x) else None
    q, z = group.unit.q, group.unit.z
    if z % n:
        return None
    from .rational import Rational
    candidate = QuadraticElement(Rational(q, n), z // n)
    if not group.h_number.contains(candidate.q):
        return None
    return candidate


class DivisorClosureReport(Record):
    """Outcome of the coprime-composition check on unit divisors."""

    holds: bool
    counterexample: tuple[int, int] | None = None


def coprime_divisor_property(group: OrderedGroup) -> DivisorClosureReport:
    """Check that coprime unit divisors compose.

    Whenever coprime n and m both divide the unit, n*m must too; this
    is exactly the condition for a maximum supernatural divisor to
    exist.  Cyclic groups are searched exhaustively over the divisors
    of the unit, enumerated from its factorization, in increasing
    (n, m) order, and the first failing pair is reported.  Weakly
    unperforated groups (the full cone, and every quadratic group)
    always have the property, so no search runs.
    """
    if is_unperforated(group):
        return DivisorClosureReport(True)
    divisors = [1]
    for p, e in factorize(group.unit).items():
        divisors = [d * p ** k for d in divisors for k in range(e + 1)]
    divisors = [n for n in sorted(divisors) if unit_divisor(group, n) is not None]
    for n, m in combinations(divisors, 2):
        if math.gcd(n, m) == 1 and unit_divisor(group, n * m) is None:
            return DivisorClosureReport(False, (n, m))
    return DivisorClosureReport(True)


def _rational_valuation(x: "Rational", p: int) -> int:
    # p-adic valuation of a nonzero rational
    return valuation(x.numerator, p) - valuation(x.denominator, p)


def max_supernatural(group: OrderedGroup) -> SupernaturalNumber | None:
    """The maximum supernatural number all of whose finite divisors
    divide the unit, or None when coprime divisors fail to compose.

    Exponent of p = sup of k with p**k dividing the unit.  Cyclic groups
    scan prime powers of the unit; unit divisors are closed under
    divisors, so coprime ones compose exactly when N, the product of these
    powers, divides the unit.  Quadratic groups always do, in closed form:
    for unit q + z*sqrt(d), the p-exponent is capped by the valuation of z
    when z is nonzero, and is infinite exactly when z = 0 and the rational
    group already has an infinite p-exponent.
    """
    exps: dict[int, Exponent] = {}
    if isinstance(group, CyclicOrderedGroup):
        for p in factorize(group.unit):
            k = 0
            while unit_divisor(group, p ** (k + 1)) is not None:
                k += 1
            exps[p] = k
        number = SupernaturalNumber(exps)
        return number if unit_divisor(group, number.to_int()) is not None else None
    q, z = group.unit.q, group.unit.z
    h = group.h_number
    if z == 0:
        support = set(h.primes) | set(factorize(q.numerator))
        exps = {p: _rational_valuation(q, p) + h.exponent(p) for p in support}
    else:
        exps = {p: min(vz, _rational_valuation(q, p) + h.exponent(p))
                for p, vz in factorize(abs(z)).items()}
    return SupernaturalNumber(exps)


def rational_subgroup_member(
    group: OrderedGroup, element: GroupElement
) -> tuple[int, int] | None:
    """Membership of `element` in the rational subgroup of the unit.

    An element g belongs when m*g = q*unit for some positive integer m
    and integer q; the reduced witness (m, q) is returned.  Every
    integer belongs in the cyclic presentation.  In the quadratic
    presentation g = h + w*sqrt(d) belongs exactly when the irrational
    coordinates match the rational ones, that is w * unit.q = h * unit.z.
    """
    if isinstance(group, CyclicOrderedGroup):
        g = int(element)
        d = math.gcd(abs(g), group.unit)
        return (group.unit // d, g // d)
    if not isinstance(element, QuadraticElement):
        raise ValueError("quadratic group element expected, got %r" % (element,))
    if not group.is_member(element):
        raise ValueError("element %r lies outside the group" % (element,))
    h, w, unit = element.q, element.z, group.unit
    if w * unit.q.numerator * h.denominator != h.numerator * unit.z * unit.q.denominator:
        return None
    from .rational import Rational
    ratio = Rational(h, unit.q)
    return (ratio.denominator, ratio.numerator)


def is_unperforated(group: OrderedGroup) -> bool:
    """Weak unperforation.  A cyclic cone is unperforated exactly when it
    holds 1, that is when its least generator is 1; quadratic groups are."""
    return isinstance(group, QuadraticIrrationalGroup) or group.generators[0] == 1


def scale_unit(group: CyclicOrderedGroup, x: "Rational") -> int:
    """The image of a rational x under the order isomorphism sending
    Q(max_supernatural(group)) onto the rational subgroup of the unit;
    concretely x * unit, an integer whenever x is admissible.

    Only available for the full nonnegative cone, where the group is a
    dimension group and the isomorphism is valid.
    """
    if not isinstance(group, CyclicOrderedGroup) or not is_unperforated(group):
        raise ValueError("unsupported: the unit-scaling map needs the full nonnegative cone")
    from .rational import Rational
    x = Rational(x)
    # every divisor of the unit divides it in the full cone, so Q(max
    # supernatural) holds x exactly when x * unit is an integer, that is
    # when x's denominator divides the unit
    if group.unit % x.denominator:
        raise ValueError("%s lies outside the rational group of the unit" % (x,))
    return x.numerator * (group.unit // x.denominator)


def representable_with_denominator(m: int, q: int, p: int) -> bool:
    """Whether the reduced ratio q/m can be rewritten with denominator
    dividing p, i.e. whether p*q/m is an integer.

    With (m, q) a rational-subgroup witness for g, this decides whether
    g is the image of some fraction with denominator p under the
    unit-scaling map.
    """
    if m < 1 or p < 1:
        raise ValueError("m and p must be positive integers")
    return (p * q) % m == 0
