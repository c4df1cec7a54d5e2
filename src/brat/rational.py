"""brat's exact rational value, `Rational`, and its one text grammar.

On every Python, `Rational(text)` reads the strings that Python 3.13's
`fractions.Fraction` accepts, with its error messages: an optional sign,
then `p/q` with optional spaces around the `/`, or a decimal with an
optional point and an optional exponent (`e` or `E`); each run of digits
may hold single underscores between digits, and spaces may surround the
whole.  The parser splits the text with str methods and compiles nothing.
A decimal with a nonzero mantissa and an exponent, whose digits plus the
exponent's magnitude pass Python's int-to-str digit limit, raises
LimitError before the power is built; with no limit (0) it is built."""

import math
import sys

from ._record import LimitError, Record, clipped, max_digits


def _digits(text: str) -> bool:
    # decimal digits with single underscores between them, as `\d+(_\d+)*`
    return all(map(str.isdecimal, text.split("_")))


def _terms(text: str) -> tuple[int, int]:
    """The (numerator, denominator) that `text` spells, not reduced."""
    body = text.strip()
    sign, body = (body[0], body[1:]) if body[:1] in ("+", "-") else ("+", body)
    top, slash, bottom = body.partition("/")
    if slash:
        top, bottom = top.rstrip(), bottom.lstrip()
        valid = _digits(top) and _digits(bottom)
    else:
        mantissa, e, exponent = body.replace("E", "e").partition("e")
        top, _, fraction = mantissa.partition(".")
        valid = ((_digits(top) if top else fraction[:1].isdecimal())  # a digit, or a point and a digit
                 and (not fraction or _digits(fraction))
                 and (not e or _digits(exponent[1:] if exponent[:1] in ("+", "-") else exponent)))
    if not valid:
        raise ValueError("Invalid literal for Fraction: %r" % (text,))
    n = int(top or "0")
    if slash:
        d = int(bottom)
    else:
        fraction = fraction.replace("_", "")
        d = 10 ** len(fraction)
        n = n * d + int(fraction or "0")
        power = int(exponent or "0")
        size = len(top.replace("_", "")) + len(fraction) + abs(power)  # digits plus the exponent's magnitude
        if n and e and 0 < max_digits() < size:  # refused before the power is built
            raise LimitError("the rational %s counts %d digits with its exponent, more than Python's int-to-str "
                             "limit of %d (sys.get_int_max_str_digits)" % (clipped(text), size, max_digits()))
        if n:  # a zero mantissa spells 0 whatever its exponent
            n, d = (n * 10 ** power, d) if power >= 0 else (n, d * 10 ** -power)
    return (-n if sign == "-" else n), d


class Rational(Record):
    """numerator/denominator in lowest terms, the denominator positive.

    Each term is an int, a Fraction or a Rational, read through `.numerator`
    and `.denominator`; `numerator` may be text instead.  A Rational prints,
    equals and hashes as the Fraction of its value, and does no arithmetic:
    brat computes with its integer terms."""

    numerator: int
    denominator: int = 1

    def __post_init__(self):
        top, bottom = self.numerator, self.denominator
        try:
            n, d = _terms(top) if isinstance(top, str) else (top.numerator, top.denominator)
            n, d = n * bottom.denominator, d * bottom.numerator
        except AttributeError:
            raise TypeError("a rational's terms are integers or rationals, got %s and %s"
                            % (clipped(top), clipped(bottom))) from None
        if d == 0:
            raise ZeroDivisionError("Fraction(%s, 0)" % n)
        g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
        object.__setattr__(self, "numerator", n // g)
        object.__setattr__(self, "denominator", d // g)

    def __eq__(self, other):
        try:
            return self.numerator == other.numerator and self.denominator == other.denominator
        except AttributeError:
            return NotImplemented

    def __hash__(self):
        # Python's numeric hash, which int and Fraction share: |n| / d modulo
        # the hash prime, infinite when that prime divides d
        n, d, prime = self.numerator, self.denominator, sys.hash_info.modulus
        h = hash(hash(abs(n)) * pow(d, -1, prime)) if d % prime else sys.hash_info.inf
        h = h if n >= 0 else -h
        return -2 if h == -1 else h

    def __str__(self):
        return str(self.numerator) if self.denominator == 1 else "%d/%d" % (self.numerator, self.denominator)
