"""Exact arithmetic building blocks.

Everything downstream (region counts, determinants, product formulas) is
computed over arbitrary-precision integers, rationals, or one of the two
cyclotomic rings Z[w] with w a primitive third or sixth root of unity.  No
floats live here.

Both rings are Z[tau], tau^2 = t*tau - 1 with t = `TRACE[ring]` (-1 for w3,
1 for w6).  This tau-rule is written out in `pair_mul`, `pair_conjugate` and
`pair_norm`, which `CycloElement`, `tilings` and `formulas` share; `lgv`'s
row step takes the conjugate and norm from here and writes the product out
inline, one factor's coordinates bound once per row.
`CycloElement` is the value type of results and closed forms: it adds,
subtracts, multiplies and takes norms, and has no division, power or ring
change.  Matrices and series work on integer coordinates instead: `binomial`
takes an integer top, and `lgv` writes a binomial with a rational top as an
integer over a common denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Number = Union[int, Fraction]

THIRD = "third"
SIXTH = "sixth"
TRACE = {THIRD: -1, SIXTH: 1}


def frac(x: Number) -> Fraction:
    """Coerce to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def double_factorial_odd(i: int) -> int:
    """(2i-1)!! = 1*3*5*...*(2i-1); the empty product for i = 0."""
    if i < 0:
        raise ValueError("negative double factorial index")
    return math.factorial(2 * i) // (2**i * math.factorial(i))


def stepped_product(start: Number, step: Number, k: int) -> Number:
    """start * (start + step) * ... * (start + (k-1)*step); 1 for k = 0."""
    result: Number = 1
    for i in range(k):
        result *= start + i * step
    return result


def binomial(top: int, bottom: int) -> int:
    """Generalized binomial coefficient via falling factorials.

    Valid for negative ``top``; ``bottom < 0`` gives 0, which is the
    convention that makes the lattice-path matrices vanish outside the
    admissible index range.
    """
    if bottom < 0:
        return 0
    if top >= 0:
        return math.comb(top, bottom)
    return stepped_product(top, -1, bottom) // math.factorial(bottom)


def pochhammer_pair(ups, downs=()) -> tuple[int, int]:
    """The product of the shifted factorials (x)_k = x (x+1) ... (x+k-1)
    over the symbols of ``ups`` over the product over ``downs``, each
    symbol (n/d)_k given as the integer triple (n, d, k), d > 0.  (n/d)_k
    is the integer n (n + d) ... (n + (k-1) d) over d^k, so the ratio is
    multiplied on ints and returned as an unreduced pair (num, den); an
    integer scalar x enters as (x, 1, 1) and a factorial n! as (1, 1, n).
    A negative k raises ValueError, and the first vanishing symbol in
    ``downs`` a ZeroDivisionError that names it."""
    num = den = 1
    for up, symbols in ((True, ups), (False, downs)):
        for n, d, k in symbols:
            if k < 0:
                raise ValueError(f"pochhammer with negative index {k}")
            top, bottom = stepped_product(n, d, k), d**k
            if not (up or top):
                raise ZeroDivisionError(f"({Fraction(n, d)})_{k} vanishes in a denominator")
            num, den = (num * top, den * bottom) if up else (num * bottom, den * top)
    return num, den


def pair_mul(t: int):
    """Multiplication of coordinate pairs (c0, c1) of c0 + c1*tau, with
    tau^2 = t*tau - 1; t is bound once, so a product costs no lookup."""

    def mul(x, y):
        a, b = x
        c, d = y
        bd = b * d
        return (a * c - bd, a * d + b * c + t * bd)

    return mul


def pair_conjugate(x, t: int) -> tuple:
    """tau -> t - tau: (c0 + t*c1) - c1*tau."""
    return (x[0] + t * x[1], -x[1])


def pair_norm(x, t: int):
    """x times its conjugate, c0^2 + t*c0*c1 + c1^2 (rational)."""
    a, b = x
    return a * a + t * a * b + b * b


_PAIR_MUL = {ring: pair_mul(t) for ring, t in TRACE.items()}


class RingMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class CycloElement:
    """c0 + c1*tau with tau a primitive third or sixth root of unity
    (tau^2 = t*tau - 1, t = TRACE[ring]).  Coordinates are rational because
    the closed-form determinant values multiply root-of-unity powers by
    rational products."""

    ring: str
    c0: Fraction
    c1: Fraction

    @staticmethod
    def of(ring: str, c0: Number, c1: Number = 0) -> CycloElement:
        if ring not in TRACE:
            raise ValueError(f"unknown cyclotomic ring {ring!r}")
        return CycloElement(ring, frac(c0), frac(c1))

    def _coerce(self, other: CycloElement | Number) -> CycloElement:
        if isinstance(other, CycloElement):
            if other.ring != self.ring:
                if other.c1 == 0:
                    return CycloElement.of(self.ring, other.c0)
                raise RingMismatchError(
                    f"cannot mix rings {self.ring!r} and {other.ring!r}"
                )
            return other
        return CycloElement.of(self.ring, other)

    def __add__(self, other: CycloElement | Number) -> CycloElement:
        o = self._coerce(other)
        return CycloElement.of(self.ring, self.c0 + o.c0, self.c1 + o.c1)

    __radd__ = __add__

    def __sub__(self, other: CycloElement | Number) -> CycloElement:
        o = self._coerce(other)
        return CycloElement.of(self.ring, self.c0 - o.c0, self.c1 - o.c1)

    def __rsub__(self, other: Number) -> CycloElement:
        return self._coerce(other) - self

    def __neg__(self) -> CycloElement:
        return CycloElement.of(self.ring, -self.c0, -self.c1)

    def __mul__(self, other: CycloElement | Number) -> CycloElement:
        o = self._coerce(other)
        c0, c1 = _PAIR_MUL[self.ring]((self.c0, self.c1), (o.c0, o.c1))
        return CycloElement.of(self.ring, c0, c1)

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        return pair_norm((self.c0, self.c1), TRACE[self.ring])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CycloElement):
            if self.ring == other.ring:
                return self.c0 == other.c0 and self.c1 == other.c1
            return self.c1 == 0 and other.c1 == 0 and self.c0 == other.c0
        if isinstance(other, (int, Fraction)):
            return self.c1 == 0 and self.c0 == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.c1 == 0:
            return hash(self.c0)
        return hash((self.ring, self.c0, self.c1))

    @property
    def is_rational(self) -> bool:
        return self.c1 == 0

    def __repr__(self) -> str:
        return f"CycloElement({self.ring!r}, {self.c0}, {self.c1})"


def omega3() -> CycloElement:
    """A primitive third root of unity."""
    return CycloElement.of(THIRD, 0, 1)


def omega6() -> CycloElement:
    """A primitive sixth root of unity."""
    return CycloElement.of(SIXTH, 0, 1)


def cyclo_to_dict(value: CycloElement) -> dict:
    return {
        "ring": value.ring,
        "c0": json_value(value.c0),
        "c1": json_value(value.c1),
    }


def _decimal(n: int) -> str:
    """str(n) for an int of any size.  CPython refuses str() on an int past
    its digit limit (4300 by default, 640 at least), so a long n is cut by
    divmod by a power of ten into halves that are converted alone."""
    if n.bit_length() <= 2000:
        # at most 603 digits
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    # about half of n's digits, log10(2) > 3/10
    k = n.bit_length() * 3 // 20
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def json_value(value) -> str | dict:
    """The JSON form of a value: a non-rational CycloElement as its ring and
    coordinates, anything else as its string (a Fraction as p/q, or plain
    when integral; a rational CycloElement as its rational part).  An int
    of any size is printed in full."""
    if isinstance(value, CycloElement):
        if not value.is_rational:
            return cyclo_to_dict(value)
        value = value.c0
    if isinstance(value, Fraction):
        if value.denominator != 1:
            return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"
        value = value.numerator
    return _decimal(value) if isinstance(value, int) else str(value)
