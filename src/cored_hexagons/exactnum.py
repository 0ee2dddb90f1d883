"""Exact arithmetic building blocks.

Everything downstream (region counts, determinants, product formulas) is
computed over arbitrary-precision integers, rationals, or one of the two
cyclotomic rings Z[w] with w a primitive third or sixth root of unity.  No
floats live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Fraction
Number = Union[int, Fraction]

THIRD = "third"
SIXTH = "sixth"


def frac(x: Number, denominator: int | None = None) -> Fraction:
    """Coerce to Fraction; with two arguments, the fraction x/denominator."""
    if denominator is not None:
        return Fraction(x, denominator)
    return x if isinstance(x, Fraction) else Fraction(x)


def is_integer(x: Number) -> bool:
    return isinstance(x, int) or x.denominator == 1


def double_factorial_odd(i: int) -> int:
    """(2i-1)!! = 1*3*5*...*(2i-1); the empty product for i = 0."""
    if i < 0:
        raise ValueError("negative double factorial index")
    return math.factorial(2 * i) // (2**i * math.factorial(i))


def _stepped_product(start: Number, step: Number, k: int) -> Number:
    """start * (start + step) * ... * (start + (k-1)*step); 1 for k = 0."""
    result: Number = 1
    for i in range(k):
        result *= start + i * step
    return result


def binomial(top: Number, bottom: int) -> Number:
    """Generalized binomial coefficient via falling factorials.

    Valid for negative and rational ``top``; ``bottom < 0`` gives 0, which is
    the convention that makes the lattice-path matrices vanish outside the
    admissible index range.  An integral ``top`` gives an int; a rational
    top n/d the Fraction n (n - d) ... (n - (bottom-1) d) / (d^bottom bottom!),
    built once.
    """
    if bottom < 0:
        return 0
    if isinstance(top, Fraction):
        n, d = top.numerator, top.denominator
        if d != 1:
            if bottom == 0:
                return 1
            return Fraction(_stepped_product(n, -d, bottom), d**bottom * math.factorial(bottom))
        top = n
    if top >= 0:
        return math.comb(top, bottom)
    return _stepped_product(top, -1, bottom) // math.factorial(bottom)


def pochhammer(base: Number, k: int) -> Number:
    """Shifted factorial (base)_k = base*(base+1)*...*(base+k-1); (base)_0 is
    the int 1.  A rational base n/d gives the Fraction
    n (n + d) ... (n + (k-1) d) / d^k, built once; an int base an int."""
    if k < 0:
        raise ValueError(f"pochhammer with negative index {k}")
    if isinstance(base, Fraction) and k:
        d = base.denominator
        return Fraction(_stepped_product(base.numerator, d, k), d**k)
    return _stepped_product(base, 1, k)


class RingMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class CycloElement:
    """c0 + c1*tau with tau a primitive third (tau^2 = -1-tau) or sixth
    (tau^2 = tau-1) root of unity.  Coordinates are rational because the
    closed-form determinant values multiply root-of-unity powers by
    rational products."""

    ring: str
    c0: Fraction
    c1: Fraction

    @staticmethod
    def of(ring: str, c0: Number, c1: Number = 0) -> CycloElement:
        if ring not in (THIRD, SIXTH):
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
        a, b, c, d = self.c0, self.c1, o.c0, o.c1
        if self.ring == THIRD:
            # tau^2 = -1 - tau
            return CycloElement.of(THIRD, a * c - b * d, a * d + b * c - b * d)
        # tau^2 = tau - 1
        return CycloElement.of(SIXTH, a * c - b * d, a * d + b * c + b * d)

    __rmul__ = __mul__

    def conjugate(self) -> CycloElement:
        if self.ring == THIRD:
            # tau -> -1 - tau
            return CycloElement.of(THIRD, self.c0 - self.c1, -self.c1)
        # tau -> 1 - tau
        return CycloElement.of(SIXTH, self.c0 + self.c1, -self.c1)

    def norm(self) -> Fraction:
        product = self * self.conjugate()
        assert product.c1 == 0, "norm must be rational"
        return product.c0

    def __pow__(self, n: int) -> CycloElement:
        if n < 0:
            raise ValueError(f"negative power {n}: CycloElement has no division")
        result = CycloElement.of(self.ring, 1)
        for _ in range(n):
            result = result * self
        return result

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

    def to_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.c0

    def to_ring(self, ring: str) -> CycloElement:
        """Rewrite in the other ring; Z[w3] and Z[w6] are the same set,
        linked by w6 = 1 + w3."""
        if ring == self.ring:
            return self
        if self.ring == THIRD and ring == SIXTH:
            # a + b*w3 = (a - b) + b*w6
            return CycloElement.of(SIXTH, self.c0 - self.c1, self.c1)
        if self.ring == SIXTH and ring == THIRD:
            # a + b*w6 = (a + b) + b*w3
            return CycloElement.of(THIRD, self.c0 + self.c1, self.c1)
        raise ValueError(f"unknown cyclotomic ring {ring!r}")

    def __repr__(self) -> str:
        return f"CycloElement({self.ring!r}, {self.c0}, {self.c1})"


def omega3() -> CycloElement:
    """A primitive third root of unity."""
    return CycloElement.of(THIRD, 0, 1)


def omega6() -> CycloElement:
    """A primitive sixth root of unity."""
    return CycloElement.of(SIXTH, 0, 1)


def value_to_str(value) -> str:
    """Decimal-string form used by the CLI: integers plain, rationals p/q."""
    if isinstance(value, CycloElement):
        if value.is_rational:
            value = value.c0
        else:
            raise ValueError("use cyclo_to_dict for non-rational cyclotomic values")
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def cyclo_to_dict(value: CycloElement) -> dict:
    return {
        "ring": value.ring,
        "c0": value_to_str(value.c0),
        "c1": value_to_str(value.c1),
    }
