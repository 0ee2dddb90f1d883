"""Test references for the term-table evaluator in `formulas`.

`SqrtPiScaled` and `hyperfactorial` multiply hyperfactorials out directly,
tracking the power of sqrt(pi) exactly.  `legendre_exponents` is the
evaluator's former per-prime form: Legendre's formula in closed form per
prime power, over tables whose arguments are the halves x = t/2 of the
evaluator's doubled arguments.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from cored_hexagons.exactnum import Number, frac


@dataclass(frozen=True)
class SqrtPiScaled:
    """An exact value coefficient * pi**(half_pi_exponent/2).

    The exponent bookkeeping makes cancellation checkable: any quantity that
    is supposed to be rational must come out with half_pi_exponent == 0.
    """

    coefficient: Fraction
    half_pi_exponent: int

    @staticmethod
    def of(coefficient: Number, half_pi_exponent: int = 0) -> SqrtPiScaled:
        c = frac(coefficient)
        if c == 0:
            half_pi_exponent = 0
        return SqrtPiScaled(c, half_pi_exponent)

    def __mul__(self, other: SqrtPiScaled | Number) -> SqrtPiScaled:
        if isinstance(other, SqrtPiScaled):
            return SqrtPiScaled.of(
                self.coefficient * other.coefficient,
                self.half_pi_exponent + other.half_pi_exponent,
            )
        return SqrtPiScaled.of(self.coefficient * frac(other), self.half_pi_exponent)

    __rmul__ = __mul__

    def __truediv__(self, other: SqrtPiScaled | Number) -> SqrtPiScaled:
        if isinstance(other, SqrtPiScaled):
            if other.coefficient == 0:
                raise ZeroDivisionError("division by exact zero")
            return SqrtPiScaled.of(
                self.coefficient / other.coefficient,
                self.half_pi_exponent - other.half_pi_exponent,
            )
        return SqrtPiScaled.of(self.coefficient / frac(other), self.half_pi_exponent)

    def __rtruediv__(self, other: Number) -> SqrtPiScaled:
        return SqrtPiScaled.of(frac(other)) / self

    def __neg__(self) -> SqrtPiScaled:
        return SqrtPiScaled.of(-self.coefficient, self.half_pi_exponent)

    def __pow__(self, n: int) -> SqrtPiScaled:
        if self.coefficient == 0 and n < 0:
            raise ZeroDivisionError("division by exact zero")
        return SqrtPiScaled.of(self.coefficient**n, self.half_pi_exponent * n)

    @property
    def is_rational(self) -> bool:
        return self.half_pi_exponent == 0

    def to_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(
                f"value carries pi**({self.half_pi_exponent}/2); "
                "a sqrt(pi) leak indicates a transcription error"
            )
        return self.coefficient


def hyperfactorial(n: Number) -> SqrtPiScaled:
    """h(n) = prod_{k<n} k! for integer n; for half-integer n the product
    of Gamma(k+1/2), k = 0..n-1/2, tracked exactly with its sqrt(pi) power."""
    n = frac(n)
    if n < Fraction(-1, 2):
        raise ValueError(f"hyperfactorial of negative argument {n}")
    if n.denominator == 1:
        result = 1
        f = 1
        for k in range(1, int(n)):
            f *= k
            result *= f
        return SqrtPiScaled.of(result)
    if n.denominator != 2:
        raise ValueError(f"hyperfactorial argument {n} is neither integer nor half-integer")
    # Gamma(k+1/2) = (2k)! / (4^k k!) * sqrt(pi)
    count = int(n + Fraction(1, 2))
    coeff = Fraction(1)
    for k in range(count):
        coeff *= Fraction(math.factorial(2 * k), 4**k * math.factorial(k))
    return SqrtPiScaled.of(coeff, count)


def primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(2, n + 1) if sieve[p]]


def legendre_exponents(table) -> dict[int, int]:
    """The nonzero prime exponents of the product of h(x)**multiplicity
    over a table of (arguments x, multiplicity).

    Legendre's formula gives v_p(h(n)) = sum_{k<n} v_p(k!) in closed form
    per prime power q: sum_{k<n} floor(k/q) = q*t*(t-1)/2 + r*t with
    n = t*q + r.  A half-integer argument j - 1/2 enters through
    Gamma(k+1/2) = (2k)!/(4^k k!) sqrt(pi), where the product of (2k)! over
    k < j is the square root of h(2j)/(2j-1)!!.  sqrt(pi) is a pseudo-prime
    whose exponent must cancel."""
    # twice each exponent, as integer combinations of v_p(h(n)) and v_p(n!)
    hyper: Counter[int] = Counter()
    fact: Counter[int] = Counter()
    two = sqrt_pi = largest = 0
    for args, mult in table:
        for x in args:
            t = int(2 * x)
            if t < -1:
                raise ValueError(f"hyperfactorial of negative argument {frac(x)}")
            largest = max(largest, t)
            if t % 2 == 0:
                hyper[t // 2] += 2 * mult
                continue
            j = (t + 1) // 2
            hyper[2 * j] += mult
            hyper[j] -= 2 * mult
            fact[2 * j] -= mult
            fact[j] += mult
            two += mult * (j - 2 * j * (j - 1))
            sqrt_pi += mult * j
    if sqrt_pi:
        raise ValueError(
            f"value carries pi**({sqrt_pi}/2); "
            "a sqrt(pi) leak indicates a transcription error"
        )
    hyper_terms = sorted(((n, w) for n, w in hyper.items() if w), reverse=True)
    fact_terms = sorted(((n, w) for n, w in fact.items() if w), reverse=True)
    exponents = {}
    for p in primes_upto(largest + 1):
        twice = two if p == 2 else 0
        q = p
        # up to largest + 1: an odd largest t = 2j - 1 brings in (2j)!
        while q <= largest + 1:
            for n, w in hyper_terms:
                if n <= q:
                    break
                t, r = divmod(n, q)
                twice += w * (q * t * (t - 1) // 2 + r * t)
            for n, w in fact_terms:
                if n < q:
                    break
                twice += w * (n // q)
            q *= p
        if twice:
            exponents[p] = twice // 2
    return exponents
