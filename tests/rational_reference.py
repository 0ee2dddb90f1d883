"""Test references for the integer-summed series in `exactnum`, `hypergeom`,
`formulas` and `lgv`, and for the shared Z[w3]/Z[w6] arithmetic.

These are the former Fraction-per-term forms: the shifted factorial and the
binomial multiply one Fraction factor at a time, and a ratio of shifted
factorials one Fraction symbol at a time; the terminating series,
the Gessel-Stanton 5F4 sum and the Watson multiple sum update a Fraction
term per index and add it to a Fraction total; omega*I + B adds a binomial
to each entry by ring arithmetic, and Z_n and its two half-size blocks
accumulate each entry one Fraction term at a time.  The cyclotomic multiply,
conjugate and norm are written out per ring, and det(I + B(a, m)) by parity
branch.
The package's forms must agree with them in value, in return type and in
the exception they raise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from cored_hexagons.exactnum import SIXTH, THIRD, CycloElement, Number, double_factorial_odd, frac
from cored_hexagons.formulas import _check_order, _watson_lower_params
from cored_hexagons.hypergeom import PochhammerZeroError, TerminatingSeries
from cored_hexagons import lgv
from cored_hexagons.lgv import RING_INTEGER, RING_RATIONAL, ExactMatrix
from text_formats import matrix_of


def binomial(top: Number, bottom: int) -> Number:
    if bottom < 0:
        return 0
    if isinstance(top, Fraction) and top.denominator == 1:
        top = int(top)
    num: Number = 1
    for i in range(bottom):
        num = num * (top - i)
    if isinstance(num, int):
        return num // math.factorial(bottom)
    return num / math.factorial(bottom)


def pochhammer(base: Number, k: int) -> Number:
    if k < 0:
        raise ValueError(f"pochhammer with negative index {k}")
    result: Number = 1
    for i in range(k):
        result = result * (base + i)
    return result


def pochhammer_ratio(ups, downs=()) -> Fraction:
    value = Fraction(1)
    for x, k in ups:
        value *= frac(pochhammer(x, k))
    for x, k in downs:
        symbol = frac(pochhammer(x, k))
        if symbol == 0:
            raise ZeroDivisionError(f"({x})_{k} vanishes in a denominator")
        value /= symbol
    return value


def eval_terminating(series: TerminatingSeries) -> Fraction:
    n = series.termination_index()
    total = Fraction(0)
    term = Fraction(1)
    for k in range(n + 1):
        total += term
        if k == n:
            break
        for u in series.upper:
            term *= u + k
        for l in series.lower:
            if l + k == 0:
                raise PochhammerZeroError(l, k + 1)
            term /= l + k
        term = term * series.argument / (k + 1)
    return total


def gessel_stanton_lhs(A: Fraction, F: Fraction, n: int) -> Fraction:
    """The very-well-poised 5F4 at z = 4, for A != 0 and lower parameters
    already checked clean over the first n terms."""
    lhs = Fraction(0)
    term = Fraction(1)
    for k in range(n + 1):
        lhs += term * (A + 3 * k) / A
        if k == n:
            break
        for u in (A, F / 2, Fraction(1, 2) + A - F / 2 + n, -n):
            term *= u + k
        for low in (1 + A - F, -A + F - 2 * n, 1 + A + 2 * n):
            term /= low + k
        term = term * 4 / (k + 1)
    return lhs


def watson_lhs(variant: str, a: int, M: int, B: Number, C: Number) -> Fraction:
    B, C = frac(B), frac(C)
    low1, low2 = _watson_lower_params(variant, a, M, B, C)
    factors = []
    for k in range(M + 1):
        num = frac(pochhammer(-M, k)) * frac(pochhammer(C, k)) * frac(pochhammer(B, k))
        for low in (low1, low2):
            for t in range(k):
                if low + t == 0:
                    raise PochhammerZeroError(low, k)
        den = (
            Fraction(math.factorial(k))
            * frac(pochhammer(low1, k))
            * frac(pochhammer(low2, k))
        )
        factors.append(num / den)
    total = Fraction(0)
    for ks in combinations(range(M + 1), a):
        vand = 1
        for i in range(a):
            for j in range(i + 1, a):
                vand *= (ks[i] - ks[j]) ** 2
        term = Fraction(vand)
        for k in ks:
            term *= factors[k]
        total += term
    return total


def build_omega_shift(N: int, m: Number, omega) -> ExactMatrix:
    zero = omega * 0
    rows = [
        [(omega if i == j else zero) + binomial(m + i + j, j) for j in range(N)] for i in range(N)
    ]
    if isinstance(omega, CycloElement):
        ring = omega.ring
    elif frac(omega).denominator == frac(m).denominator == 1:
        ring = RING_INTEGER
    else:
        ring = RING_RATIONAL
    return matrix_of(rows, ring)


def build_Zn(n: int, x: Number, mu: Number) -> ExactMatrix:
    x, mu = frac(x), frac(mu)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = Fraction(0)
            for t in range(n):
                bi = binomial(i + mu, t)
                if bi == 0:
                    continue
                for k in range(t, n):
                    bk = math.comb(k, t)
                    bj = binomial(j - k + mu - 1, j - k)
                    if bk and bj:
                        acc += bi * bk * bj * x ** (k - t)
            if i == j:
                acc -= 1
            row.append(acc)
        rows.append(row)
    return matrix_of(rows)


def zn_factor_pair(n: int, x: Number, mu: Number) -> tuple[Fraction, Fraction]:
    x, mu = frac(x), frac(mu)
    lhs = frac(lgv.det_fraction_free(lgv.build_Zn(n, x, mu)))
    if n % 2 == 1:
        return lhs, Fraction(0)
    half = n // 2
    first_rows = []
    second_rows = []
    for i in range(half):
        row1 = []
        row2 = []
        for j in range(half):
            acc1 = Fraction(0)
            acc2 = Fraction(0)
            for t in range(n):
                b1 = binomial(i + mu, t - i)
                if b1:
                    b2 = binomial(j + 1, t - j)
                    if b2:
                        acc1 += Fraction(t + 1, j + 1) * b1 * b2 * x ** (2 * j + 1 - t)
                b3 = binomial(i + mu + 1, t - i)
                if b3:
                    b4 = binomial(j, t - j)
                    if b4:
                        acc2 += (t + mu + 1) / (i + mu + 1) * b3 * b4 * x ** (2 * j - t)
            row1.append(acc1)
            row2.append(acc2)
        first_rows.append(row1)
        second_rows.append(row2)
    d1 = frac(lgv.det_fraction_free(matrix_of(first_rows)))
    d2 = frac(lgv.det_fraction_free(matrix_of(second_rows)))
    return lhs, (-1) ** half * d1 * d2


def cyclo_mul(x: CycloElement, y: CycloElement) -> CycloElement:
    """x * y for y already in the ring of x."""
    a, b, c, d = x.c0, x.c1, y.c0, y.c1
    if x.ring == THIRD:
        # tau^2 = -1 - tau
        return CycloElement.of(THIRD, a * c - b * d, a * d + b * c - b * d)
    # tau^2 = tau - 1
    return CycloElement.of(SIXTH, a * c - b * d, a * d + b * c + b * d)


def cyclo_conjugate(x: CycloElement) -> CycloElement:
    if x.ring == THIRD:
        # tau -> -1 - tau
        return CycloElement.of(THIRD, x.c0 - x.c1, -x.c1)
    # tau -> 1 - tau
    return CycloElement.of(SIXTH, x.c0 + x.c1, -x.c1)


def cyclo_norm(x: CycloElement) -> Fraction:
    product = cyclo_mul(x, cyclo_conjugate(x))
    assert product.c1 == 0, "norm must be rational"
    return product.c0


def andrews_rhs(a: int, m: Number) -> Fraction:
    _check_order(a)
    m2 = frac(m) / 2
    value = Fraction(2) ** ((a + 1) // 2)
    if a % 2 == 0:
        for i in range(1, a - 1):
            value *= frac(pochhammer(m2 + (i + 1) // 2 + 1, (i + 3) // 4))
        for i in range(1, a // 2 + 1):
            base = m2 + Fraction(3 * a, 2) - math.ceil(Fraction(3 * i, 2)) + Fraction(3, 2)
            value *= frac(pochhammer(base, (i + 1) // 2 - 1))
            value *= frac(pochhammer(base, (i + 1) // 2))
        for i in range(1, a // 2):
            value /= double_factorial_odd(i) * double_factorial_odd(i + 1)
    else:
        for i in range(1, a - 1):
            value *= frac(pochhammer(m2 + (i + 1) // 2 + 1, (i + 3) // 4))
        for i in range(1, (a - 1) // 2 + 1):
            value *= frac(
                pochhammer(m2 + Fraction(3 * a, 2) - math.ceil(Fraction(3 * i - 1, 2)) + 1, i // 2)
            )
            value *= frac(
                pochhammer(m2 + Fraction(3 * a, 2) - math.ceil(Fraction(3 * i, 2)), (i + 1) // 2)
            )
        for i in range(1, (a - 1) // 2 + 1):
            value /= double_factorial_odd(i) ** 2
    return value
