"""Terminating hypergeometric series and the classical summation identities.

`hyper(upper, lower, argument)` is the one entry point for a series pFq:
it stops at the smallest nonpositive-integer upper parameter -n and sums
sum_{k=0}^n t_k by its term ratio r_k = t_{k+1}/t_k, inside out (Horner
form): 1 + r_0 (1 + r_1 (1 + ... (1 + r_{n-1}))).  Each r_k is a quotient
of two integers built from the integer numerators and denominators of the
parameters, so the whole sum runs on ints and is normalised once, into the
one Fraction returned.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import Number, binomial, frac, pochhammer_ratio


class NonTerminatingError(ValueError):
    pass


class PochhammerZeroError(ValueError):
    """A lower-parameter Pochhammer vanished inside the terminating range."""

    def __init__(self, parameter: Fraction, index: int):
        self.parameter = parameter
        self.index = index
        super().__init__(
            f"lower parameter {parameter} hits zero at term k={index}"
        )


def check_lower_poles(lower, n: int) -> None:
    """Raise PochhammerZeroError(l, j) for the smallest j <= n at which some
    (l)_j over the lower parameters l vanishes, naming the first such l:
    the error a term-by-term sum over k = 0..n meets first.  (l)_j = 0 from
    j = 1 - l on for a nonpositive integer l."""
    poles = [
        (1 - low.numerator, i)
        for i, low in enumerate(lower)
        if low.denominator == 1 and 1 - n <= low.numerator <= 0
    ]
    if poles:
        j, i = min(poles)
        raise PochhammerZeroError(lower[i], j)


def _ratio_sum(upper, lower, argument, n: int, slope: Fraction = Fraction(0)) -> Fraction:
    """sum_{k=0}^n t_k (1 + slope*k) with t_0 = 1 and
    t_{k+1}/t_k = prod(u + k) * argument / ((k + 1) prod(l + k)), summed
    inside out on integers, after check_lower_poles."""
    check_lower_poles(lower, n)
    # r_k = scale_num * prod(un + k ud) / (scale_den * (k + 1) * prod(ln + k ld))
    scale_num, scale_den = argument.numerator, argument.denominator
    for u in upper:
        scale_den *= u.denominator
    for low in lower:
        scale_num *= low.denominator
    # the weights 1 + slope*k are (sd + sn k) / sd; the sum is carried as
    # num / den times sd
    sn, sd = slope.numerator, slope.denominator
    num, den = sd + sn * n, 1
    for k in range(n - 1, -1, -1):
        p, q = scale_num, scale_den * (k + 1)
        for u in upper:
            p *= u.numerator + k * u.denominator
        for low in lower:
            q *= low.numerator + k * low.denominator
        num, den = (sd + sn * k) * q * den + p * num, q * den
    return Fraction(num, den * sd)


def hyper(upper, lower, argument: Number = 1) -> Fraction:
    """Exact finite sum sum_k prod(upper)_k / (k! prod(lower)_k) z^k, up to
    the smallest n with -n among the upper parameters."""
    upper, lower = tuple(frac(u) for u in upper), tuple(frac(l) for l in lower)
    indices = [-u.numerator for u in upper if u.denominator == 1 and u <= 0]
    if not indices:
        raise NonTerminatingError(f"no nonpositive-integer upper parameter in {upper}")
    return _ratio_sum(upper, lower, frac(argument), min(indices))


CHU_VANDERMONDE = "chu_vandermonde"
PFAFF_SAALSCHUETZ = "pfaff_saalschuetz"
THOMAE = "thomae"
GESSEL_STANTON_5F4 = "gessel_stanton_5f4"

IDENTITY_IDS = (CHU_VANDERMONDE, PFAFF_SAALSCHUETZ, THOMAE, GESSEL_STANTON_5F4)


def _gessel_stanton_lhs(A: Fraction, F: Fraction, n: int) -> Fraction:
    """The 5F4 side of the Gessel-Stanton identity, for A != 0.

    The pair of parameters (A, 1+A/3) over (A/3) is the very-well-poised
    marker: their Pochhammer quotient is the factor (A+3k)/A = 1 + (3/A) k,
    which stays finite for negative integer A where the split form has 0/0
    terms.  Summing with that weight makes the vanishing claim for negative
    integer A an ordinary evaluation."""
    upper = (A, F / 2, Fraction(1, 2) + A - F / 2 + n, Fraction(-n))
    lower = (1 + A - F, -A + F - 2 * n, 1 + A + 2 * n)
    return _ratio_sum(upper, lower, Fraction(4), n, 3 / A)


def identity_pair(identity: str, params) -> tuple[Fraction, Fraction]:
    """Evaluate both sides of a named classical identity, exactly.

    Parameter layouts:
      chu_vandermonde     (A, C, n):       2F1[A, -n; C; 1]
      pfaff_saalschuetz   (A, B, C, n):    3F2[A, B, -n; C, 1+A+B-C-n; 1]
      thomae              (A, B, D, E, n): 3F2[A, B, -n; D, E; 1] vs transformed 3F2
      gessel_stanton_5f4  (A, F, n):       the quadratic-argument 5F4 at z=4

    A lower parameter with a pole in 0..n is rejected even where an upper one
    truncates the sum earlier: such 0/0 terms poison the identity.
    """
    *params, n = [frac(p) for p in params]
    n = int(n)
    if identity == CHU_VANDERMONDE:
        A, C = params
        check_lower_poles([C], n)
        lhs = hyper([A, -n], [C])
        rhs = pochhammer_ratio([(C - A, n)], [(C, n)])
        return lhs, rhs
    if identity == PFAFF_SAALSCHUETZ:
        A, B, C = params
        check_lower_poles([C, 1 + A + B - C - n], n)
        lhs = hyper([A, B, -n], [C, 1 + A + B - C - n])
        rhs = pochhammer_ratio([(C - A, n), (C - B, n)], [(C, n), (C - A - B, n)])
        return lhs, rhs
    if identity == THOMAE:
        A, B, D, E = params
        check_lower_poles([D, E, 1 + B - E - n], n)
        lhs = hyper([A, B, -n], [D, E])
        rhs = pochhammer_ratio([(E - B, n)], [(E, n)]) * hyper([-n, B, D - A], [D, 1 + B - E - n])
        return lhs, rhs
    if identity == GESSEL_STANTON_5F4:
        A, F = params
        if A == 0:
            raise PochhammerZeroError(A, 0)
        check_lower_poles([1 + A - F, -A + F - 2 * n, 1 + A + 2 * n], n)
        lhs = _gessel_stanton_lhs(A, F, n)
        rhs = pochhammer_ratio([(1 + A, 2 * n)], [(1 + A - F, 2 * n)])
        return lhs, rhs
    raise ValueError(f"unknown identity {identity!r}")


def qbinom_neg1(n: int, k: int) -> int:
    """The Gaussian binomial [n, k]_q evaluated at q = -1."""
    if k < 0 or k > n:
        return 0
    if n % 2 == 0 and k % 2 == 1:
        return 0
    return binomial(n // 2, k // 2)


def qbinom_neg1_by_product(n: int, k: int) -> int:
    """Independent evaluation: extract the z^k coefficient of the product
    (1+z)(1+qz)...(1+q^(n-1)z) at q = -1, then strip the q^binom(k,2) factor."""
    coeffs = [1]
    for i in range(n):
        q_i = (-1) ** i
        coeffs = [
            (coeffs[j] if j < len(coeffs) else 0)
            + q_i * (coeffs[j - 1] if j >= 1 else 0)
            for j in range(len(coeffs) + 1)
        ]
    if k >= len(coeffs):
        return 0
    sign = (-1) ** (k * (k - 1) // 2)
    return sign * coeffs[k]
