"""Terminating hypergeometric series and the classical summation identities.

`hyper(upper, lower, argument)` is the one entry point for a series pFq:
it stops at the smallest nonpositive-integer upper parameter -n and sums
sum_{k=0}^n t_k by its term ratio r_k = t_{k+1}/t_k, inside out (Horner
form): 1 + r_0 (1 + r_1 (1 + ... (1 + r_{n-1}))).  Each r_k is a quotient
of two integers built from the integer numerators and denominators of the
parameters, so the whole sum runs on ints and is normalised once, into the
one Fraction returned.

A parameter is carried as an integer pair (numerator, positive
denominator), not necessarily reduced, from the input on: `identity_pair`
forms C - A, 1 + A + B - C - n, the slope 3/A and the other derived
parameters as pairs, and the pole check, the Horner sum and the Pochhammer
side (`pochhammer_pair`) run on them.  Each side becomes a Fraction once,
when it is returned; otherwise one is built only to name a pole or a
vanishing symbol in an exception.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import Number, binomial, frac, pochhammer_pair


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
    (l)_j over the lower parameters l = (numerator, denominator) vanishes,
    naming the first such l as a Fraction: the error a term-by-term sum over
    k = 0..n meets first.  (l)_j = 0 from j = 1 - l on for a nonpositive
    integer l."""
    poles = [
        (1 - p // d, i) for i, (p, d) in enumerate(lower) if p % d == 0 and (1 - n) * d <= p <= 0
    ]
    if poles:
        j, i = min(poles)
        raise PochhammerZeroError(Fraction(*lower[i]), j)


def _ratio_sum(upper, lower, argument, n: int, slope=(0, 1)) -> tuple[int, int]:
    """sum_{k=0}^n t_k (1 + slope*k) as a pair, with t_0 = 1 and
    t_{k+1}/t_k = prod(u + k) * argument / ((k + 1) prod(l + k)), summed
    inside out on integers; every parameter is a pair, and no (l + k) with
    k < n may vanish (check_lower_poles)."""
    # r_k = scale_num * prod(un + k ud) / (scale_den * (k + 1) * prod(ln + k ld))
    scale_num, scale_den = argument
    for _, d in upper:
        scale_den *= d
    for _, d in lower:
        scale_num *= d
    # the weights 1 + slope*k are (sd + sn k) / sd; the sum is carried as
    # num / den times sd
    sn, sd = slope
    num, den = sd + sn * n, 1
    for k in range(n - 1, -1, -1):
        p, q = scale_num, scale_den * (k + 1)
        for un, ud in upper:
            p *= un + k * ud
        for ln, ld in lower:
            q *= ln + k * ld
        num, den = (sd + sn * k) * q * den + p * num, q * den
    return num, den * sd


def hyper(upper, lower, argument: Number = 1) -> Fraction:
    """Exact finite sum sum_k prod(upper)_k / (k! prod(lower)_k) z^k, up to
    the smallest n with -n among the upper parameters."""
    upper, lower = tuple(frac(u) for u in upper), tuple(frac(l) for l in lower)
    indices = [-u.numerator for u in upper if u.denominator == 1 and u.numerator <= 0]
    if not indices:
        raise NonTerminatingError(f"no nonpositive-integer upper parameter in {upper}")
    n, argument = min(indices), frac(argument)
    lower = [(l.numerator, l.denominator) for l in lower]
    check_lower_poles(lower, n)
    upper = [(u.numerator, u.denominator) for u in upper]
    return Fraction(*_ratio_sum(upper, lower, (argument.numerator, argument.denominator), n))


CHU_VANDERMONDE = "chu_vandermonde"
PFAFF_SAALSCHUETZ = "pfaff_saalschuetz"
THOMAE = "thomae"
GESSEL_STANTON_5F4 = "gessel_stanton_5f4"

IDENTITY_IDS = (CHU_VANDERMONDE, PFAFF_SAALSCHUETZ, THOMAE, GESSEL_STANTON_5F4)


def identity_pair(identity: str, params) -> tuple[Fraction, Fraction]:
    """Evaluate both sides of a named classical identity, exactly.

    Parameter layouts, n a nonnegative integer:
      chu_vandermonde     (A, C, n):       2F1[A, -n; C; 1]
      pfaff_saalschuetz   (A, B, C, n):    3F2[A, B, -n; C, 1+A+B-C-n; 1]
      thomae              (A, B, D, E, n): 3F2[A, B, -n; D, E; 1] vs transformed 3F2
      gessel_stanton_5f4  (A, F, n):       the quadratic-argument 5F4 at z=4

    A lower parameter with a pole in 0..n is rejected even where an upper one
    truncates the sum earlier: such 0/0 terms poison the identity.  Every
    series is summed to n; past an earlier truncation its terms are 0.
    """
    *params, (n, nd) = [(p.numerator, p.denominator) for p in map(frac, params)]
    if nd != 1 or n < 0:
        raise ValueError(f"n must be a nonnegative integer, not {Fraction(n, nd)}")
    one = (1, 1)
    if identity == CHU_VANDERMONDE:
        (a, ad), C = params
        c, cd = C
        check_lower_poles([C], n)
        lhs = _ratio_sum([(a, ad), (-n, 1)], [C], one, n)
        rhs = pochhammer_pair([(c * ad - a * cd, ad * cd, n)], [(c, cd, n)])
    elif identity == PFAFF_SAALSCHUETZ:
        (a, ad), (b, bd), C = params
        c, cd = C
        den = ad * bd * cd
        # 1 + A + B - C - n, and below C - A - B = (1 - n) - (1 + A + B - C - n)
        lower = [C, ((1 - n) * den + a * bd * cd + b * ad * cd - c * ad * bd, den)]
        check_lower_poles(lower, n)
        lhs = _ratio_sum([(a, ad), (b, bd), (-n, 1)], lower, one, n)
        ups = [(c * ad - a * cd, ad * cd, n), (c * bd - b * cd, bd * cd, n)]
        rhs = pochhammer_pair(ups, [(c, cd, n), ((1 - n) * den - lower[1][0], den, n)])
    elif identity == THOMAE:
        (a, ad), (b, bd), D, E = params
        (d, dd), (e, ed) = D, E
        G = ((1 - n) * bd * ed + b * ed - e * bd, bd * ed)  # 1 + B - E - n
        check_lower_poles([D, E, G], n)
        lhs = _ratio_sum([(a, ad), (b, bd), (-n, 1)], [D, E], one, n)
        p, q = pochhammer_pair([(e * bd - b * ed, bd * ed, n)], [(e, ed, n)])
        s, t = _ratio_sum([(-n, 1), (b, bd), (d * ad - a * dd, ad * dd)], [D, G], one, n)
        rhs = (p * s, q * t)
    elif identity == GESSEL_STANTON_5F4:
        (a, ad), (f, fd) = params
        if a == 0:
            raise PochhammerZeroError(Fraction(0), 0)
        den = ad * fd
        g = f * ad - a * fd  # F - A over den
        # 1 + A - F, -A + F - 2n, 1 + A + 2n
        lower = [(den - g, den), (g - 2 * n * den, den), ((2 * n + 1) * ad + a, ad)]
        check_lower_poles(lower, n)
        # A, F/2, 1/2 + A - F/2 + n, -n.  The 5F4's very-well-poised pair
        # (A, 1+A/3) over (A/3) is the weight (A+3k)/A = 1 + (3/A) k, finite
        # for negative integer A where the split form has 0/0 terms: there
        # the vanishing claim is an ordinary sum.
        upper = [(a, ad), (f, 2 * fd), ((2 * n + 1) * den + a * fd - g, 2 * den), (-n, 1)]
        slope = (3 * ad, a) if a > 0 else (-3 * ad, -a)
        lhs = _ratio_sum(upper, lower, (4, 1), n, slope)
        rhs = pochhammer_pair([(ad + a, ad, 2 * n)], [(*lower[0], 2 * n)])
    else:
        raise ValueError(f"unknown identity {identity!r}")
    return Fraction(*lhs), Fraction(*rhs)


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
