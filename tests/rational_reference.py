"""Test references for the integer-summed series in `exactnum`, `hypergeom`,
`formulas` and `lgv`, and for the shared Z[w3]/Z[w6] arithmetic.

These are the former Fraction-per-term forms: the shifted factorial and the
binomial multiply one Fraction factor at a time, and a ratio of shifted
factorials one Fraction symbol at a time; the terminating series,
the Gessel-Stanton 5F4 sum and the Watson multiple sum update a Fraction
term per index and add it to a Fraction total; the classical identities
take Fraction parameters and form each derived parameter, and each side,
by Fraction arithmetic; omega*I + B adds a binomial
to each entry by ring arithmetic, and Z_n and its two half-size blocks
accumulate each entry one Fraction term at a time.  The cyclotomic multiply,
conjugate and norm are written out per ring, and det(I + B(a, m)) by parity
branch.  The other Pochhammer closed forms (det(wI + B) for the third and
sixth roots, lemma_rhs, the Watson sides and their lower parameters,
Watson's 3F2 and the factorial prefactor of cored_det_transform) form
every base by Fraction arithmetic and multiply the symbols one Fraction at
a time; lemma_rhs multiplies its hyperfactorials out.
The package's forms must agree with them in value, in return type and in
the exception they raise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from cored_hexagons.exactnum import (
    SIXTH,
    THIRD,
    TRACE,
    CycloElement,
    Number,
    double_factorial_odd,
    frac,
)
from cored_hexagons.formulas import W1, W2, W3, WATSON_VARIANTS, FormulaDomainError
from cored_hexagons.hypergeom import (
    CHU_VANDERMONDE,
    GESSEL_STANTON_5F4,
    PFAFF_SAALSCHUETZ,
    THOMAE,
    NonTerminatingError,
    PochhammerZeroError,
)
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


def hyper(upper, lower, argument: Number = 1) -> Fraction:
    upper = tuple(frac(u) for u in upper)
    lower = tuple(frac(l) for l in lower)
    argument = frac(argument)
    stops = [int(-u) for u in upper if u == int(u) and u <= 0]
    if not stops:
        raise NonTerminatingError(f"no nonpositive-integer upper parameter in {upper}")
    n = min(stops)
    total = Fraction(0)
    term = Fraction(1)
    for k in range(n + 1):
        total += term
        if k == n:
            break
        for u in upper:
            term *= u + k
        for l in lower:
            if l + k == 0:
                raise PochhammerZeroError(l, k + 1)
            term /= l + k
        term = term * argument / (k + 1)
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


def check_lower_poles(lower, n: int) -> None:
    """The first pole of a term-by-term sum over k = 0..n: the smallest j
    at which some (l)_j vanishes, and the first such l."""
    poles = [
        (1 - low.numerator, i)
        for i, low in enumerate(lower)
        if low.denominator == 1 and 1 - n <= low.numerator <= 0
    ]
    if poles:
        j, i = min(poles)
        raise PochhammerZeroError(lower[i], j)


def identity_pair(identity: str, params) -> tuple[Fraction, Fraction]:
    """Both sides of a classical identity from Fraction parameters, n a
    nonnegative int last: each derived parameter is a Fraction, each side a
    call to the reference `hyper`, `gessel_stanton_lhs` or
    `pochhammer_ratio`, and Thomae's right side a product of two Fractions."""
    *params, n = [frac(p) for p in params]
    n = int(n)
    if identity == CHU_VANDERMONDE:
        A, C = params
        check_lower_poles([C], n)
        return hyper([A, -n], [C]), pochhammer_ratio([(C - A, n)], [(C, n)])
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
        lhs = gessel_stanton_lhs(A, F, n)
        rhs = pochhammer_ratio([(1 + A, 2 * n)], [(1 + A - F, 2 * n)])
        return lhs, rhs
    raise ValueError(f"unknown identity {identity!r}")


# per identity, the number of rational parameters before the integer n
IDENTITY_RATIONALS = {
    CHU_VANDERMONDE: 2,
    PFAFF_SAALSCHUETZ: 3,
    THOMAE: 4,
    GESSEL_STANTON_5F4: 2,
}


def rational(rng, max_num: int, max_den: int) -> Number:
    """A numerator in -max_num..max_num as an int (a sixth of the draws), an
    integral Fraction (a sixth) or over a denominator up to max_den."""
    num, pick = rng.randint(-max_num, max_num), rng.random()
    if pick < 1 / 6:
        return num
    if pick < 1 / 3:
        return Fraction(num)
    return Fraction(num, rng.randint(1, max_den))


def identity_draw(rng, identity, max_n: int, max_den: int) -> list:
    """Seeded parameters for `identity_pair`: rationals with numerators in
    -3 max_n..3 max_n and denominators up to max_den, a third of them
    integers (ints or integral Fractions), so that lower poles and negative
    integer A turn up; then n in 0..max_n."""
    rationals = [rational(rng, 3 * max_n, max_den) for _ in range(IDENTITY_RATIONALS[identity])]
    return rationals + [rng.randint(0, max_n)]


def watson_lower_params(variant: str, a: int, M: int, B: Fraction, C: Fraction):
    if variant == W1:
        return Fraction(a - M, 2) + C / 2, 2 * B + a - 1
    if variant == W2:
        return Fraction(a - M, 2) + C / 2 + Fraction(1, 2), 2 * B + a - 2
    if variant == W3:
        return Fraction(a - M, 2) + C / 2, 2 * B + a - 2
    raise FormulaDomainError(f"unknown variant {variant!r}")


def watson_lhs(variant: str, a: int, M: int, B: Number, C: Number) -> Fraction:
    B, C = frac(B), frac(C)
    low1, low2 = watson_lower_params(variant, a, M, B, C)
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
    ring = RING_INTEGER if x.denominator == mu.denominator == 1 else RING_RATIONAL
    return matrix_of(rows, ring)


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


def watson_rhs(variant: str, a: int, M: int, B: Number, C: Number) -> Fraction:
    """One expression for every variant and parity, with Fraction bases."""
    if a < 0:
        raise FormulaDomainError(f"the number a of summation indices must be nonnegative, got {a}")
    B, C = frac(B), frac(C)
    if M < a or variant == W1 and a % 2 == M % 2 == 1:
        return Fraction(0)
    e, f = watson_lower_params(variant, a, M, B, C)
    sigma, tau = int(variant == W2), int(variant != W1)
    u = M - a
    phi, eta, odd_u = (u + sigma) % 2, (a + tau) % 2, u % 2
    g = B - C / 2 - tau + Fraction(sigma, 2)
    ups = [((-1) ** (a // 2 + a * ((u - sigma) // 2 + 1)), 1)] + [(1, M)] * a
    downs = [(2 ** (a * (M + 1 - a)), 1)] + [(e, (u - sigma + 1) // 2)] * a
    for j in range(1, a + 1):
        k = j + tau - sigma
        low = (k - odd_u) // 2
        ups += [(B, j - 1), (1, (j - 1) // 2), (C / 2 + Fraction(1 - phi, 2), (j - 1 + phi) // 2)]
        ups.append((g + low + Fraction(odd_u, 2), (k + 1) // 2 - low + u // 2))
        downs += [(1, (M - j + 1) // 2), (f / 2 + Fraction(1 - eta, 2), (j - 1 + eta) // 2)]
        downs.append((f / 2 + Fraction(eta, 2), (M + 2 - eta - j) // 2))
        if (a + j + sigma) % 2:
            downs.append(((C + M - j + 1) / 2, j))
    return pochhammer_ratio(ups, downs)


def watson_3f2_closed(M: int, B: Number, C: Number) -> Fraction:
    B, C = frac(B), frac(C)
    if M % 2 == 1:
        return Fraction(0)
    half = M // 2
    return pochhammer_ratio(
        [(Fraction(1 - M, 2), half), (Fraction(1, 2) - C / 2 + B, half)],
        [(Fraction(1, 2) + B, half), (Fraction(1 - M, 2) + C / 2, half)],
    )


def cored_det_prefactor(a: int, b: int, c: int, m: int, shifted: bool = False) -> Fraction:
    """The factorial prefactor of `lgv.cored_det_transform`, for
    nonnegative a and m; the arguments that the cored matrix at epsilon =
    shifted/2 refuses raise its error."""
    h = int(shifted)
    lgv.build_cored_matrix(a, b, c, m, Fraction(h, 2))
    ups = [(1, b + c + m)] * a + [(1, (b + c) // 2)] * m
    downs = [(1, n) for i in range(1, a + 1) for n in (b + a + m - i, c + m + i - 1)]
    for r in range(1, m + 1):
        downs += [(1, (b + a + h) // 2 + m - r), (1, (c + a - h) // 2 + r - 1)]
    return pochhammer_ratio(ups, downs)


def check_order(a: int) -> None:
    if a < 0:
        raise FormulaDomainError(f"the order a of B(a, m) must be nonnegative, got {a}")


def double_factorials(a: int) -> int:
    return math.prod(double_factorial_odd(j // 2) for j in range(1, a + 1))


# per root: rows (k, x0, with_a, d) of the symbols
# (m/2 + k i + x0 + with_a a)_{floor((a - 4i - d)/2)}, 4i <= a
OM_TABLES = {
    THIRD: ((3, 1, 0, 0), (3, 3, 0, 3), (-1, Fraction(1, 2), 1, 1), (-1, Fraction(-1, 2), 1, 2)),
    SIXTH: ((3, Fraction(3, 2), 0, 1), (3, Fraction(5, 2), 0, 2), (-1, 0, 1, 0), (-1, 0, 1, 3)),
}


def om_rhs(a: int, m: Number, ring: str) -> CycloElement:
    """det(wI + B(a, m)) for w the root (0, 1) of the ring: (1 + w)^a
    multiplied out and divided by (2 + t)^floor(a/2), times the rational
    Pochhammer product."""
    check_order(a)
    m2 = frac(m) / 2
    ups = [
        (m2 + k * i + x0 + with_a * a, max(0, (a - 4 * i - d) // 2))
        for i in range(a // 4 + 1)
        for k, x0, with_a, d in OM_TABLES[ring]
    ]
    rational = pochhammer_ratio([(2 ** (a // 2), 1), *ups], [(double_factorials(a), 1)])
    unit, one_plus_w = CycloElement.of(ring, 1), CycloElement.of(ring, 1, 1)
    for _ in range(a):
        unit = cyclo_mul(unit, one_plus_w)
    scale = rational / (2 + TRACE[ring]) ** (a // 2)
    return CycloElement.of(ring, unit.c0 * scale, unit.c1 * scale)


def om3_rhs(a: int, m: Number) -> CycloElement:
    return om_rhs(a, m, THIRD)


def om6_rhs(a: int, m: Number) -> CycloElement:
    return om_rhs(a, m, SIXTH)


def hyperfactorial(n: int) -> int:
    return math.prod(math.factorial(i) for i in range(n))


def lemma_rhs(a: int, b: Number, c: Number, m: int, shifted: bool = False) -> Fraction:
    """The transformed-determinant value with Fraction bases and a Fraction
    product over the linear factors in s = b + c."""
    if a < 0 or m < 0:
        raise FormulaDomainError(f"a and m must be nonnegative, got a={a}, m={m}")
    if not shifted and a % 2 == m % 2 == 1:
        return Fraction(0)
    b, c = frac(b), frac(c)
    theta = (a + shifted) % 2
    ell = a // 2 if shifted else (a + 1) // 2
    ups = [
        ((x - theta) / 2 + (j + 1) // 2, ell) if j % 2 else ((x + theta) / 2 + j // 2, a - ell)
        for x in (b, c)
        for j in range(1, m + 1)
    ]
    h = hyperfactorial
    prefactor = Fraction(
        h(a + m) * h((a + 1) // 2) * h(a // 2) * h((m + 1) // 2) * h(m // 2),
        h((a + m + 1) // 2) * h((a + m) // 2),
    )
    value = prefactor * pochhammer_ratio(ups, [(2 ** ((m * (a + m - 1) + 1) // 2), 1)])
    s = b + c
    for j in range(m % 2, a, 2):
        value *= (s + m + 1 + j) ** (a - 1 - j)
    for k in range(1, a // 2 + 1):
        value *= (s + 2 * m + 2 * k) ** (a - 2 * k)
    for k in range(1, m + 1):
        value *= (s + 2 * k) ** (m - k + (a if 2 * k > m else 0))
    if m % 2:
        value *= (-1) ** ((a + 1) // 2)
    return value


def andrews_rhs(a: int, m: Number) -> Fraction:
    check_order(a)
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


def closed_form_draws(rng, samples: int, max_a: int, max_den: int, watson_a: int, max_M: int,
                      max_lemma: int):
    """Seeded (name, args) cases for the Pochhammer closed forms, `samples`
    per name: det(wI + B) at a <= max_a with rational m (denominators up
    to max_den, negative ones among them); both Watson sides and the 3F2 at
    a <= watson_a and M <= max_M, B and C integral a third of the time, so
    that poles turn up; lemma_rhs at a, m <= max_lemma with rational b and
    c, both placements; the prefactor of cored_det_transform on admissible
    sides.  Negative a, m and M are drawn too, for the domain errors."""
    for _ in range(samples):
        a, m = rng.randint(-1, max_a), rational(rng, 3 * max_a + 3, max_den)
        for name in ("andrews_rhs", "om3_rhs", "om6_rhs"):
            yield name, (a, m)
        M = rng.randint(-1, max_M)
        B, C = (rational(rng, 2 * max_M, max_den) for _ in range(2))
        args = (rng.choice(WATSON_VARIANTS), rng.randint(-1, watson_a), M, B, C)
        yield "watson_lhs", args
        yield "watson_rhs", args
        yield "watson_3f2_closed", (M, B, C)
        a, m = rng.randint(-1, max_lemma), rng.randint(-1, max_lemma)
        b, c = (rational(rng, 3 * max_lemma + 3, max_den) for _ in range(2))
        yield "lemma_rhs", (a, b, c, m, rng.random() < 0.5)
        b, c = rng.randint(0, 6), rng.randint(0, 3)
        args = (rng.randint(0, 4), b, b % 2 + 2 * c, rng.randint(0, 4), rng.random() < 0.5)
        yield "cored_det_prefactor", args
