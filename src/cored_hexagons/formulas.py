"""Closed-form evaluators: hyperfactorial product formulas for the tiling
counts, the four root-of-unity determinant evaluations, the orbit-count
factorization, the asymptotic constant, the off-center conjectures, and the
multiple-sum summation theorems.

The tiling counts, the box formula, the conjectures, det(-I + B) and the
prefactor of lemma_rhs are hyperfactorial term tables on doubled integer
arguments, t = 2x for h(x), evaluated by prime exponents: two running sums
over a difference array give one integer weight per n up to the table's
span, the largest n with h(n) or n! in it, and each prime's exponent is a
sum of slices of those weights over its powers; a leaked half power of pi
raises.  The asymptotic constant is a sum of prime logarithms whose
integer coefficients come from the same slices.  The other products
multiply Pochhammer symbols with rational bases: det(wI + B) for the third
and sixth roots is one loop over a per-root table of Pochhammer rows, and
the three Watson closed forms are one expression whose bases and lengths
take the parities of a and M as half-shifts, ceilings and floors.  Each
base is written from the numerators and denominators of m, b, c, B, C as
an integer triple (n, d, k) for (n/d)_k, such as m/2 + t/2 = (n + t d)/(2 d)
for m = n/d, and `exactnum.pochhammer_pair` multiplies the symbols, the
scalars and lemma_rhs's linear factors into one integer pair.  A result's
one Fraction (one per coordinate of a CycloElement) is formed as it returns.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, combinations

import mpmath

from .exactnum import (
    SIXTH,
    THIRD,
    TRACE,
    CycloElement,
    Number,
    double_factorial_odd,
    frac,
    pair_mul,
    pochhammer_pair,
)
from .hypergeom import check_lower_poles

OMEGA_ONE = "one"
OMEGA_MINUS_ONE = "minus1"
# the third- and sixth-root cases carry the names of their rings
OMEGA_THIRD = THIRD
OMEGA_SIXTH = SIXTH

W1, W2, W3 = "W1", "W2", "W3"
WATSON_VARIANTS = (W1, W2, W3)


class FormulaDomainError(ValueError):
    """The parameters fall outside the formula's stated domain."""


# --- hyperfactorial product formulas as term tables -----------------------
#
# A term table is a list of (arguments, multiplicity): the formula is the
# product of h(t/2)**multiplicity over every t in every entry's arguments.
# Each argument is written doubled, t = 2x, so a half-integer x is an odd
# int t, the ceilings and floors are already resolved, and a table holds
# no Fraction.

def _rounded(base: int, y: int, nudge: int = 0) -> tuple[int, int]:
    """The doubled arguments base/2 + ceil(y/2) - nudge/2 and
    base/2 + floor(y/2) + nudge/2, a pair that scales like (base + y)/2;
    base and nudge come doubled too."""
    return base - nudge + (y + 1) // 2 * 2, base + nudge + y // 2 * 2


def _sieve(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(2, n + 1) if sieve[p]]


# every prime up to _PRIMES[-1], extended on demand
_PRIMES = [2]
_LOG_PRIMES: dict[int, dict] = {}  # log p per working precision in bits, filled on first use


def _primes_upto(n: int) -> list[int]:
    if _PRIMES[-1] < n:
        # Bertrand's postulate keeps a prime above n in the list
        _PRIMES[:] = _sieve(2 * n)
    return _PRIMES[: bisect_right(_PRIMES, n)]


def _product(factors: list[int]) -> int:
    """Product by a balanced tree, so the big multiplications pair up
    numbers of similar size."""
    while len(factors) > 1:
        odd = factors[-1:] if len(factors) % 2 else []
        factors = [*map(operator.mul, factors[::2], factors[1::2]), *odd]
    return factors[0] if factors else 1


def _root_exponents(twice: list[int]) -> dict[int, int]:
    """The nonzero prime exponents of the square root of prod_i i**twice[i],
    half of sum_i v_p(i) twice[i]: the slices twice[q::q] over q = p^k <= top
    = len(twice) - 1, one slice above isqrt(top), the entry twice[p] above top // 2."""
    top = len(twice) - 1
    primes = _primes_upto(top)
    low, mid = bisect_right(primes, math.isqrt(top)), bisect_right(primes, top // 2)
    exponents = {}
    for p in primes[:low]:
        total, q = 0, p
        while q <= top:
            total += sum(twice[q::q])
            q *= p
        if total:
            exponents[p] = total // 2
    for p in primes[low:mid]:
        if total := sum(twice[p::p]):
            exponents[p] = total // 2
    for p in primes[mid:]:
        if twice[p]:
            exponents[p] = twice[p] // 2
    return exponents


def _table_exponents(table) -> dict[int, int]:
    """The nonzero prime exponents of the product a doubled term table
    describes.

    Twice the product is a product of powers h(n)**w and (n!)**f over
    integers n, and 2**two.  An argument t = 2n gives h(n)**2; an odd one,
    t = 2j - 1, gives h(j - 1/2)**2 = h(2j) j! / ((2j)! h(j)**2) *
    2**(j - 2j(j-1)) * pi**j, by Gamma(k+1/2) = (2k)!/(4^k k!) sqrt(pi).
    sqrt(pi) is a pseudo-prime whose exponent must cancel.

    Legendre's formula, v_p(h(n)) = sum_{i<n} (n - i) v_p(i) and
    v_p(n!) = sum_{i<=n} v_p(i), makes twice the exponent of p the sum over
    integers i of v_p(i) E_i, with E_i = sum w (n - i)+ + sum f [i <= n].
    E is piecewise linear, so two running sums over its second differences
    give all of it.  It vanishes past top, the largest n with h(n) or n! in
    the table: t/2 for an even t, t + 1 for an odd one, so a table of even
    arguments spans half its doubled arguments.  `_root_exponents` reads the
    exponents off E; the 2**two rides on E[2], read by the prime 2 only."""
    top = max((t + 1 if t % 2 else t // 2 for args, _ in table for t in args), default=0)
    # second differences of E read from i = top down: h(n)**w adds w at
    # top + 1 - n, (n!)**f adds f at top - n and -f at top + 1 - n, and the
    # running sums of the running sums at index top - i give E_i
    diff = [0] * (top + 2)
    two = sqrt_pi = 0
    for args, mult in table:
        for t in args:
            if t < -1:
                raise ValueError(f"hyperfactorial of negative argument {Fraction(t, 2)}")
            if t % 2 == 0:
                # h(n)**(2 mult)
                diff[top + 1 - t // 2] += 2 * mult
                continue
            j = (t + 1) // 2
            # (h(2j) / (2j)!)**mult and (j! / h(j)**2)**mult
            diff[top + 1 - 2 * j] += 2 * mult
            diff[top - 2 * j] -= mult
            diff[top + 1 - j] -= 3 * mult
            diff[top - j] += mult
            two += mult * (j - 2 * j * (j - 1))
            sqrt_pi += mult * j
    if sqrt_pi:
        raise ValueError(
            f"value carries pi**({sqrt_pi}/2); "
            "a sqrt(pi) leak indicates a transcription error"
        )
    twice = list(accumulate(accumulate(diff)))[top::-1]
    if two:
        # a half-integer argument puts top at 2 or above
        twice[2] += two
    return _root_exponents(twice)


def _evaluate(table) -> tuple[int, int]:
    """The product a term table describes, as a reduced pair (num, den)."""
    exponents = _table_exponents(table)
    return (
        _product([p**e for p, e in exponents.items() if e > 0]),
        _product([p**-e for p, e in exponents.items() if e < 0]),
    )


def _count_table(a: int, b: int, c: int, m: int, signed: bool):
    """The doubled tiling count for either core placement: the ceilings and
    floors are exact when a, b, c have equal parity.  The plain and the
    (-1)-count differ only in the core pairs, m/2 + y/2 rounded both ways,
    which the (-1)-count nudges apart by 1/2 each.

    The arguments of one entry scale alike, to the same x*n under
    (a, b, c, m) -> (a, b, c, m)*n, and the entries come in the order the
    asymptotic constant sums them."""
    s, nudge = a + b + c, int(signed)

    def core(y: int) -> tuple[int, int]:
        return _rounded(m, y, nudge)

    return [
        ((2 * (a + m),), 1), ((2 * (b + m),), 1), ((2 * (c + m),), 1), ((2 * (s + m),), 1),
        (_rounded(2 * m, s), 1), (_rounded(0, a), 1), (_rounded(0, b), 1), (_rounded(0, c), 1),
        (core(0), 1), (core(a + b), 1), (core(a + c), 1), (core(b + c), 1),
        ((2 * (a + b + m),), -1), ((2 * (a + c + m),), -1), ((2 * (b + c + m),), -1),
        ((2 * ((a + b + 1) // 2 + m),), -1), ((2 * ((a + c) // 2 + m),), -1),
        ((2 * ((b + c) // 2 + m),), -1),
        (core(a), -1), (core(b), -1), (core(c), -1), (core(s), -1),
        ((2 * ((a + b) // 2),), -1), ((2 * ((a + c + 1) // 2),), -1), ((2 * ((b + c) // 2),), -1),
    ]


def macmahon_box(a: int, b: int, c: int) -> int:
    """Number of plane partitions in an a x b x c box."""
    if min(a, b, c) < 0:
        raise FormulaDomainError(f"box sides must be nonnegative, got a={a}, b={b}, c={c}")
    value, den = _evaluate(
        [((2 * a, 2 * b, 2 * c, 2 * (a + b + c)), 1), ((2 * (a + b), 2 * (b + c), 2 * (c + a)), -1)]
    )
    assert den == 1
    return value


def _count_terms(a: int, b: int, c: int, m: int, signed: bool):
    """(sign, term table) of the closed-form count; sign 0 when it vanishes."""
    if min(a, b, c, m) < 0:
        raise FormulaDomainError("side lengths must be nonnegative")
    if b % 2 != c % 2:
        raise FormulaDomainError("b and c must have equal parity; relabel first")
    if not signed:
        return 1, _count_table(a, b, c, m, signed)
    if a % 2 == b % 2 == 1:
        # all of a, b, c odd
        return 0, []
    return (-1) ** ((a + 1) // 2), _count_table(a, b, c, m, signed)


def count_cored_formula(a: int, b: int, c: int, m: int, signed: bool = False) -> Fraction:
    """The closed-form tiling count of the cored hexagon: plain for
    signed=False, the (-1)^n weighted count for signed=True."""
    sign, table = _count_terms(a, b, c, m, signed)
    num, den = _evaluate(table)
    assert den == 1, "tiling counts must be integers"
    return Fraction(sign * num)


def count_cored_factorization(a: int, b: int, c: int, m: int, signed: bool = False) -> dict[int, int]:
    """The prime factorization of count_cored_formula, prime -> exponent,
    read off the term table without multiplying out.  A negative signed
    count adds the key -1 and a vanishing one is {0: 1}, so the product of
    key**exponent is always the count."""
    sign, table = _count_terms(a, b, c, m, signed)
    if sign == 0:
        return {0: 1}
    exponents = _table_exponents(table)
    assert all(e > 0 for e in exponents.values()), "tiling counts must be integers"
    return {-1: 1, **exponents} if sign < 0 else exponents


# --- the four evaluations of det(omega I + B) ------------------------------


def _check_order(a: int) -> None:
    if a < 0:
        raise FormulaDomainError(f"the order a of B(a, m) must be nonnegative, got {a}")


def _double_factorials(a: int) -> int:
    """prod_{j=1}^{a} (2 floor(j/2) - 1)!!, the denominator of andrews_rhs and _om_rhs."""
    return math.prod(double_factorial_odd(j // 2) for j in range(1, a + 1))


def andrews_rhs(a: int, m: Number) -> Fraction:
    """Closed form of det(I + B(a, m)).  Like om3_rhs and om6_rhs it is a
    polynomial identity in m, so m may be any rational, negative or not
    (the orbit-count factorization uses shifted m); zare1_rhs alone needs
    an integer m >= 0.  Both parities of a share each loop, through p."""
    _check_order(a)
    p, n, d = a % 2, m.numerator, m.denominator
    # an integer scalar x enters as (x)_1 = x
    ups = [(2 ** ((a + 1) // 2), 1, 1)]
    ups += [(n + ((i + 1) // 2 + 1) * 2 * d, 2 * d, (i + 3) // 4) for i in range(1, a - 1)]
    top = 3 * a + 3 - p
    for i in range(1, a // 2 + 1):
        ups.append((n + (top - (3 * i - p + 1) // 2 * 2) * d, 2 * d, (i - 1 + p) // 2))
        ups.append((n + (top - 2 * p - (3 * i + 1) // 2 * 2) * d, 2 * d, (i + 1) // 2))
    return Fraction(*pochhammer_pair(ups, [(_double_factorials(a), 1, 1)]))


def zare1_rhs(a: int, m: Number) -> Fraction:
    """Closed form of det(-I + B(a, m)): zero for odd a, and for even a
    (-1)^(a/2) times the product over i < a/2 of
    i!^2 (m/2+i)!^2 (m/2+3i+1)!^2 (m+3i+1)!^2 over
    (2i)! (2i+1)! (m/2+2i)!^2 (m/2+2i+1)!^2 (m+2i)! (m+2i+1)!.

    As a term table, x! = h(x+1)/h(x), and the runs of consecutive
    factorials telescope to single hyperfactorial quotients."""
    _check_order(a)
    if m < 0 or m.denominator != 1:
        raise FormulaDomainError(
            f"the parameter m of B(a, m) must be a nonnegative integer, got {frac(m)}"
        )
    if a % 2 == 1:
        return Fraction(0)
    # the doubled arguments of m/2 + y and m + y are m + 2y and 2m + 2y
    n, m = a // 2, int(m)
    table = [((2 * n, m + 2 * n), 2), ((2 * m,), 1), ((2 * a, 2 * (m + a)), -1), ((m + 2 * a,), -2)]
    for i in range(n):
        table += [
            ((m + 6 * i + 4, 2 * m + 6 * i + 4), 2),
            ((m + 6 * i + 2, 2 * m + 6 * i + 2), -2),
        ]
    num, den = _evaluate(table)
    return Fraction((-1) ** n * num, den)


# det(wI + B(a, m)) for w a primitive third or sixth root is (1 + w)^a times
# (2 / (2 + t))^floor(a/2) over prod_{j=1}^{a} (2 floor(j/2) - 1)!!, t the
# trace of w, times for every i with 4i <= a one Pochhammer symbol per row
# (k, x, with_a, e): (m/2 + k i + x/2 + with_a a)_{floor((a - 4i - e)/2)}, a
# negative length read as 0; the offset x comes doubled.
_OM_TABLES = {
    OMEGA_THIRD: ((3, 2, 0, 0), (3, 6, 0, 3), (-1, 1, 1, 1), (-1, -1, 1, 2)),
    OMEGA_SIXTH: ((3, 3, 0, 1), (3, 5, 0, 2), (-1, 0, 1, 0), (-1, 0, 1, 3)),
}


def _om_rhs(a: int, m: Number, omega_case: str) -> CycloElement:
    _check_order(a)
    n, d = m.numerator, m.denominator
    ups = [
        (n + (2 * k * i + x + 2 * with_a * a) * d, 2 * d, max(0, (a - 4 * i - e) // 2))
        for i in range(a // 4 + 1)
        for k, x, with_a, e in _OM_TABLES[omega_case]
    ]
    num, den = pochhammer_pair([(2 ** (a // 2), 1, 1), *ups], [(_double_factorials(a), 1, 1)])
    # (1 + w)^2 = (2 + t) w, so (1 + w)^a (2 + t)^-floor(a/2) is
    # w^floor(a/2) (1 + w)^(a mod 2), and w^6 = 1; w is the pair (0, 1)
    mul, unit = pair_mul(TRACE[omega_case]), (1, 0)
    for factor in [(0, 1)] * (a // 2 % 6) + [(1, 1)] * (a % 2):
        unit = mul(unit, factor)
    return CycloElement.of(omega_case, Fraction(unit[0] * num, den), Fraction(unit[1] * num, den))


def om3_rhs(a: int, m: Number) -> CycloElement:
    """Closed form of det(wI + B(a, m)) for w a primitive third root; any
    rational m (see andrews_rhs)."""
    return _om_rhs(a, m, OMEGA_THIRD)


def om6_rhs(a: int, m: Number) -> CycloElement:
    """Closed form of det(wI + B(a, m)) for w a primitive sixth root; any
    rational m (see andrews_rhs)."""
    return _om_rhs(a, m, OMEGA_SIXTH)


def rhs_omega_det(a: int, m: Number, omega_case: str):
    """The right-hand side of the det(omega I + B(a, m)) evaluation for the
    four sixth roots of unity that occur."""
    if omega_case == OMEGA_ONE:
        return andrews_rhs(a, m)
    if omega_case == OMEGA_MINUS_ONE:
        return zare1_rhs(a, m)
    if omega_case == OMEGA_THIRD:
        return om3_rhs(a, m)
    if omega_case == OMEGA_SIXTH:
        return om6_rhs(a, m)
    raise FormulaDomainError(f"unknown omega case {omega_case!r}")


def rhs_case10(a: int, m: int) -> Fraction:
    """Closed form of the (-1)^(n6) count of cyclically symmetric tilings,
    by parity branch."""
    if a < 0 or m < 0:
        raise FormulaDomainError("parameters must be nonnegative")
    if a == 0:
        return Fraction(1)
    if a % 2 == 0 and m % 2 == 0:
        return om6_rhs(a // 2, m // 2).norm()
    if m % 2 == 0:
        m2 = Fraction(m, 2)
        return andrews_rhs((a + 1) // 2, m2 - 1) * andrews_rhs((a - 1) // 2, m2 + 1)
    return andrews_rhs((a + 1) // 2, Fraction(m - 1, 2)) * zare1_rhs(a // 2, Fraction(m + 1, 2))


# --- asymptotics ------------------------------------------------------------


def asymptotic_k(a: int, b: int, c: int, m: int, digits: int = 50) -> mpmath.mpf:
    """The growth constant k with L(C_{an,bn,cn}(mn)) ~ exp(k n^2).

    By Euler-MacLaurin, log h(xn) = (xn)^2/2 log(xn) - 3(xn)^2/4 + O(n log n)
    and the x^2 terms cancel across the product formula, leaving k the sum
    of +/- (x^2/2) log x over its scaled arguments x.  At doubled sides the
    term table's ceilings and floors are exact and each entry lists t = 4x,
    so 16k is the log of the square root of the product of t**w_t, with
    even integer weights w_t summing to 0 (the log 4 terms cancel): the sum
    of e_p log p over the exponents e_p that `_root_exponents` reads off
    the w_t, as it reads the exact product's.  k = 0 when every e_p is 0."""
    if min(a, b, c, m) < 0:
        raise FormulaDomainError("parameters must be nonnegative")
    weights = [0] * (4 * (a + b + c + m) + 1)
    for ts, mult in _count_table(2 * a, 2 * b, 2 * c, 2 * m, False):
        weights[ts[0]] += ts[0] * ts[0] * mult * len(ts)
    assert sum(weights) == 0, "x^2 terms must cancel for a finite constant"
    exponents = _root_exponents(weights)
    with mpmath.workdps(digits):
        logs = _LOG_PRIMES.setdefault(mpmath.mp.prec, {})
        logs.update((p, mpmath.log(p)) for p in exponents.keys() - logs.keys())
        return mpmath.fdot(exponents.values(), map(logs.get, exponents)) / 16


# --- conjectured off-center formulas ---------------------------------------


def conjecture_rhs(which: int, a: int, b: int, c: int, m: int) -> Fraction:
    """Right-hand sides of the two off-center conjectures (core moved by one
    unit, respectively 3/2 units).  Degenerate hexagons with a+b < 2 or
    a+c < 2, and negative parameters, are outside the formula's domain."""
    if min(a, b, c, m) < 0:
        raise FormulaDomainError(
            f"a, b, c and m must be nonnegative, got a={a}, b={b}, c={c}, m={m}"
        )
    if which == 1:
        if a % 2 != b % 2 or b % 2 != c % 2:
            raise FormulaDomainError("the one-unit shift needs a, b, c of equal parity")
        if a + b < 2 or a + c + 2 * m < 2:
            raise FormulaDomainError("degenerate hexagon: off-center core does not fit")
        scale = 4
        if a % 2 == 0:
            p = (a + b) * (a + c) + 2 * a * m
        else:
            p = (a + b) * (a + c) + 2 * (a + b + c + m) * m
    elif which == 2:
        if a % 2 == b % 2 or b % 2 != c % 2:
            raise FormulaDomainError("the 3/2-unit shift needs a of deviant parity")
        if (a + b) // 2 < 1 or (a + c) // 2 + m < 1:
            raise FormulaDomainError("degenerate hexagon: off-center core does not fit")
        scale = 16
        if a % 2 == 0:
            p = ((a + b) ** 2 - 1) * ((a + c) ** 2 - 1) + 4 * a * m * (
                a * a + 2 * a * b + b * b + 2 * a * c + 3 * b * c + c * c
                + 2 * a * m + 3 * b * m + 3 * c * m + 2 * m * m - 1
            )
        else:
            p = ((a + b) ** 2 - 1) * ((a + c) ** 2 - 1) + 4 * (a + b + c + m) * m * (
                a * a + b * c - 1
            )
    else:
        raise FormulaDomainError("which must be 1 or 2")
    # the plain count's table with the four arguments that place the core
    # moved by one, doubled
    up, down = 2 * ((a + b + 1) // 2 + m), 2 * ((a + c) // 2 + m)
    low, high = 2 * ((a + b) // 2), 2 * ((a + c + 1) // 2)
    table = _count_table(a, b, c, m, False) + [
        ((up, down, low, high), 1),
        ((up + 2, down - 2, low - 2, high + 2), -1),
    ]
    num, den = _evaluate(table)
    return Fraction(num * p, den * scale)


# --- the transformed-determinant evaluation ---------------------------------


def lemma_rhs(a: int, b: Number, c: Number, m: int, shifted: bool = False) -> Fraction:
    """Value of the transformed cored-hexagon determinant D1 (unshifted) or
    D2 (shifted).  One formula covers both placements and every parity of a
    and m; it vanishes for the unshifted core with a and m odd.  Polynomial
    identities in b and c, so rational b, c are allowed.

    With theta = (a + shifted) mod 2 and l = ceil(a/2) (unshifted) or
    floor(a/2) (shifted), the value is a hyperfactorial prefactor over a
    power of 2, times ((x-theta)/2 + ceil(j/2))_l for odd j and
    ((x+theta)/2 + j/2)_(a-l) for even j, over x in (b, c) and j = 1..m,
    times powers of s + y = (sn + y sd)/sd for s = b + c, integers y and
    sd = den(b) den(c), and the sign (-1)^ceil(a/2) for odd m."""
    if a < 0 or m < 0:
        raise FormulaDomainError(f"a and m must be nonnegative, got a={a}, m={m}")
    if not shifted and a % 2 == m % 2 == 1:
        return Fraction(0)
    theta = (a + shifted) % 2
    ell = a // 2 if shifted else (a + 1) // 2
    ups = [
        (n + ((j + 1) // 2 * 2 - theta) * d, 2 * d, ell)
        if j % 2
        else (n + (j + theta) * d, 2 * d, a - ell)
        for n, d in ((b.numerator, b.denominator), (c.numerator, c.denominator))
        for j in range(1, m + 1)
    ]
    pre, pre_den = _evaluate(
        [((2 * (a + m),), 1), (_rounded(0, a), 1), (_rounded(0, m), 1), (_rounded(0, a + m), -1)]
    )
    num, den = pochhammer_pair([(pre, 1, 1), *ups], [(pre_den << (m * (a + m - 1) + 1) // 2, 1, 1)])
    sd = b.denominator * c.denominator
    sn = b.numerator * c.denominator + c.numerator * b.denominator
    powers = [(m + 1 + j, a - 1 - j) for j in range(m % 2, a, 2)]
    powers += [(2 * m + 2 * k, a - 2 * k) for k in range(1, a // 2 + 1)]
    powers += [(2 * k, m - k + (a if 2 * k > m else 0)) for k in range(1, m + 1)]
    for y, e in powers:
        num, den = num * (sn + y * sd) ** e, den * sd**e
    if m % 2:
        num *= (-1) ** ((a + 1) // 2)
    return Fraction(num, den)


# --- multiple-sum analogues of Watson's summation ---------------------------


def _watson_lower_params(variant: str, a: int, M: int, B: Number, C: Number):
    """watson_lhs's lower parameters e = (a - M + sigma + C)/2 and f = 2B + a - 1 - tau
    as integer pairs, with sigma = 1 for W2 and tau = 1 for W2 and W3."""
    if variant not in WATSON_VARIANTS:
        raise FormulaDomainError(f"unknown variant {variant!r}")
    sigma, tau = int(variant == W2), int(variant != W1)
    (bn, bd), (cn, cd) = (B.numerator, B.denominator), (C.numerator, C.denominator)
    return (cn + (a - M + sigma) * cd, 2 * cd), (2 * bn + (a - 1 - tau) * bd, bd)


def watson_lhs(variant: str, a: int, M: int, B: Number, C: Number) -> Fraction:
    """The multiple sum over 0 <= k_1 < ... < k_a <= M with squared
    Vandermonde weight.

    The per-k factors (-M)_k (C)_k (B)_k / (k! (e)_k (f)_k) are put over one
    common denominator by their term ratio, so the sum over index sets runs
    on ints and one Fraction is built at the end."""
    (en, ed), (fn, fd) = lower = _watson_lower_params(variant, a, M, B, C)
    check_lower_poles(lower, M)
    bn, bd, cn, cd = B.numerator, B.denominator, C.numerator, C.denominator
    scale_num, scale_den = ed * fd, bd * cd
    nums, dens = [1], [1]
    for k in range(M):
        nums.append(nums[-1] * scale_num * (k - M) * (cn + k * cd) * (bn + k * bd))
        dens.append(dens[-1] * scale_den * (k + 1) * (en + k * ed) * (fn + k * fd))
    den = dens[-1]
    factors = [num * (den // d) for num, d in zip(nums, dens)]
    total = 0
    for ks in combinations(range(M + 1), a):
        term = 1
        for i in range(a):
            for j in range(i + 1, a):
                term *= (ks[i] - ks[j]) ** 2
        for k in ks:
            term *= factors[k]
        total += term
    return Fraction(total, den**a)


def watson_rhs(variant: str, a: int, M: int, B: Number, C: Number) -> Fraction:
    """The closed-form side: 0 for M < a and for W1 with a and M odd, else
    one expression for every variant and every parity of a and M.

    The variants differ in the lower parameters (e, f) of watson_lhs: W2
    raises e by 1/2 (sigma = 1) and W2, W3 lower f by 1 (tau = 1).  With
    u = M - a, phi = (u + sigma) mod 2, eta = (a + tau) mod 2 and
    g = B - C/2 - tau + sigma/2 the value is
      2^(a^2 - a - aM) M!^a (-1)^(floor(a/2) + a (floor((u - sigma)/2) + 1))
      / (e)_{ceil((u - sigma)/2)}^a
    times, for j = 1..a, k = j + tau - sigma and low = floor((k - (u mod 2))/2),
      (B)_{j-1} (ceil(j/2) - 1)! / ceil((M - j)/2)!
      * (C/2 + (1 - phi)/2)_{floor((j - 1 + phi)/2)}
      / (f/2 + (1 - eta)/2)_{floor((j - 1 + eta)/2)}
      / (f/2 + eta/2)_{floor((M + 2 - eta - j)/2)}
      * (g + low + (u mod 2)/2)_{ceil(k/2) - low + floor(u/2)},
    and 1/((C + M - j + 1)/2)_j for each j of the parity of a + 1 + sigma.
    The parity of M enters only as half-shifts of bases and lengths, the
    parity of a only through the ceilings and floors in j.  Over B = bn/bd
    and C = cn/cd, g + y/2 is (gn + y bd cd)/(2 bd cd)."""
    if a < 0:
        raise FormulaDomainError(f"the number a of summation indices must be nonnegative, got {a}")
    if M < a or variant == W1 and a % 2 == M % 2 == 1:
        # fewer than a admissible indices leave the sum empty; W1 vanishes
        # for odd a and M
        return Fraction(0)
    (en, ed), (fn, fd) = _watson_lower_params(variant, a, M, B, C)
    sigma, tau = int(variant == W2), int(variant != W1)
    u = M - a
    phi, eta, odd_u = (u + sigma) % 2, (a + tau) % 2, u % 2
    bn, bd, cn, cd = B.numerator, B.denominator, C.numerator, C.denominator
    gn = 2 * bn * cd - cn * bd + (sigma - 2 * tau) * bd * cd
    # the scalars enter as (x)_1 = x and the factorials as (1)_n = n!
    ups = [((-1) ** (a // 2 + a * ((u - sigma) // 2 + 1)), 1, 1)] + [(1, 1, M)] * a
    downs = [(2 ** (a * (M + 1 - a)), 1, 1)] + [(en, ed, (u - sigma + 1) // 2)] * a
    for j in range(1, a + 1):
        k = j + tau - sigma
        low = (k - odd_u) // 2
        ups += [(bn, bd, j - 1), (1, 1, (j - 1) // 2)]
        ups.append((cn + (1 - phi) * cd, 2 * cd, (j - 1 + phi) // 2))
        ups.append((gn + (2 * low + odd_u) * bd * cd, 2 * bd * cd, (k + 1) // 2 - low + u // 2))
        downs += [(1, 1, (M - j + 1) // 2), (fn + (1 - eta) * fd, 2 * fd, (j - 1 + eta) // 2)]
        downs.append((fn + eta * fd, 2 * fd, (M + 2 - eta - j) // 2))
        if (a + j + sigma) % 2:
            downs.append((cn + (M - j + 1) * cd, 2 * cd, j))
    return Fraction(*pochhammer_pair(ups, downs))


def watson_pair(variant: str, a: int, M: int, B: Number, C: Number) -> tuple[Fraction, Fraction]:
    """(multiple sum, closed form) for one of the three summation theorems."""
    if a < 1 or M < 0:
        raise FormulaDomainError("need a >= 1 and M >= 0")
    return watson_lhs(variant, a, M, B, C), watson_rhs(variant, a, M, B, C)


def watson_3f2_closed(M: int, B: Number, C: Number) -> Fraction:
    """The terminating Watson 3F2 sum, with the gamma quotients of the
    classical evaluation rewritten as Pochhammer ratios so that arbitrary
    rational parameters stay exact.  Zero for odd M."""
    if M % 2 == 1:
        return Fraction(0)
    half, bn, bd, cn, cd = M // 2, B.numerator, B.denominator, C.numerator, C.denominator
    return Fraction(*pochhammer_pair(
        [(1 - M, 2, half), ((cd - cn) * bd + 2 * bn * cd, 2 * bd * cd, half)],
        [(bd + 2 * bn, 2 * bd, half), ((1 - M) * cd + cn, 2 * cd, half)],
    ))
