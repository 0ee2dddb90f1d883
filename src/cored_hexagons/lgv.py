"""Exact matrices for the lattice-path determinants and their evaluation.

One Bareiss (fraction-free) kernel serves all four rings.  It runs over a
ring table (zero, one, mul, sub, divider) for Python ints and for Z[w3]
and Z[w6] as (c0, c1) integer pairs.  The pair multiply, conjugate and
norm (the tau-rule tau^2 = t*tau - 1) are `exactnum`'s; this module adds
only the checked divider.  Rational coordinates are scaled to integers at
the edge, so no Fraction or CycloElement arithmetic runs in the loop.
Every division is exact in the ring and checked (AssertionError
otherwise); rows that a step would only rescale are rescaled when next used.
Each step pivots on the smallest nonzero entry of its column (bit length;
the larger coordinate for a pair), which keeps the intermediate minors small.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, lcm

from .exactnum import (
    CycloElement,
    Number,
    SIXTH,
    THIRD,
    TRACE,
    binomial,
    frac,
    pair_conjugate,
    pair_mul,
    pair_norm,
    pochhammer,
)

RING_INTEGER = "integer"
RING_RATIONAL = "rational"
# a cyclotomic matrix's ring is its CycloElement ring
RING_CYCLO3 = THIRD
RING_CYCLO6 = SIXTH


def _ring_of(value) -> str:
    if isinstance(value, CycloElement):
        return value.ring
    if isinstance(value, Fraction) and value.denominator != 1:
        return RING_RATIONAL
    return RING_INTEGER


def _join_rings(rings) -> str:
    order = {RING_INTEGER: 0, RING_RATIONAL: 1, RING_CYCLO3: 2, RING_CYCLO6: 2}
    best = RING_INTEGER
    for ring in rings:
        if ring in TRACE and best in TRACE and ring != best:
            raise ValueError("cannot mix the two cyclotomic rings")
        if order[ring] > order[best]:
            best = ring
    return best


@dataclass(frozen=True)
class ExactMatrix:
    """Dense matrix over one exact ring."""

    ring: str
    rows: tuple[tuple, ...]

    @staticmethod
    def of(rows, ring: str | None = None) -> ExactMatrix:
        rows = tuple(tuple(r) for r in rows)
        if ring is None:
            ring = _join_rings(_ring_of(v) for row in rows for v in row)
        if ring == RING_INTEGER:
            if any(_ring_of(v) != RING_INTEGER for row in rows for v in row):
                raise ValueError("a non-integral entry cannot be put in the integer ring")
            rows = tuple(tuple(int(v) for v in row) for row in rows)
        elif ring == RING_RATIONAL:
            rows = tuple(tuple(frac(v) for v in row) for row in rows)
        return ExactMatrix(ring, rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def submatrix(self, row_indices, col_indices) -> ExactMatrix:
        return ExactMatrix(
            self.ring,
            tuple(tuple(self.rows[i][j] for j in col_indices) for i in row_indices),
        )


def _scalar(ring: str, value: int):
    """The integer value as an element of ring."""
    if ring in TRACE:
        return CycloElement.of(ring, value)
    return Fraction(value) if ring == RING_RATIONAL else value


def _int_divider(d: int):
    """Exact division by d, checked."""

    def div(x: int) -> int:
        q, r = divmod(x, d)
        if r:
            raise AssertionError("fraction-free elimination requires exact division")
        return q

    return div


def _pair_ring(t: int):
    """Z[tau] on (c0, c1) integer pairs, tau^2 = t*tau - 1.  Division by y
    multiplies by its conjugate and divides by its norm; the divider
    computes both once per divisor."""
    mul = pair_mul(t)

    def sub(x, y):
        return (x[0] - y[0], x[1] - y[1])

    def divider(y):
        conjugate, norm_div = pair_conjugate(y, t), _int_divider(pair_norm(y, t))

        def div(x):
            a, b = mul(x, conjugate)
            return (norm_div(a), norm_div(b))

        return div

    return (0, 0), (1, 0), mul, sub, divider


_INT_RING = (0, 1, operator.mul, operator.sub, _int_divider)
_KERNEL_RINGS = {ring: _pair_ring(t) for ring, t in TRACE.items()}


def _size(value) -> int:
    """Bit length of an int, or of the larger coordinate of a ring pair."""
    if isinstance(value, int):
        return value.bit_length()
    return max(value[0].bit_length(), value[1].bit_length())


def _bareiss(m, zero, one, mul, sub, divider):
    """Determinant of the square list of rows m (overwritten) over one ring;
    divider(d) is the checked exact division by d.

    Step k sets each later row to (p_k row - row[k] pivot_row) / p_{k-1}.
    A row with row[k] = 0 would only be scaled by p_k / p_{k-1}, so it is
    skipped and since[i] keeps the pivot it is current for; when next used
    it catches up by one multiply and exact divide by p_now / p_then.  Its
    entries are minors, so that division is exact too, and it is checked.

    The pivot p_k is the smallest nonzero column-k entry among rows k..n-1,
    a deferred row sized as it will be after catching up (its entry's size
    less that of since[i]; the common factor p_{k-1} drops out); ties go to
    the lowest row, and each swap flips the sign.  Small pivots keep the
    minors formed along the way small: on the cored-hexagon matrices the
    quotients carry about a fifth of the bits that diagonal pivots form."""
    n = len(m)
    if n == 0:
        return one
    sign, prev, since = 1, one, [one] * n

    def catch_up(i, k):
        then, row = since[i], m[i]
        if then is not prev:  # the same object means the same value
            div = divider(then)
            row[k:] = [div(mul(v, prev)) for v in row[k:]]
        return row

    for k in range(n - 1):
        best = min(
            (i for i in range(k, n) if m[i][k] != zero),
            key=lambda i: _size(m[i][k]) - _size(since[i]),
            default=None,
        )
        if best is None:
            return zero
        if best != k:
            m[k], m[best] = m[best], m[k]
            since[k], since[best] = since[best], since[k]
            sign = -sign
        pivot_row = catch_up(k, k)
        p, tail, div = pivot_row[k], pivot_row[k + 1 :], divider(prev)
        for i in range(k + 1, n):
            if m[i][k] != zero:
                row = catch_up(i, k)
                x = row[k]
                row[k + 1 :] = [
                    div(sub(mul(p, v), mul(x, w)))
                    for v, w in zip(row[k + 1 :], tail)
                ]
                since[i] = p
        prev = p
    result = catch_up(n - 1, n - 1)[n - 1]
    return result if sign > 0 else sub(zero, result)


def _coordinates(value, cyclo: str | None) -> tuple:
    if cyclo is None:
        return (frac(value),)
    if isinstance(value, CycloElement):
        value = value.to_ring(cyclo)
        return value.c0, value.c1
    return frac(value), Fraction(0)


def det_fraction_free(matrix: ExactMatrix):
    """Bareiss determinant: an int, a Fraction, or a CycloElement in the
    matrix's ring.  Rational and cyclotomic matrices have each row scaled by
    the lcm of its coordinate denominators and cyclotomic entries become
    integer pairs; the kernel's result is divided by the product of the
    scales.  Every division is exact and checked."""
    if matrix.nrows != matrix.ncols:
        raise ValueError("determinant of a non-square matrix")
    if matrix.ring == RING_INTEGER:
        return _bareiss([list(row) for row in matrix.rows], *_INT_RING)
    cyclo = matrix.ring if matrix.ring in TRACE else None
    scale, rows = 1, []
    for row in matrix.rows:
        flat = [x for v in row for x in _coordinates(v, cyclo)]
        row_scale = lcm(*(x.denominator for x in flat))
        scale *= row_scale
        flat = [x.numerator * (row_scale // x.denominator) for x in flat]
        rows.append(flat if cyclo is None else list(zip(flat[::2], flat[1::2])))
    if cyclo is None:
        return Fraction(_bareiss(rows, *_INT_RING), scale)
    c0, c1 = _bareiss(rows, *_KERNEL_RINGS[cyclo])
    return CycloElement.of(cyclo, Fraction(c0, scale), Fraction(c1, scale))


# --- matrix builders keyed to the lattice-path determinants ---------------


def build_B(N: int, m: Number) -> ExactMatrix:
    """The N x N matrix with entries binom(m+i+j, j), 0 <= i, j < N; over Q
    when m is not an integer."""
    if N < 0:
        raise ValueError("size must be nonnegative")
    return build_omega_shift(N, m, 0)


def identity_matrix(N: int, ring: str = RING_INTEGER) -> ExactMatrix:
    one, zero = _scalar(ring, 1), _scalar(ring, 0)
    return ExactMatrix.of(
        [[one if i == j else zero for j in range(N)] for i in range(N)], ring
    )


def matrix_add(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    assert (A.nrows, A.ncols) == (B.nrows, B.ncols)
    return ExactMatrix.of(
        [
            [A.rows[i][j] + B.rows[i][j] for j in range(A.ncols)]
            for i in range(A.nrows)
        ]
    )


def matrix_scale(A: ExactMatrix, s) -> ExactMatrix:
    return ExactMatrix.of([[s * v for v in row] for row in A.rows])


def matrix_mul(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    assert A.ncols == B.nrows
    rows = []
    for i in range(A.nrows):
        row = []
        for j in range(B.ncols):
            acc = A.rows[i][0] * B.rows[0][j]
            for k in range(1, A.ncols):
                acc = acc + A.rows[i][k] * B.rows[k][j]
            row.append(acc)
        rows.append(row)
    return ExactMatrix.of(rows)


def build_omega_shift(N: int, m: Number, omega) -> ExactMatrix:
    """omega*I(N) + B(N, m) over the smallest ring containing omega and m."""
    ring = _join_rings([_ring_of(omega), _ring_of(frac(m))])
    rows = [[binomial(m + i + j, j) for j in range(N)] for i in range(N)]
    # each entry is made once, in its ring's own type, so it needs neither
    # ring addition nor ExactMatrix.of's per-entry conversion
    if ring in TRACE:
        zero = Fraction(0)
        rows = [
            [
                CycloElement(omega.ring, omega.c0 + v, omega.c1)
                if i == j
                else CycloElement(omega.ring, Fraction(v), zero)
                for j, v in enumerate(row)
            ]
            for i, row in enumerate(rows)
        ]
    else:
        convert = int if ring == RING_INTEGER else Fraction
        rows = [
            [convert(v + omega if i == j else v) for j, v in enumerate(row)]
            for i, row in enumerate(rows)
        ]
    return ExactMatrix(ring, tuple(map(tuple, rows)))


def build_cored_matrix(a: int, b: int, c: int, m: int, epsilon: Number | None = None) -> ExactMatrix:
    """The (a+m) x (a+m) lattice-path matrix for the cored hexagon, with the
    core column offset epsilon in {0, 1/2, 1, 3/2}.  Left out, epsilon
    follows the core's placement: 0 (centered) when a = b (mod 2), else 1/2
    (shifted half a unit); the off-center conjectures pass 1 and 3/2.

    Rows 1..a count paths from the side of length a, rows a+1..a+m paths
    from the core side; 1-based (i, j) as in the row descriptions."""
    if min(a, b, c, m) < 0:
        raise ValueError("side lengths must be nonnegative")
    if b % 2 != c % 2:
        raise ValueError("b and c must have equal parity")
    eps = Fraction((a + b) % 2, 2) if epsilon is None else frac(epsilon)
    shift = Fraction(b + a, 2) + eps
    if shift.denominator != 1:
        raise ValueError(
            f"(b+a)/2 + epsilon = {shift} must be an integer; pick epsilon from "
            "{0, 1} when a = b (mod 2) and {1/2, 3/2} otherwise"
        )
    shift = int(shift)
    n = a + m
    rows = []
    for i in range(1, n + 1):
        top, low = (b + c + m, b - i) if i <= a else ((b + c) // 2, shift - i)
        rows.append(tuple(comb(top, low + j) if low + j >= 0 else 0 for j in range(1, n + 1)))
    return ExactMatrix(RING_INTEGER, tuple(rows))


def build_n6_matrix(a: int, m: int) -> ExactMatrix:
    """delta_ij + (-1)^j [m+i+j, j]_{q=-1}, 0 <= i, j < a."""
    from .hypergeom import qbinom_neg1

    rows = []
    for i in range(a):
        row = []
        for j in range(a):
            v = (-1) ** j * qbinom_neg1(m + i + j, j)
            row.append(v + (1 if i == j else 0))
        rows.append(row)
    return ExactMatrix.of(rows, RING_INTEGER)


def cored_det_transform(
    a: int, b: int, c: int, m: int, shifted: bool = False
) -> tuple[Fraction, ExactMatrix]:
    """Pull the row factors out of the cored-hexagon matrix.

    Returns (prefactor, D) with prefactor * det(D) = det(build_cored_matrix)
    at epsilon = 0 (unshifted) or 1/2 (shifted); D's entries are the
    Pochhammer products, polynomial in b and c."""
    prefactor = Fraction(1)
    for i in range(1, a + 1):
        prefactor *= Fraction(
            factorial(b + c + m), factorial(b + a + m - i) * factorial(c + m + i - 1)
        )
    for i in range(a + 1, a + m + 1):
        if shifted:
            top = (b + 3 * a + 1) // 2 + m - i
            bottom = (c - a - 1) // 2 + i - 1
        else:
            top = (b + 3 * a) // 2 + m - i
            bottom = (c - a) // 2 + i - 1
        prefactor *= Fraction(factorial((b + c) // 2), factorial(top) * factorial(bottom))
    matrix = transformed_cored_matrix(a, frac(b), frac(c), m, shifted)
    return prefactor, matrix


def transformed_cored_matrix(
    a: int, b: Number, c: Number, m: int, shifted: bool = False
) -> ExactMatrix:
    """The Pochhammer-product matrix D_1 (unshifted) or D_2 (shifted); its
    entries are polynomials in b and c, so rational arguments are allowed."""
    n = a + m
    b, c = frac(b), frac(c)
    half = Fraction(1, 2) if shifted else Fraction(0)
    rows = []
    for i in range(1, a + 1):
        rows.append(
            [
                pochhammer(c + m + i - j + 1, j - 1) * pochhammer(b - i + j + 1, n - j)
                for j in range(1, n + 1)
            ]
        )
    for i in range(a + 1, n + 1):
        rows.append(
            [
                pochhammer((c - a) / 2 - half + i - j + 1, j - 1)
                * pochhammer((b + a) / 2 + half - i + j + 1, n - j)
                for j in range(1, n + 1)
            ]
        )
    return ExactMatrix.of(rows)


def laplace_two_block(matrix: ExactMatrix, top_rows: int):
    """Laplace expansion along the first ``top_rows`` rows:
    sum over column subsets K of (-1)^(sum K - binom(t+1, 2)) times the two
    complementary minors.  Equals the determinant."""
    n = matrix.nrows
    t = top_rows
    total = _scalar(matrix.ring, 0)
    base = t * (t + 1) // 2
    for K in combinations(range(1, n + 1), t):
        sign = (-1) ** (sum(K) - base)
        top = matrix.submatrix(range(t), [k - 1 for k in K])
        rest_cols = [j for j in range(n) if (j + 1) not in K]
        bottom = matrix.submatrix(range(t, n), rest_cols)
        term = det_fraction_free(top) * det_fraction_free(bottom)
        total = total + (term if sign > 0 else -term)
    return total


# --- the auxiliary determinants used for the -1 evaluation ----------------


def build_Zn(n: int, x: Number, mu: Number) -> ExactMatrix:
    """-delta_ij + sum_{t,k} binom(i+mu, t) binom(k, t) binom(j-k+mu-1, j-k)
    x^(k-t), 0 <= i, j < n.

    Every binomial here is an integer over scale = den(mu)^(n-1) (n-1)! and
    every power of x an integer over den(x)^(n-1), so each entry is summed
    on ints and divided once."""
    x, mu = frac(x), frac(mu)
    top = max(n - 1, 0)
    scale = mu.denominator**top * factorial(top)
    left = [[int(binomial(i + mu, t) * scale) for t in range(n)] for i in range(n)]
    right = [int(binomial(d + mu - 1, d) * scale) for d in range(n)]
    powers = [x.numerator**e * x.denominator ** (top - e) for e in range(n)]
    den = scale * scale * x.denominator**top
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = sum(
                left[i][t] * comb(k, t) * right[j - k] * powers[k - t]
                for t in range(j + 1)
                for k in range(t, j + 1)
            )
            row.append(Fraction(acc - den if i == j else acc, den))
        rows.append(row)
    return ExactMatrix.of(rows)


def zn_factor_pair(n: int, x: Number, mu: Number) -> tuple[Fraction, Fraction]:
    """(det Z_n, the signed product of the two half-size determinants);
    the right component is 0 for odd n."""
    x, mu = frac(x), frac(mu)
    lhs = frac(det_fraction_free(build_Zn(n, x, mu)))
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
    d1 = frac(det_fraction_free(ExactMatrix.of(first_rows)))
    d2 = frac(det_fraction_free(ExactMatrix.of(second_rows)))
    rhs = (-1) ** half * d1 * d2
    return lhs, rhs


def build_VW(n: int, m: Number) -> tuple[ExactMatrix, ExactMatrix]:
    """The two n x n matrices indexed by (2i+r, 2j+s), r, s in {0, 1}:
    V = (-1)^(r+s) binom(i+j+r+s+m/2, s+2j-i),  W = binom(i+j+m/2, s+2j-i-r)."""
    half_m = frac(m) / 2
    v_rows = []
    w_rows = []
    for row in range(n):
        i, r = divmod(row, 2)
        v_row = []
        w_row = []
        for col in range(n):
            j, s = divmod(col, 2)
            v_row.append((-1) ** (r + s) * binomial(i + j + r + s + half_m, s + 2 * j - i))
            w_row.append(binomial(i + j + half_m, s + 2 * j - i - r))
        v_rows.append(v_row)
        w_rows.append(w_row)
    return ExactMatrix.of(v_rows), ExactMatrix.of(w_rows)


def _reciprocal_factorial(k: int) -> Fraction:
    """1/k!, with the convention 1/k! = 0 for negative integers."""
    return Fraction(0) if k < 0 else Fraction(1, factorial(k))


def th10_pair(n: int, x: int, y: int) -> tuple[Fraction, Fraction]:
    """Determinant of ((x+y+i+j-1)! / ((x+2i-j)! (y+2j-i)!)) against its
    product evaluation, both exact."""
    if x < 0 or y < 0:
        raise ValueError("x and y must be nonnegative integers")
    if n > 0 and x + y == 0:
        raise ValueError("x + y must be positive for a nonempty matrix")
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            num = factorial(x + y + i + j - 1)
            row.append(
                num * _reciprocal_factorial(x + 2 * i - j) * _reciprocal_factorial(y + 2 * j - i)
            )
        rows.append(row)
    lhs = frac(det_fraction_free(ExactMatrix.of(rows))) if n else Fraction(1)
    rhs = Fraction(1)
    for i in range(n):
        rhs *= Fraction(factorial(i) * factorial(x + y + i - 1))
        rhs *= frac(pochhammer(2 * x + y + 2 * i, i)) * frac(pochhammer(x + 2 * y + 2 * i, i))
        rhs /= factorial(x + 2 * i) * factorial(y + 2 * i)
    return lhs, rhs


def principal_minor_sum(matrix: ExactMatrix):
    """Sum of all principal minors (including the empty one); equals
    det(I + M)."""
    n = matrix.nrows
    total = _scalar(matrix.ring, 1)
    for k in range(1, n + 1):
        for rows in combinations(range(n), k):
            total = total + det_fraction_free(matrix.submatrix(rows, rows))
    return total
