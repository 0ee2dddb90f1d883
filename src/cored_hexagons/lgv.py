"""Exact matrices for the lattice-path determinants and their evaluation.

A matrix holds what the one Bareiss (fraction-free) kernel eats: rows of
ints over Z and Q, or of (c0, c1) int pairs over Z[w3] and Z[w6], each row
over a positive denominator.  Every builder, Z_n's half-size blocks
included, sums its entries on these coordinates, a rational argument giving
the rows a denominator; no matrix is built from exact entries.  The kernel
runs over a ring table (zero, one, mul, sub, divider); the pair multiply,
conjugate and norm (tau^2 = t*tau - 1) are `exactnum`'s, and this module
adds only the checked divider.  The determinant is divided once by the
product of the row denominators.  Every division is exact and checked
(AssertionError otherwise); rows that a step would only rescale are
rescaled when next used.  Each step pivots on the smallest nonzero entry of
its column (bit length; the larger coordinate for a pair), which keeps the
intermediate minors small.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import comb, factorial, gcd, lcm, perm, prod

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
    pochhammer_ratio,
    stepped_product,
)

RING_INTEGER = "integer"
RING_RATIONAL = "rational"
# a cyclotomic matrix's ring is its CycloElement ring
RING_CYCLO3 = THIRD
RING_CYCLO6 = SIXTH


@dataclass(frozen=True)
class ExactMatrix:
    """Dense matrix over one exact ring: row i is rows[i] / dens[i].  Rows
    hold ints in the integer and rational rings and (c0, c1) int pairs in
    THIRD and SIXTH; the row denominators are positive, all 1 when left out,
    and always 1 in the integer ring."""

    ring: str
    rows: tuple[tuple, ...]
    dens: tuple[int, ...] = None

    def __post_init__(self):
        if self.dens is None:
            object.__setattr__(self, "dens", (1,) * len(self.rows))

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
            tuple(self.dens[i] for i in row_indices),
        )


def _matrix(rows, dens, ring: str | None = None) -> ExactMatrix:
    """The rows over their denominators, each row put in lowest terms.  The
    ring defaults to the integer ring when every denominator is then 1, else
    the rational ring; the integer ring takes no other denominator."""
    pairs = ring in TRACE
    reduced_rows, reduced_dens = [], []
    for row, den in zip(rows, dens):
        g = gcd(den, *(chain.from_iterable(row) if pairs else row))
        if g > 1:
            row = [(x // g, y // g) for x, y in row] if pairs else [x // g for x in row]
        reduced_rows.append(tuple(row))
        reduced_dens.append(den // g)
    integral = all(den == 1 for den in reduced_dens)
    if ring is None:
        ring = RING_INTEGER if integral else RING_RATIONAL
    elif ring == RING_INTEGER and not integral:
        raise ValueError("a non-integral entry cannot be put in the integer ring")
    return ExactMatrix(ring, tuple(reduced_rows), tuple(reduced_dens))


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


def det_fraction_free(matrix: ExactMatrix):
    """Bareiss determinant of the coordinate rows, divided once by the
    product of the row denominators: an int, a Fraction, or a CycloElement
    in the matrix's ring.  Every division is exact and checked."""
    if matrix.nrows != matrix.ncols:
        raise ValueError("determinant of a non-square matrix")
    rows, scale = [list(row) for row in matrix.rows], prod(matrix.dens)
    if matrix.ring in TRACE:
        c0, c1 = _bareiss(rows, *_KERNEL_RINGS[matrix.ring])
        return CycloElement.of(matrix.ring, Fraction(c0, scale), Fraction(c1, scale))
    det = _bareiss(rows, *_INT_RING)
    return det if matrix.ring == RING_INTEGER else Fraction(det, scale)


def plus_scaled(Y: ExactMatrix, omega, X: ExactMatrix | None = None) -> ExactMatrix:
    """Y + omega*X for Y and X over Z or Q, X the identity when left out, and
    omega an int, a Fraction or a CycloElement.  The sum is over omega's
    cyclotomic ring, else over Q when omega, Y or X is rational, else Z."""
    n = Y.nrows
    if X is None:
        eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        X = ExactMatrix(RING_INTEGER, eye)
    if (X.nrows, X.ncols) != (n, Y.ncols) or {X.ring, Y.ring} - {RING_INTEGER, RING_RATIONAL}:
        raise ValueError("Y + omega*X needs two matrices of one shape over Z or Q")
    cyclo = isinstance(omega, CycloElement)
    w = (omega.c0, omega.c1) if cyclo else (omega,)
    q = lcm(*(c.denominator for c in w))
    w = [c.numerator * (q // c.denominator) for c in w]
    rational = q > 1 or RING_RATIONAL in (X.ring, Y.ring)
    ring = omega.ring if cyclo else RING_RATIONAL if rational else RING_INTEGER
    rows, dens = [], []
    for x_row, dx, y_row, dy in zip(X.rows, X.dens, Y.rows, Y.dens):
        den = lcm(q * dx, dy)
        sy = den // dy
        wx = [c * (den // (q * dx)) for c in w]
        if cyclo:
            rows.append([(wx[0] * x + sy * y, wx[1] * x) for x, y in zip(x_row, y_row)])
        else:
            rows.append([wx[0] * x + sy * y for x, y in zip(x_row, y_row)])
        dens.append(den)
    return _matrix(rows, dens, ring)


def matrix_mul(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """A B over the integers."""
    if A.ring != RING_INTEGER or B.ring != RING_INTEGER or A.ncols != B.nrows:
        raise ValueError("matrix_mul needs two integer matrices of matching shapes")
    cols = list(zip(*B.rows))
    return ExactMatrix(
        RING_INTEGER,
        tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in A.rows),
    )


# --- matrix builders keyed to the lattice-path determinants ---------------


def _binomial_den(q: int, K: int) -> int:
    """A common denominator of binom(p/q, k) for every int p and
    0 <= k <= K: q^K K!, or 1 when q = 1."""
    return 1 if q == 1 else q**K * factorial(K)


def _binomial_num(p: int, q: int, k: int, K: int) -> int:
    """binom(p/q, k) times _binomial_den(q, K), an int for k <= K."""
    if q == 1 or k < 0:
        return binomial(p, k)
    return stepped_product(p, -q, k) * q ** (K - k) * (factorial(K) // factorial(k))


def build_B(N: int, m: Number) -> ExactMatrix:
    """The N x N matrix with entries binom(m+i+j, j), 0 <= i, j < N; over Q
    when m = p/q is not an integer, each row over q^(N-1) (N-1)!."""
    if N < 0:
        raise ValueError("size must be nonnegative")
    p, q, K = m.numerator, m.denominator, max(N - 1, 0)
    rows = [[_binomial_num(p + (i + j) * q, q, j, K) for j in range(N)] for i in range(N)]
    ring = RING_INTEGER if q == 1 else RING_RATIONAL
    return _matrix(rows, [_binomial_den(q, K)] * N, ring)


def build_omega_shift(N: int, m: Number, omega) -> ExactMatrix:
    """omega*I(N) + B(N, m) over the smallest ring containing omega and m."""
    return plus_scaled(build_B(N, m), omega)


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
    # epsilon = e/q, so the column shift (b + a)/2 + epsilon is twice/(2q)
    e, q = ((a + b) % 2, 2) if epsilon is None else (epsilon.numerator, epsilon.denominator)
    twice = (b + a) * q + 2 * e
    shift, rest = divmod(twice, 2 * q)
    if rest:
        raise ValueError(
            f"(b+a)/2 + epsilon = {Fraction(twice, 2 * q)} must be an integer; pick epsilon "
            "from {0, 1} when a = b (mod 2) and {1/2, 3/2} otherwise"
        )
    n = a + m
    rows = []
    for i in range(1, n + 1):
        top, low = (b + c + m, b - i) if i <= a else ((b + c) // 2, shift - i)
        rows.append(tuple(comb(top, low + j) if low + j >= 0 else 0 for j in range(1, n + 1)))
    return ExactMatrix(RING_INTEGER, tuple(rows))


def build_n6_matrix(a: int, m: int) -> ExactMatrix:
    """delta_ij + (-1)^j [m+i+j, j]_{q=-1}, 0 <= i, j < a."""
    if min(a, m) < 0:
        raise ValueError(f"a and m must be nonnegative, got a={a}, m={m}")
    from .hypergeom import qbinom_neg1

    rows = [
        tuple((-1) ** j * qbinom_neg1(m + i + j, j) + (i == j) for j in range(a))
        for i in range(a)
    ]
    return ExactMatrix(RING_INTEGER, tuple(rows))


def cored_det_transform(
    a: int, b: int, c: int, m: int, shifted: bool = False
) -> tuple[Fraction, ExactMatrix]:
    """Pull the row factors out of the cored-hexagon matrix.

    Returns (prefactor, D) with prefactor * det(D) = det(build_cored_matrix)
    at epsilon = 0 (unshifted) or 1/2 (shifted); D's entries are the
    Pochhammer products, polynomial in b and c.  The prefactor is a
    quotient of factorials n! = (1)_n."""
    if min(b, c) < 0:
        raise ValueError("side lengths must be nonnegative")
    if b % 2 != c % 2:
        raise ValueError("b and c must have equal parity")
    matrix = transformed_cored_matrix(a, b, c, m, shifted)
    h = int(shifted)
    ups = [(1, b + c + m)] * a + [(1, (b + c) // 2)] * m
    downs = [(1, n) for i in range(1, a + 1) for n in (b + a + m - i, c + m + i - 1)]
    for r in range(1, m + 1):  # core row a + r
        downs += [(1, (b + a + h) // 2 + m - r), (1, (c + a - h) // 2 + r - 1)]
    return pochhammer_ratio(ups, downs), matrix


def transformed_cored_matrix(
    a: int, b: Number, c: Number, m: int, shifted: bool = False
) -> ExactMatrix:
    """The Pochhammer-product matrix D_1 (unshifted) or D_2 (shifted); its
    entries are polynomials in b and c, so rational arguments are allowed.

    Entry (i, j) is a product of j-1 and n-j stepped factors, each an
    integer over L = 2 lcm(den b, den c), so every row is over L^(n-1)."""
    if min(a, m) < 0:
        raise ValueError(f"a and m must be nonnegative, got a={a}, m={m}")
    n = a + m
    L = 2 * lcm(b.denominator, c.denominator)
    B, C = b.numerator * (L // b.denominator), c.numerator * (L // c.denominator)
    half = L // 2 if shifted else 0
    rows = []
    for i in range(1, n + 1):
        # the two bases at j = 0, times L: c + m + i + 1 and b - i + 1 on the
        # first a rows, (c - a)/2 - half + i + 1 and (b + a)/2 + half - i + 1 below
        if i <= a:
            low, high = C + (m + i + 1) * L, B + (1 - i) * L
        else:
            low = (C - a * L) // 2 - half + (i + 1) * L
            high = (B + a * L) // 2 + half + (1 - i) * L
        rows.append(
            [
                stepped_product(low - j * L, L, j - 1) * stepped_product(high + j * L, L, n - j)
                for j in range(1, n + 1)
            ]
        )
    return _matrix(rows, [L ** max(n - 1, 0)] * n)


def laplace_two_block(matrix: ExactMatrix, top_rows: int):
    """Laplace expansion along the first ``top_rows`` rows:
    sum over column subsets K, counted from 0, of (-1)^(sum K - binom(t, 2))
    times the two complementary minors.  Equals the determinant."""
    n, t = matrix.nrows, top_rows
    if n != matrix.ncols:
        raise ValueError("determinant of a non-square matrix")
    if not 0 <= t <= n:
        raise ValueError(f"top_rows must lie in 0..{n}, got {t}")
    total = 0
    for K in combinations(range(n), t):
        top = matrix.submatrix(range(t), K)
        bottom = matrix.submatrix(range(t, n), [j for j in range(n) if j not in K])
        term = det_fraction_free(top) * det_fraction_free(bottom)
        total = total + (term if (sum(K) - t * (t - 1) // 2) % 2 == 0 else -term)
    return total


# --- the auxiliary determinants used for the -1 evaluation ----------------


def build_Zn(n: int, x: Number, mu: Number) -> ExactMatrix:
    """-delta_ij + sum_{t,k} binom(i+mu, t) binom(k, t) binom(j-k+mu-1, j-k)
    x^(k-t), 0 <= i, j < n.

    Every binomial here is an integer over scale = _binomial_den(den(mu), n-1)
    and every power of x an integer over den(x)^(n-1), so each entry is
    summed on ints and every row is over scale^2 den(x)^(n-1)."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    top = max(n - 1, 0)
    p, q = mu.numerator, mu.denominator
    scale = _binomial_den(q, top)
    left = [[_binomial_num(p + i * q, q, t, top) for t in range(n)] for i in range(n)]
    right = [_binomial_num(p + (d - 1) * q, q, d, top) for d in range(n)]
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
            row.append(acc - den if i == j else acc)
        rows.append(row)
    return _matrix(rows, [den] * n)


def zn_factor_pair(n: int, x: Number, mu: Number) -> tuple[Fraction, Fraction]:
    """(det Z_n, the signed product of the two half-size determinants);
    the right component is 0 for odd n.

    For even n = 2h the blocks are, for 0 <= i, j < h and t < n,
    sum_t (t+1)/(j+1) binom(i+mu, t-i) binom(j+1, t-j) x^(2j+1-t) and
    sum_t (t+mu+1)/(i+mu+1) binom(i+mu+1, t-i) binom(j, t-j) x^(2j-t).
    With mu = p/q, every binomial in mu is an integer over
    scale = _binomial_den(q, n-1) and every power of x an integer over
    den(x)^h, so the entries are summed on ints: the first block's column
    factors 1/(j+1) come out as one division by h!, and the second block's
    row i is over (p + (i+1) q) scale den(x)^h.  A zero i + mu + 1 raises
    ZeroDivisionError."""
    x, mu = frac(x), frac(mu)
    lhs = frac(det_fraction_free(build_Zn(n, x, mu)))
    if n % 2 == 1:
        return lhs, Fraction(0)
    half, top = n // 2, max(n - 1, 0)
    p, q = mu.numerator, mu.denominator
    binoms = [[_binomial_num(p + r * q, q, k, top) for k in range(n)] for r in range(half + 1)]
    powers = [x.numerator**e * x.denominator ** (half - e) for e in range(half + 1)]
    den = _binomial_den(q, top) * x.denominator**half
    first = [
        [
            sum(
                (t + 1) * binoms[i][t - i] * comb(j + 1, t - j) * powers[2 * j + 1 - t]
                for t in range(max(i, j), 2 * j + 2)
            )
            for j in range(half)
        ]
        for i in range(half)
    ]
    second, second_dens = [], []
    for i in range(half):
        pole = p + (i + 1) * q  # (i + mu + 1) q
        if pole == 0:
            raise ZeroDivisionError(f"i + mu + 1 vanishes at row {i} of the second block")
        sign = 1 if pole > 0 else -1
        second.append(
            [
                sign * sum(
                    (p + (t + 1) * q) * binoms[i + 1][t - i] * comb(j, t - j) * powers[2 * j - t]
                    for t in range(max(i, j), 2 * j + 1)
                )
                for j in range(half)
            ]
        )
        second_dens.append(sign * pole * den)
    num, scale = (-1) ** half, factorial(half)
    for block in (_matrix(first, [den] * half), _matrix(second, second_dens)):
        num *= _bareiss([list(row) for row in block.rows], *_INT_RING)
        scale *= prod(block.dens)
    return lhs, Fraction(num, scale)


def build_VW(n: int, m: Number) -> tuple[ExactMatrix, ExactMatrix]:
    """The two n x n matrices indexed by (2i+r, 2j+s), r, s in {0, 1}:
    V = (-1)^(r+s) binom(i+j+r+s+m/2, s+2j-i),  W = binom(i+j+m/2, s+2j-i-r);
    over Q when m/2 = p/q is not an integer, each row over q^(n-1) (n-1)!."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    half_m = frac(m) / 2
    p, q, K = half_m.numerator, half_m.denominator, max(n - 1, 0)
    cells = [divmod(k, 2) for k in range(n)]

    def num(top, k):  # binom(top + m/2, k) over the row denominator
        return _binomial_num(p + top * q, q, k, K)

    V = [[(-1) ** (r + s) * num(i + j + r + s, s + 2 * j - i) for j, s in cells] for i, r in cells]
    W = [[num(i + j, s + 2 * j - i - r) for j, s in cells] for i, r in cells]
    dens = [_binomial_den(q, K)] * n
    return _matrix(V, dens), _matrix(W, dens)


def th10_pair(n: int, x: int, y: int) -> tuple[Fraction, Fraction]:
    """Determinant of ((x+y+i+j-1)! / ((x+2i-j)! (y+2j-i)!)), 1/k! = 0 for
    negative k, against its product evaluation, both exact.

    Row i is over (x+2i)! (y+2n-2-i)!, which turns each entry into
    (x+y+i+j-1)! times the falling factorials (x+2i)!/(x+2i-j)! and
    (y+2n-2-i)!/(y+2j-i)!; each has a zero factor exactly when its lower
    argument is negative, as 1/k! = 0 asks."""
    if min(n, x, y) < 0:
        raise ValueError("n, x and y must be nonnegative integers")
    if n > 0 and x + y == 0:
        raise ValueError("x + y must be positive for a nonempty matrix")
    top = 2 * n - 2
    rows = [
        [
            factorial(x + y + i + j - 1) * perm(x + 2 * i, j) * perm(y + top - i, top - 2 * j)
            for j in range(n)
        ]
        for i in range(n)
    ]
    dens = [factorial(x + 2 * i) * factorial(y + top - i) for i in range(n)]
    lhs = frac(det_fraction_free(_matrix(rows, dens)))
    num = den = 1
    for i in range(n):
        num *= factorial(i) * factorial(x + y + i - 1)
        num *= stepped_product(2 * x + y + 2 * i, 1, i) * stepped_product(x + 2 * y + 2 * i, 1, i)
        den *= factorial(x + 2 * i) * factorial(y + 2 * i)
    return lhs, Fraction(num, den)


def principal_minor_sum(matrix: ExactMatrix):
    """Sum of all principal minors (including the empty one); equals
    det(I + M)."""
    n = matrix.nrows
    if n != matrix.ncols:
        raise ValueError("determinant of a non-square matrix")
    total = 1
    for k in range(1, n + 1):
        for rows in combinations(range(n), k):
            total = total + det_fraction_free(matrix.submatrix(rows, rows))
    return total
