"""Exact matrices for the lattice-path determinants and their evaluation.

A matrix holds what the one Bareiss (fraction-free) kernel eats: rows of
ints over Z and Q, or of (c0, c1) int pairs over Z[w3] and Z[w6], each row
over a positive denominator.  Every builder, Z_n's half-size blocks
included, sums its entries on these coordinates, a rational argument giving
the rows a denominator; no matrix is built from exact entries.  A builder
states its ring from its parameters, not from the values it builds, and
keeps its rows as built: no row is put in lowest terms.  The cored
matrix's two row blocks are windows of one sequence binom(top, k) each, so
building it takes one `comb` per k.  Before the kernel runs, each row's
content (the gcd of its ints, or of both coordinates of its pairs) is taken
out, the one reduction a row gets, and the product of the contents
multiplies the kernel's determinant of the primitive rows.  The kernel runs
over a ring table (zero, one, size, step, sub) whose step is one checked
whole-row operation, [(a v - b w) / d for v, w in zip(row, tail)], or with
a third term [(a v - b w + c u) / d ...], and whose sub writes v - x w in
place over a span of a row; over Z[tau] (tau^2 = t*tau - 1) step
multiplies pairs inline, with the conjugate and norm from `exactnum`, and
sub is the step by 1 over 1.  The determinant is divided once by the
product of the row denominators.  Every division is exact and checked
(AssertionError otherwise), a step by d = 1 divides nothing, and every row
is current at every step.  Each step pivots on the smallest nonzero entry
of its column (in bit length), which keeps the intermediate minors small;
the scan stops at the first entry of 1's size.  Most cored-matrix rows
lead with a 1 in a column of their own: where the pivot and the one before
are both 1, a step subtracts x times the pivot row only up to the pivot
row's last nonzero entry, by sub, as v - x 0 = v past it.  Where neither
the previous pivot nor the new one is 1 and at least three rows lie below
the pivot row, one pass clears two columns (Bareiss's two-step method,
Math. Comp. 22, 1968): each entry costs three products and one checked
division by the previous pivot, not the four and two of two single steps,
and the rows between are never formed.  On the order-40 cored matrix
C_{20,20,20}(20) the kernel's steps form 0.87M bits on the primitive rows,
1.12M with single steps alone.
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
    pair_norm,
    pochhammer_pair,
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
    THIRD and SIXTH, kept as given, not put in lowest terms; the row
    denominators are positive and all 1 when left out.  Rows of unequal
    lengths, a denominator count other than the row count, or a denominator
    other than 1 in the integer ring raise ValueError."""

    ring: str
    rows: tuple[tuple, ...]
    dens: tuple[int, ...] = None

    def __post_init__(self):
        if self.dens is None:
            object.__setattr__(self, "dens", (1,) * len(self.rows))
        elif len(self.dens) != len(self.rows):
            raise ValueError(f"{len(self.dens)} row denominators for {len(self.rows)} rows")
        elif self.ring == RING_INTEGER and self.dens.count(1) != len(self.dens):
            raise ValueError("a row denominator other than 1 cannot be put in the integer ring")
        if len(set(map(len, self.rows))) > 1:
            raise ValueError("ragged rows: every row needs the same number of entries")

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


def _matrix(rows, dens, ring: str) -> ExactMatrix:
    """The rows over their denominators in `ring`, kept as built."""
    return ExactMatrix(ring, tuple(map(tuple, rows)), tuple(dens))


def _int_step(row, a, tail, b, d, c=None, other=None):
    """[(a v - b w) / d for v, w in zip(row, tail)], each division checked;
    with a third term, [(a v - b w + c u) / d for v, w, u in zip(row, tail,
    other)]."""
    if other is not None:
        out = []
        for v, w, u in zip(row, tail, other):
            q, r = divmod(a * v - b * w + c * u, d)
            if r:
                raise AssertionError("fraction-free elimination requires exact division")
            out.append(q)
        return out
    if d == 1:
        return [a * v - b * w for v, w in zip(row, tail)]
    out = []
    for v, w in zip(row, tail):
        q, r = divmod(a * v - b * w, d)
        if r:
            raise AssertionError("fraction-free elimination requires exact division")
        out.append(q)
    return out


def _pair_ring(t: int):
    """Z[tau] on (c0, c1) integer pairs, tau^2 = t*tau - 1.  A product by a
    fixed a is (a0 v0 - a1 v1, a1 v0 + (a0 + t a1) v1), a's coordinates
    bound once per step.  A row step divides by d as a multiply by its
    conjugate and a checked division by its norm, both computed once per
    step; by d = 1 it divides nothing.  sub is the step by a = 1 over d = 1
    on its span."""
    one = (1, 0)

    def size(x) -> int:
        return max(x[0].bit_length(), x[1].bit_length())

    def step(row, a, tail, b, d, c=None, other=None):
        (a0, a1), (b0, b1) = a, b
        at, bt = a0 + t * a1, b0 + t * b1
        if other is None:
            out = [
                (a0 * v0 - a1 * v1 - b0 * w0 + b1 * w1, a1 * v0 + at * v1 - b1 * w0 - bt * w1)
                for (v0, v1), (w0, w1) in zip(row, tail)
            ]
        else:
            c0, c1 = c
            ct = c0 + t * c1
            out = [
                (
                    a0 * v0 - a1 * v1 - b0 * w0 + b1 * w1 + c0 * u0 - c1 * u1,
                    a1 * v0 + at * v1 - b1 * w0 - bt * w1 + c1 * u0 + ct * u1,
                )
                for (v0, v1), (w0, w1), (u0, u1) in zip(row, tail, other)
            ]
        if d == one:
            return out
        (g0, g1), norm = pair_conjugate(d, t), pair_norm(d, t)
        gt = g0 + t * g1
        for j, (x0, x1) in enumerate(out):
            (q0, r0), (q1, r1) = divmod(g0 * x0 - g1 * x1, norm), divmod(g1 * x0 + gt * x1, norm)
            if r0 or r1:
                raise AssertionError("fraction-free elimination requires exact division")
            out[j] = (q0, q1)
        return out

    def sub(row, x, span, start):
        end = start + len(span)
        row[start:end] = step(row[start:end], one, span, x, one)

    return (0, 0), one, size, step, sub


def _int_sub(row, x, span, start):
    """v - x w for the entries v from row[start] on and w in span, in place:
    the step by a = 1 over d = 1, over the span alone."""
    end = start + len(span)
    row[start:end] = [v - x * w for v, w in zip(row[start:end], span)]


_INT_RING = (0, 1, int.bit_length, _int_step, _int_sub)
_KERNEL_RINGS = {ring: _pair_ring(t) for ring, t in TRACE.items()}


def _bareiss(m, zero, one, size, step, sub):
    """Determinant of the square list of rows m (overwritten) over one ring:
    step(row, a, tail, b, d) is [(a v - b w) / d for v, w in zip(row, tail)]
    and step(row, a, tail, b, d, c, other) adds c u for u in other to each
    numerator, each division checked; sub(row, x, span, start) sets the
    entries v from row[start] on to v - x w for w in span, the step by
    a = 1 over d = 1, in place; size(x) is the bit length the pivot rule
    uses.

    Step k sets each later row to (p_k row - row[k] pivot_row) / p_{k-1}, so
    every row is current at every step.  A row with row[k] = 0 is rescaled
    at once by p_k / p_{k-1}, a division exact too, as the entries are
    minors, and checked; it is left as it is only where p_k = p_{k-1}.

    The pivot p_k is the smallest nonzero column-k entry among rows k..n-1;
    ties go to the lowest row, and each swap flips the sign.  Small pivots
    keep the minors formed along the way small: on the cored-hexagon
    matrices the quotients carry about a fifth of the bits that diagonal
    pivots form.  No nonzero entry is smaller than size(one), so the scan
    stops at the first entry of that size: the rule's own choice.

    A unit step, where p_k and p_{k-1} are both 1, sets each later row
    nonzero in column k to row - row[k] pivot_row by sub, in place over
    columns k+1 up to the pivot row's last nonzero entry: past it the
    entries would be v - x 0 = v, so they are not formed.

    When neither d = p_{k-1} nor p_k is 1 and at least three rows lie below
    the pivot row, one pass clears columns k and k+1 (Bareiss's two-step
    method: E. H. Bareiss, "Sylvester's identity and multistep
    integer-preserving Gaussian elimination", Math. Comp. 22, 1968).  One
    step over the entries of every later row forms its level-(k+1) entry
    e = (p_k row[k+1] - row[k] pivot_row[k+1]) / d.  The row with the
    smallest nonzero e, the lowest on ties (the pivot rule's choice at
    step k+1, sized exactly), is swapped to k+1, flipping the sign, and its
    e is p_{k+1}; no nonzero e means det = 0.  With r that second pivot row,
    one more step forms f = (r[k] row[k+1] - r[k+1] row[k]) / d, and every
    other later row's tail becomes (p_{k+1} row - e r + f pivot_row) / d,
    Sylvester's 3 x 3 minor over d^2: three products and one checked
    division per entry where two single steps take four and two, and no
    level-(k+1) row is formed.  A row zero in both columns has e = f = 0,
    so it is rescaled by p_{k+1} / d.  Where d or p_k is 1 a single step
    costs one product or none, and with two rows below the pivot row the
    pass would form one product more per row than two single steps and no
    fewer divisions, so there the single steps stay."""
    n = len(m)
    if n == 0:
        return one
    sign, prev, least_size = 1, one, size(one)
    columns = iter(range(n - 1))
    for k in columns:
        best = None
        for i in range(k, n):
            x = m[i][k]
            if x != zero:
                s = size(x)
                if best is None or s < least:
                    best, least = i, s
                    if s == least_size:  # no entry is smaller, and ties go to it
                        break
        if best is None:
            return zero
        if best != k:
            m[k], m[best] = m[best], m[k]
            sign = -sign
        pivot_row = m[k]
        p, end = pivot_row[k], n
        unit = p == one and prev == one
        if unit:  # a unit step's tail ends at the last nonzero entry
            while pivot_row[end - 1] == zero:
                end -= 1
        tail = pivot_row[k + 1 : end]
        if prev == one or p == one or n - k < 4:  # a single step
            for row in m[k + 1 :]:
                x = row[k]
                if x != zero or p != prev:  # where x is 0 the step only rescales
                    if unit:
                        sub(row, x, tail, k + 1)
                    else:
                        row[k + 1 :] = step(row[k + 1 :], p, tail, x, prev)
            prev = p
            continue
        # two-step pass over every later row; e and f take one step each over
        # all of them (explicit loops: a comprehension here would make k a
        # closure cell)
        rows, lead, next_col = m[k + 1 :], [], []
        for row in rows:
            lead.append(row[k])
            next_col.append(row[k + 1])
        e = step(next_col, p, lead, tail[0], prev)
        best = None
        for j, x in enumerate(e):
            if x != zero:
                s = size(x)
                if best is None or s < least:
                    best, least = j, s
        if best is None:
            return zero
        second, p_next = rows[best], e[best]
        if best:
            m[k + 1], m[k + 1 + best] = second, m[k + 1]
            sign = -sign
        f = step(next_col, second[k], lead, second[k + 1], prev)
        first_tail, second_tail = tail[1:], second[k + 2 :]
        for j, row in enumerate(rows):
            if j != best:
                row[k + 2 :] = step(row[k + 2 :], p_next, second_tail, e[j], prev, f[j], first_tail)
        prev = p_next
        next(columns)  # column k+1 is cleared too
    result = m[n - 1][n - 1]
    return result if sign > 0 else step([result], zero, [result], one, one)[0]


def _coordinate_det(matrix: ExactMatrix):
    """The determinant of the coordinate rows, an int or an int pair: each
    row's content (the gcd of its ints, or of both coordinates of its
    pairs) is taken out first, and the Bareiss determinant of the primitive
    rows is multiplied by the product of the contents.  This is the one
    place a row is reduced; a zero row is left as it is."""
    pairs, rows, content = matrix.ring in TRACE, [], 1
    for row in matrix.rows:
        g = gcd(*(chain.from_iterable(row) if pairs else row))
        if g > 1:
            row = [(x // g, y // g) for x, y in row] if pairs else [x // g for x in row]
            content *= g
        rows.append(list(row))
    if pairs:
        c0, c1 = _bareiss(rows, *_KERNEL_RINGS[matrix.ring])
        return content * c0, content * c1
    return content * _bareiss(rows, *_INT_RING)


def det_fraction_free(matrix: ExactMatrix):
    """Determinant of the coordinate rows (`_coordinate_det`) divided once
    by the product of the row denominators: an int, a Fraction, or a
    CycloElement in the matrix's ring.  Every division is exact and
    checked."""
    if matrix.nrows != matrix.ncols:
        raise ValueError("determinant of a non-square matrix")
    det, scale = _coordinate_det(matrix), prod(matrix.dens)
    if matrix.ring in TRACE:
        return CycloElement.of(matrix.ring, Fraction(det[0], scale), Fraction(det[1], scale))
    return det if matrix.ring == RING_INTEGER else Fraction(det, scale)


def plus_scaled(Y: ExactMatrix, omega, X: ExactMatrix | None = None) -> ExactMatrix:
    """Y + omega*X for Y and X over Z or Q, X the identity when left out, and
    omega an int, a Fraction or a CycloElement.  The sum is over omega's
    cyclotomic ring, else over Q when omega, Y or X is rational, else Z.
    Without X, omega is added to the diagonal, and a row over Z is not
    rescaled."""
    n = Y.nrows
    shape, rings = ((n, n), {Y.ring}) if X is None else ((X.nrows, X.ncols), {X.ring, Y.ring})
    if shape != (n, Y.ncols) or rings - {RING_INTEGER, RING_RATIONAL}:
        raise ValueError("Y + omega*X needs two matrices of one shape over Z or Q")
    cyclo = isinstance(omega, CycloElement)
    w = (omega.c0, omega.c1) if cyclo else (omega,)
    q = lcm(*(c.denominator for c in w))
    w = [c.numerator * (q // c.denominator) for c in w]
    rational = q > 1 or RING_RATIONAL in rings
    ring = omega.ring if cyclo else RING_RATIONAL if rational else RING_INTEGER
    rows, dens = [], []
    for i, (y_row, dy) in enumerate(zip(Y.rows, Y.dens)):
        dx, wx, den = 1 if X is None else X.dens[i], w, 1
        if rational:
            den = lcm(q * dx, dy)
            wx = [c * (den // (q * dx)) for c in w]
            if den != dy:
                y_row = [den // dy * y for y in y_row]
        if X is None:
            row = [(y, 0) for y in y_row] if cyclo else list(y_row)
            row[i] = (y_row[i] + wx[0], wx[1]) if cyclo else y_row[i] + wx[0]
        elif cyclo:
            row = [(wx[0] * x + y, wx[1] * x) for x, y in zip(X.rows[i], y_row)]
        else:
            row = [wx[0] * x + y for x, y in zip(X.rows[i], y_row)]
        rows.append(row)
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


def _core_shift(a: int, b: int, c: int, m: int, epsilon: Number | None) -> int:
    """The core rows' column shift (b + a)/2 + epsilon, arguments checked."""
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
    return shift


def build_cored_matrix(a: int, b: int, c: int, m: int, epsilon: Number | None = None) -> ExactMatrix:
    """The (a+m) x (a+m) lattice-path matrix for the cored hexagon, with the
    core column offset epsilon in {0, 1/2, 1, 3/2}.  Left out, epsilon
    follows the core's placement: 0 (centered) when a = b (mod 2), else 1/2
    (shifted half a unit); the off-center conjectures pass 1 and 3/2.

    Rows 1..a count paths from the side of length a, rows a+1..a+m paths
    from the core side; 1-based (i, j) as in the row descriptions."""
    shift = _core_shift(a, b, c, m, epsilon)
    n = a + m
    # row i is the window binom(top, low + j), j = 1..n, with low = b - i on
    # the first a rows and shift - i below
    outer = _binomial_windows(b + c + m, range(b, b - a, -1), n)
    core = _binomial_windows((b + c) // 2, range(shift - a, shift - n, -1), n)
    return ExactMatrix(RING_INTEGER, outer + core)


def _binomial_windows(top: int, starts: range, n: int) -> tuple[tuple[int, ...], ...]:
    """For each s in starts, the row (binom(top, s), ..., binom(top, s + n - 1)),
    binom(top, k) = 0 for k < 0 or k > top; one `comb` per k the rows span."""
    if not starts:
        return ()
    low = min(starts)
    seq = tuple(comb(top, k) if k >= 0 else 0 for k in range(low, max(starts) + n))
    return tuple(seq[s - low : s - low + n] for s in starts)


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
    quotient of factorials n! = (1)_n, the triples (1, 1, n).  After D's
    own check of a and m, it refuses what `build_cored_matrix` refuses."""
    matrix = transformed_cored_matrix(a, b, c, m, shifted)
    h = int(shifted)
    _core_shift(a, b, c, m, Fraction(h, 2))
    ups = [(1, 1, b + c + m)] * a + [(1, 1, (b + c) // 2)] * m
    downs = [(1, 1, n) for i in range(1, a + 1) for n in (b + a + m - i, c + m + i - 1)]
    for r in range(1, m + 1):  # core row a + r
        downs += [(1, 1, (b + a + h) // 2 + m - r), (1, 1, (c + a - h) // 2 + r - 1)]
    return Fraction(*pochhammer_pair(ups, downs)), matrix


def transformed_cored_matrix(
    a: int, b: Number, c: Number, m: int, shifted: bool = False
) -> ExactMatrix:
    """The Pochhammer-product matrix D_1 (unshifted) or D_2 (shifted); its
    entries are polynomials in b and c, so rational arguments are allowed.

    Entry (i, j) is a product of j-1 and n-j stepped factors, each an
    integer over L = 2 lcm(den b, den c), so every row is over L^(n-1) and
    the matrix over Q."""
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
    return _matrix(rows, [L ** max(n - 1, 0)] * n, RING_RATIONAL)


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
    summed on ints and every row is over scale^2 den(x)^(n-1); over Z
    exactly when x and mu are integers."""
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
    ring = RING_INTEGER if x.denominator == q == 1 else RING_RATIONAL
    return _matrix(rows, [den] * n, ring)


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
    row i is over (p + (i+1) q) scale den(x)^h; both blocks are over Q.  A
    zero i + mu + 1 raises ZeroDivisionError."""
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
    for rows, dens in ((first, [den] * half), (second, second_dens)):
        num *= _coordinate_det(_matrix(rows, dens, RING_RATIONAL))
        scale *= prod(dens)
    return lhs, Fraction(num, scale)


def build_VW(n: int, m: Number) -> tuple[ExactMatrix, ExactMatrix]:
    """The two n x n matrices indexed by (2i+r, 2j+s), r, s in {0, 1}:
    V = (-1)^(r+s) binom(i+j+r+s+m/2, s+2j-i),  W = binom(i+j+m/2, s+2j-i-r);
    over Z exactly when m/2 = p/q is an integer, else each row is over
    q^(n-1) (n-1)!."""
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
    ring = RING_INTEGER if q == 1 else RING_RATIONAL
    return _matrix(V, dens, ring), _matrix(W, dens, ring)


def th10_pair(n: int, x: int, y: int) -> tuple[Fraction, Fraction]:
    """Determinant of ((x+y+i+j-1)! / ((x+2i-j)! (y+2j-i)!)), 1/k! = 0 for
    negative k, against its product evaluation, both exact.

    Row i is over (x+2i)! (y+2n-2-i)!, which turns each entry into
    (x+y+i+j-1)! times the falling factorials (x+2i)!/(x+2i-j)! and
    (y+2n-2-i)!/(y+2j-i)!; each has a zero factor exactly when its lower
    argument is negative, as 1/k! = 0 asks.  The matrix is over Q."""
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
    lhs = frac(det_fraction_free(_matrix(rows, dens, RING_RATIONAL)))
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
