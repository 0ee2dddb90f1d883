"""Test reference for determinants: Gaussian elimination over Q and over
Q(tau), tau^2 = t*tau - 1 (t = -1 for omega3, t = 1 for omega6), on exact
Fractions.

It shares no code with the package: an element of Q(tau) is a pair
(c0, c1) of Fractions for c0 + c1*tau, multiplied and inverted here, and
each column pivots on its first nonzero entry.  `det_fraction_free` must
agree with it on every matrix, whatever pivots the kernel takes.
"""

from __future__ import annotations

from fractions import Fraction


def _mul(x, y, t):
    (a, b), (c, d) = x, y
    bd = b * d
    return (a * c - bd, a * d + b * c + t * bd)


def _inverse(x, t):
    # x times its conjugate (c0 + t c1) - c1 tau is the rational norm
    a, b = x
    norm = a * a + t * a * b + b * b
    return ((a + t * b) / norm, -b / norm)


def determinant(rows, t=None):
    """The determinant of the square matrix `rows`: entries are ints or
    Fractions when t is None, else pairs (c0, c1) of ints or Fractions in
    Q(tau) with tau^2 = t*tau - 1.  Returns a Fraction or a pair of
    Fractions."""
    if t is None:
        m = [[(Fraction(x), Fraction(0)) for x in row] for row in rows]
    else:
        m = [[(Fraction(x[0]), Fraction(x[1])) for x in row] for row in rows]
    zero = (Fraction(0), Fraction(0))
    det = (Fraction(1), Fraction(0))
    trace = 0 if t is None else t  # rational entries keep c1 = 0 under any t
    n = len(m)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != zero), None)
        if pivot is None:
            det = zero
            break
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = (-det[0], -det[1])
        det = _mul(det, m[k][k], trace)
        inverse = _inverse(m[k][k], trace)
        for i in range(k + 1, n):
            if m[i][k] != zero:
                factor = _mul(m[i][k], inverse, trace)
                for j in range(k, n):
                    x = _mul(factor, m[k][j], trace)
                    m[i][j] = (m[i][j][0] - x[0], m[i][j][1] - x[1])
    return det[0] if t is None else det


def zero_biased_rows(rng, n: int, pairs: bool = False, max_den: int = 1):
    """Seeded n x n coordinate rows for the kernel (ints, or (c0, c1) int
    pairs) and their row denominators, 1 up to max_den.

    Entries lean to 0 and +-1 with a share of zeros drawn per matrix, so
    pivot swaps and rows rescaled over several steps occur; a few columns
    are scaled by 2, 3 or 6 so that pivots other than +-1 (and with them
    two-step passes) occur, and one column may repeat a multiple of the one
    before it, up to one entry, so that a pair of pivot columns is singular
    on most rows."""
    zeros = rng.choice((0.2, 0.4, 0.6, 0.8))

    def coordinate():
        r = rng.random()
        if r < zeros:
            return 0
        r = rng.random()
        if r < 0.6:
            return rng.choice((1, -1))
        return rng.randint(-9, 9) if r < 0.95 else rng.randint(-(2**40), 2**40)

    scales = [rng.choice((1, 1, 1, 2, 3, 6)) for _ in range(n)]
    columns = [[coordinate() * s for _ in range(2 if pairs else 1) for _ in range(n)] for s in scales]
    if n > 2 and rng.random() < 0.3:
        j, factor = rng.randrange(n - 1), rng.choice((1, -1, 2))
        columns[j + 1] = [factor * x for x in columns[j]]
        if rng.random() < 0.5:
            columns[j + 1][rng.randrange(len(columns[j + 1]))] += 1
    if pairs:
        rows = [[(columns[j][2 * i], columns[j][2 * i + 1]) for j in range(n)] for i in range(n)]
    else:
        rows = [[columns[j][i] for j in range(n)] for i in range(n)]
    return rows, [rng.randint(1, max_den) for _ in range(n)]


def staircase_rows(rng, n: int, t=None):
    """Seeded n x n coordinate rows shaped like the cored matrices, on which
    the kernel takes runs of unit steps: ints when t is None, else (c0, c1)
    int pairs of Z[tau], tau^2 = t*tau - 1.

    The first rows are a staircase: row i leads with an entry in column i
    and carries a banded tail of up to four entries that ends in zeros.
    Most leads are 1.  A unit u other than 1 ends a run of unit pivots, and
    u^-1 a lead or two later resumes it; a lead of larger size ends it for
    good.  The other rows are dense and zero-biased; they sit below the
    staircase, and on some matrices a few of them above it.  Where u ends a
    run, the staircase rows from u's to u^-1's are zero past their leads up
    to the next lead, and one dense row is zero in those columns, nonzero in
    u's and the next lead's: it is rescaled across pivots other than 1 and
    then takes a unit step."""
    if t is None:
        zero, one, inverses, larger = 0, 1, ((-1, -1),), (2, 3, -2, 6)
    else:
        zero, one, larger = (0, 0), (1, 0), ((2, 0), (1, -2), (0, 3))
        # tau^-1 = t - tau
        inverses = (
            ((-1, 0), (-1, 0)), ((0, 1), (t, -1)), ((t, -1), (0, 1)), ((0, -1), (-t, 1))
        )

    def entry(bound):
        r = rng.random()
        if r < 0.3:
            return zero
        top = 2**40 if r > 0.97 else bound
        coordinates = [rng.randint(-top, top) for _ in range(1 if t is None else 2)]
        return coordinates[0] if t is None else tuple(coordinates)

    steps = rng.randint((n + 1) // 2, n) if n else 0
    values, pairs = [], []  # pairs: the columns of u and of u^-1
    while len(values) < steps:
        r = rng.random()
        if r < 0.7:
            values.append(one)
        elif r < 0.9:
            u, inverse = rng.choice(inverses)
            gap = rng.randint(0, 1)
            pairs.append((len(values), len(values) + gap + 1))
            values += [u] + [one] * gap + [inverse]
        else:
            values.append(rng.choice(larger))
    values = values[:steps]
    rows = []
    for c, value in enumerate(values):
        row = [zero] * n
        row[c] = value
        for j in range(c + 1, min(n, c + 1 + rng.randint(0, 4))):
            row[j] = entry(3)
        rows.append(row)
    dense = [[entry(rng.choice((1, 3, 9))) for _ in range(n)] for _ in range(n - steps)]
    for c, c2 in pairs:
        if c2 + 1 >= steps or not dense:
            continue
        for i in range(c2 + 1):  # no fill-in in columns c+1..c2
            for j in range(max(i + 1, c + 1), c2 + 1):
                rows[i][j] = zero
        row = rng.choice(dense)
        row[c + 1 : c2 + 1] = [zero] * (c2 - c)
        for j in (c, c2 + 1):
            while row[j] == zero:
                row[j] = entry(3)
    above = rng.randint(0, len(dense)) if rng.random() < 0.2 else 0
    return dense[:above] + rows + dense[above:]
