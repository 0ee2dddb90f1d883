import os
import random
from fractions import Fraction
from itertools import product
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from cored_hexagons import exactnum, lgv
from cored_hexagons.exactnum import CycloElement, SIXTH, THIRD, omega3, omega6
from cored_hexagons.formulas import count_cored_formula
from cored_hexagons.lgv import (
    RING_CYCLO3,
    RING_CYCLO6,
    RING_INTEGER,
    RING_RATIONAL,
    ExactMatrix,
    build_B,
    build_VW,
    build_Zn,
    build_cored_matrix,
    build_n6_matrix,
    build_omega_shift,
    cored_det_transform,
    det_fraction_free,
    laplace_two_block,
    matrix_mul,
    plus_scaled,
    principal_minor_sum,
    th10_pair,
    transformed_cored_matrix,
    zn_factor_pair,
)
from cored_hexagons.tilings import CoredHexagon, count_weighted
from elimination_reference import determinant as elimination_det, staircase_rows, zero_biased_rows
from text_formats import matrix_of, matrix_to_text, matrix_values

DATA = os.path.join(os.path.dirname(__file__), "data")


def cofactor_det(rows):
    """Laplace expansion along the first row, each minor computed once: the
    minor on the last k rows is memoized on the set of k columns it keeps."""
    n, minors = len(rows), {0: 1}

    def minor(columns):  # a bitmask
        if columns not in minors:
            row, total, sign = rows[n - columns.bit_count()], 0, 1
            for j in range(n):
                if columns >> j & 1:
                    term = row[j] * minor(columns & ~(1 << j))
                    total = total + (term if sign > 0 else -term)
                    sign = -sign
            minors[columns] = total
        return minors[columns]

    return minor((1 << n) - 1)


def cored_matrix_entries(a, b, c, m, epsilon):
    """build_cored_matrix's rows entry by entry: binom(b+c+m, b-i+j) on rows
    1..a and binom((b+c)/2, (b+a)/2 + epsilon - i + j) below, 1-based, 0 for
    a negative lower index."""
    shift = Fraction(b + a, 2) + epsilon
    assert shift.denominator == 1
    n = a + m

    def entry(i, j):
        top, k = (b + c + m, b - i + j) if i <= a else ((b + c) // 2, int(shift) - i + j)
        return comb(top, k) if k >= 0 else 0

    return tuple(tuple(entry(i, j) for j in range(1, n + 1)) for i in range(1, n + 1))


class TestDeterminant:
    def test_empty_matrix(self):
        assert det_fraction_free(matrix_of([])) == 1

    def test_identity(self):
        zero = matrix_of([[0] * 5] * 5)
        assert det_fraction_free(plus_scaled(zero, 1)) == 1

    def test_small_example(self):
        assert det_fraction_free(matrix_of([[2, 1], [1, 3]])) == 5

    def test_matches_cofactor_expansion(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert det_fraction_free(matrix_of(rows)) == cofactor_det(rows)

    def test_rational_entries(self):
        rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(2, 7)]]
        assert det_fraction_free(matrix_of(rows)) == cofactor_det(rows)

    def test_singular(self):
        assert det_fraction_free(matrix_of([[1, 2], [2, 4]])) == 0

    def test_cyclo_diagonal(self):
        w = omega3()
        zero = CycloElement.of(THIRD, 0)
        m = matrix_of([[w, zero], [zero, w]])
        assert det_fraction_free(m) == CycloElement.of(THIRD, -1, -1)

    def test_needs_square(self):
        with pytest.raises(ValueError):
            det_fraction_free(matrix_of([[1, 2, 3], [4, 5, 6]]))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_cofactor_in_every_ring(self, data):
        # entries are biased towards 0 so that pivot swaps, singular matrices
        # and rows rescaled over several steps all occur; they come from a
        # seeded generator, so hypothesis draws five values per example
        ring = data.draw(st.sampled_from(["integer", "rational", THIRD, SIXTH]))
        max_den = 1 if ring == "integer" else data.draw(st.sampled_from([1, 4]))
        zero_share = data.draw(st.integers(0, 3))
        n = data.draw(st.integers(0, 6))
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))

        def coordinate():
            if rng.randint(0, 3) < zero_share:
                return Fraction(0)
            return Fraction(rng.randint(-4, 4), rng.randint(1, max_den))

        def entry():
            if ring in (THIRD, SIXTH):
                return CycloElement.of(ring, coordinate(), coordinate())
            return coordinate()

        rows = [[entry() for _ in range(n)] for _ in range(n)]
        matrix = matrix_of(rows)
        det = det_fraction_free(matrix)
        assert det == cofactor_det(rows)
        expected_type = {
            RING_INTEGER: int,
            RING_RATIONAL: Fraction,
            RING_CYCLO3: CycloElement,
            RING_CYCLO6: CycloElement,
        }[matrix.ring]
        assert type(det) is expected_type
        if expected_type is CycloElement:
            assert det.ring == ring

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_with_large_content_match_cofactor_in_every_ring(self, data):
        # each row is a small row times a large content, or a zero row; the
        # contents come out of the rows before the kernel and go back in
        ring = data.draw(st.sampled_from([RING_INTEGER, RING_RATIONAL, THIRD, SIXTH]))
        n = data.draw(st.integers(0, 5))
        small = st.integers(-6, 6)
        rows = []
        for _ in range(n):
            content = data.draw(st.sampled_from([0, 1, -1, 2**64 + 13, 3**50 * 7, -(10**30)]))
            den = 1 if ring == RING_INTEGER else data.draw(st.sampled_from([1, 3, 2**40]))
            row = []
            for _ in range(n):
                x = Fraction(content * data.draw(small), den)
                if ring in (THIRD, SIXTH):
                    x = CycloElement.of(ring, x, Fraction(content * data.draw(small), den))
                row.append(x)
            rows.append(row)
        matrix = matrix_of(rows, ring)
        det = det_fraction_free(matrix)
        expected = cofactor_det(rows)
        assert det == expected
        expected_type = {RING_INTEGER: int, RING_RATIONAL: Fraction}.get(ring, CycloElement)
        assert type(det) is expected_type
        if ring in (THIRD, SIXTH):
            assert det.ring == ring
        if n == 0:
            assert det == 1

    def test_each_ring_checks_exact_division(self):
        def divide(ring, x, d):  # the rescale form of the row step
            zero, one, _, step, _ = ring
            return step([x], one, [x], zero, d)[0]

        assert divide(lgv._INT_RING, -12, 4) == -3
        with pytest.raises(AssertionError, match="exact division"):
            divide(lgv._INT_RING, 7, 2)
        for ring, prime in ((RING_CYCLO3, (1, -1)), (RING_CYCLO6, (1, 1))):
            table, mul = lgv._KERNEL_RINGS[ring], exactnum.pair_mul(exactnum.TRACE[ring])
            # 1 - w3 and 1 + w6 have norm 3; 1, 2 and 4 + 6w have norms prime to 3
            assert divide(table, mul((5, -3), prime), prime) == (5, -3)
            assert divide(table, (4, 6), (2, 0)) == (2, 3)
            with pytest.raises(AssertionError, match="exact division"):
                divide(table, (1, 0), (2, 0))
            for non_multiple in ((1, 0), (2, 0), (4, 6)):
                with pytest.raises(AssertionError, match="exact division"):
                    divide(table, non_multiple, prime)

    @pytest.mark.parametrize(
        "ring, row, a, tail, b, d",
        [
            # elimination form: the second entry 2*4 - 3*1 = 5 is odd
            (RING_INTEGER, [3, 4], 2, [2, 1], 3, 2),
            (RING_INTEGER, [3, 4], 2, [2, 1], 3, -2),
            (RING_INTEGER, [5], 2, [3], 1, -3),
            # rescale form, b = zero
            (RING_INTEGER, [6, 7], 1, [6, 7], 0, -3),
            (RING_INTEGER, [7], 2, [7], 0, 3),
            # (3, 1) - (0, 1) = 3 is not a multiple of 2; 1 - w3 and 1 + w6
            # have norm 3, and 3 is their multiple while 1 and 2 - w3 are not
            (RING_CYCLO3, [(4, 2), (3, 1)], (1, 0), [(0, 2), (0, 1)], (1, 0), (2, 0)),
            (RING_CYCLO6, [(4, 2), (3, 1)], (1, 0), [(0, 2), (0, 1)], (1, 0), (2, 0)),
            (RING_CYCLO3, [(1, 0)], (2, 0), [(0, 1)], (1, 0), (1, -1)),
            (RING_CYCLO3, [(3, 0), (1, 0)], (1, 0), [(3, 0), (1, 0)], (0, 0), (1, -1)),
            (RING_CYCLO6, [(3, 0), (1, 0)], (1, 0), [(3, 0), (1, 0)], (0, 0), (1, 1)),
            (RING_CYCLO6, [(1, 0)], (0, 1), [(1, 0)], (0, 0), (-2, 0)),
        ],
    )
    def test_row_step_refuses_an_inexact_division(self, ring, row, a, tail, b, d):
        _, _, _, step, _ = lgv._KERNEL_RINGS.get(ring, lgv._INT_RING)
        with pytest.raises(AssertionError, match="exact division"):
            step(row, a, tail, b, d)

    @pytest.mark.parametrize(
        "ring, row, a, tail, b, d, c, other",
        [
            # 2*3 - 3*2 + 1*1 = 1 is odd
            (RING_INTEGER, [3], 2, [2], 3, 2, 1, [1]),
            # the first entry 2 + 0 is even, the second 2 + 1 is not
            (RING_INTEGER, [2, 2], 1, [0, 0], 0, 2, 1, [0, 1]),
            (RING_INTEGER, [2, 2], 1, [0, 0], 0, -2, -1, [0, 1]),
            # (2, 0) + (0, 1) is not a multiple of 2; (3, 0) + (1, 0) = 4 is
            # not one of 1 - w3 or 1 + w6 (norm 3)
            (RING_CYCLO3, [(2, 0)], (1, 0), [(0, 0)], (0, 0), (2, 0), (1, 0), [(0, 1)]),
            (RING_CYCLO6, [(2, 0)], (1, 0), [(0, 0)], (0, 0), (2, 0), (1, 0), [(0, 1)]),
            (RING_CYCLO3, [(3, 0)], (1, 0), [(0, 0)], (0, 0), (1, -1), (1, 0), [(1, 0)]),
            (RING_CYCLO6, [(3, 0), (3, 0)], (1, 0), [(0, 0), (1, 0)], (1, 0), (1, 1), (0, 0), [(0, 0), (0, 0)]),
        ],
    )
    def test_three_term_step_refuses_an_inexact_division(self, ring, row, a, tail, b, d, c, other):
        _, _, _, step, _ = lgv._KERNEL_RINGS.get(ring, lgv._INT_RING)
        with pytest.raises(AssertionError, match="exact division"):
            step(row, a, tail, b, d, c, other)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_row_step_by_one_equals_the_dividing_path(self, data):
        ring = data.draw(st.sampled_from([RING_INTEGER, RING_CYCLO3, RING_CYCLO6]))
        zero, one, _, step, sub = lgv._KERNEL_RINGS.get(ring, lgv._INT_RING)
        coordinate = st.integers(-50, 50)
        if ring == RING_INTEGER:
            value, mul = coordinate, lambda x, y: x * y
        else:
            value, mul = st.tuples(coordinate, coordinate), exactnum.pair_mul(exactnum.TRACE[ring])
        n = data.draw(st.integers(0, 4))
        # a may be one; zeros in the tail leave entries of the row as they
        # are; the three-term form adds c u
        row = data.draw(st.lists(value, min_size=n, max_size=n))
        tail = data.draw(st.lists(st.just(zero) | value, min_size=n, max_size=n))
        a, b = data.draw(st.just(one) | value), data.draw(value)
        d = data.draw(value.filter(lambda x: x not in (zero, one)))
        third = data.draw(st.booleans())
        c = data.draw(value) if third else zero
        other = data.draw(st.lists(value, min_size=n, max_size=n)) if third else [zero] * n
        extra = (c, other) if third else ()
        by_one = step(row, a, tail, b, one, *extra)
        extra_by_d = (mul(c, d), other) if third else ()
        assert by_one == step(row, mul(a, d), tail, mul(b, d), d, *extra_by_d)
        # sub is the step by a = 1 over d = 1, in place from `start` on and
        # over the span's length only
        padded = [d] + row + [d]
        sub(padded, b, tail, 1)
        assert padded == [d] + step(row, one, tail, b, one) + [d]
        if ring == RING_INTEGER:
            assert by_one == [a * v - b * w + c * u for v, w, u in zip(row, tail, other)]
        else:
            def elem(x):
                return CycloElement.of(ring, *x)

            assert [elem(x) for x in by_one] == [
                elem(a) * elem(v) - elem(b) * elem(w) + elem(c) * elem(u)
                for v, w, u in zip(row, tail, other)
            ]

    # The pivots are rows 1, 2 and 3 at steps 0, 1 and 2: three swaps.  Row 3
    # is 0 in columns 0 and 1, so steps 0 and 1 only rescale it, by p_0 / 1
    # and p_1 / p_0; at step 2 its entry is p_1 times the one it was built
    # with, and still the smallest pivot.
    @pytest.mark.parametrize(
        "ring, rows",
        [
            (
                RING_INTEGER,
                [[40, 100, 1, 3], [2, 5, 3, 2], [9, -7, 2, 1], [0, 0, -7, -60]],
            ),
            (
                RING_CYCLO6,
                [
                    [(2, -1), (9, -1), (1, 8), (0, -1)],
                    [(1, 1), (1, 8), (1, 50), (1, 8)],
                    [(70, -1), (-30, 0), (0, 50), (1, -1)],
                    [(0, 0), (0, 0), (1, 0), (70, -1)],
                ],
            ),
        ],
    )
    def test_smallest_pivot_from_a_deferred_row_with_odd_swaps(self, ring, rows):
        if ring == RING_CYCLO6:
            rows = [[CycloElement.of(SIXTH, *v) for v in row] for row in rows]
        expected = cofactor_det(rows)
        assert expected != 0
        assert det_fraction_free(matrix_of(rows, ring)) == expected

    def test_the_scan_stops_at_the_first_entry_of_the_least_size(self):
        zero, one, size, step, sub = lgv._INT_RING

        def pivots(rows):  # the kernel's determinant, pivot rows and sized entries
            m, sized = [list(row) for row in rows], []

            def spy(x):
                sized.append(x)
                return size(x)

            built = list(m)
            det = lgv._bareiss(m, zero, one, spy, step, sub)
            return det, [next(i for i, row in enumerate(built) if row is pivot_row) for pivot_row in m], sized

        # Step 0 is a unit step, over row 0's tail up to its 2; step 1
        # pivots on 3 (row 3's 4 - 2 = 2 ties in size, row 1 is lower).
        # Rows 2 and 4 are 0 in column 1, so step 1 rescales them by 3 / 1:
        # at step 2 row 2 holds 3 and row 3 holds 3*1 - 2*1 = 1, so the
        # scan passes row 2 and stops at row 3, the rule's choice.
        rows = [[1, 2, 0, 0, 0], [0, 3, 1, 0, 0], [0, 0, 1, 5, 7], [1, 4, 1, 1, 2], [0, 0, 0, 1, 2]]
        det, order, _ = pivots(rows)
        assert det == -3 == elimination_det(rows)
        assert order[:3] == [0, 1, 3]
        # The first entry of 1's size appears after the pivot 2: at step 1
        # rows 1-4 hold 3, 1, 5 and 2, the 2x2 minors on columns 0 and 1.
        # The scan sizes the 3 and stops at the 1, and a full scan over the
        # minors picks the same row.
        rows = [[2, 1, 0, 1, 0], [3, 3, 1, 0, 2], [3, 2, 0, 1, 1], [-3, 1, 2, 0, 1], [0, 1, 1, 0, 1]]
        det, order, sized = pivots(rows)
        assert det == -2 == elimination_det(rows)
        minors = {i: rows[0][0] * rows[i][1] - rows[i][0] * rows[0][1] for i in range(1, 5)}
        assert minors == {1: 3, 2: 1, 3: 5, 4: 2}
        assert order[1] == min((size(x), i) for i, x in minors.items() if x)[1] == 2
        # size(one), then step 0's four nonzero entries, then step 1's 3 and 1
        assert sized[:7] == [1, 2, 3, 3, -3, 3, 1]
        assert sized[7:] == [1, 4, 1]  # steps 2 and 3

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_elimination_reference_on_staircases(self, data):
        # runs of unit steps cut short at the pivot row's last nonzero entry,
        # runs ended by a unit other than 1 or by a larger lead, and rows
        # rescaled across those that take a unit step next
        ring = data.draw(st.sampled_from([RING_INTEGER, RING_CYCLO3, RING_CYCLO6]))
        n = data.draw(st.integers(0, 12))
        t = exactnum.TRACE.get(ring)
        rows = staircase_rows(random.Random(data.draw(st.integers(0, 2**32 - 1))), n, t)
        det = det_fraction_free(ExactMatrix(ring, tuple(map(tuple, rows))))
        assert (det if t is None else (det.c0, det.c1)) == elimination_det(rows, t)

    def test_pivot_rule_keeps_the_quotients_small(self):
        # total bit length (the larger coordinate for a pair) of every entry
        # that a ring op forms: `step` (unit-divisor steps, rescales and the
        # two-step passes' e, f and three-term tails included) and `sub`,
        # which a unit step runs only up to the pivot row's last nonzero
        # entry.  On the order-40 cored matrix diagonal pivots form 6,838,654
        # bits and the smallest ones 1,442,513 with one-step elimination over
        # whole tails; with unit steps cut short, 1,271,979 with one-step
        # elimination, 981,210 with two-step passes (1,151,744 over whole
        # tails), and 866,534 on its primitive rows, the rows that
        # det_fraction_free hands the kernel (1,119,056 one-step, 1,010,465
        # over whole tails).  The omega-shifted matrices take no unit step.
        # A two-step pass forms no level-(k+1) row, so each total is below
        # its one-step value.  Exact totals pin the pivot sequence.
        cored = build_cored_matrix(20, 20, 20, 20)
        primitive = tuple(tuple(x // gcd(*row) for x in row) for row in cored.rows)
        for matrix, total, one_step, units in (
            (cored, 981_210, 1_271_979, 400),
            (ExactMatrix(RING_INTEGER, primitive), 866_534, 1_119_056, 400),
            (build_omega_shift(18, 6, omega3()), 44_075, 73_626, 0),
            (build_omega_shift(18, 6, omega6()), 44_788, 74_704, 0),
        ):
            zero, one, size, step, sub = lgv._KERNEL_RINGS.get(matrix.ring, lgv._INT_RING)
            bits = three_term = unit_rows = short = 0

            def counting_step(*args):
                nonlocal bits, three_term
                out = step(*args)
                bits += sum(map(size, out))
                three_term += len(args) == 7
                return out

            def counting_sub(row, x, span, start):
                nonlocal bits, unit_rows, short
                end = start + len(span)
                assert not span or span[-1] != zero
                sub(row, x, span, start)
                bits += sum(map(size, row[start:end]))
                unit_rows += 1
                short += end < len(row)

            rows = [list(row) for row in matrix.rows]
            lgv._bareiss(rows, zero, one, size, counting_step, counting_sub)
            assert three_term > 0, matrix.ring
            assert unit_rows == units and (short > 0) == (units > 0), matrix.ring
            assert bits < one_step, matrix.ring
            assert bits == total, matrix.ring

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_elimination_reference_in_every_ring(self, data):
        # zero-biased entries over scaled columns: pivots other than 1, so
        # two-step passes, with singular pairs of pivot columns, second
        # pivots swapped in, rows rescaled by a pass and switches
        # between one-step and two-step elimination
        ring = data.draw(st.sampled_from([RING_INTEGER, RING_RATIONAL, RING_CYCLO3, RING_CYCLO6]))
        n = data.draw(st.integers(0, 12))
        t = exactnum.TRACE.get(ring)
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        rows, dens = zero_biased_rows(rng, n, t is not None, 1 if ring == RING_INTEGER else 6)
        det = det_fraction_free(ExactMatrix(ring, tuple(map(tuple, rows)), tuple(dens)))
        if t is None:
            values = [[Fraction(x, den) for x in row] for row, den in zip(rows, dens)]
            assert det == elimination_det(values)
        else:
            values = [[(Fraction(x, den), Fraction(y, den)) for x, y in row] for row, den in zip(rows, dens)]
            assert (det.c0, det.c1) == elimination_det(values, t)

    def test_cored_determinants_of_the_exact_benchmark_families(self):
        # the exact workload's 60 families, each with all three splits
        # b - c in {-4, 0, 4}: family i has order n = 8 + 40i // 59,
        # a = 1 + 7i mod n, m = n - a and b + c = 8 (1 + i mod 6)
        orders = set()
        for i in range(60):
            n, s = 8 + 40 * i // 59, 8 * (1 + i % 6)
            a = 1 + 7 * i % n
            orders.add(n)
            for split in (-4, 0, 4):
                b, c, m = (s + split) // 2, (s - split) // 2, n - a
                det = det_fraction_free(build_cored_matrix(a, b, c, m))
                assert det == count_cored_formula(a, b, c, m, signed=m % 2 == 1), (a, b, c, m)
        assert min(orders) == 8 and max(orders) == 48

    def test_cored_determinants_match_the_formula_up_to_order_61(self):
        # both core placements, plain counts for even m and (-1)-counts for odd
        for n in range(31):
            for a, b, c, m in ((n, n, n, n), (n + 1, n, n, n), (n, n + 2, n, n + 1)):
                det = det_fraction_free(build_cored_matrix(a, b, c, m))
                assert det == count_cored_formula(a, b, c, m, signed=m % 2 == 1), (a, b, c, m)


class TestBuilders:
    def test_build_B(self):
        assert build_B(1, 7).rows == ((1,),)
        assert build_B(2, 0).rows == ((1, 1), (1, 2))
        assert det_fraction_free(build_B(0, 3)) == 1

    def test_omega_shift_examples(self):
        assert det_fraction_free(build_omega_shift(2, 4, 1)) == 9
        assert det_fraction_free(build_omega_shift(2, 4, -1)) == -5
        one_by_one = build_omega_shift(1, 3, omega6())
        assert matrix_values(one_by_one) == [[omega6() + 1]]
        assert one_by_one.rows == (((1, 1),),)

    def test_non_integer_m_is_not_truncated(self):
        # det(I + B(2, 1/2)) = det [[2, 3/2], [1, 7/2]] = 11/2
        assert build_B(2, Fraction(1, 2)).ring == RING_RATIONAL
        assert build_omega_shift(2, Fraction(1, 2), -1).ring == RING_RATIONAL
        assert det_fraction_free(build_omega_shift(2, Fraction(1, 2), 1)) == Fraction(11, 2)
        with pytest.raises(ValueError, match="integer ring"):
            matrix_of([[1, Fraction(1, 2)]], RING_INTEGER)

    @pytest.mark.parametrize(
        "fn, args, ring",
        [
            (build_B, (3, 2), RING_INTEGER),
            (build_B, (3, Fraction(4, 2)), RING_INTEGER),
            (build_B, (3, Fraction(1, 2)), RING_RATIONAL),
            (build_B, (1, Fraction(1, 2)), RING_RATIONAL),
            (build_omega_shift, (3, 2, -1), RING_INTEGER),
            (build_omega_shift, (3, 2, Fraction(1, 2)), RING_RATIONAL),
            (build_omega_shift, (3, Fraction(1, 3), 1), RING_RATIONAL),
            (build_omega_shift, (3, Fraction(1, 3), omega3()), RING_CYCLO3),
            (build_Zn, (3, 2, 1), RING_INTEGER),
            (build_Zn, (3, Fraction(1, 2), 1), RING_RATIONAL),
            (build_Zn, (3, 2, Fraction(1, 3)), RING_RATIONAL),
            (build_Zn, (1, Fraction(1, 2), 1), RING_RATIONAL),
            (build_VW, (3, 4), RING_INTEGER),
            (build_VW, (3, 1), RING_RATIONAL),
            (build_VW, (1, 1), RING_RATIONAL),
            (transformed_cored_matrix, (2, 2, 2, 2), RING_RATIONAL),
            (transformed_cored_matrix, (2, Fraction(1, 2), Fraction(-3, 2), 1), RING_RATIONAL),
        ],
    )
    def test_ring_follows_the_parameters(self, fn, args, ring):
        # the ring is stated from the arguments, never read off the entries:
        # B(1, 1/2), Z_1(1/2, 1), V and W at n = 1, m = 1 and D_1 at
        # (2, 2, 2, 2) have integral entries but rational arguments
        built = fn(*args)
        for matrix in built if isinstance(built, tuple) else (built,):
            assert matrix.ring == ring

    def test_cored_matrix_parity_checks(self):
        with pytest.raises(ValueError):
            build_cored_matrix(2, 3, 2, 1)
        with pytest.raises(ValueError):
            build_cored_matrix(2, 2, 2, 1, epsilon=Fraction(1, 2))
        with pytest.raises(ValueError, match="nonnegative"):
            build_cored_matrix(-1, 2, 2, 1)

    @pytest.mark.parametrize(
        "fn, args, message",
        [
            pytest.param(zn_factor_pair, (-2, 1, 1), "size must be", id="zn_factor_pair-n"),
            pytest.param(lgv.build_Zn, (-1, 1, 1), "size must be", id="build_Zn-n"),
            pytest.param(build_VW, (-1, 2), "size must be", id="build_VW-n"),
            pytest.param(build_n6_matrix, (2, -1), "a and m must be", id="build_n6_matrix-m"),
            pytest.param(build_n6_matrix, (-1, 2), "a and m must be", id="build_n6_matrix-a"),
            pytest.param(
                transformed_cored_matrix, (-1, 2, 2, 1), "a and m must be", id="transformed-a"
            ),
            pytest.param(
                transformed_cored_matrix, (2, 2, 2, -1), "a and m must be", id="transformed-m"
            ),
            pytest.param(cored_det_transform, (-1, 2, 2, 1), "a and m must be", id="transform-a"),
            pytest.param(cored_det_transform, (2, 1, 1, -1), "a and m must be", id="transform-m"),
            pytest.param(cored_det_transform, (2, -1, 1, 1), "nonnegative", id="transform-b"),
            pytest.param(cored_det_transform, (2, 1, -1, 1), "nonnegative", id="transform-c"),
            pytest.param(cored_det_transform, (2, 1, 2, 1), "equal parity", id="transform-b-odd"),
            pytest.param(cored_det_transform, (2, 2, 1, 1), "equal parity", id="transform-c-odd"),
            pytest.param(laplace_two_block, (build_B(3, 1), 4), r"0\.\.3, got 4", id="laplace-t>n"),
            pytest.param(laplace_two_block, (build_B(3, 1), -1), r"0\.\.3, got -1", id="laplace-t<0"),
            pytest.param(
                laplace_two_block,
                (matrix_of([[1, 2, 3], [4, 5, 6]]), 1),
                "non-square",
                id="laplace-2x3",
            ),
            pytest.param(
                principal_minor_sum,
                (matrix_of([[1, 2, 3], [4, 5, 6]]),),
                "non-square",
                id="principal_minor_sum-2x3",
            ),
            pytest.param(
                ExactMatrix, (RING_INTEGER, ((2, 1), (1, 1, 5))), "ragged", id="matrix-long-row"
            ),
            pytest.param(
                ExactMatrix, (RING_INTEGER, ((2, 1, 3), (1, 1))), "ragged", id="matrix-short-row"
            ),
            pytest.param(
                ExactMatrix,
                (RING_RATIONAL, ((2, 1), (1, 1)), (1, 1, 2)),
                "3 row denominators for 2 rows",
                id="matrix-dens",
            ),
            pytest.param(
                ExactMatrix, (RING_INTEGER, ((1,),), (2,)), "integer ring", id="matrix-integer-den"
            ),
        ],
    )
    def test_out_of_domain_input_is_refused(self, fn, args, message):
        # each of these calls used to answer: a float, an empty matrix, a
        # det of 0 or 1, a Laplace sum of a non-square matrix, a product
        # for sides b and c that build_cored_matrix refuses, or a matrix
        # whose determinant read its rows wrong (1 for the long row, 1/2 for
        # the rational one, 1 for [1/2] over Z; the short row raised
        # IndexError)
        with pytest.raises(ValueError, match=message):
            fn(*args)

    def test_cored_matrix_windows_equal_the_entries(self):
        # every epsilon the parity allows, a = 0 and m = 0 (one block empty)
        # included; the others are refused
        built = 0
        for a, b, c, m in product(range(7), range(7), range(7), range(6)):
            if b % 2 != c % 2:
                continue
            for epsilon in (0, Fraction(1, 2), 1, Fraction(3, 2)):
                if (Fraction(b + a, 2) + epsilon).denominator != 1:
                    with pytest.raises(ValueError, match="must be an integer"):
                        build_cored_matrix(a, b, c, m, epsilon)
                    continue
                matrix = build_cored_matrix(a, b, c, m, epsilon)
                assert matrix.rows == cored_matrix_entries(a, b, c, m, epsilon)
                assert matrix.ring == RING_INTEGER and set(matrix.dens) <= {1}
                built += 1
        assert built == 7 * 25 * 6 * 2

    def test_cored_matrix_derives_epsilon_from_the_placement(self):
        for a, b, c, m in product(range(5), range(5), range(5), range(4)):
            if b % 2 != c % 2:
                continue
            epsilon = 0 if a % 2 == b % 2 else Fraction(1, 2)
            assert build_cored_matrix(a, b, c, m) == build_cored_matrix(a, b, c, m, epsilon)

    def test_cored_matrix_b_c_zero(self):
        # one tiling: determinant 1 at matching epsilon
        assert det_fraction_free(build_cored_matrix(2, 0, 0, 2, 0)) == 1
        for a, m in ((1, 2), (3, 2), (3, 4)):
            det = det_fraction_free(build_cored_matrix(a, 0, 0, m, Fraction(1, 2)))
            assert det == 1

    def test_cored_matrix_b_c_one(self):
        from cored_hexagons.exactnum import binomial

        for a in (1, 3, 5):
            for m in (0, 2):
                det = det_fraction_free(build_cored_matrix(a, 1, 1, m, 0))
                assert det == 2 * binomial(m + 1 + (a - 1) // 2, (a - 1) // 2)

    def test_n6_matrix(self):
        assert build_n6_matrix(1, 0).rows == ((2,),)
        assert det_fraction_free(build_n6_matrix(2, 0)) == count_weighted(
            CoredHexagon(2, 2, 2, 0), "minus1-n6"
        )

    def test_serialization(self):
        text = matrix_to_text(build_B(2, 0))
        assert text == "ring integer 2 2\n1 1\n1 2\n"


class TestIntegerRows:
    def test_builders_and_kernel_build_no_fraction(self, monkeypatch):
        class Refused(Fraction):
            def __new__(cls, *args):
                raise AssertionError("a Fraction was built")

        def refuse(*args):
            raise AssertionError("a Fraction was built")

        w3, w6, three_halves = omega3(), omega6(), Fraction(3, 2)
        for module in (lgv, exactnum):
            monkeypatch.setattr(module, "Fraction", Refused)
            monkeypatch.setattr(module, "frac", refuse)
        matrices = [
            build_cored_matrix(3, 5, 1, 2),
            build_cored_matrix(3, 4, 2, 3),
            build_cored_matrix(2, 1, 3, 2, three_halves),
            build_n6_matrix(4, 3),
            build_omega_shift(5, 3, -1),
            build_omega_shift(5, 3, w3),
            build_omega_shift(5, 4, w6),
            transformed_cored_matrix(3, 5, 1, 2),
            transformed_cored_matrix(2, 5, 3, 3, True),
        ]
        for matrix in matrices:
            lgv._coordinate_det(matrix)

    def test_plus_scaled_and_matrix_mul_check_their_operands(self):
        with pytest.raises(ValueError, match="one shape"):
            plus_scaled(build_B(2, 0), 1, build_B(3, 0))
        with pytest.raises(ValueError, match="over Z or Q"):
            plus_scaled(build_omega_shift(2, 0, omega3()), 1)
        with pytest.raises(ValueError, match="integer matrices"):
            matrix_mul(build_B(2, 0), build_B(2, Fraction(1, 2)))


class TestTransform:
    @pytest.mark.parametrize(
        "params", [(2, 2, 2, 2, False), (1, 3, 1, 2, False), (2, 5, 1, 2, True), (1, 2, 2, 3, True)]
    )
    def test_prefactor_times_det(self, params):
        a, b, c, m, shifted = params
        eps = Fraction(1, 2) if shifted else 0
        raw = det_fraction_free(build_cored_matrix(a, b, c, m, eps))
        prefactor, transformed = cored_det_transform(a, b, c, m, shifted)
        assert prefactor * Fraction(det_fraction_free(transformed)) == raw

    @pytest.mark.parametrize(
        "params", [(2, 2, 2, 1, True), (2, 0, 0, 1, True), (0, 2, 0, 1, True), (1, 2, 2, 1, False)]
    )
    def test_a_shift_of_the_wrong_parity_is_refused_as_the_matrix_refuses_it(self, params):
        # the placement must match the parity of a + b: the cored matrix at
        # epsilon = shifted/2 has no integer column shift otherwise, and at
        # a = c = 0 the prefactor would ask for a factorial of -1
        *sides, shifted = params
        with pytest.raises(ValueError) as refused:
            build_cored_matrix(*sides, Fraction(int(shifted), 2))
        with pytest.raises(ValueError) as transform_refused:
            cored_det_transform(*params)
        assert transform_refused.value.args == refused.value.args
        assert "must be an integer" in str(refused.value)

    def test_transformed_matrix_polynomial_in_b_c(self):
        m1 = transformed_cored_matrix(2, Fraction(1, 2), Fraction(-3, 2), 1)
        assert m1.ring in (RING_RATIONAL, RING_INTEGER)


class TestLaplace:
    def test_full_block_is_plain_determinant(self):
        m = build_B(3, 2)
        assert laplace_two_block(m, 3) == det_fraction_free(m)

    def test_random_cross_check(self):
        rng = random.Random(11)
        for _ in range(10):
            rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
            m = matrix_of(rows)
            assert laplace_two_block(m, 1) == det_fraction_free(m)

    def test_cored_matrix_expansion(self):
        m = build_cored_matrix(2, 2, 2, 2, 0)
        assert laplace_two_block(m, 2) == det_fraction_free(m)

    @pytest.mark.parametrize("omega", [Fraction(-1, 3), omega6()])
    def test_minors_carry_the_row_denominators(self, omega):
        # omega*I + B(4, 1/2): rows over 2^3 3!, of ints for omega = -1/3 and
        # of Z[w6] pairs for omega = w6
        m = build_omega_shift(4, Fraction(1, 2), omega)
        assert max(m.dens) > 1
        det = det_fraction_free(m)
        for t in range(5):
            assert laplace_two_block(m, t) == det
        plus_identity = build_omega_shift(4, Fraction(1, 2), omega + 1)
        assert principal_minor_sum(m) == det_fraction_free(plus_identity)


class TestZn:
    def test_odd_n_vanishes(self):
        for n in (1, 3, 5):
            lhs, rhs = zn_factor_pair(n, Fraction(1), Fraction(1, 2))
            assert lhs == rhs == 0

    def test_even_n_factors(self):
        lhs, rhs = zn_factor_pair(2, 1, 1)
        assert lhs == rhs

    def test_specialization_to_shifted_identity(self):
        # at x = 1, mu = m/2 the determinant is det(-I + B(n, m))
        for n, m in ((2, 4), (4, 2)):
            lhs, _ = zn_factor_pair(n, 1, Fraction(m, 2))
            assert lhs == det_fraction_free(build_omega_shift(n, m, -1))

    def test_th10(self):
        lhs, rhs = th10_pair(3, 2, 1)
        assert lhs == rhs
        assert th10_pair(0, 2, 3) == (1, 1)
        lhs, rhs = th10_pair(1, 2, 1)
        assert lhs == rhs == Fraction(2, 2 * 1)

    def test_th10_rejects_bad_args(self):
        with pytest.raises(ValueError):
            th10_pair(2, -1, 3)
        # a negative order would give an empty matrix and a vacuous 1 = 1
        with pytest.raises(ValueError):
            th10_pair(-1, 1, 1)
        with pytest.raises(ValueError):
            th10_pair(1, 0, 0)


class TestVW:
    def test_even_even_entries_agree(self):
        V, W = map(matrix_values, build_VW(6, 4))
        for i in range(3):
            for j in range(3):
                assert V[2 * i][2 * j] == W[2 * i][2 * j]

    def test_reduction_minus_one(self):
        V, W = build_VW(2, 0)
        lhs = det_fraction_free(plus_scaled(W, -1, V))
        assert lhs == det_fraction_free(build_omega_shift(2, 0, -1)) == -1

    def test_reduction_sixth_root(self):
        n, m = 3, 2
        V, W = build_VW(n, m)
        w = omega6()
        lhs = det_fraction_free(plus_scaled(W, w, V))
        assert lhs == det_fraction_free(build_omega_shift(n, m, w))

    def test_odd_m_gives_rational_entries(self):
        V, W = build_VW(2, 1)
        assert V.ring == RING_RATIONAL


class TestBlocks:
    def test_principal_minors(self):
        rng = random.Random(3)
        m = matrix_of([[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)])
        assert principal_minor_sum(m) == det_fraction_free(plus_scaled(m, 1))

    def test_det3_and_det6(self):
        for a, m in ((3, 2), (4, 1)):
            B = build_B(a, m)
            B3 = matrix_mul(matrix_mul(B, B), B)
            lhs = det_fraction_free(plus_scaled(B3, 1))
            rhs = det_fraction_free(plus_scaled(B, 1)) * det_fraction_free(
                build_omega_shift(a, m, omega3())
            ).norm()
            assert lhs == rhs
            lhs = det_fraction_free(plus_scaled(B3, -1))
            rhs = det_fraction_free(plus_scaled(B, -1)) * det_fraction_free(
                build_omega_shift(a, m, omega6())
            ).norm()
            assert lhs == rhs


class TestRootSpotChecks:
    def test_transformed_det_vanishes_at_negative_b(self):
        # the transformed determinant vanishes at b = -e for e = a (mod 2),
        # 1 <= e <= min(a, m), at sampled integer c
        rng = random.Random(23)
        for a, m in ((2, 2), (3, 3), (2, 4)):
            for e in range(1, min(a, m) + 1):
                if e % 2 != a % 2:
                    continue
                c = rng.randint(0, 6)
                det = det_fraction_free(transformed_cored_matrix(a, -e, c, m))
                assert det == 0, (a, m, e, c)

    def test_odd_odd_transformed_det_is_zero(self):
        assert det_fraction_free(transformed_cored_matrix(3, 4, 2, 1)) == 0
        assert det_fraction_free(transformed_cored_matrix(1, 2, 6, 3)) == 0
