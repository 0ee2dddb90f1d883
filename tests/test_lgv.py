import os
import random
from fractions import Fraction
from itertools import product

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
    build_B,
    build_VW,
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
from text_formats import matrix_of, matrix_to_text, matrix_values

DATA = os.path.join(os.path.dirname(__file__), "data")


def cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


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
        # and rows skipped over several steps all occur
        ring = data.draw(st.sampled_from(["integer", "rational", THIRD, SIXTH]))
        max_den = 1 if ring == "integer" else data.draw(st.sampled_from([1, 4]))
        zero_share = data.draw(st.integers(0, 3))
        n = data.draw(st.integers(0, 6))

        def coordinate():
            if data.draw(st.integers(0, 3)) < zero_share:
                return Fraction(0)
            return Fraction(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, max_den)))

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

    def test_each_ring_checks_exact_division(self):
        _, _, _, _, int_divider = lgv._INT_RING
        assert int_divider(4)(-12) == -3
        with pytest.raises(AssertionError, match="exact division"):
            int_divider(2)(7)
        for ring, prime in ((RING_CYCLO3, (1, -1)), (RING_CYCLO6, (1, 1))):
            _, _, mul, _, divider = lgv._KERNEL_RINGS[ring]
            # 1 - w3 and 1 + w6 have norm 3; 1, 2 and 4 + 6w have norms prime to 3
            by_prime, by_two = divider(prime), divider((2, 0))
            assert by_prime(mul((5, -3), prime)) == (5, -3)
            assert by_two((4, 6)) == (2, 3)
            with pytest.raises(AssertionError, match="exact division"):
                by_two((1, 0))
            for non_multiple in ((1, 0), (2, 0), (4, 6)):
                with pytest.raises(AssertionError, match="exact division"):
                    by_prime(non_multiple)

    # The pivots are rows 1, 2 and 3 at steps 0, 1 and 2: three swaps.  Row 3
    # is 0 in columns 0 and 1, so steps 0 and 1 skip it; at step 2 it is the
    # smallest pivot while still deferred (scaled for the unit pivot, not p_1).
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

    def test_pivot_rule_keeps_the_quotients_small(self):
        # total bit length of every Bareiss quotient on an order-40 cored
        # matrix; diagonal pivots form 6,838,654 bits, the smallest ones
        # 1,442,513
        zero, one, mul, sub, int_divider = lgv._INT_RING
        bits = 0

        def counting_divider(d):
            div = int_divider(d)

            def counting_div(x):
                nonlocal bits
                q = div(x)
                bits += q.bit_length()
                return q

            return counting_div

        rows = [list(row) for row in build_cored_matrix(20, 20, 20, 20).rows]
        lgv._bareiss(rows, zero, one, mul, sub, counting_divider)
        assert 0 < bits < 2_000_000

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
        ],
    )
    def test_out_of_domain_input_is_refused(self, fn, args, message):
        # each of these calls used to answer: a float, an empty matrix, a
        # det of 0 or 1, a Laplace sum of a non-square matrix, or a product
        # for sides b and c that build_cored_matrix refuses
        with pytest.raises(ValueError, match=message):
            fn(*args)

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
            ring = lgv._KERNEL_RINGS.get(matrix.ring, lgv._INT_RING)
            lgv._bareiss([list(row) for row in matrix.rows], *ring)

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
