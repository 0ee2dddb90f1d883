from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cored_hexagons.exactnum import (
    CycloElement,
    RingMismatchError,
    SIXTH,
    THIRD,
    binomial,
    cyclo_to_dict,
    double_factorial_odd,
    omega3,
    omega6,
    pochhammer_ratio,
    value_to_str,
)
from hyperfactorial_reference import SqrtPiScaled, hyperfactorial

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=3
)


class TestHyperfactorial:
    def test_empty_product(self):
        assert hyperfactorial(0).to_rational() == 1

    def test_integer_values(self):
        # 0! * 1! * 2! = 2
        assert hyperfactorial(3).to_rational() == 2
        assert hyperfactorial(4).to_rational() == 12

    def test_half_integer(self):
        # Gamma(1/2) Gamma(3/2) = pi/2
        value = hyperfactorial(Fraction(3, 2))
        assert value.coefficient == Fraction(1, 2)
        assert value.half_pi_exponent == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hyperfactorial(-1)
        with pytest.raises(ValueError):
            hyperfactorial(Fraction(-3, 2))

    def test_minus_half_is_empty(self):
        assert hyperfactorial(Fraction(-1, 2)).to_rational() == 1

    @given(st.integers(min_value=0, max_value=12))
    def test_recurrence(self, n):
        import math

        lhs = hyperfactorial(n + 1)
        rhs = hyperfactorial(n) * math.factorial(n)
        assert lhs == rhs

    @given(st.integers(min_value=0, max_value=12))
    def test_half_integer_exponent_counts_gamma_factors(self, k):
        n = Fraction(2 * k + 1, 2)
        assert hyperfactorial(n).half_pi_exponent == k + 1


class TestPochhammerBinomial:
    def test_pochhammer_ratio_examples(self):
        assert pochhammer_ratio([(Fraction(1, 2), 0)]) == 1
        assert pochhammer_ratio([(Fraction(1, 2), 3)]) == Fraction(15, 8)
        assert pochhammer_ratio([(-2, 4)]) == 0
        assert pochhammer_ratio([(1, 5)], [(1, 3), (Fraction(1, 2), 2)]) == Fraction(80, 3)
        assert type(pochhammer_ratio([])) is Fraction
        with pytest.raises(ZeroDivisionError, match=r"^\(-2\)_4 vanishes"):
            pochhammer_ratio([(1, 2)], [(-3, 1), (-2, 4), (0, 1)])
        with pytest.raises(ValueError, match="negative index -1"):
            pochhammer_ratio([(1, 2)], [(1, -1)])

    @given(rationals, st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=60)
    def test_pochhammer_additivity(self, alpha, j, k):
        assert pochhammer_ratio([(alpha, j + k)]) == pochhammer_ratio(
            [(alpha, j), (alpha + j, k)]
        )

    def test_binomial_examples(self):
        assert binomial(5, 2) == 10
        assert binomial(3, 5) == 0
        assert binomial(-2, 2) == 3
        assert binomial(7, -1) == 0

    @given(st.integers(-15, 15), st.integers(1, 15))
    def test_pascal_rule(self, n, k):
        assert binomial(n, k) == binomial(n - 1, k) + binomial(n - 1, k - 1)

    def test_double_factorial(self):
        assert [double_factorial_odd(i) for i in range(4)] == [1, 1, 3, 15]


class TestSqrtPiScaled:
    def test_canonical_zero(self):
        assert SqrtPiScaled.of(0, 5) == SqrtPiScaled.of(0, 0)

    def test_products_add_exponents(self):
        x = SqrtPiScaled.of(Fraction(1, 2), 1)
        y = SqrtPiScaled.of(3, 3)
        assert (x * y).half_pi_exponent == 4
        assert (x / y).half_pi_exponent == -2

    def test_pi_leak_raises(self):
        with pytest.raises(ValueError):
            SqrtPiScaled.of(1, 1).to_rational()


class TestCyclo:
    def test_third_square(self):
        t = omega3()
        assert t * t == CycloElement.of(THIRD, -1, -1)

    def test_sixth_norm(self):
        t = omega6()
        assert (1 + t).norm() == 3

    @given(rationals, rationals, rationals, rationals, st.sampled_from([THIRD, SIXTH]))
    @settings(max_examples=60)
    def test_norm_multiplicative(self, a, b, c, d, ring):
        x = CycloElement.of(ring, a, b)
        y = CycloElement.of(ring, c, d)
        assert (x * y).norm() == x.norm() * y.norm()

    def test_roots_of_unity_orders(self):
        w3, w6 = omega3(), omega6()
        assert w3 * w3 != 1
        assert w3 * w3 * w3 == 1
        assert w6 * w6 * w6 == -1

    def test_no_division(self):
        # exact division in Z[w] lives in the determinant kernel
        with pytest.raises(TypeError):
            omega6() / 2

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            omega3() + omega6()

    def test_rational_elements_cross_rings(self):
        x = CycloElement.of(THIRD, Fraction(3, 2))
        assert x == CycloElement.of(SIXTH, Fraction(3, 2))
        assert x + omega3() == CycloElement.of(THIRD, Fraction(3, 2), 1)

    def test_serialization(self):
        assert value_to_str(Fraction(3, 4)) == "3/4"
        assert value_to_str(Fraction(8, 4)) == "2"
        assert cyclo_to_dict(omega6() * 2) == {"ring": "sixth", "c0": "0", "c1": "2"}
