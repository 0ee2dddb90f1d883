import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from cored_hexagons import formulas
from cored_hexagons.exactnum import omega3, omega6
from cored_hexagons.formulas import (
    FormulaDomainError,
    OMEGA_MINUS_ONE,
    OMEGA_ONE,
    OMEGA_SIXTH,
    OMEGA_THIRD,
    andrews_rhs,
    asymptotic_k,
    conjecture_rhs,
    count_cored_factorization,
    count_cored_formula,
    lemma_rhs,
    macmahon_box,
    om3_rhs,
    om6_rhs,
    rhs_case10,
    rhs_omega_det,
    watson_3f2_closed,
    watson_lhs,
    watson_pair,
    watson_rhs,
    zare1_rhs,
)
from cored_hexagons.hypergeom import PochhammerZeroError
from cored_hexagons.lgv import (
    build_cored_matrix,
    build_n6_matrix,
    build_omega_shift,
    det_fraction_free,
    transformed_cored_matrix,
)
from cored_hexagons.tilings import CoredHexagon, count_weighted
from asymptotic_reference import disagreements
from hyperfactorial_reference import SqrtPiScaled, hyperfactorial, legendre_exponents

OMEGA_CASES = (OMEGA_ONE, OMEGA_MINUS_ONE, OMEGA_THIRD, OMEGA_SIXTH)


def trial_division(n):
    """{prime: exponent} of the int n by trial division, with -1: 1 for a
    negative n and {0: 1} for 0, as count_cored_factorization keys them."""
    if n == 0:
        return {0: 1}
    factors, rest, d = ({-1: 1} if n < 0 else {}), abs(int(n)), 2
    while d * d <= rest:
        while rest % d == 0:
            factors[d] = factors.get(d, 0) + 1
            rest //= d
        d += 1
    if rest > 1:
        factors[rest] = factors.get(rest, 0) + 1
    return factors


class TestMacMahon:
    def test_examples(self):
        assert macmahon_box(0, 5, 7) == 1
        assert macmahon_box(1, 1, 1) == 2
        assert macmahon_box(2, 2, 2) == 20

    def test_specialization(self):
        for a in range(7):
            for b in range(7):
                for c in range(7):
                    if b % 2 != c % 2:
                        continue
                    assert count_cored_formula(a, b, c, 0) == macmahon_box(a, b, c)


class TestCountFormulas:
    def test_trivial_cases(self):
        assert count_cored_formula(0, 0, 0, 9) == 1
        assert count_cored_formula(1, 1, 1, 0) == 2

    def test_all_odd_signed_is_zero(self):
        for a, b, c in ((1, 1, 1), (3, 1, 1), (3, 3, 3)):
            for m in (0, 1, 2):
                assert count_cored_formula(a, b, c, m, signed=True) == 0

    def test_parity_dispatch_rejects_bad_labels(self):
        with pytest.raises(FormulaDomainError):
            count_cored_formula(1, 2, 3, 1)

    @pytest.mark.parametrize(
        "params",
        [(3, 5, 1, 2), (2, 5, 1, 2), (2, 2, 2, 1), (1, 2, 2, 1), (3, 2, 2, 1), (1, 0, 0, 1)],
    )
    def test_triangle_against_determinant_and_oracle(self, params):
        a, b, c, m = params
        signed = m % 2 == 1
        eps = 0 if a % 2 == b % 2 else Fraction(1, 2)
        value = count_cored_formula(a, b, c, m, signed=signed)
        assert value == det_fraction_free(build_cored_matrix(a, b, c, m, eps))
        weight = "minus1" if signed else "one"
        assert value == count_weighted(CoredHexagon(a, b, c, m), weight)

    def test_against_determinant_on_all_small_tuples(self):
        # plain counts for even m, (-1)-counts for odd m, both core placements
        placements = set()
        for a in range(7):
            for b in range(7):
                for c in range(b % 2, 7, 2):
                    eps = 0 if a % 2 == b % 2 else Fraction(1, 2)
                    placements.add(eps)
                    for m in range(6):
                        det = det_fraction_free(build_cored_matrix(a, b, c, m, eps))
                        value = count_cored_formula(a, b, c, m, signed=m % 2 == 1)
                        assert value == det, (a, b, c, m)
        assert placements == {0, Fraction(1, 2)}


def table_top(table):
    """The largest n with h(n) or n! in a doubled table: t/2 for an even
    argument t, t + 1 for an odd one."""
    return max(t + 1 if t % 2 else t // 2 for ts, _ in table for t in ts)


def balanced(table):
    """The table with h(1/2) balancing its half-integers, so no sqrt(pi)
    is left over, and its arguments halved for legendre_exponents."""
    half_pi = sum(mult * (t + 1) // 2 for ts, mult in table for t in ts if t % 2)
    table = table + [((1,), -half_pi)] * (half_pi != 0)
    return table, [(tuple(Fraction(t, 2) for t in ts), mult) for ts, mult in table]


class TestTermTables:
    # tables list doubled arguments t = 2x: h(t/2) for every t
    def test_single_hyperfactorials_match_the_reference(self):
        # h(x) over sqrt(pi)**(x + 1/2) = h(x) / h(1/2)**(x + 1/2) for half-integer x
        for t in range(-1, 60):
            reference = hyperfactorial(Fraction(t, 2))
            table = [((t,), 1), ((1,), -reference.half_pi_exponent)]
            assert Fraction(*formulas._evaluate(table)) == reference.coefficient, t

    def test_quotients_of_hyperfactorials(self):
        top, bottom = (14, 9, 5), (11, 6, 3)
        table = [(top, 1), (bottom, -1)]
        expected = math.prod(hyperfactorial(Fraction(t, 2)) for t in top) / math.prod(
            hyperfactorial(Fraction(t, 2)) for t in bottom
        )
        assert expected.to_rational() != 1
        assert Fraction(*formulas._evaluate(table)) == expected.to_rational()

    def test_unpaired_half_integer_leaks_sqrt_pi(self):
        table = formulas._count_table(2, 2, 2, 2, False) + [((5,), 1)]
        with pytest.raises(ValueError, match=r"pi\*\*\(3/2\); a sqrt\(pi\) leak"):
            formulas._evaluate(table)

    def test_argument_below_minus_half_is_rejected(self):
        for t, shown in ((-2, "-1"), (-3, "-3/2")):
            with pytest.raises(ValueError, match=f"hyperfactorial of negative argument {shown}$"):
                formulas._evaluate([((t,), 1), ((t,), -1)])

    def test_largest_odd_argument_brings_in_its_factorial(self):
        # h(j - 1/2) involves (2j)!, one past the largest doubled argument
        # 2j - 1; at j = 32 its 2-adic part moves the exponent of 2
        for t in (3, 7, 31, 63):
            for mult in (-2, -1, 1, 2):
                j = (t + 1) // 2
                table = [((t,), mult), ((1,), -mult * j)]
                reference = hyperfactorial(Fraction(t, 2)) ** mult / hyperfactorial(
                    Fraction(1, 2)
                ) ** (mult * j)
                assert Fraction(*formulas._evaluate(table)) == reference.to_rational(), (t, mult)

    def test_tables_and_exponents_build_no_fraction(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(formulas, "Fraction", refuse)
        monkeypatch.setattr(formulas, "frac", refuse)
        for a, b, c, m in ((3, 5, 1, 2), (2, 5, 1, 3), (4, 4, 2, 7)):
            for signed in (False, True):
                formulas._table_exponents(formulas._count_table(a, b, c, m, signed))

    @given(
        st.lists(
            st.tuples(st.lists(st.integers(-1, 130), min_size=1, max_size=4), st.integers(-3, 3)),
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_slice_sums_match_the_legendre_loop(self, entries):
        # balance the half-integers with h(1/2), so no sqrt(pi) is left over
        table = [(tuple(ts), mult) for ts, mult in entries]
        half_pi = sum(mult * (t + 1) // 2 for ts, mult in table for t in ts if t % 2)
        table.append(((1,), -half_pi))
        halves = [(tuple(Fraction(t, 2) for t in ts), mult) for ts, mult in table]
        assert formulas._table_exponents(table) == legendre_exponents(halves)

    @given(
        st.lists(
            st.tuples(st.lists(st.integers(0, 130), min_size=1, max_size=4), st.integers(-3, 3)),
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_even_tables_match_the_legendre_loop(self, entries):
        # integer arguments only, so the table spans half its largest doubled one
        table = [(tuple(2 * n for n in ns), mult) for ns, mult in entries]
        halves = [(ns, mult) for ns, mult in entries]
        assert formulas._table_exponents(table) == legendre_exponents(halves)

    def test_every_small_top_matches_the_legendre_loop(self):
        # every pair of arguments whose top is at most 12, so 2 and 3 fall
        # in every band
        args = [t for t in range(-1, 25) if table_top([((t,), 1)]) <= 12]
        tops = set()
        for t, u in itertools.product(args, repeat=2):
            for mt, mu in ((1, 1), (1, -1), (-2, 1), (3, -2)):
                table, halves = balanced([((t,), mt), ((u,), mu)])
                assert formulas._table_exponents(table) == legendre_exponents(halves), table
                tops.add(table_top(table))
        assert tops == set(range(0, 13))

    def test_tops_at_band_edges_match_the_legendre_loop(self):
        # top at a prime p, at p^2, at 2p and at 2p + 1, reached by h(top)
        # or, for an even top, by the half-integer argument (top - 1)/2
        rng = random.Random(24)
        for p in (2, 3, 5, 7, 11, 13):
            for top in (p, p * p, 2 * p, 2 * p + 1):
                below = [s for s in range(-1, 2 * top) if table_top([((s,), 1)]) <= top]
                for t in [2 * top] + [top - 1] * (top % 2 == 0):
                    for _ in range(6):
                        rest = rng.choices(below, k=rng.randrange(4))
                        table = [((t,), rng.choice((-2, -1, 1, 2)))]
                        table += [((s,), rng.choice((-1, 1))) for s in rest]
                        table, halves = balanced(table)
                        assert table_top(table) == top
                        assert formulas._table_exponents(table) == legendre_exponents(halves)

    def test_product_tree_matches_math_prod(self):
        for n in range(10):
            factors = [3**k + k for k in range(n)]
            assert formulas._product(list(factors)) == math.prod(factors), n
            assert formulas._product([7] * n) == 7**n

    @given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_count_tables_match_the_legendre_loop(self, a, b, c, m):
        c += (b - c) % 2
        for signed in (False, True):
            table = formulas._count_table(a, b, c, m, signed)
            assert all(isinstance(t, int) for ts, _ in table for t in ts)
            halves = [(tuple(Fraction(t, 2) for t in ts), mult) for ts, mult in table]
            assert formulas._table_exponents(table) == legendre_exponents(halves)


class TestFactorization:
    def test_product_is_the_count_and_primes_are_small(self):
        for a in range(6):
            for b in range(6):
                for c in range(b % 2, 6, 2):
                    for m in range(5):
                        for signed in (False, True):
                            factors = count_cored_factorization(a, b, c, m, signed)
                            value = count_cored_formula(a, b, c, m, signed)
                            assert math.prod(k**e for k, e in factors.items()) == value
                            primes = [k for k in factors if k > 1]
                            assert all(e > 0 for e in factors.values())
                            assert all(p < 2 * (a + b + c + m) + 2 for p in primes)

    def test_examples(self):
        assert count_cored_factorization(3, 5, 1, 2) == {2: 4, 3: 2, 5: 1}  # 720
        assert count_cored_factorization(2, 0, 0, 1, signed=True) == {-1: 1}
        assert count_cored_factorization(1, 1, 1, 1, signed=True) == {0: 1}
        assert count_cored_factorization(0, 0, 0, 9) == {}

    def test_exponents_are_the_trial_division_of_the_count(self):
        # the count itself against the hyperfactorials multiplied out, so a
        # wrong prime-exponent pass cannot hide behind its own product
        rng = random.Random(31)
        for _ in range(24):
            a, b, m = rng.randint(0, 40), rng.randint(0, 40), rng.randint(0, 40)
            c = rng.randrange(b % 2, 41, 2)
            for signed in (False, True):
                value = count_cored_formula(a, b, c, m, signed)
                sign, table = formulas._count_terms(a, b, c, m, signed)
                reference = math.prod(
                    (hyperfactorial(Fraction(t, 2)) ** mult for ts, mult in table for t in ts),
                    start=SqrtPiScaled.of(1),
                )
                assert value == sign * reference.to_rational(), (a, b, c, m, signed)
                assert count_cored_factorization(a, b, c, m, signed) == trial_division(value), (
                    a, b, c, m, signed
                )

    def test_large_count_is_factored_without_multiplying_out(self):
        factors = count_cored_factorization(64, 64, 64, 64)
        assert max(factors) < 2 * 256
        assert math.prod(p**e for p, e in factors.items()) == count_cored_formula(64, 64, 64, 64)


class TestOmegaDets:
    def test_andrews_small(self):
        assert andrews_rhs(0, 3) == 1
        assert andrews_rhs(1, 5) == 2
        assert andrews_rhs(2, 4) == 9  # m + 5
        assert andrews_rhs(2, -3) == 2
        assert andrews_rhs(2, Fraction(1, 2)) == Fraction(11, 2)

    def test_zare1(self):
        assert zare1_rhs(3, 2) == 0
        assert zare1_rhs(2, 4) == -5  # -(m+1)
        for a in range(11):
            for m in range(11):
                assert zare1_rhs(a, m) == det_fraction_free(build_omega_shift(a, m, -1)), (a, m)

    @pytest.mark.parametrize("m", [-1, Fraction(1, 2), Fraction(3, 2)])
    def test_zare1_needs_a_nonnegative_integer_m(self, m):
        with pytest.raises(FormulaDomainError, match="parameter m of B"):
            zare1_rhs(2, m)

    def test_om_one_by_one(self):
        assert om3_rhs(1, 6) == 1 + omega3()
        assert om6_rhs(1, 6) == 1 + omega6()

    @pytest.mark.parametrize("case", OMEGA_CASES)
    def test_matches_determinant(self, case):
        omegas = {
            "one": 1,
            "minus1": -1,
            "third": omega3(),
            "sixth": omega6(),
        }
        for a in range(7):
            for m in range(7):
                det = det_fraction_free(build_omega_shift(a, m, omegas[case]))
                assert det == rhs_omega_det(a, m, case), (a, m, case)

    @pytest.mark.parametrize("case", ["one", "third", "sixth"])
    def test_polynomial_in_m(self, case):
        # andrews, om3 and om6 are polynomial identities in m: they equal the
        # determinant at negative, half-integer and third-integer m too
        # (zare1 does not); at m = k/3 the bases m/2 + ... have denominator 6
        omega = {"one": 1, "third": omega3(), "sixth": omega6()}[case]
        ms = [Fraction(k) for k in range(-6, 0)] + [Fraction(k, 2) for k in range(-7, 12, 2)]
        ms += [Fraction(k, 3) for k in range(-8, 12) if k % 3]
        for a in range(8):
            for m in ms:
                det = det_fraction_free(build_omega_shift(a, m, omega))
                assert det == rhs_omega_det(a, m, case), (a, m, case)


class TestCase10:
    def test_examples(self):
        assert rhs_case10(0, 5) == 1
        assert rhs_case10(1, 0) == 2
        assert rhs_case10(2, 0) == det_fraction_free(build_n6_matrix(2, 0))

    def test_all_parity_branches(self):
        for a in range(5):
            for m in range(4):
                det = det_fraction_free(build_n6_matrix(a, m))
                assert rhs_case10(a, m) == det, (a, m)


class TestLemmas:
    def test_odd_odd_unshifted_is_zero(self):
        assert lemma_rhs(3, 2, 2, 1) == 0
        assert lemma_rhs(1, 8, 4, 3) == 0

    @pytest.mark.parametrize("shifted", [False, True])
    def test_matches_transformed_determinant(self, shifted):
        # every parity of a and m, at integer and at rational b, c
        sides = (
            (0, 0), (1, 3), (2, 2), (4, 0), (Fraction(1, 2), Fraction(-3, 2)), (Fraction(7, 3), 1)
        )
        for a in range(7):
            for m in range(7):
                for b, c in sides:
                    lhs = lemma_rhs(a, b, c, m, shifted)
                    rhs = det_fraction_free(transformed_cored_matrix(a, b, c, m, shifted))
                    assert lhs == rhs, (a, b, c, m, shifted)

    @pytest.mark.parametrize("a, m", [(-1, 2), (2, -1)])
    def test_negative_parameters_are_domain_errors(self, a, m):
        with pytest.raises(FormulaDomainError, match=f"got a={a}, m={m}"):
            lemma_rhs(a, 2, 2, m)

    def test_polynomial_identity_at_rational_arguments(self):
        rng = random.Random(7)
        for _ in range(25):
            a, m = rng.randint(0, 3), rng.randint(0, 3)
            shifted = rng.random() < 0.5
            b = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3)))
            c = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3)))
            assert lemma_rhs(a, b, c, m, shifted) == det_fraction_free(
                transformed_cored_matrix(a, b, c, m, shifted)
            )


class TestAsymptotics:
    @pytest.mark.parametrize(
        "params, expected",
        [
            ((1, 1, 1, 1), "1.25705964308349630550237624052027110451344693"),
            ((2, 2, 2, 1), "4.26663221383704359170646341787347571054170477"),
            ((1, 2, 3, 2), "4.29482704319460030025592507817654974241128598"),
            ((1, 1, 1, 0), "0.784872215646821754775210837402306262460706704"),
        ],
    )
    def test_pinned_values(self, params, expected):
        assert mpmath.nstr(asymptotic_k(*params), 45) == expected

    def test_deterministic(self):
        k1 = asymptotic_k(1, 1, 1, 1)
        k2 = asymptotic_k(1, 1, 1, 1)
        assert mpmath.nstr(k1, 45) == mpmath.nstr(k2, 45)

    def test_precision_agreement(self):
        k50 = asymptotic_k(2, 2, 2, 1, digits=50)
        k30 = asymptotic_k(2, 2, 2, 1, digits=30)
        assert abs(k50 - k30) < mpmath.mpf(10) ** (-25)

    @pytest.mark.parametrize("params", [(1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 1, 0), (3, 0, 0, 3)])
    def test_exactly_zero_with_one_tiling(self, params):
        # two of a, b, c are 0, so every scaled region has exactly one tiling
        a, b, c, m = params
        assert all(count_cored_formula(a * n, b * n, c * n, m * n) == 1 for n in range(1, 5))
        for digits in (30, 50, 80):
            k = asymptotic_k(*params, digits=digits)
            assert k == 0 and mpmath.nstr(k, digits - 5) == "0.0"

    def test_prime_logarithms_equal_the_per_argument_sum(self):
        # every shape with entries up to 4, at four precisions: the printed
        # digits agree and the values lie within 10^-(digits-3)
        assert list(disagreements(4, (20, 30, 50, 60))) == []

    def test_exactly_zero_on_every_one_tiling_shape_up_to_4(self):
        zeros = 0
        for shape in itertools.product(range(5), repeat=4):
            one_tiling = all(
                count_cored_formula(*(n * side for side in shape)) == 1 for n in (2, 4)
            )
            k = asymptotic_k(*shape, digits=30)
            assert (k == 0) == one_tiling, shape
            zeros += one_tiling
        assert zeros > 100

    def test_convergence_with_zero_core(self):
        k = asymptotic_k(1, 1, 1, 0)
        devs = []
        with mpmath.workdps(50):
            for n in (4, 8, 16):
                count = count_cored_formula(n, n, n, 0)
                devs.append(abs(mpmath.log(mpmath.mpf(int(count))) / (n * n) - k))
        assert devs[0] > devs[1] > devs[2]


class TestConjectures:
    def test_match_epsilon_determinants(self):
        for a, b, c in ((2, 2, 2), (1, 1, 1), (3, 1, 1), (2, 4, 2)):
            for m in (0, 2, 4):
                try:
                    rhs = conjecture_rhs(1, a, b, c, m)
                except FormulaDomainError:
                    continue
                assert rhs == det_fraction_free(build_cored_matrix(a, b, c, m, 1))

    def test_three_halves_case(self):
        assert conjecture_rhs(2, 1, 2, 2, 2) == det_fraction_free(
            build_cored_matrix(1, 2, 2, 2, Fraction(3, 2))
        )

    def test_m_zero_is_placement_free(self):
        # with no core the epsilon shift cannot matter
        assert conjecture_rhs(1, 2, 2, 2, 0) == macmahon_box(2, 2, 2)

    def test_parity_checks(self):
        with pytest.raises(FormulaDomainError):
            conjecture_rhs(1, 1, 2, 2, 2)
        with pytest.raises(FormulaDomainError):
            conjecture_rhs(2, 2, 2, 2, 2)

    def test_negative_sides_are_named(self):
        # before any table is built, whose hyperfactorials would reject
        # them with an internal message or not at all
        with pytest.raises(FormulaDomainError, match="got a=4, b=-2, c=4, m=1"):
            conjecture_rhs(1, 4, -2, 4, 1)
        with pytest.raises(FormulaDomainError, match="got a=3, b=2, c=-4, m=0"):
            conjecture_rhs(2, 3, 2, -4, 0)


class TestPlanePartitionSpecialization:
    def test_signed_diagonal_count_over_plane_partitions(self):
        # at m = 0 the cyclic (-1)^n count is the sum of (-1)^(m1) over
        # cyclically symmetric plane partitions, against the closed form
        from cored_hexagons.tilings import (
            Region,
            enumerate_cyclic_tilings,
            plane_partition_diagonal_count,
            tiling_to_plane_partition,
        )

        for a in range(1, 5):
            region = Region(CoredHexagon(a, a, a, 0))
            total = 0
            for tiling in enumerate_cyclic_tilings(region):
                pp = tiling_to_plane_partition(tiling, region)
                total += (-1) ** plane_partition_diagonal_count(pp)
            assert total == rhs_omega_det(a, 0, "minus1"), a


class TestWatson:
    def test_single_sum_is_watson_3f2(self):
        for M in (0, 2, 4, 6):
            B, C = Fraction(5, 3), Fraction(7, 2)
            assert watson_lhs("W1", 1, M, B, C) == watson_3f2_closed(M, B, C)

    def test_both_odd_vanishes(self):
        lhs, rhs = watson_pair("W1", 3, 3, Fraction(1), Fraction(2))
        assert lhs == rhs == 0
        lhs, rhs = watson_pair("W1", 1, 5, Fraction(1, 2), Fraction(5, 2))
        assert lhs == rhs == 0

    def test_pole_is_named(self):
        with pytest.raises(PochhammerZeroError):
            watson_pair("W1", 2, 4, Fraction(1), Fraction(0))

    @pytest.mark.parametrize("variant", ["W1", "W2", "W3"])
    def test_random_branches(self, variant):
        rng = random.Random(hash(variant) % 997)
        checked = 0
        attempts = 0
        while checked < 30 and attempts < 3000:
            attempts += 1
            a = rng.randint(1, 3)
            M = rng.randint(a, 6)
            B = Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3)))
            C = Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3)))
            try:
                lhs, rhs = watson_pair(variant, a, M, B, C)
            except (PochhammerZeroError, ZeroDivisionError):
                continue
            assert lhs == rhs, (variant, a, M, B, C)
            checked += 1
        assert checked == 30


    # a few rational parameters with small denominators, some of them
    # putting a lower parameter on a pole
    GRID = [Fraction(x) for x in (-2, -1, 0, 1, 3)] + [
        Fraction(-3, 2), Fraction(-1, 3), Fraction(1, 2), Fraction(5, 3)
    ]

    @pytest.mark.parametrize("variant", ["W1", "W2", "W3"])
    def test_grid_over_every_parity_class(self, variant):
        classes = set()
        for a in range(1, 5):
            for M in range(a, 8):
                for B in self.GRID:
                    for C in self.GRID:
                        try:
                            lhs = watson_lhs(variant, a, M, B, C)
                        except PochhammerZeroError:
                            continue
                        assert watson_rhs(variant, a, M, B, C) == lhs, (a, M, B, C)
                        classes.add((a % 2, M % 2))
        assert classes == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_negative_a_is_a_domain_error(self):
        with pytest.raises(FormulaDomainError):
            watson_rhs("W2", -1, 3, Fraction(1), Fraction(2))

