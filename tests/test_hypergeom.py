import random
from fractions import Fraction

import pytest

from cored_hexagons.hypergeom import (
    CHU_VANDERMONDE,
    GESSEL_STANTON_5F4,
    IDENTITY_IDS,
    NonTerminatingError,
    PFAFF_SAALSCHUETZ,
    PochhammerZeroError,
    THOMAE,
    hyper,
    identity_pair,
    qbinom_neg1,
    qbinom_neg1_by_product,
)


class TestEvalTerminating:
    def test_basic_2f1(self):
        assert hyper([-2, 1], [3]) == Fraction(1, 2)

    def test_zero_upper_gives_one(self):
        assert hyper([0, Fraction(7, 2)], [Fraction(1, 5)]) == 1

    def test_non_terminating_rejected(self):
        message = r"no nonpositive-integer upper parameter in \(Fraction\(1, 2\),\)"
        with pytest.raises(NonTerminatingError, match=message):
            hyper([Fraction(1, 2)], [2])

    def test_lower_pole_named(self):
        with pytest.raises(PochhammerZeroError) as err:
            hyper([-5, 1], [-2])
        assert err.value.parameter == -2

    def test_matches_chu_vandermonde_closed_form(self):
        n, A, C = 3, Fraction(1, 2), Fraction(5, 2)
        from cored_hexagons.exactnum import pochhammer_pair

        lhs = hyper([-n, A], [C])
        # (C - A)_n / (C)_n with C - A = 4/2 and C = 5/2
        rhs = Fraction(*pochhammer_pair([(4, 2, n)], [(5, 2, n)]))
        assert lhs == rhs


def _random_params(identity, rng):
    def rp():
        return Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3)))

    if identity == CHU_VANDERMONDE:
        return [rp(), rp(), rng.randint(0, 8)]
    if identity == PFAFF_SAALSCHUETZ:
        return [rp(), rp(), rp(), rng.randint(0, 8)]
    if identity == THOMAE:
        return [rp(), rp(), rp(), rp(), rng.randint(0, 8)]
    return [rp(), rp(), rng.randint(0, 6)]


@pytest.mark.parametrize("identity", IDENTITY_IDS)
def test_identity_random_sweep(identity):
    rng = random.Random(20_240_000 + hash(identity) % 1000)
    checked = 0
    attempts = 0
    while checked < 200 and attempts < 10_000:
        attempts += 1
        params = _random_params(identity, rng)
        try:
            lhs, rhs = identity_pair(identity, params)
        except (PochhammerZeroError, NonTerminatingError, ZeroDivisionError):
            continue
        assert lhs == rhs, (identity, params)
        checked += 1
    assert checked == 200


class TestIdentityExamples:
    def test_chu_vandermonde_example(self):
        assert identity_pair(CHU_VANDERMONDE, [1, 3, 2]) == (
            Fraction(1, 2),
            Fraction(1, 2),
        )

    def test_pfaff_saalschuetz_empty(self):
        lhs, rhs = identity_pair(PFAFF_SAALSCHUETZ, [Fraction(1, 2), 2, 5, 0])
        assert lhs == rhs == 1

    def test_5f4_example(self):
        lhs, rhs = identity_pair(GESSEL_STANTON_5F4, [-3, Fraction(1, 2), 2])
        assert lhs == rhs

    def test_pole_with_the_smallest_index_is_named(self):
        # lower parameters D = -4, E = -1 and 1 + B - E - n = -3 vanish from
        # the indices 5, 2 and 4 on
        with pytest.raises(PochhammerZeroError) as err:
            identity_pair(THOMAE, [1, 1, -4, -1, 6])
        assert (err.value.parameter, err.value.index) == (-1, 2)

    @pytest.mark.parametrize(
        "n, shown", [(Fraction(5, 2), "5/2"), (2.5, "5/2"), (-1, "-1"), (Fraction(-3), "-3")]
    )
    def test_n_must_be_a_nonnegative_integer(self, n, shown):
        for identity, rationals in ((CHU_VANDERMONDE, [1, 3]), (GESSEL_STANTON_5F4, [1, 2])):
            with pytest.raises(ValueError) as err:
                identity_pair(identity, rationals + [n])
            assert type(err.value) is ValueError
            assert err.value.args == (f"n must be a nonnegative integer, not {shown}",)

    def test_integral_n_of_any_type(self):
        for n in (2, Fraction(2), 2.0):
            assert identity_pair(CHU_VANDERMONDE, [1, 3, n]) == (Fraction(1, 2), Fraction(1, 2))

    def test_5f4_vanishes_for_negative_integer_A(self):
        for A in (-1, -2, -3, -5, -6):
            lhs, rhs = identity_pair(GESSEL_STANTON_5F4, [A, Fraction(1, 3), 4])
            assert lhs == rhs == 0


class TestQBinomNeg1:
    def test_examples(self):
        assert qbinom_neg1(2, 1) == 0
        assert qbinom_neg1(4, 2) == 2
        assert qbinom_neg1(9, 0) == 1
        assert qbinom_neg1(3, 5) == 0

    def test_matches_product_extraction(self):
        for n in range(13):
            for k in range(n + 1):
                assert qbinom_neg1(n, k) == qbinom_neg1_by_product(n, k), (n, k)
