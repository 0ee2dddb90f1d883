"""The integer-summed series and matrix builders, the shared Z[w3]/Z[w6]
arithmetic and the Pochhammer closed forms against their former forms in
`rational_reference`: the same value of the same type (for a matrix, the
same ring and entry values), or the same exception with the same
arguments (for Z_n's half-size blocks, of the same type)."""

import random
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

import rational_reference as ref
from text_formats import matrix_values
from cored_hexagons import exactnum, formulas, hypergeom, lgv
from cored_hexagons.exactnum import SIXTH, THIRD, CycloElement, omega3, omega6

ints = st.integers(-12, 12)
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)
integral_fractions = ints.map(Fraction)
half_integers = st.integers(-25, 25).map(lambda n: Fraction(n, 2))
# zero and the negative integers are the poles of a lower parameter
bases = st.one_of(ints, rationals, integral_fractions, half_integers, st.just(Fraction(0)))
parameters = st.one_of(rationals, integral_fractions, half_integers, st.just(Fraction(0)))


def outcome(fn, *args):
    """('value', type, value) or ('raises', type, args, pole) of one call;
    pole is the (parameter, its type, index) of a PochhammerZeroError."""
    try:
        value = fn(*args)
    except Exception as exc:  # the exception is the outcome under test
        pole = None
        if isinstance(exc, hypergeom.PochhammerZeroError):
            pole = (exc.parameter, type(exc.parameter), exc.index)
        return ("raises", type(exc), exc.args, pole)
    return ("value", type(value), value)


def sides_outcome(fn, *args):
    """The outcome of a call that returns a pair of sides, each side with
    its type."""
    return outcome(lambda: [(type(v), v) for v in fn(*args)])


def entries(matrix):
    """The ring and each entry's value, rebuilt from the coordinate rows and
    the row denominators."""
    return matrix.ring, matrix_values(matrix)


# (base, k) pairs; a negative k raises, and a base among the poles
# vanishes once k passes it
symbols = st.lists(st.tuples(bases, st.integers(-1, 12)), max_size=4)


def triples(symbols):
    """(x, k) pairs as the (n, d, k) triples of `pochhammer_pair`."""
    return [(x.numerator, x.denominator, k) for x, k in symbols]


def pochhammer_ratio(ups, downs):
    """The ratio of `pochhammer_pair` over triples, as one Fraction."""
    return Fraction(*exactnum.pochhammer_pair(ups, downs))


@given(symbols, symbols)
@settings(max_examples=400)
def test_pochhammer_ratio(ups, downs):
    assert outcome(pochhammer_ratio, triples(ups), triples(downs)) == outcome(
        ref.pochhammer_ratio, ups, downs
    )


def refuse_fraction_arithmetic(*args):
    raise AssertionError("Fraction arithmetic")


# Fraction's +, -, *, / and **, reflected forms included
REFUSED = {
    name: refuse_fraction_arithmetic
    for op in ("add", "sub", "mul", "truediv", "pow")
    for name in (f"__{op}__", f"__r{op}__")
}


@given(symbols, symbols)
@settings(max_examples=200)
def test_pochhammer_ratio_multiplies_no_fractions(ups, downs):
    expected = outcome(ref.pochhammer_ratio, ups, downs)
    ups, downs = triples(ups), triples(downs)
    with mock.patch.multiple(Fraction, **REFUSED):
        got = outcome(pochhammer_ratio, ups, downs)
    assert got == expected


@given(ints, rationals, st.integers(-3, 12), st.integers(0, 3))
@settings(max_examples=400)
def test_binomial(top, rational_top, bottom, slack):
    assert outcome(exactnum.binomial, top, bottom) == outcome(ref.binomial, top, bottom)
    # a rational top is an integer over the common denominator of every
    # binomial with a lower index up to K
    p, q, K = rational_top.numerator, rational_top.denominator, max(bottom, 0) + slack
    rational = Fraction(lgv._binomial_num(p, q, bottom, K), lgv._binomial_den(q, K))
    assert rational == ref.binomial(rational_top, bottom)


@given(
    st.lists(parameters, max_size=3),
    st.one_of(st.none(), st.integers(0, 8)),
    st.lists(parameters, max_size=3),
    st.one_of(rationals, st.just(Fraction(0))),
)
@settings(max_examples=400)
def test_eval_terminating(upper, stop, lower, argument):
    # stop is the -n that terminates the series; None leaves it to chance
    if stop is not None:
        upper = upper + [-stop]
    assert outcome(hypergeom.hyper, upper, lower, argument) == outcome(
        ref.hyper, upper, lower, argument
    )


@given(st.sampled_from(hypergeom.IDENTITY_IDS), st.lists(parameters, min_size=4, max_size=4),
       st.integers(0, 8))
@settings(max_examples=400)
def test_identity_pair(identity, rationals, n):
    params = rationals[: ref.IDENTITY_RATIONALS[identity]] + [n]
    assert sides_outcome(hypergeom.identity_pair, identity, params) == sides_outcome(
        ref.identity_pair, identity, params
    )


def identity_series(identity, params):
    """The left-hand series of an identity through `hyper`, where it is one
    (the 5F4 is summed with its very-well-poised weight instead)."""
    *rationals, n = params
    if identity == hypergeom.CHU_VANDERMONDE:
        A, C = rationals
        return [A, -n], [C]
    if identity == hypergeom.PFAFF_SAALSCHUETZ:
        A, B, C = map(Fraction, rationals)
        return [A, B, -n], [C, 1 + A + B - C - n]
    if identity == hypergeom.THOMAE:
        A, B, D, E = rationals
        return [A, B, -n], [D, E]
    return None


def test_identity_pair_and_hyper_do_no_fraction_arithmetic():
    rng = random.Random(35)
    draws = [
        (identity, ref.identity_draw(rng, identity, 8, 6))
        for identity in hypergeom.IDENTITY_IDS
        for _ in range(150)
    ]
    series = [identity_series(identity, params) for identity, params in draws]
    expected = [sides_outcome(ref.identity_pair, *draw) for draw in draws]
    expected_series = [s and outcome(ref.hyper, *s) for s in series]
    with mock.patch.multiple(Fraction, **REFUSED):
        got = [sides_outcome(hypergeom.identity_pair, *draw) for draw in draws]
        got_series = [s and outcome(hypergeom.hyper, *s) for s in series]
    assert got == expected
    assert got_series == expected_series
    # both values and poles are among the outcomes
    assert {o[0] for o in got} == {"value", "raises"}


@given(st.sampled_from(formulas.WATSON_VARIANTS), st.integers(0, 3), st.integers(-1, 6),
       parameters, parameters)
@settings(max_examples=300)
def test_watson_sides(variant, a, M, B, C):
    for package, reference in ((formulas.watson_lhs, ref.watson_lhs),
                               (formulas.watson_rhs, ref.watson_rhs)):
        assert outcome(package, variant, a, M, B, C) == outcome(reference, variant, a, M, B, C)


@given(st.integers(0, 6), st.one_of(ints, rationals, integral_fractions),
       st.sampled_from([0, 1, -1, Fraction(1, 2), omega3(), omega6()]))
@settings(max_examples=200)
def test_build_omega_shift(N, m, omega):
    assert entries(lgv.build_omega_shift(N, m, omega)) == entries(ref.build_omega_shift(N, m, omega))


@given(st.integers(0, 5), bases, bases)
@settings(max_examples=200)
def test_build_Zn(n, x, mu):
    assert entries(lgv.build_Zn(n, x, mu)) == entries(ref.build_Zn(n, x, mu))


zn_rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 3))
zn_args = st.tuples(st.integers(0, 8), st.one_of(zn_rationals, st.just(0)), zn_rationals)


def zn_outcome(fn, n, x, mu):
    """The outcome of fn(n, x, mu), each component with its type; of an
    exception, only its type."""
    result = outcome(lambda: [(type(v), v) for v in fn(n, x, mu)])
    return result[:2] if result[0] == "raises" else result


@given(zn_args, st.data())
@settings(max_examples=300)
def test_zn_factor_pair(args, data):
    n, x, mu = args
    if n % 2 == 0 and n > 0 and data.draw(st.booleans()):
        mu = -data.draw(st.integers(1, n // 2))
    got = zn_outcome(lgv.zn_factor_pair, n, x, mu)
    assert got == zn_outcome(ref.zn_factor_pair, n, x, mu)
    # for even n, mu = -(i+1) with i < n/2 zeroes the row factor
    # 1/(i+mu+1) of the second block
    pole = n % 2 == 0 and any(mu == -(i + 1) for i in range(n // 2))
    assert (got[:2] == ("raises", ZeroDivisionError)) == pole


@given(zn_args)
@settings(max_examples=100)
def test_zn_factor_pair_does_no_fraction_arithmetic(args):
    expected = zn_outcome(ref.zn_factor_pair, *args)
    with mock.patch.multiple(Fraction, **REFUSED):
        got = zn_outcome(lgv.zn_factor_pair, *args)
    assert got == expected


def typed(value):
    """The value with its type, and a cyclotomic one with its ring and its
    coordinates' types."""
    if isinstance(value, CycloElement):
        return (type(value), value.ring, value, type(value.c0), type(value.c1))
    return (type(value), value)


rings = st.sampled_from([THIRD, SIXTH])
cyclo = st.builds(CycloElement.of, rings, rationals, rationals)
# a second factor: one of either ring (a rational one moves across rings,
# any other raises RingMismatchError), or a plain int or Fraction
factors = st.one_of(cyclo, st.builds(CycloElement.of, rings, rationals), ints, rationals)


def product(reference, x, y):
    return outcome(lambda: typed(reference(x, x._coerce(y))))


@given(cyclo, factors)
@settings(max_examples=400)
def test_cyclo_mul(x, y):
    assert outcome(lambda: typed(x * y)) == product(ref.cyclo_mul, x, y)
    if isinstance(y, CycloElement):
        # the left factor's ring rules
        assert outcome(lambda: typed(y * x)) == product(ref.cyclo_mul, y, x)
    else:
        assert typed(y * x) == typed(x * y)


@given(cyclo)
@settings(max_examples=300)
def test_cyclo_norm(x):
    assert typed(x.norm()) == typed(ref.cyclo_norm(x))


@given(st.integers(-1, 29), st.one_of(ints, half_integers, rationals))
@settings(max_examples=300)
def test_andrews_rhs(a, m):
    assert outcome(formulas.andrews_rhs, a, m) == outcome(ref.andrews_rhs, a, m)


@given(st.integers(-1, 29), st.one_of(ints, half_integers, rationals), rings)
@settings(max_examples=300)
def test_om_rhs(a, m, ring):
    package = formulas.om3_rhs if ring == THIRD else formulas.om6_rhs
    assert outcome(lambda: typed(package(a, m))) == outcome(lambda: typed(ref.om_rhs(a, m, ring)))


@given(st.integers(-1, 7), st.one_of(ints, half_integers, rationals),
       st.one_of(ints, half_integers, rationals), st.integers(-1, 6), st.booleans())
@settings(max_examples=300)
def test_lemma_rhs(a, b, c, m, shifted):
    assert outcome(formulas.lemma_rhs, a, b, c, m, shifted) == outcome(
        ref.lemma_rhs, a, b, c, m, shifted
    )


# each Pochhammer closed form by the name `rational_reference.closed_form_draws`
# gives it: the package's form and the tests' reference
CLOSED_FORMS = {
    "andrews_rhs": (formulas.andrews_rhs, ref.andrews_rhs),
    "om3_rhs": (formulas.om3_rhs, ref.om3_rhs),
    "om6_rhs": (formulas.om6_rhs, ref.om6_rhs),
    "watson_lhs": (formulas.watson_lhs, ref.watson_lhs),
    "watson_rhs": (formulas.watson_rhs, ref.watson_rhs),
    "watson_3f2_closed": (formulas.watson_3f2_closed, ref.watson_3f2_closed),
    "lemma_rhs": (formulas.lemma_rhs, ref.lemma_rhs),
    "cored_det_prefactor": (lambda *args: lgv.cored_det_transform(*args)[0],
                            ref.cored_det_prefactor),
}


def closed_form_outcome(fn, args):
    return outcome(lambda: typed(fn(*args)))


def test_closed_forms_do_no_fraction_arithmetic():
    draws = list(ref.closed_form_draws(
        random.Random(36), 60, max_a=12, max_den=6, watson_a=3, max_M=6, max_lemma=5
    ))
    expected = [closed_form_outcome(CLOSED_FORMS[name][1], args) for name, args in draws]
    with mock.patch.multiple(Fraction, **REFUSED):
        got = [closed_form_outcome(CLOSED_FORMS[name][0], args) for name, args in draws]
    assert got == expected
    # every form is drawn, and both values and exceptions are among the outcomes
    assert {name for name, _ in draws} == set(CLOSED_FORMS)
    assert {o[0] for o in got} == {"value", "raises"}
