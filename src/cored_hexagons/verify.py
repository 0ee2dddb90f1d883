"""Named verification suites wiring the brute-force oracle, the exact
determinants, and the closed-form evaluators against each other.

Every suite is deterministic given (name, bounds, seed): random parameters
come from a counter-based generator keyed by the seed and the case index,
so report lists are byte-identical across runs and execution orders.
Resource-capped cases report a skip, never a false pass.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import formulas, hypergeom, lgv, tilings
from .exactnum import CycloElement, cyclo_to_dict, frac, omega3, omega6, value_to_str

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass
class VerificationReport:
    suite: str
    case_params: dict
    lhs: str
    rhs: str
    equal: bool
    status: str

    def to_json_dict(self) -> dict:
        return dict(vars(self))


def _fmt(value) -> str:
    if isinstance(value, CycloElement):
        if value.is_rational:
            return value_to_str(value.c0)
        return json.dumps(cyclo_to_dict(value), sort_keys=True)
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, mpmath.mpf):
        return mpmath.nstr(value, 30)
    return value_to_str(value)


def _case_rng(seed: int, index: int) -> random.Random:
    return random.Random(1_000_003 * seed + 7919 * index + 1)


def _rand_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3)))


def _report(suite, params, lhs, rhs, status=None) -> VerificationReport:
    # a CycloElement on either side compares through its reflected __eq__
    equal = lhs == rhs
    if status is None:
        status = PASS if equal else FAIL
    return VerificationReport(suite, params, _fmt(lhs), _fmt(rhs), equal, status)


def _skip(suite, params, reason: str) -> VerificationReport:
    return VerificationReport(
        suite, {**params, "skip_reason": reason}, "", "", True, SKIP
    )


def _sampled(suite, seed, groups, samples, attempts, draw, rejected):
    """Report `samples` random cases per group. `draw(group, rng)` returns
    (params, lhs, rhs); a draw that raises one of `rejected` lies outside
    the identity's domain and is replaced, up to `attempts` draws per
    group. The case index runs on across groups, so every draw is fixed by
    the seed and its place in the whole stream."""
    index = 0
    for group in groups:
        drawn = attempt = 0
        while drawn < samples and attempt < attempts:
            rng = _case_rng(seed, index)
            index += 1
            attempt += 1
            try:
                params, lhs, rhs = draw(group, rng)
            except rejected:
                continue
            drawn += 1
            yield _report(suite, params, lhs, rhs)


def _capped(suite, params, rhs, hexagon, weight, cap, cyclic=None):
    """The matching-level count reported against rhs, or a skip when the
    region is over the cell cap."""
    try:
        oracle = tilings.count_weighted(hexagon, weight, cap=cap, cyclic=cyclic)
    except tilings.CellCapError as exc:
        return _skip(suite, params, str(exc))
    return _report(suite, params, oracle, rhs)


# the roots of unity omega of det(omega I + B(a, m)), by formula case name,
# each with the weight of cyclically symmetric tilings it counts
_OMEGAS = (
    (formulas.OMEGA_ONE, 1, tilings.WEIGHT_ONE),
    (formulas.OMEGA_MINUS_ONE, -1, tilings.WEIGHT_MINUS1),
    (formulas.OMEGA_THIRD, omega3(), tilings.WEIGHT_OMEGA3),
    (formulas.OMEGA_SIXTH, omega6(), tilings.WEIGHT_OMEGA6),
)


# --- individual suites -------------------------------------------------------


def admissible_tuples(max_a: int, max_m: int):
    for a in range(max_a + 1):
        for b in range(max_a + 1):
            for c in range(max_a + 1):
                if b % 2 != c % 2:
                    continue
                for m in range(max_m + 1):
                    yield a, b, c, m


def _suite_tilings_vs_formula(bounds, seed):
    max_a = bounds.get("max_a", 2)
    max_m = bounds.get("max_m", 2)
    cap = bounds.get("cap")
    for a, b, c, m in admissible_tuples(max_a, max_m):
        signed = m % 2 == 1
        weight = tilings.WEIGHT_MINUS1 if signed else tilings.WEIGHT_ONE
        params = {"a": a, "b": b, "c": c, "m": m, "weight": weight}
        det = lgv.det_fraction_free(lgv.build_cored_matrix(a, b, c, m))
        formula = formulas.count_cored_formula(a, b, c, m, signed=signed)
        rhs = det if det == formula else f"det {det} != formula {formula}"
        report = _capped(
            "TilingsVsFormula", params, rhs, tilings.CoredHexagon(a, b, c, m), weight, cap
        )
        yield report
        if m == 0 and report.status != SKIP:
            yield _report(
                "TilingsVsFormula",
                {"a": a, "b": b, "c": c, "m": 0, "weight": "macmahon"},
                formulas.count_cored_formula(a, b, c, 0),
                formulas.macmahon_box(a, b, c),
            )


def _suite_dets_vs_formulas(bounds, seed):
    max_a = bounds.get("max_a", 8)
    max_m = bounds.get("max_m", 10)
    for a in range(max_a + 1):
        for m in range(max_m + 1):
            for name, omega, _ in _OMEGAS:
                det = lgv.det_fraction_free(lgv.build_omega_shift(a, m, omega))
                rhs = formulas.rhs_omega_det(a, m, name)
                yield _report(
                    "DetsVsFormulas", {"a": a, "m": m, "omega": name}, det, rhs
                )


def _suite_cyclic_weights(bounds, seed):
    max_a = bounds.get("max_a", 4)
    max_m = bounds.get("max_m", 3)
    cap = bounds.get("cap")
    for a in range(max_a + 1):
        for m in range(max_m + 1):
            h = tilings.CoredHexagon(a, a, a, m)
            for name, _, weight in _OMEGAS:
                params = {"a": a, "m": m, "weight": weight}
                if m == 0 and weight == tilings.WEIGHT_MINUS1:
                    params["note"] = "plane-partition specialization"
                rhs = formulas.rhs_omega_det(a, m, name)
                yield _capped("CyclicWeights", params, rhs, h, weight, cap, cyclic=True)


def _suite_case10(bounds, seed):
    max_a = bounds.get("max_a", 4)
    max_m = bounds.get("max_m", 3)
    cap = bounds.get("cap")
    for a in range(max_a + 1):
        for m in range(max_m + 1):
            det = lgv.det_fraction_free(lgv.build_n6_matrix(a, m))
            rhs = formulas.rhs_case10(a, m)
            yield _capped(
                "Case10",
                {"a": a, "m": m},
                det if det == rhs else f"det {det} != formula {rhs}",
                tilings.CoredHexagon(a, a, a, m),
                tilings.WEIGHT_MINUS1_N6,
                cap,
            )


def _suite_zn_factorization(bounds, seed):
    max_n = bounds.get("max_n", 6)
    samples = bounds.get("samples", 5)

    def draw(n, rng):
        x, mu = _rand_rational(rng), _rand_rational(rng)
        return {"n": n, "x": str(x), "mu": str(mu)}, *lgv.zn_factor_pair(n, x, mu)

    # the factorization excludes i + mu + 1 = 0
    yield from _sampled(
        "ZnFactorization", seed, range(max_n + 1), samples, 1000, draw, ZeroDivisionError
    )
    for n in range(bounds.get("max_th10_n", 4) + 1):
        for x in range(5):
            for y in range(5):
                if n > 0 and x + y == 0:
                    continue
                lhs, rhs = lgv.th10_pair(n, x, y)
                yield _report(
                    "ZnFactorization",
                    {"matrix": "factorial-quotient", "n": n, "x": x, "y": y},
                    lhs,
                    rhs,
                )


def _suite_vw_reduction(bounds, seed):
    max_n = bounds.get("max_n", 5)
    max_m = bounds.get("max_m", 6)
    for n in range(max_n + 1):
        for m in range(0, max_m + 1, 2):
            V, W = lgv.build_VW(n, m)
            for name, omega, _ in _OMEGAS[1:]:
                lhs = lgv.det_fraction_free(lgv.plus_scaled(W, omega, V))
                rhs = lgv.det_fraction_free(lgv.build_omega_shift(n, m, omega))
                yield _report(
                    "VWReduction", {"n": n, "m": m, "omega": name}, lhs, rhs
                )


def _suite_block_factorizations(bounds, seed):
    max_a = bounds.get("max_a", 6)
    max_m = bounds.get("max_m", 8)
    for a in range(max_a + 1):
        for m in range(max_m + 1):
            B = lgv.build_B(a, m)
            B3 = lgv.matrix_mul(lgv.matrix_mul(B, B), B)
            lhs = lgv.det_fraction_free(lgv.plus_scaled(B3, 1))
            rhs = lgv.det_fraction_free(lgv.plus_scaled(B, 1)) * lgv.det_fraction_free(
                lgv.build_omega_shift(a, m, omega3())
            ).norm()
            yield _report("BlockFactorizations", {"a": a, "m": m, "root": "third"}, lhs, rhs)
            lhs = lgv.det_fraction_free(lgv.plus_scaled(B3, -1))
            rhs = lgv.det_fraction_free(lgv.plus_scaled(B, -1)) * lgv.det_fraction_free(
                lgv.build_omega_shift(a, m, omega6())
            ).norm()
            yield _report("BlockFactorizations", {"a": a, "m": m, "root": "sixth"}, lhs, rhs)
    for idx in range(bounds.get("minor_checks", 3)):
        rng = _case_rng(seed, 10_000 + idx)
        M = lgv.ExactMatrix(
            lgv.RING_INTEGER, tuple(tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(4))
        )
        lhs = lgv.principal_minor_sum(M)
        rhs = lgv.det_fraction_free(lgv.plus_scaled(M, 1))
        yield _report(
            "BlockFactorizations", {"check": "principal-minors", "index": idx}, lhs, rhs
        )


def _suite_watson(bounds, seed):
    max_a = bounds.get("max_a", 3)
    max_m = bounds.get("max_M", 6)
    samples = bounds.get("samples", 5)
    groups = [
        (variant, a, M)
        for variant in formulas.WATSON_VARIANTS
        for a in range(1, max_a + 1)
        for M in range(a, max_m + 1)
    ]

    def draw(group, rng):
        variant, a, M = group
        B, C = _rand_rational(rng), _rand_rational(rng)
        params = {"variant": variant, "a": a, "M": M, "B": str(B), "C": str(C)}
        return params, *formulas.watson_pair(variant, a, M, B, C)

    yield from _sampled(
        "Watson", seed, groups, samples, 1000, draw,
        (hypergeom.PochhammerZeroError, ZeroDivisionError),
    )
    # the vanishing branch, checked on both sides
    lhs, rhs = formulas.watson_pair("W1", 3, 3, Fraction(1), Fraction(2))
    yield _report("Watson", {"variant": "W1", "a": 3, "M": 3, "branch": "both-odd"}, lhs, 0)
    yield _report("Watson", {"variant": "W1", "a": 3, "M": 3, "branch": "both-odd-rhs"}, rhs, 0)


# per identity: the number of rational parameters drawn, then the largest
# value of the integer parameter that terminates the series
_IDENTITY_LAYOUTS = {
    hypergeom.CHU_VANDERMONDE: (2, 8),
    hypergeom.PFAFF_SAALSCHUETZ: (3, 8),
    hypergeom.THOMAE: (4, 8),
    hypergeom.GESSEL_STANTON_5F4: (2, 6),
}


def _suite_hypergeom_identities(bounds, seed):
    samples = bounds.get("samples", 200)

    def draw(identity, rng):
        rationals, max_n = _IDENTITY_LAYOUTS[identity]
        params = [_rand_rational(rng) for _ in range(rationals)] + [rng.randint(0, max_n)]
        return (
            {"identity": identity, "params": [str(p) for p in params]},
            *hypergeom.identity_pair(identity, params),
        )

    yield from _sampled(
        "HypergeomIdentities", seed, hypergeom.IDENTITY_IDS, samples, 50 * samples, draw,
        (hypergeom.PochhammerZeroError, hypergeom.NonTerminatingError, ZeroDivisionError),
    )
    for n in range(bounds.get("max_qbinom_n", 12) + 1):
        for k in range(n + 1):
            yield _report(
                "HypergeomIdentities",
                {"identity": "qbinom-extraction", "n": n, "k": k},
                hypergeom.qbinom_neg1(n, k),
                hypergeom.qbinom_neg1_by_product(n, k),
            )


def conjecture_shift(a: int, b: int) -> tuple[int, Fraction]:
    """The off-center conjecture for sides a, b as (which, epsilon): the
    one-unit shift when a = b (mod 2), else the 3/2-unit shift."""
    return (1, Fraction(1)) if a % 2 == b % 2 else (2, Fraction(3, 2))


def conjecture_reports(a: int, b: int, c: int, ms, odd_ms=()):
    """The Conjectures reports of one (a, b, c): its conjecture against the
    determinant for each m in ms, and for each m in odd_ms the determinant
    alone, since for an odd core it computes a signed count with no
    conjectured closed form."""
    which, eps = conjecture_shift(a, b)
    for m in ms:
        params = {"which": which, "a": a, "b": b, "c": c, "m": m}
        try:
            rhs = formulas.conjecture_rhs(which, a, b, c, m)
        except formulas.FormulaDomainError as exc:
            yield _skip("Conjectures", params, str(exc))
            continue
        det = lgv.det_fraction_free(lgv.build_cored_matrix(a, b, c, m, eps))
        yield _report("Conjectures", params, det, rhs)
    for m in odd_ms:
        det = lgv.det_fraction_free(lgv.build_cored_matrix(a, b, c, m, eps))
        yield _report(
            "Conjectures",
            {
                "which": which,
                "a": a,
                "b": b,
                "c": c,
                "m": m,
                "note": "odd m: signed determinant reported, no closed form asserted",
            },
            det,
            det,
        )


def _suite_conjectures(bounds, seed):
    ms = bounds.get("ms", (0, 2, 4))
    odd_ms = bounds.get("odd_ms", (1, 3))
    for a, b, c, _ in admissible_tuples(bounds.get("max_a", 4), 0):
        yield from conjecture_reports(a, b, c, ms, odd_ms)


def _difference(row):
    return [y - x for x, y in zip(row, row[1:])]


def _finite_difference_degree(values):
    """Degree at which finite differences stabilize to zero, or None."""
    row = list(values)
    degree = 0
    while any(v != 0 for v in row):
        row = _difference(row)
        degree += 1
        if len(row) < 3:
            return None
    return degree - 1


def _suite_polynomiality(bounds, seed):
    triples = bounds.get("triples", ((1, 1, 1), (2, 2, 2), (1, 3, 1)))
    cap = bounds.get("cap")
    max_terms = bounds.get("max_terms", 24)
    for a, b, c in triples:
        for parity, label in ((0, "one"), (1, "minus1")):
            params = {"a": a, "b": b, "c": c, "weight": label, "m_parity": parity}
            values = []
            degree = None
            for t in range(max_terms):
                m = parity + 2 * t
                values.append(lgv.det_fraction_free(lgv.build_cored_matrix(a, b, c, m)))
                if len(values) >= 4:
                    degree = _finite_difference_degree(values[:-2])
                    if degree is not None:
                        break
            if degree is None:
                yield _report(
                    "Polynomiality", params, "no stabilization", "degree", status=FAIL
                )
                continue
            # the degree-D interpolant predicts the last two values iff the
            # (D+1)-st differences of the extended sequence vanish
            row = values
            for _ in range(degree + 1):
                row = _difference(row)
            yield _report(
                "Polynomiality",
                {**params, "degree": degree, "terms": len(values)},
                all(v == 0 for v in row),
                True,
            )
            # oracle cross-check, up to the first m over the cap
            for t, det_value in enumerate(values):
                m = parity + 2 * t
                report = _capped(
                    "Polynomiality",
                    {**params, "m": m, "check": "oracle"},
                    det_value,
                    tilings.CoredHexagon(a, b, c, m),
                    label,
                    cap,
                )
                if report.status == SKIP:
                    break
                yield report


def _suite_asymptotics(bounds, seed):
    a, b, c, m = bounds.get("params", (1, 1, 1, 1))
    ns = bounds.get("ns", (4, 8, 16))
    # log(count) / n^2 needs n > 0, and the final deviation a last n
    if min(ns, default=0) <= 0:
        raise ValueError(f"bound ns must be nonempty and positive, got {ns}")
    digits = bounds.get("digits", 50)
    k = formulas.asymptotic_k(a, b, c, m, digits=digits)
    k_again = formulas.asymptotic_k(a, b, c, m, digits=digits)
    yield _report(
        "Asymptotics",
        {"check": "determinism", "digits": digits},
        mpmath.nstr(k, digits - 5),
        mpmath.nstr(k_again, digits - 5),
    )
    k_low = formulas.asymptotic_k(a, b, c, m, digits=30)
    yield _report(
        "Asymptotics",
        {"check": "precision-agreement"},
        bool(abs(k - k_low) < mpmath.mpf(10) ** (-25)),
        True,
    )
    devs = []
    with mpmath.workdps(digits):
        for n in ns:
            count = formulas.count_cored_formula(a * n, b * n, c * n, m * n)
            devs.append(abs(mpmath.log(mpmath.mpf(int(count))) / (n * n) - k))
    for i in range(1, len(devs)):
        yield _report(
            "Asymptotics",
            {"check": "deviation-decreases", "n": ns[i]},
            bool(devs[i] < devs[i - 1]),
            True,
        )
    yield _report(
        "Asymptotics",
        {"check": "final-deviation", "n": ns[-1], "bound": "0.1"},
        bool(devs[-1] < mpmath.mpf("0.1")),
        True,
    )


def _suite_prefactor_identity(bounds, seed):
    max_a = bounds.get("max_a", 3)
    max_m = bounds.get("max_m", 3)
    for a, b, c, m in admissible_tuples(max_a, max_m):
        shifted = a % 2 != b % 2
        matrix = lgv.build_cored_matrix(a, b, c, m)
        raw = lgv.det_fraction_free(matrix)
        prefactor, transformed = lgv.cored_det_transform(a, b, c, m, shifted)
        det_d = lgv.det_fraction_free(transformed)
        params = {"a": a, "b": b, "c": c, "m": m, "shifted": shifted}
        yield _report(
            "PrefactorIdentity",
            {**params, "check": "prefactor"},
            prefactor * frac(det_d),
            raw,
        )
        yield _report(
            "PrefactorIdentity",
            {**params, "check": "lemma-rhs"},
            formulas.lemma_rhs(a, b, c, m, shifted),
            frac(det_d),
        )
        if a + m <= 5:
            yield _report(
                "PrefactorIdentity",
                {**params, "check": "laplace"},
                lgv.laplace_two_block(matrix, a),
                raw,
            )


SUITES = {
    "TilingsVsFormula": _suite_tilings_vs_formula,
    "DetsVsFormulas": _suite_dets_vs_formulas,
    "CyclicWeights": _suite_cyclic_weights,
    "Case10": _suite_case10,
    "ZnFactorization": _suite_zn_factorization,
    "VWReduction": _suite_vw_reduction,
    "Watson": _suite_watson,
    "HypergeomIdentities": _suite_hypergeom_identities,
    "Conjectures": _suite_conjectures,
    "Polynomiality": _suite_polynomiality,
    "Asymptotics": _suite_asymptotics,
    "PrefactorIdentity": _suite_prefactor_identity,
    "BlockFactorizations": _suite_block_factorizations,
}

def run_suite(name: str, bounds: dict | None = None, seed: int = 0) -> list[VerificationReport]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick one of {sorted(SUITES)}")
    bounds = bounds or {}
    # a negative bound, or a negative core size in Conjectures' ms and
    # odd_ms, would check nothing and read as a pass
    for key, bound in bounds.items():
        for value in bound if key in ("ms", "odd_ms") else (bound,):
            if isinstance(value, int) and value < 0:
                raise ValueError(f"bound {key} must be nonnegative, got {value}")
    return list(SUITES[name](bounds, seed))


def suite_failed(reports) -> bool:
    return any(r.status == FAIL for r in reports)


def reports_to_jsonl(reports) -> str:
    lines = [json.dumps(r.to_json_dict(), sort_keys=True) for r in reports]
    return "\n".join(lines) + "\n"


def reports_to_csv(reports) -> str:
    by_suite: dict[str, list[VerificationReport]] = {}
    for r in reports:
        by_suite.setdefault(r.suite, []).append(r)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["suite", "total", "passed", "failed", "skipped"])
    for suite in sorted(by_suite):
        rs = by_suite[suite]
        writer.writerow(
            [
                suite,
                len(rs),
                sum(1 for r in rs if r.status == PASS),
                sum(1 for r in rs if r.status == FAIL),
                sum(1 for r in rs if r.status == SKIP),
            ]
        )
    return out.getvalue()
