"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check is exact except the asymptotic envelope, whose tolerances
are pinned below.
"""

import os
import time
from fractions import Fraction

import mpmath

from cored_hexagons.exactnum import omega3, omega6
from cored_hexagons.formulas import (
    FormulaDomainError,
    asymptotic_k,
    conjecture_rhs,
    count_cored_formula,
    macmahon_box,
    rhs_case10,
    rhs_omega_det,
    watson_pair,
)
from cored_hexagons.hypergeom import (
    IDENTITY_IDS,
    NonTerminatingError,
    PochhammerZeroError,
    identity_pair,
    qbinom_neg1,
    qbinom_neg1_by_product,
)
from cored_hexagons.lgv import (
    build_B,
    build_cored_matrix,
    build_n6_matrix,
    build_omega_shift,
    build_VW,
    det_fraction_free,
    matrix_mul,
    plus_scaled,
    th10_pair,
    zn_factor_pair,
)
from cored_hexagons.tilings import (
    CoredHexagon,
    Region,
    count_weighted,
    statistic_n,
    statistic_n6,
)
from text_formats import tiling_from_text

DATA = os.path.join(os.path.dirname(__file__), "data")


def report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} [{status}] {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


def test_criterion_01_triangle_check():
    start = time.time()
    cases = 0
    for a in range(4):
        for b in range(4):
            for c in range(4):
                if b % 2 != c % 2:
                    continue
                for m in range(3):
                    signed = m % 2 == 1
                    eps = 0 if a % 2 == b % 2 else Fraction(1, 2)
                    oracle = count_weighted(
                        CoredHexagon(a, b, c, m), "minus1" if signed else "one"
                    )
                    det = det_fraction_free(build_cored_matrix(a, b, c, m, eps))
                    formula = count_cored_formula(a, b, c, m, signed=signed)
                    assert oracle == det == formula, (a, b, c, m)
                    cases += 1
    elapsed = time.time() - start
    report(
        1,
        "oracle = determinant = formula for a,b,c <= 3, m <= 2",
        elapsed < 600,
        f"{cases} cases in {elapsed:.1f}s",
    )


def test_criterion_02_macmahon_specialization():
    start = time.time()
    cases = 0
    for a in range(7):
        for b in range(7):
            for c in range(7):
                if b % 2 != c % 2:
                    continue
                assert count_cored_formula(a, b, c, 0) == macmahon_box(a, b, c)
                cases += 1
    elapsed = time.time() - start
    report(2, "m = 0 reduces to the box formula for a,b,c <= 6", elapsed < 1.0, f"{cases} cases in {elapsed:.2f}s")


def test_criterion_03_root_of_unity_determinants():
    start = time.time()
    omegas = {"one": 1, "minus1": -1, "third": omega3(), "sixth": omega6()}
    for a in range(25):
        for m in range(11):
            for case, omega in omegas.items():
                det = det_fraction_free(build_omega_shift(a, m, omega))
                assert det == rhs_omega_det(a, m, case), (a, m, case)
    elapsed = time.time() - start
    report(3, "det(wI+B) closed forms for a <= 24, m <= 10, four roots", elapsed < 60, f"{elapsed:.1f}s")


def test_criterion_04_cyclic_tilings():
    start = time.time()
    for a in range(5):
        for m in range(4):
            h = CoredHexagon(a, a, a, m)
            for weight, case in (
                ("one", "one"),
                ("minus1", "minus1"),
                ("omega3", "third"),
                ("omega6", "sixth"),
            ):
                oracle = count_weighted(h, weight, cyclic=True, cap=200)
                assert oracle == rhs_omega_det(a, m, case), (a, m, weight)
    elapsed = time.time() - start
    report(
        4,
        "cyclic weighted counts (incl. the m = 0 plane-partition case) for a <= 4, m <= 3",
        elapsed < 300,
        f"{elapsed:.1f}s",
    )


def test_criterion_05_case10():
    branches = set()
    for a in range(5):
        for m in range(4):
            oracle = count_weighted(CoredHexagon(a, a, a, m), "minus1-n6", cap=200)
            det = det_fraction_free(build_n6_matrix(a, m))
            formula = rhs_case10(a, m)
            assert oracle == det == formula, (a, m)
            if a:
                branches.add((a % 2, m % 2))
    report(5, "orbit-signed counts = n6 determinant = branch formula, a <= 4, m <= 3", len(branches) == 4, "all four parity branches")


def test_criterion_06_pinned_values():
    region = Region(CoredHexagon(5, 3, 1, 2))
    with open(os.path.join(DATA, "ray_example.txt")) as fh:
        tiling = tiling_from_text(fh.read(), region)
    ok = statistic_n(tiling, region) == 2

    region6 = Region(CoredHexagon(3, 3, 3, 2))
    with open(os.path.join(DATA, "orbit_example.txt")) as fh:
        tiling6 = tiling_from_text(fh.read(), region6)
    ok = ok and statistic_n6(tiling6, region6) == 3

    for a, m in ((2, 1), (3, 2), (5, 1)):
        ok = ok and count_weighted(CoredHexagon(a, 0, 0, m), "one") == 1

    from cored_hexagons.exactnum import binomial

    for a in (1, 3, 5):
        for m in (0, 2):
            expected = 2 * binomial(m + 1 + (a - 1) // 2, (a - 1) // 2)
            ok = ok and count_weighted(CoredHexagon(a, 1, 1, m), "one") == expected
    report(6, "pinned values: example-tiling statistics, b=c=0 and b=c=1 counts", ok)


def test_criterion_07_zn_factorization():
    import random

    ok = True
    for n in range(7):
        drawn = 0
        rng = random.Random(1000 + n)
        while drawn < 5:
            x = Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3)))
            mu = Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3)))
            try:
                lhs, rhs = zn_factor_pair(n, x, mu)
            except ZeroDivisionError:
                continue
            drawn += 1
            if n % 2 == 1:
                ok = ok and lhs == rhs == 0
            else:
                ok = ok and lhs == rhs
    for n in range(5):
        for x in range(5):
            for y in range(5):
                if n > 0 and x + y == 0:
                    continue
                lhs, rhs = th10_pair(n, x, y)
                ok = ok and lhs == rhs
    report(7, "Z_n factorization (n <= 6, random rational x, mu) and factorial-quotient determinant", ok)


def test_criterion_08_vw_and_blocks():
    ok = True
    for n in range(6):
        for m in range(0, 7, 2):
            V, W = build_VW(n, m)
            for omega in (-1, omega3(), omega6()):
                lhs = det_fraction_free(plus_scaled(W, omega, V))
                ok = ok and lhs == det_fraction_free(build_omega_shift(n, m, omega))
    for a in range(7):
        for m in range(9):
            B = build_B(a, m)
            B3 = matrix_mul(matrix_mul(B, B), B)
            lhs3 = det_fraction_free(plus_scaled(B3, 1))
            rhs3 = det_fraction_free(plus_scaled(B, 1)) * det_fraction_free(
                build_omega_shift(a, m, omega3())
            ).norm()
            lhs6 = det_fraction_free(plus_scaled(B3, -1))
            rhs6 = det_fraction_free(plus_scaled(B, -1)) * det_fraction_free(
                build_omega_shift(a, m, omega6())
            ).norm()
            ok = ok and lhs3 == rhs3 and lhs6 == rhs6
    report(8, "det(wV+W) reduction (n <= 5, even m <= 6) and block factorizations (a <= 6, m <= 8)", ok)


def test_criterion_09_watson():
    import random

    ok = True
    per_branch = {}
    for variant in ("W1", "W2", "W3"):
        for a in (1, 2, 3):
            for M in range(a, 7):
                rng = random.Random(hash((variant, a, M)) % 99991)
                drawn = 0
                attempts = 0
                while drawn < 5 and attempts < 1000:
                    attempts += 1
                    B = Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3)))
                    C = Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3)))
                    try:
                        lhs, rhs = watson_pair(variant, a, M, B, C)
                    except (PochhammerZeroError, ZeroDivisionError):
                        continue
                    drawn += 1
                    ok = ok and lhs == rhs
                key = (variant, a % 2, M % 2)
                per_branch[key] = per_branch.get(key, 0) + drawn
    lhs, rhs = watson_pair("W1", 3, 3, Fraction(1), Fraction(2))
    ok = ok and lhs == 0 and rhs == 0
    ok = ok and min(per_branch.values()) >= 5
    report(9, "Watson multiple sums W1-W3, >= 5 samples per parity branch, both-odd W1 vanishes", ok)


def test_criterion_10_hypergeometric_identities():
    import random

    ok = True
    for identity in IDENTITY_IDS:
        rng = random.Random(hash(identity) % 99991)
        checked = 0
        attempts = 0
        while checked < 200 and attempts < 20_000:
            attempts += 1

            def rp():
                return Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3)))

            if identity == "chu_vandermonde":
                params = [rp(), rp(), rng.randint(0, 8)]
            elif identity == "pfaff_saalschuetz":
                params = [rp(), rp(), rp(), rng.randint(0, 8)]
            elif identity == "thomae":
                params = [rp(), rp(), rp(), rp(), rng.randint(0, 8)]
            else:
                params = [rp(), rp(), rng.randint(0, 6)]
            try:
                lhs, rhs = identity_pair(identity, params)
            except (PochhammerZeroError, NonTerminatingError, ZeroDivisionError):
                continue
            checked += 1
            ok = ok and lhs == rhs
        ok = ok and checked == 200
    for n in range(13):
        for k in range(n + 1):
            ok = ok and qbinom_neg1(n, k) == qbinom_neg1_by_product(n, k)
    report(10, "classical identities x200 random tuples each, q = -1 binomial extraction", ok)


def test_criterion_11_conjecture_sweeps():
    ok = True
    checked = 0
    for a in range(5):
        for b in range(5):
            for c in range(5):
                if b % 2 != c % 2:
                    continue
                for m in (0, 2, 4):
                    if a % 2 == b % 2:
                        which, eps = 1, 1
                    else:
                        which, eps = 2, Fraction(3, 2)
                    try:
                        rhs = conjecture_rhs(which, a, b, c, m)
                    except FormulaDomainError:
                        continue
                    det = det_fraction_free(build_cored_matrix(a, b, c, m, eps))
                    ok = ok and det == rhs
                    checked += 1
    report(11, "off-center conjectures match the epsilon determinants (even m)", ok, f"{checked} cases")


def test_criterion_12_polynomiality():
    ok = True
    details = []
    for a, b, c in ((1, 1, 1), (2, 2, 2), (1, 3, 1)):
        eps = 0 if a % 2 == b % 2 else Fraction(1, 2)
        for parity, weight in ((0, "one"), (1, "minus1")):
            values = []
            degree = None
            for t in range(24):
                m = parity + 2 * t
                values.append(det_fraction_free(build_cored_matrix(a, b, c, m, eps)))
                if len(values) >= 4:
                    row = values[:-2]
                    d = 0
                    while any(v != 0 for v in row):
                        row = [q - p for p, q in zip(row, row[1:])]
                        d += 1
                        if len(row) < 3:
                            d = None
                            break
                    if d is not None:
                        degree = d - 1
                        break
            ok = ok and degree is not None
            if degree is None:
                continue
            row = list(values)
            for _ in range(degree + 1):
                row = [q - p for p, q in zip(row, row[1:])]
            predictions_ok = all(v == 0 for v in row)
            ok = ok and predictions_ok
            details.append(f"({a},{b},{c}) {weight}: D={degree}")
            # oracle agreement where the region is small enough
            for t, m in enumerate(range(parity, parity + 2 * len(values), 2)):
                if CoredHexagon(a, b, c, m).cell_count > 120:
                    break
                ok = ok and count_weighted(CoredHexagon(a, b, c, m), weight) == values[t]
    report(12, "finite differences stabilize and the interpolant predicts two more values", ok, "; ".join(details))


def test_criterion_13_asymptotics():
    start = time.time()
    k = asymptotic_k(1, 1, 1, 1, digits=50)
    devs = []
    with mpmath.workdps(50):
        for n in (4, 8, 16):
            count = count_cored_formula(n, n, n, n)
            devs.append(abs(mpmath.log(mpmath.mpf(int(count))) / (n * n) - k))
    ok = devs[0] > devs[1] > devs[2] and devs[2] < mpmath.mpf("0.1")
    elapsed = time.time() - start
    report(
        13,
        "asymptotic constant: deviations strictly decrease over n in {4,8,16}, < 0.1 at 16",
        ok and elapsed < 60,
        f"devs {[mpmath.nstr(d, 3) for d in devs]} in {elapsed:.1f}s",
    )
