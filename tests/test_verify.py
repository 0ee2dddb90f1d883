import hashlib
import inspect
import json

import pytest

from cored_hexagons import formulas, lgv, tilings, verify
from cored_hexagons.verify import (
    FAIL,
    PASS,
    SKIP,
    SUITES,
    reports_to_csv,
    reports_to_jsonl,
    run_suite,
    suite_failed,
)

SMALL_BOUNDS = {
    "TilingsVsFormula": {"max_a": 2, "max_m": 1},
    "DetsVsFormulas": {"max_a": 4, "max_m": 4},
    "CyclicWeights": {"max_a": 3, "max_m": 1},
    "Case10": {"max_a": 3, "max_m": 2},
    "ZnFactorization": {"max_n": 3, "samples": 2, "max_th10_n": 2},
    "VWReduction": {"max_n": 3, "max_m": 2},
    "Watson": {"max_a": 2, "max_M": 4, "samples": 2},
    "HypergeomIdentities": {"samples": 10, "max_qbinom_n": 6},
    "Conjectures": {"max_a": 2, "ms": (0, 2)},
    "Polynomiality": {"triples": ((1, 1, 1),)},
    "Asymptotics": {"digits": 30},
    "PrefactorIdentity": {"max_a": 2, "max_m": 2},
    "BlockFactorizations": {"max_a": 3, "max_m": 3, "minor_checks": 1},
}


# SHA-256 of reports_to_jsonl(run_suite(name, SMALL_BOUNDS[name], seed=3)):
# a change to the sampling order, the parameters or the formatting of any
# suite shows here
GOLDEN_DIGESTS = {
    "Asymptotics": "a65344fccb70e4d5b893472d475346c558892741d96c566a52ed94794b4973b8",
    "BlockFactorizations": "cf5b509bffc1eefe656ff97ebf19a7247594ccc28f6a3f8aade91b4edfc5f9af",
    "Case10": "ce6265a089218819018652cf1ed783b5980cb3b79d5ef2f054e699000b0d0234",
    "Conjectures": "849f5902c51e1b42045db1f58f8c125f2a105c87d9b80fe9f2d7cc06e0f1c778",
    "CyclicWeights": "86b9809702d911cec13d799e0f67941fed3cbad65d771c53e789dcd23729b7f6",
    "DetsVsFormulas": "ff00aa14998f75d8f2035e0a7853ee9cd890da28458c35f0bf3d7d16f3782a4c",
    "HypergeomIdentities": "a7f0933ddfc5ab6ac525f049addd8c57cbabace5093a8293249d35a3c7ac9eae",
    "Polynomiality": "6e9e8480e64d7b5b1e6f529ea2e2f1ebc2ccc0fcab37382c198d3775ad0f126f",
    "PrefactorIdentity": "82074510ef05e994e062c1ab563103bcff6dcc2e2d2d946f18a745b732658035",
    "TilingsVsFormula": "84205a2dfb3caf7b62f498a73eac05ca14b4d7a17c0714ae6085ea51ca340ba8",
    "VWReduction": "994a15abe460882718cd0c0dd6538c52d5fa07512c673d96ad75be3e3260791e",
    "Watson": "dca8aa0a727635ac45e6e63137c6569fceec8784bd2ea38e05af6d34c8c8970f",
    "ZnFactorization": "41bf66e4eaf1d72cc345fc412394dcdbd918e475b58a3abf6245591c1b207062",
}


# SHA-256 of reports_to_jsonl(run_suite(name, {}, seed=0)): every suite at
# its default bounds, so a change to how any value is printed shows here
DEFAULT_BOUND_DIGESTS = {
    "Asymptotics": "bf65f751311ced34b1d2cd88f50cfd92a8387fd6e46fc99abddd29fc5da056bf",
    "BlockFactorizations": "f0dd7364b0047466c35ec6c9e592aa9d6f06f85bfb5739fde5e74769f6c43292",
    "Case10": "c8ba9647c6d87cf6d79f449bdf2fb5b915fbd08f4671963779eda85c11e6e322",
    "Conjectures": "1607046519529b55557c7308555426d8c4780f7b1b835c9f72f6c950ecb1cb86",
    "CyclicWeights": "428c1dd8807c0f5e652e3f4cf6033d421773fd9b3a9c78ad11e9d8c866fd4d21",
    "DetsVsFormulas": "e4d32134d0ddb7c47d255454a06aa4d51579a4465f8c4f52673badcdcbd5912b",
    "HypergeomIdentities": "f1d8e06cb00826690dbb78e0a3884c2017ac84a7715627954ffbdafbc346f53e",
    "Polynomiality": "c2f67901ec86cbcb7c31f5dc2c9bc096fcae23bdae6183a574b0e16c4ce92492",
    "PrefactorIdentity": "762d662b72421a784649ed9db9d13d0a6b21dcc73319412077de7574d9edc17a",
    "TilingsVsFormula": "8cc0997a82cac1fe108bf48545d3e6ae96d0c634274ee88d925cce7855556583",
    "VWReduction": "b6186884025e142123c9969cd7aa9e92c0b93e0db99926d2848d4d816f57033e",
    "Watson": "e202bb15a513e185ead3e94b77d94be46af8bc683f0fb1b25fa32c37b7571096",
    "ZnFactorization": "53633b28c60562e4027abe6c3bda95edd32d19467e477ef6a2935ee74f01f233",
}


def test_zn_factorization_does_not_resample_failed_assertions(monkeypatch):
    def failing_pair(n, x, mu):
        raise AssertionError("inexact division")

    monkeypatch.setattr("cored_hexagons.lgv.zn_factor_pair", failing_pair)
    with pytest.raises(AssertionError):
        run_suite("ZnFactorization", SMALL_BOUNDS["ZnFactorization"])


# every closed form and every matrix builder; the suites between them must
# call each one
CLOSED_FORMS = (
    "macmahon_box",
    "count_cored_formula",
    "andrews_rhs",
    "zare1_rhs",
    "om3_rhs",
    "om6_rhs",
    "rhs_case10",
    "asymptotic_k",
    "conjecture_rhs",
    "watson_lhs",
    "watson_rhs",
    "lemma_rhs",
)
BUILDERS = (
    "build_cored_matrix",
    "build_B",
    "build_omega_shift",
    "build_n6_matrix",
    "build_Zn",
    "build_VW",
    "cored_det_transform",
    "laplace_two_block",
)


def test_suites_call_every_closed_form_and_builder(monkeypatch):
    calls = {}

    def spy_on(module, name):
        fn = getattr(module, name)
        signature = inspect.signature(fn)

        def spy(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.setdefault(name, []).append(bound.arguments)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    for name in CLOSED_FORMS:
        spy_on(formulas, name)
    for name in BUILDERS:
        spy_on(lgv, name)
    spy_on(verify, "count")
    spy_on(tilings, "cyclic_histogram")
    for name in SUITES:
        run_suite(name, SMALL_BOUNDS[name], seed=3)
    assert set(CLOSED_FORMS + BUILDERS) - set(calls) == set()

    def family(args):
        if args["weight"] == tilings.WEIGHT_MINUS1_N6:
            return "minus1-n6"
        cyclic = args["cyclic"] or args["weight"] in tilings.CYCLIC_WEIGHTS
        return "cyclic" if cyclic else "plain"

    reached = {(family(args), args["route"]) for args in calls["count"]}
    # CyclicWeights reads the cyclic brute counts off one histogram of n
    if any(not args["n6"] for args in calls["cyclic_histogram"]):
        reached.add(("cyclic", "brute"))
    families = ("plain", "cyclic", "minus1-n6")
    assert reached == {(f, route) for f in families for route in verify.ROUTES}
    variants = {
        (args["signed"], args["a"] % 2 != args["b"] % 2)
        for args in calls["count_cored_formula"]
    }
    assert variants == {(False, False), (False, True), (True, False), (True, True)}
    assert {args["which"] for args in calls["conjecture_rhs"]} == {1, 2}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_runs_clean(name):
    reports = run_suite(name, SMALL_BOUNDS[name], seed=3)
    assert reports, name
    assert not suite_failed(reports)
    for report in reports:
        assert report.status in (PASS, FAIL, SKIP)
        assert report.suite == name


@pytest.mark.parametrize("name", sorted(SUITES))
def test_reports_match_their_golden_digest(name):
    jsonl = reports_to_jsonl(run_suite(name, SMALL_BOUNDS[name], seed=3))
    assert hashlib.sha256(jsonl.encode()).hexdigest() == GOLDEN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DEFAULT_BOUND_DIGESTS))
def test_default_bound_reports_match_their_golden_digest(name):
    jsonl = reports_to_jsonl(run_suite(name, {}, seed=0))
    assert hashlib.sha256(jsonl.encode()).hexdigest() == DEFAULT_BOUND_DIGESTS[name]


@pytest.mark.parametrize("ns", [(0, 2), (4, -1), ()])
def test_asymptotics_rejects_a_ladder_without_positive_rungs(ns):
    with pytest.raises(ValueError, match="bound ns must be nonempty and positive"):
        run_suite("Asymptotics", {"ns": ns})


@pytest.mark.parametrize("digits", [0, 5, 20, 29])
def test_asymptotics_rejects_digits_below_its_precision_check(digits):
    # precision-agreement holds k to a fixed 30-digit value within 10^-25,
    # which fewer digits fail spuriously; at 5 the determinism check prints
    # k to no digits at all, and at 0 the suite raised IndexError
    with pytest.raises(ValueError, match=f"bound digits must be at least 30, got {digits}"):
        run_suite("Asymptotics", {"digits": digits})


def _knock_out(monkeypatch, module, name, at):
    """Add 1 to the value of module.<name> at the leading arguments `at`
    alone."""
    fn = getattr(module, name)

    def knocked(*args, **kwargs):
        value = fn(*args, **kwargs)
        return value + 1 if args[: len(at)] == at else value

    monkeypatch.setattr(module, name, knocked)


# a route off by one at a single tuple inside the default bounds, with a >= 1
# so that the region has cells; then the suites that must fail at the
# default cap, and those that must still fail at cap 0. CyclicWeights holds
# rhs_omega_det to the oracle alone, which cap 0 skips; DetsVsFormulas holds
# it to the determinant. The oracle is checked at the default cap alone.
KNOCKOUTS = [
    (formulas, "count_cored_formula", (2, 1, 1, 1), ("TilingsVsFormula",), ("TilingsVsFormula",)),
    (formulas, "rhs_case10", (3, 2), ("Case10",), ("Case10",)),
    (
        formulas,
        "rhs_omega_det",
        (2, 1, formulas.OMEGA_THIRD),
        ("DetsVsFormulas", "CyclicWeights"),
        ("DetsVsFormulas",),
    ),
    (
        lgv,
        "det_fraction_free",
        (lgv.build_cored_matrix(2, 1, 1, 1),),
        ("TilingsVsFormula", "PrefactorIdentity"),
        ("TilingsVsFormula", "PrefactorIdentity"),
    ),
    (
        tilings,
        "count_weighted",
        (tilings.CoredHexagon(2, 1, 1, 1), "minus1"),
        ("TilingsVsFormula",),
        (),
    ),
]


@pytest.mark.parametrize(
    "module, name, at, suites, at_cap_zero",
    KNOCKOUTS,
    # the ids pytest gives the columns after the module
    ids=[f"{name}-at{i}-suites{i}-at_cap_zero{i}" for i, (_, name, *_) in enumerate(KNOCKOUTS)],
)
def test_a_pointwise_knockout_fails_its_suites(monkeypatch, module, name, at, suites, at_cap_zero):
    _knock_out(monkeypatch, module, name, at)
    for suite in suites:
        assert suite_failed(run_suite(suite, {})), suite
    for suite in at_cap_zero:
        assert suite_failed(run_suite(suite, {"cap": 0})), suite


def test_a_histogram_residue_off_by_one_fails_cyclic_weights(monkeypatch):
    # one residue of the histogram of n at C_2(1) alone, moving each of the
    # four weights, as omega^3 = +-1; cap 0 skips the search there, and
    # passes only the regions without cells
    histogram = tilings.cyclic_histogram

    def knocked(hexagon, n6=False, cap=None):
        hist = histogram(hexagon, n6, cap)
        if hexagon == tilings.CoredHexagon(2, 2, 2, 1) and not n6:
            hist[3] += 1
        return hist

    monkeypatch.setattr(tilings, "cyclic_histogram", knocked)
    reports = run_suite("CyclicWeights", {})
    failed = {r.case_params["weight"] for r in reports if r.status == FAIL}
    assert failed == set(verify._OMEGAS)
    at = [(r.case_params["a"], r.case_params["m"]) == (2, 1) for r in reports]
    assert sum(at) == 4
    assert not suite_failed(r for r, hit in zip(reports, at) if not hit)
    reports = run_suite("CyclicWeights", {"cap": 0})
    assert not suite_failed(reports)
    assert all(r.status == (PASS if r.case_params["a"] == 0 else SKIP) for r in reports)


@pytest.mark.parametrize("name", ["TilingsVsFormula", "Case10"])
def test_cap_zero_skips_the_oracle_comparisons_alone(name):
    reports = run_suite(name, {"cap": 0})
    assert not suite_failed(reports)
    skipped = [r for r in reports if r.status == SKIP]
    assert skipped and all(r.case_params["route"] == "brute" for r in skipped)
    assert all(r.status == PASS for r in reports if r.case_params.get("route") == "formula")
    macmahon = [r for r in reports if r.case_params.get("weight") == "macmahon"]
    assert len(macmahon) == (15 if name == "TilingsVsFormula" else 0)
    assert all(r.status == PASS for r in macmahon)


def test_polynomiality_at_cap_zero_stops_its_oracle_check():
    reports = run_suite("Polynomiality", {"cap": 0})
    assert reports and not suite_failed(reports)
    assert not any(r.case_params.get("check") == "oracle" for r in reports)


def test_determinism_is_byte_level():
    a = run_suite("Watson", SMALL_BOUNDS["Watson"], seed=9)
    b = run_suite("Watson", SMALL_BOUNDS["Watson"], seed=9)
    assert reports_to_jsonl(a) == reports_to_jsonl(b)


def test_seed_changes_sampled_cases():
    a = run_suite("ZnFactorization", SMALL_BOUNDS["ZnFactorization"], seed=1)
    b = run_suite("ZnFactorization", SMALL_BOUNDS["ZnFactorization"], seed=2)
    assert reports_to_jsonl(a) != reports_to_jsonl(b)


def test_skip_is_a_first_class_status():
    reports = run_suite("Case10", {"max_a": 4, "max_m": 3, "cap": 5}, seed=0)
    statuses = {r.status for r in reports}
    assert SKIP in statuses
    assert FAIL not in statuses  # a cap must never masquerade as a failure


def test_jsonl_shape():
    reports = run_suite("Case10", SMALL_BOUNDS["Case10"], seed=0)
    lines = reports_to_jsonl(reports).strip().splitlines()
    assert len(lines) == len(reports)
    first = json.loads(lines[0])
    assert set(first) == {"suite", "case_params", "lhs", "rhs", "equal", "status"}


def test_csv_summary():
    reports = run_suite("Case10", SMALL_BOUNDS["Case10"], seed=0)
    csv_text = reports_to_csv(reports)
    header, row = csv_text.strip().splitlines()
    assert header == "suite,total,passed,failed,skipped"
    suite, total, passed, failed, skipped = row.split(",")
    assert suite == "Case10"
    assert int(total) == len(reports)
    assert int(failed) == 0


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("NoSuchSuite")


@pytest.mark.parametrize("name, bounds", [
    ("Case10", {"max_a": -1}),
    ("CyclicWeights", {"max_m": -3}),
    ("TilingsVsFormula", {"cap": -1}),
    ("Asymptotics", {"digits": -1}),
])
def test_negative_bound_rejected(name, bounds):
    # a sweep over no cases would read as a pass
    (key, value), = bounds.items()
    with pytest.raises(ValueError, match=f"bound {key} must be nonnegative, got {value}"):
        run_suite(name, bounds)


@pytest.mark.parametrize("bounds", [{"ms": (0, -1)}, {"odd_ms": [-3]}])
def test_negative_core_size_rejected(bounds):
    # conjecture_rhs refuses a negative m with a domain error, which the
    # suite reports as a skip, so a run of such skips would read as a pass
    (key, values), = bounds.items()
    with pytest.raises(ValueError, match=f"bound {key} must be nonnegative, got {min(values)}"):
        run_suite("Conjectures", bounds)


def test_unknown_route_rejected():
    # a typo'd route would otherwise compare the determinant with itself
    with pytest.raises(ValueError, match=r"unknown route 'bogus', not one of \('formula', 'determinant', 'brute'\)"):
        verify.count(tilings.CoredHexagon(2, 2, 2, 0), "one", "bogus")


@pytest.mark.parametrize("sides, weight, cyclic, message", [
    ((2, 2, 2, 0), "two", None, "unknown weight 'two'"),
    ((2, 3, 1, 1), "omega3", None, "cyclically symmetric tilings need a = b = c"),
    ((2, 3, 1, 1), "minus1-n6", None, "cyclically symmetric tilings need a = b = c"),
    ((2, 3, 1, 1), "one", True, "cyclically symmetric tilings need a = b = c"),
    ((2, 2, 2, 1), "omega3", False, "weight 'omega3' is defined on cyclic tilings only"),
])
def test_every_route_refuses_a_count_outside_its_domain(sides, weight, cyclic, message):
    # the brute route's refusals, the same on every route: the closed form
    # and the determinant read a alone, so they would give C_{a,a,a}(m)'s
    # value, or the plain count for an unknown weight
    for route in verify.ROUTES:
        with pytest.raises(ValueError) as refused:
            verify.count(tilings.CoredHexagon(*sides), weight, route, cyclic=cyclic)
        assert str(refused.value) == message, route
