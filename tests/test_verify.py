import json

import pytest

from cored_hexagons.verify import (
    ALL_BUILDERS,
    FAIL,
    PASS,
    SKIP,
    SUITES,
    SUITE_COVERAGE,
    check_registry,
    reports_to_csv,
    reports_to_jsonl,
    run_suite,
    suite_failed,
)
from cored_hexagons.formulas import FORMULA_TAGS

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


def test_zn_factorization_does_not_resample_failed_assertions(monkeypatch):
    def failing_pair(n, x, mu):
        raise AssertionError("inexact division")

    monkeypatch.setattr("cored_hexagons.lgv.zn_factor_pair", failing_pair)
    with pytest.raises(AssertionError):
        run_suite("ZnFactorization", SMALL_BOUNDS["ZnFactorization"])


def test_registry_covers_everything():
    check_registry()
    tags = set().union(*(c["tags"] for c in SUITE_COVERAGE.values()))
    assert tags == set(FORMULA_TAGS)
    builders = set().union(*(c["builders"] for c in SUITE_COVERAGE.values()))
    assert builders == ALL_BUILDERS


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_runs_clean(name):
    reports = run_suite(name, SMALL_BOUNDS[name], seed=3)
    assert reports, name
    assert not suite_failed(reports)
    for report in reports:
        assert report.status in (PASS, FAIL, SKIP)
        assert report.suite == name


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
