"""Tests of the benchmark harness itself: every named metric prints with its
unit, the correctness gate counts what it should, and inputs are seeded."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402

from cored_hexagons import CoredHexagon, formulas, tilings  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_mode_prints_every_metric_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.2",
            "--trace", str(trace), "--tiny"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_wrong_expected_value_counts_as_a_failure(workload):
    cases = workloads.generate(workload, 1, tiny=True)
    outcomes, _ = workloads.run_pass(cases, 1, NullTracer(),
                                     compare=lambda got, want: got == want + 1, tiny=True)
    statuses = [status for _, status, _ in outcomes]
    assert workloads.FAIL in statuses
    assert set(statuses) <= {workloads.FAIL, workloads.SKIP}


@pytest.mark.parametrize("error, status", [
    (RecursionError, workloads.FAIL),
    (AssertionError, workloads.FAIL),
    (tilings.CellCapError, workloads.SKIP),
])
def test_a_raising_case_is_recorded_and_the_pass_goes_on(monkeypatch, error, status):
    def raising(*args):
        raise error("injected")

    monkeypatch.setattr(tilings, "count_weighted", raising)
    cases = workloads.generate("oracle", 1, tiny=True)
    outcomes, _ = workloads.run_pass(cases, 1, NullTracer(), tiny=True)
    assert [s for _, s, _ in outcomes] == [status] * len(cases)


def test_sweep_jsonl_must_repeat_byte_for_byte():
    same = run.Pass(False, 1.0, 1.0, [], "a\n")
    assert run.deterministic([same, same])
    assert not run.deterministic([same, run.Pass(False, 1.0, 1.0, [], "b\n")])


@pytest.mark.parametrize("workload", ["oracle", "exact", "growth"])
def test_inputs_come_from_the_seed(workload):
    assert workloads.generate(workload, 3) == workloads.generate(workload, 3)
    assert workloads.generate(workload, 3) != workloads.generate(workload, 4)


def _classes(pool: str) -> list[list[str]]:
    lines = [line.split() for line in pool.strip().splitlines()]
    tokens = [t for line in lines for t in line]
    assert all(lines) and len(tokens) == len(set(tokens))
    return lines


def test_pools_hold_what_their_comments_say():
    oracle = set()
    for a, b, c, m in product(range(9), range(9), range(9), range(6)):
        if (b % 2 == c % 2 and 40 <= CoredHexagon(a, b, c, m).cell_count <= 120
                and 100 <= formulas.count_cored_formula(a, b, c, m) < 24000):
            oracle |= {f"{a}{b}{c}{m}o", f"{a}{b}{c}{m}m"}
    assert len(_classes(workloads.ORACLE_POOL)) == 120
    assert set(workloads.ORACLE_POOL.split()) <= oracle
    cyclic = {f"{a}{m}{w}" for a, ms in workloads.CYCLIC_M_RANGE.items() for m in ms
              for w in workloads.CYCLIC_WEIGHT}
    assert len(_classes(workloads.CYCLIC_POOL)) == 30
    assert set(workloads.CYCLIC_POOL.split()) <= cyclic
    shapes = {"".join(map(str, s)) for s in product(range(1, 4), repeat=4)}
    assert len(_classes(workloads.GROWTH_POOL)) == 20
    assert set(workloads.GROWTH_POOL.split()) <= shapes


def test_exact_keeps_two_of_the_three_middle_splits_of_every_family():
    for seed in (1, 2):
        cored = [c.params for c in workloads.generate("exact", seed) if c.kind == "cored_det"]
        assert len(cored) == 2 * workloads.EXACT_FAMILIES
        for i in range(workloads.EXACT_FAMILIES):
            n, s = 8 + 40 * i // 59, 8 * (1 + i % 6)
            a = 1 + 7 * i % n
            pair = cored[2 * i:2 * i + 2]
            assert all(p[0] == a and p[1] + p[2] == s and p[3] == n - a for p in pair)
            assert pair[0][1] - pair[0][2] < pair[1][1] - pair[1][2]
            assert {p[1] - p[2] for p in pair} < {-4, 0, 4}


def test_passes_shuffle_cases_but_keep_ladders_and_suites_in_order():
    rng = random.Random(1)
    growth = workloads.generate("growth", 1)
    order = workloads.shuffled(growth, rng)
    assert sorted(order) == list(range(len(growth))) and order != sorted(order)
    rungs = [growth[i].params for i in order]
    for k in range(0, len(rungs), len(workloads.RUNGS)):
        ladder = rungs[k:k + len(workloads.RUNGS)]
        assert [n for _, n in ladder] == list(workloads.RUNGS)
        assert len({shape for shape, _ in ladder}) == 1
    sweep = workloads.generate("sweep", 1)
    assert workloads.shuffled(sweep, rng) == list(range(len(sweep)))


def test_tracer_charges_child_spans_to_their_parent():
    tracer = Tracer({})
    with tracer.span("case"):
        tracer.call("layer", sum, [1, 2])
    total, own = tracer.durations()
    assert own["case"] == pytest.approx(total["case"] - total["layer"])
    request, parent, name, _, _ = tracer.spans[1]
    assert (request, parent, name) == (0, 0, "layer")


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
