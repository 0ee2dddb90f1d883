"""Seeded case lists for the four workloads and the checks that judge them.

A case is one closed-loop request: the harness calls the package's public
functions on a parameter tuple it generated from the seed, and compares the
routes. Every call into a layer goes through a tracer (see tracer.py) so a
traced run can charge the time to `tilings`, `lgv`, `formulas` or `verify`.

Inputs are drawn by cost class: each seed takes one case from every class
(for exact, two of three like matrices from every family), and the cases of
a class cost about the same, so seeds differ in which inputs they time but
not in the work a pass holds or in where its percentiles fall. See README.md
for why each workload exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from reference import clock

from cored_hexagons import formulas, lgv, tilings, verify
from cored_hexagons.exactnum import CycloElement, omega3, omega6

PASS, FAIL, SKIP = "pass", "fail", "skip"
WORKLOADS = ("oracle", "exact", "growth", "sweep")

# Inputs by cost class: one line of a pool is one class, and the seed draws
# one case from each line. The lines were made from the candidates a
# comment below states, by the cost of a case (best of three, 2-vCPU Xeon,
# CPython 3.11, no gmpy2): the candidates, sorted by cost, were split into
# as many equal runs as there are lines, and a line keeps the cases of its
# run that cost within 4% of the run's middle case. Lines run from cheap to
# dear, so every seed times the same mix of cheap and dear cases and the
# percentiles land on cases of the same cost.
#
# oracle, all tilings: admissible (a, b, c, m) with 40..120 cells, a, b, c
# <= 8, m <= 5 and a plain count in [100, 24000), one digit each, then o for
# weight one or m for minus1. Backtracking costs a few microseconds per
# tiling, so larger counts would let one case swamp a pass. The benchmark's
# tests derive the same set from the formula route.
ORACLE_POOL = """
    4220o 2420o
    3710o 1332o 1332m 4510o
    3710m 2330o 1370o 2711m 3221m
    1531m 3312o 3312m 4311m 1351m
    7310m 7310o 1242o 2420m 1821m 1333m
    1640o 1370m 1423m 0752o 1261m
    2240m 0842o 5220o 1622o 3511m
    2133m 5311m 0444o 8310o 0354o
    3132o 0643m 1460o 1531o 2620o
    2223m 2330m 3221o 3132m 4131m 0572o
    2222m 1351o 0553m 3313m 7130o
    0482o 2711o 4311o 3170m 1424o
    4510m 5510m 1242m 0662o 0373m
    3170o 1423o 1714m 0463m 1821o 7130m
    5510o 2134o 1714o 2133o 1333o
    0842m 1441m 1550m 2513m 2223o
    4220m 3511o 1261o 4710o 5220m
    0445m 2421m 3420o 4312o 5311o
    2260o 4131o 0355m 0752m 1640m 8310m
    8113m 0354m 6220o 1460m 2224o
    0444m 1550o 1715m 1622m 0553o
    3222o 0643o 4150o 1243m 3133m
    1441o 0662m 2421o 0373o 1334o
    0482m 1425m 3151m 0463o 1424m 3313o
    7114o 8130o 2513o 1623m 2241m
    0572m 2712o 4221m 4150m 2134m
    0445o 5131m 1334m 7114m 1840o
    1822o 6115m 3240o 2152o 2135m 1243o
    2241o 3420m 8113o 4312m 2171m
    0355o 1281m 1480o 4221o 3151o
    6510o 3133o 2260m 1715o 5131o
    1623o 1425o 3222m 6220m 3314o
    4710m 5150o 6311m 2224m 2514o 1174o
    2712m 8130m 1532o 3044o 6115o
    2620m 5150m 1840m 7115m 2135o
    1281o 1731m 1822m 3314m 1335m
    2331o 4404o 2331m 2171o 6311o 7025m
    2820o 3240m 2225m 8114o 1532m
    1480m 1731o 1371m 1750o 2152m
    6510m 8402o 4132o 1174m 7220o
    3044m 3330o 1352o 1570m 2514m
    2530o 1660o 1244o 1371o 2225o 1570o
    4170o 4404m 3330m 1352m 7025o
    1262o 7115o 4511m 8114m 1335o
    1750m 4313m 4511o 2820m 2350o
    1262m 3223o 4132m 4044o 4170m
    1624m 3223m 7220m 1175m 1660m 5312o
    5710m 1244m 3315o 7510o 3512o
    5710o 8402m 7311o 2515m 1624o
    2530m 3134m 3082m 2515o 3082o
    3711o 2713m 1823o 1175o 2713o 4313o
    3134o 3315m 8220o 6403m 2440o
    1641m 3711m 6131o 3063m 5043m
    2280o 6403o 6131m 7042o
    4044m 5043o 2422o 2153m 5404m
    2242o 5221o 4222o 6150m 7510m 4405o
    6150o 4405m 8220m 3135m 4420o
    2332o 2153o 4603m 2440m 1551o
    1551m 3135o 6602o 1245m 4222m
    3063o 1245o 8510o 4603o 1533m 1442o
    8042o 3224o 1533o 5132o 6602m
    7311m 4314o 1461m 1461o 2621o
    8311o 5132m 6312o 3512m 8311m
    4420m 4045m 4802o 3152o 2621m
    2332m 2242m 3421o 4133m 1823m 3171m
    3171o 4045o 4133o 8510m 3152m
    1353m 3620o 8042m 4314m 5312m
    3421m 5062o 3224m 7131o 6043m
    2350m 1085m 6043o 2172o 5221m
    1641o 4802m 3045m 6710o 4151m 5170o
    4151o 4082o 4240o 5062m 2280m
    1085o 7131m 2422m 2172m 6312m
    3045o 1442m 7042m 1353o 5170m
    1263o 6710m 2261o 4082m 7150o 5511o
    1263m 6221o 1282o 7150m 2261m
    3620m 6221m 1732o 4063m 4063o
    3513o 5511m 3513m 1732m 4240m
    5313m 1282m 2423o 5313o 3260o
    4711o 3225o 2154o 4315m
    3225m 3241o 3241m 3260m 1443o
    4315o 1443m 2154m 4711m 4512m
    4223o 1372o 5044o
    1841o 4223m 8131o 6062o 3331o
    5044m 2730o 1372m 3064o 2243o 8131m
    2243m 2333o 1841m 6062m 1534m
    5222o 4134o 3064m 3331m 6132o
    2730m 5222m 4134m 2333m 2370o
    3712o 7312o 1354o 5420o
    6132m 2531o 3712m 8150m 7221o
    5133m 3083m 5133o 2531m
    7221m 6170o 1354m 3153o 6511o
    3083o 5151o 6511m 5420m 3153m
    1642o 2821o 3422o 2424o 5151m 6313o
    6170m 1642m 2821m 5314o 1264o
    2351o 7312m 6313m 3514m 2155m
    1481o 2622o 5240o 3422m
    1481m 4224o 2173m 8312o
    5240m 4135o 1571o 1571m 3820o
    2155o 2334o 2244o 3820m 1552m
    2281o 3514o 1751m 8312m 2441o
    2622m 8221o 6222o 1462o 2424m
    2640o 2173o 2441m 2244m 2262o 4135m
    4513o 7132m 1552o 8221m 2460o
    5314m 7132o 3530o 4421o 6222m
    2281m 1462m 3172o 2262m 5223m
    4152o 1444o 2640m 4224m 2460m
    1283o 4421m 4513m 1283m 3280o 2425o
    4152m 5223o 3350o 2334m
    4171m 3172m 5134m 4171o
    7511m 3332m 3242m
    4241m 4620m 3423o 3280m
    6151m 6133m 3621o 5711m 2245o
    3423m 2532m 5512m 8132o
    3530m 5134o 4260m 2245m 3332o
    3350m 6240o 7222o 3242o 8132m
    2532o 2550m 6240m 6420o 5224o 3154m
    4241o 5330o 3154o 5711o 4225o
    7222m 5512o 7511o 3621m 6133o
    6151o 5224m
    7151o 5171m 7151m"""
# oracle, cyclically symmetric C_a(m) up to about 210 cells: a, m, then m for
# minus1, 3 for omega3, 6 for omega6 or n for minus1-n6. C_5(2) is left out:
# its omega6 search alone takes most of a second.
CYCLIC_POOL = """
    20n
    30m 206
    23n 30n 22m
    226 23m 31m
    223 216
    24m 233 236 22n
    32m 24n
    243 31n 25n
    303 306 26m
    253 256
    32n 27m
    27n 266 40m 263
    28m 276 316
    28n
    33n 273
    326 323
    40n 35m
    336 333
    346 343
    36n 37m
    38m 403 406
    353 366 363
    373 376
    50m 42n 43m
    383 386
    44m 43n
    51m 50n
    433 436
    443
    516"""
CYCLIC_M_RANGE = {2: range(0, 9), 3: range(0, 9), 4: range(0, 5), 5: range(0, 2)}
CYCLIC_WEIGHT = {"m": "minus1", "3": "omega3", "6": "omega6", "n": "minus1-n6"}
OMEGA_CASE = {"minus1": formulas.OMEGA_MINUS_ONE, "omega3": formulas.OMEGA_THIRD,
              "omega6": formulas.OMEGA_SIXTH}
# growth: shapes (a, b, c, m) with entries in 1..3, in 20 classes by the
# cost of the rungs n = 8, 16 and 32 (within 15%, 8% and 4%); most shapes
# have no peer that close, so most lines hold one shape
GROWTH_POOL = """
    1121
    1221 2211 1131
    1122
    1231
    2311
    1321 3112
    1132
    2231
    2222 3212
    2132
    1322
    2123 3321 3113
    1133
    1223
    3213
    3312
    3232 2322
    1333
    3133
    3323"""

# exact: 60 families of cored-hexagon matrices. Family i has order n = 8 +
# 40i // 59, a = 1 + 7i mod n, m = n - a and b + c = 8 (1 + i mod 6), so both
# placements occur; b - c is a multiple of 4. The seed drops one of the three
# middle splits b - c in {-4, 0, 4} and keeps the other two: they cost the
# same within a few percent, so seeds differ in the matrices they time but not
# in where the percentiles fall.
EXACT_FAMILIES = 60
# exact: omega*I + B for every omega at these orders; m is fixed, because the
# cost over Z[omega] jumps irregularly with m. The six over Z[omega3] and
# Z[omega6] cost about as much as the largest cored-hexagon matrices, so p90
# falls among cases of similar cost; the tiny mode takes order 6.
OMEGA_ORDERS = ((14, 6), (16, 6), (18, 6))
OMEGA_VALUES = ((formulas.OMEGA_ONE, 1), (formulas.OMEGA_MINUS_ONE, -1),
                (formulas.OMEGA_THIRD, omega3()), (formulas.OMEGA_SIXTH, omega6()))

# growth: rungs double, so the deviation from the asymptotic constant
# decreases strictly on every shape with entries in 1..3 (checked on all 81)
RUNGS = (2, 4, 8, 16, 32)

# sweep bounds for the tiny mode; the full mode runs every suite at its
# default bounds
TINY_SWEEP_BOUNDS = {
    "max_a": 2, "max_m": 1, "max_n": 2, "max_M": 2, "samples": 2,
    "minor_checks": 1, "max_qbinom_n": 3, "max_th10_n": 1,
    "triples": ((1, 1, 1),), "ms": (0, 2), "odd_ms": (1,),
}


@dataclass(frozen=True)
class Case:
    kind: str
    params: tuple


def generate(workload: str, seed: int, tiny: bool = False) -> list[Case]:
    """The seeded case list of one workload; sweep has one case per suite
    and each of its reports is timed as a case. The tiny mode keeps a few of
    the cheapest cases."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle":
        brute = _draw(rng, ORACLE_POOL, 4 if tiny else None)
        cyclic = _draw(rng, CYCLIC_POOL, 2 if tiny else None)
        return ([Case("brute", _digits(t[:4]) + ({"o": "one", "m": "minus1"}[t[4]],))
                 for t in brute]
                + [Case("cyclic", _digits(t[:2]) + (CYCLIC_WEIGHT[t[2]],)) for t in cyclic])
    if workload == "exact":
        return _exact_cases(rng, tiny)
    if workload == "growth":
        return [Case("rung", (_digits(t), n))
                for t in _draw(rng, GROWTH_POOL, 1 if tiny else None)
                for n in (RUNGS[:3] if tiny else RUNGS)]
    if workload == "sweep":
        return [Case("suite", (name,)) for name in verify.SUITES]
    raise ValueError(f"unknown workload {workload!r}")


def _digits(token: str) -> tuple:
    return tuple(int(d) for d in token)


def _draw(rng: random.Random, pool: str, keep: int | None) -> list[str]:
    """One token from each line of the pool; `keep` limits the draw to the
    cheapest lines."""
    return [rng.choice(line.split()) for line in pool.strip().splitlines()[:keep]]


def _exact_cases(rng: random.Random, tiny: bool) -> list[Case]:
    cases = []
    for i in range(3 if tiny else EXACT_FAMILIES):
        n, s = 8 + 40 * i // 59, 8 * (1 + i % 6)
        a = 1 + 7 * i % n
        kept = [-4, 0, 4]
        kept.remove(rng.choice(kept))
        cases += [Case("cored_det", (a, (s + d) // 2, (s - d) // 2, n - a)) for d in kept]
    for n, m in ((6, 1),) if tiny else OMEGA_ORDERS:
        cases += [Case("omega_det", (n, m, name)) for name, _ in OMEGA_VALUES]
    return cases


# --- running cases ------------------------------------------------------------


def _equal(got, want) -> bool:
    return got == want


def _idle(done: int) -> None:
    pass


def shuffled(cases, rng: random.Random) -> list[int]:
    """The case indices in a random order that keeps each growth ladder's
    rungs in a row, smallest first, and sweep's suites in their order.
    Timed passes run in a fresh order each, so the cases around a percentile
    are spread over the pass instead of sharing one stretch of host speed."""
    if any(case.kind == "suite" for case in cases):
        return list(range(len(cases)))
    chains: dict = {}
    for index, case in enumerate(cases):
        chains.setdefault(case.params[0] if case.kind == "rung" else index, []).append(index)
    blocks = list(chains.values())
    rng.shuffle(blocks)
    return [index for block in blocks for index in block]


def run_pass(cases, seed: int, tracer, compare=_equal, tiny: bool = False, tick=_idle,
             order=None):
    """Run every case once, serially, in `order` (indices into `cases`;
    the listed order by default). Returns the outcomes as (case index,
    status, seconds), and, for sweep, the pass's report JSONL.
    `tick(cases timed so far)` runs before each case, off the clock; on
    sweep it runs before each report too, unless tracing is on: a slice
    inside a suite would fall inside the suite's span.

    A case fails when a comparison is false or when it raises anything but
    CellCapError, which counts as a skip."""
    outcomes, jsonl = [], None
    state: dict = {}
    for index in range(len(cases)) if order is None else order:
        case = cases[index]
        if case.kind == "suite":
            tick(len(outcomes))
            jsonl = (jsonl or "") + _run_suite(case.params[0], seed, tracer, compare,
                                               outcomes, tiny,
                                               _idle if tracer.enabled else tick)
            continue
        tick(len(outcomes))
        start = clock()
        try:
            with tracer.span("case"):
                pairs = RUNNERS[case.kind](tracer, state, *case.params)
            status = PASS if all(compare(got, want) for got, want in pairs) else FAIL
        except tilings.CellCapError:
            status = SKIP
        except Exception:  # noqa: BLE001 - a raising case is a failed case
            status = FAIL
        outcomes.append((index, status, clock() - start))
    return outcomes, jsonl


def _run_suite(name, seed, tracer, compare, outcomes, tiny, tick) -> str:
    """Time each report of one suite as a case, as `verify.run_suite` does."""
    bounds = dict(TINY_SWEEP_BOUNDS) if tiny else {}
    reports = []
    with tracer.span("verify.suite." + name):
        generator = verify.SUITES[name](bounds, seed)
        last = clock()
        while True:
            try:
                report = next(generator)
            except StopIteration:
                break
            except Exception:  # noqa: BLE001 - the rest of the suite is lost
                outcomes.append(((name, len(reports)), FAIL, clock() - last))
                break
            now = clock()
            if report.status == SKIP:
                status = SKIP
            else:
                status = PASS if compare(report.status == PASS, True) else FAIL
            outcomes.append(((name, len(reports)), status, now - last))
            reports.append(report)
            tick(len(outcomes))
            last = clock()
    tracer.add("verify.reports", len(reports))
    tracer.add("verify.skipped", sum(r.status == SKIP for r in reports))
    return verify.reports_to_jsonl(reports)


def _brute(tr, state, a, b, c, m, weight):
    signed = weight == "minus1"
    got = tr.call("tilings.count", tilings.count_weighted,
                  tilings.CoredHexagon(a, b, c, m), weight)
    want = tr.call("formulas.eval", formulas.count_cored_formula, a, b, c, m, signed)
    eps = 0 if a % 2 == b % 2 else Fraction(1, 2)
    det = tr.call("lgv.det", lgv.det_fraction_free,
                  tr.call("lgv.build", lgv.build_cored_matrix, a, b, c, m, eps))
    # the lattice-path determinant is the plain count for even m and the
    # (-1)-count for odd m
    if signed == (m % 2 == 1):
        det_want = want
    else:
        det_want = tr.call("formulas.eval", formulas.count_cored_formula,
                           a, b, c, m, not signed)
    return [(got, want), (det, det_want)]


def _cyclic(tr, state, a, m, weight):
    got = tr.call("tilings.count", tilings.count_weighted,
                  tilings.CoredHexagon(a, a, a, m), weight, None, True)
    if weight == "minus1-n6":
        want = tr.call("formulas.eval", formulas.rhs_case10, a, m)
        det = tr.call("lgv.det", lgv.det_fraction_free,
                      tr.call("lgv.build", lgv.build_n6_matrix, a, m))
        return [(got, want), (det, want)]
    want = tr.call("formulas.eval", formulas.rhs_omega_det, a, m, OMEGA_CASE[weight])
    return [(got, want)]


def _cored_det(tr, state, a, b, c, m):
    eps = 0 if a % 2 == b % 2 else Fraction(1, 2)
    det = tr.call("lgv.det", lgv.det_fraction_free,
                  tr.call("lgv.build", lgv.build_cored_matrix, a, b, c, m, eps))
    want = tr.call("formulas.eval", formulas.count_cored_formula, a, b, c, m, m % 2 == 1)
    return [(det, want)]


def _omega_det(tr, state, n, m, name):
    omega = dict(OMEGA_VALUES)[name]
    det = tr.call("lgv.det", lgv.det_fraction_free,
                  tr.call("lgv.build", lgv.build_omega_shift, n, m, omega))
    want = tr.call("formulas.eval", formulas.rhs_omega_det, n, m, name)
    return [(det, want)]


def _rung(tr, state, shape, n):
    """One rung of the ladder shape * n. The smallest rung also takes the
    asymptotic constant and the LGV check; every later rung must lie closer
    to the constant than the one before."""
    a, b, c, m = (n * side for side in shape)
    value = tr.call("formulas.eval", formulas.count_cored_formula, a, b, c, m)
    pairs = [(value.denominator == 1 and value > 0, True)]
    if n == RUNGS[0]:
        # even rungs make b and c even and the placement centered; m * n is
        # even, so the determinant is the plain count
        det = tr.call("lgv.det", lgv.det_fraction_free,
                      tr.call("lgv.build", lgv.build_cored_matrix, a, b, c, m, 0))
        pairs.append((det, value))
        state[shape] = {"k": tr.call("formulas.asymptotic", formulas.asymptotic_k, *shape),
                        "deviation": None}
    ladder = state[shape]
    with mpmath.workdps(50):
        deviation = abs(mpmath.log(int(value)) / (n * n) - ladder["k"])
    if ladder["deviation"] is not None:
        pairs.append((deviation < ladder["deviation"], True))
    ladder["deviation"] = deviation
    return pairs


RUNNERS = {"brute": _brute, "cyclic": _cyclic, "cored_det": _cored_det,
           "omega_det": _omega_det, "rung": _rung}


# --- per-layer counters, recorded only when tracing ---------------------------


def bits(value) -> int:
    if isinstance(value, CycloElement):
        return max(bits(value.c0), bits(value.c1))
    value = Fraction(value)
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def _visited(hexagon, cyclic: bool) -> int:
    """Tilings the search enumerates: the plain count, or the number of
    cyclically symmetric tilings, from the formula route."""
    if cyclic:
        return int(formulas.rhs_omega_det(hexagon.a, hexagon.m, formulas.OMEGA_ONE))
    return int(formulas.count_cored_formula(hexagon.a, hexagon.b, hexagon.c, hexagon.m))


def _tilings_hook(tr, seconds, args, result):
    hexagon, weight = args[0], args[1]
    cyclic = len(args) > 3 and args[3]
    tr.add("tilings.count_s", seconds)
    tr.add("tilings.calls", 1)
    tr.add("tilings.cells", hexagon.cell_count)
    tr.defer("tilings.tilings_visited", lambda: _visited(hexagon, cyclic))


def _det_hook(tr, seconds, args, result):
    matrix = args[0]
    ring = "cyclo" if matrix.ring in (lgv.RING_CYCLO3, lgv.RING_CYCLO6) else "integer"
    tr.add("lgv.det_s." + ring, seconds)
    tr.add("lgv.det_calls." + ring, 1)
    tr.add("lgv.det_n3." + ring, matrix.nrows ** 3)
    tr.peak("lgv.det_result_bits", bits(result))


def _formula_hook(tr, seconds, args, result):
    tr.add("formulas.eval_s", seconds)
    tr.add("formulas.calls", 1)
    tr.peak("formulas.result_bits", bits(result))


HOOKS = {
    "tilings.count": _tilings_hook,
    "lgv.build": lambda tr, seconds, args, result: tr.add("lgv.build_s", seconds),
    "lgv.det": _det_hook,
    "formulas.eval": _formula_hook,
    "formulas.asymptotic": lambda tr, seconds, args, result: tr.add(
        "formulas.asymptotic_s", seconds),
}
