"""Benchmark of the cored-hexagons verification engine.

    python3 bench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

Runs one seeded workload (oracle, exact, growth or sweep) as a closed loop
with one client: whole passes over the case list, one case at a time, until
the next pass would overrun --seconds (at least two, after an untimed
warm-up pass). Every case is checked: its routes must agree exactly.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes, then profiles one pass and times CLI cold starts, and prints
the per-layer metrics with the tracing overhead. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
README.md in this directory maps each metric to its layer and workload.
"""

from __future__ import annotations

import time

STARTED = time.process_time()  # for set-up probes: before any other import

import argparse
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from math import exp, lgamma, log
from pathlib import Path

import reference
from tracer import NullTracer, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "cored_hexagons"
MODULES = ("exactnum", "tilings", "lgv", "formulas", "hypergeom", "verify", "cli")
SETUP_PROBES = 13
COLD_STARTS = 5

# per-layer metrics summed over the traced passes and reported per pass
PER_PASS_UNITS = {
    "tilings.count_s": "s", "tilings.calls": "count", "tilings.cells": "count",
    "tilings.tilings_visited": "count", "lgv.build_s": "s",
    "lgv.det_s.integer": "s", "lgv.det_s.cyclo": "s",
    "lgv.det_calls.integer": "count", "lgv.det_calls.cyclo": "count",
    "lgv.det_n3.integer": "computed-ops", "lgv.det_n3.cyclo": "computed-ops",
    "formulas.eval_s": "s", "formulas.calls": "count", "formulas.asymptotic_s": "s",
    "verify.reports": "count", "verify.skipped": "count",
}


@dataclass
class Pass:
    traced: bool
    seconds: float  # CPU time, by reference.clock
    scale: float  # from measured time to time at the reference speed
    outcomes: list
    jsonl: str | None
    case_scales: list | None = None  # `scale` for each outcome on its own


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("oracle", "exact", "growth", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small cases per workload, for the benchmark's tests")
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)  # set-up only; see setup_seconds
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"run.py: no package at {PACKAGE.relative_to(ROOT)}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    cases = workloads.generate(args.workload, args.seed, args.tiny)
    if args.probe:
        print(time.process_time() - STARTED, flush=True)
        return 0

    if args.trace:
        metrics, correct, passes = traced_run(workloads, cases, args)
    else:
        metrics, correct, passes = untraced_run(workloads, cases, args)
    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(status == workloads.FAIL for _, status, _ in outcomes)
    print(json.dumps({"environment": environment()}, sort_keys=True))
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


# --- measuring ------------------------------------------------------------------


def measure(workloads, cases, args, tracer_for) -> tuple[Pass, list[Pass], float]:
    """A warm-up pass, then whole passes until the next one would overrun
    --seconds; at least two, so every case has two samples. The warm-up
    pass is checked but not timed: the first pass in a process runs up to a
    third slower. Also returns the peak RSS in MB at the end of the warm-up
    pass: every case has run once by then, and later passes repeat the same
    cases and add only the harness's own records of them."""
    outcomes, jsonl = workloads.run_pass(cases, args.seed, NullTracer(), tiny=args.tiny)
    warmup = Pass(False, 0.0, 1.0, outcomes, jsonl)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes: list[Pass] = []
    gauge = reference.Gauge()
    start = time.perf_counter()
    while True:
        tracer = tracer_for(len(passes))
        order = workloads.shuffled(cases, random.Random(f"{args.seed}:{len(passes)}"))
        gauge.begin()
        began = reference.clock()
        outcomes, jsonl = workloads.run_pass(cases, args.seed, tracer, tiny=args.tiny,
                                             tick=gauge.tick, order=order)
        took = reference.clock() - began - gauge.spent
        passes.append(Pass(tracer.enabled, took, gauge.end(), outcomes, jsonl,
                           gauge.case_scales(len(outcomes))))
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            return warmup, passes, peak_mb


def cases_per_s(passes: list[Pass], fail: str, scaled: bool = True) -> float:
    """Median over passes of the cases completed without failure per
    second, at the reference speed unless `scaled` is false."""
    return statistics.median(
        sum(status != fail for _, status, _ in p.outcomes)
        / (p.seconds * (p.scale if scaled else 1)) for p in passes)


def harrell_davis(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density. It rests on
    the cases around the quantile, not on the one or two that land on it,
    so it moves less when neighbouring cases trade places."""
    xs = sorted(values)
    n, steps = len(xs), 32
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = lgamma(a + b) - lgamma(a) - lgamma(b)
    weights = []
    for i in range(n):  # midpoint rule over [i/n, (i+1)/n]
        points = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(exp(log_norm + (a - 1) * log(x) + (b - 1) * log(1 - x))
                           for x in points))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def latency_ms(passes: list[Pass]) -> tuple[float, float, int]:
    """p50 and p90 (Harrell-Davis) over cases of each case's median time
    across passes, at the reference speed of the slices around the case."""
    samples = defaultdict(list)
    for p in passes:
        for (key, _, seconds), scale in zip(p.outcomes, p.case_scales):
            samples[key].append(seconds * scale)
    per_case = [statistics.median(v) for v in samples.values()]
    return (harrell_davis(per_case, 0.5) * 1e3, harrell_davis(per_case, 0.9) * 1e3,
            len(per_case))


def slice_seconds(args, passes: list[Pass]) -> float:
    """The median measured time of a reference slice over the timed passes."""
    return reference.NOMINAL_S / statistics.median(p.scale for p in passes)


def deterministic(passes: list[Pass]) -> bool:
    """Sweep's report JSONL must be byte-identical on every pass."""
    return len({p.jsonl for p in passes}) == 1


def setup_seconds(args) -> tuple[float, float]:
    """Median time a fresh interpreter takes, from its first statement,
    to import the package and generate the seeded cases: at the reference
    speed of the slices around each probe, and as measured. The
    interpreter's own start-up, which no change to the package moves, is
    left out: it only adds noise."""
    command = [sys.executable, str(Path(__file__).resolve()), "--probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    times = []
    gauge = reference.Gauge()
    gauge.begin()
    for i in range(SETUP_PROBES):
        gauge.tick(i)
        probe = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                               timeout=120, check=True)
        times.append(float(probe.stdout))
    gauge.end()
    scaled = [t * scale for t, scale in zip(times, gauge.case_scales(len(times)))]
    return statistics.median(scaled), statistics.median(times)


def untraced_run(workloads, cases, args):
    setup, setup_raw = setup_seconds(args)
    warmup, passes, peak_mb = measure(workloads, cases, args, lambda i: NullTracer())
    checked = [warmup] + passes
    attempted = sum(len(p.outcomes) for p in checked)
    failed = sum(s == workloads.FAIL for p in checked for _, s, _ in p.outcomes)
    p50, p90, n_cases = latency_ms(passes)
    rate = cases_per_s(passes, workloads.FAIL)
    raw_rate = cases_per_s(passes, workloads.FAIL, scaled=False)
    print(f"workload {args.workload}  seed {args.seed}  warm-up + {len(passes)} timed "
          f"passes x {n_cases} cases  closed loop, 1 client")
    print(f"  times at the reference speed: a slice took {slice_seconds(args, passes):.4f} s, "
          f"nominal {reference.NOMINAL_S} s")
    rows = [
        ("setup_s", setup, "s",
         f"median of {SETUP_PROBES} fresh interpreters; unscaled {setup_raw:.4f} s"),
        ("cases_per_s", rate, "1/s", f"median of {len(passes)} passes; unscaled {raw_rate:.4f}/s"),
        ("case_p50_ms", p50, "ms", f"over {n_cases} per-case medians"),
        ("case_p90_ms", p90, "ms", f"over {n_cases} per-case medians"),
        ("failed_share", failed / attempted, "share", f"{failed} of {attempted}"),
        ("peak_rss_mb", peak_mb, "MB", "this process, up to the end of the warm-up pass"),
    ]
    for name, value, unit, note in rows:
        print(f"  {name:<14} {value:>12.4f} {unit:<6} {note}")
    metrics = {name: (value, unit) for name, value, unit, _ in rows if name != "failed_share"}
    # failed_share is 0 when all is well, so the JSON carries its complement
    metrics["verified_share"] = (1 - failed / attempted, "share")
    return metrics, deterministic(checked), checked


def traced_run(workloads, cases, args):
    tracer = Tracer(workloads.HOOKS)
    warmup, passes, _ = measure(workloads, cases, args,
                             lambda i: tracer if i % 2 else NullTracer())
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    n = len(traced)
    tracer.settle()
    total, own = tracer.durations()
    # span times are measured seconds; scale them like the end-to-end figures
    scale = statistics.mean(p.scale for p in traced)
    per_pass = {name: value * scale / n for name, value in total.items()}
    own = {name: value * scale / n for name, value in own.items()}
    metrics = {name: (tracer.totals[name] * (scale if unit == "s" else 1) / n, unit)
               for name, unit in PER_PASS_UNITS.items()}
    count_s = metrics["tilings.count_s"][0]
    visited = metrics["tilings.tilings_visited"][0]
    metrics["tilings.visited_per_s"] = (visited / count_s if count_s else 0.0, "1/s")
    skipped = sum(s == workloads.SKIP for p in traced for _, s, _ in p.outcomes)
    metrics["tilings.skipped"] = (0 if args.workload == "sweep" else skipped / n, "count")
    for name in ("lgv.det_result_bits", "formulas.result_bits"):
        metrics[name] = (tracer.peaks[name], "bits")
    suites = workloads.verify.SUITES
    for suite in suites:
        metrics["verify.suite_s." + suite] = (per_pass.get("verify.suite." + suite, 0.0), "s")
    roots = ["case"] + ["verify.suite." + s for s in suites]
    metrics["trace.case_s"] = (sum(per_pass.get(r, 0.0) for r in roots), "s")
    metrics["trace.harness_self_s"] = (own.get("case", 0.0), "s")
    base = cases_per_s(untraced, workloads.FAIL)
    with_spans = cases_per_s(traced, workloads.FAIL)
    metrics["trace.cases_per_s.untraced"] = (base, "1/s")
    metrics["trace.cases_per_s.traced"] = (with_spans, "1/s")
    metrics["trace.overhead_pct"] = ((base / with_spans - 1) * 100, "%")
    metrics["reference.seconds"] = (slice_seconds(args, passes), "s")
    for module, share in profile_shares(workloads, cases, args).items():
        metrics[module + ".self_s"] = (share, "share")
    cold, cli_ok = cli_cold_start(args.seed)
    metrics["cli.cold_start_s"] = (cold, "s")
    for module, lines in src_lines().items():
        metrics["src.lines." + module] = (lines, "lines")
    print(f"workload {args.workload}  seed {args.seed}  traced run: warm-up, then "
          f"{len(untraced)} untraced and {n} traced passes, alternating; per-pass values")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {unit}")
    checked = [warmup] + passes
    return metrics, cli_ok and deterministic(checked), checked


def profile_shares(workloads, cases, args) -> dict:
    """Each module's share of self time over one pass under cProfile. The
    profiler taxes every Python call, so only the shares are reported."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    workloads.run_pass(cases, args.seed, NullTracer(), tiny=args.tiny)
    profiler.disable()
    own, total = defaultdict(float), 0.0
    for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(profiler).stats.items():
        total += tottime
        if Path(filename).parent == PACKAGE:
            own[Path(filename).stem] += tottime
    return {module: own[module] / total for module in MODULES}


def cli_cold_start(seed: int) -> tuple[float, bool]:
    """Median CPU time of fresh `cli count --method formula` processes, run
    one at a time, at the reference speed; and whether each printed the
    formula's value."""
    from cored_hexagons import formulas

    rng = random.Random(f"cli:{seed}")
    a, b = rng.randint(0, 6), rng.randint(0, 6)
    c, m = rng.randrange(b % 2, 7, 2), rng.randint(0, 6)
    want = str(formulas.count_cored_formula(a, b, c, m))
    command = [sys.executable, "-m", "cored_hexagons.cli", "count", "--a", str(a),
               "--b", str(b), "--c", str(c), "--m", str(m), "--method", "formula"]
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    times, ok = [], True
    gauge = reference.Gauge()
    gauge.begin()
    for _ in range(COLD_STARTS):
        gauge.tick()
        began = children_cpu()
        done = subprocess.run(command, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=120)
        times.append(children_cpu() - began)
        ok = ok and done.returncode == 0 and json.loads(done.stdout)["value"] == want
    return statistics.median(times) * gauge.end(), ok


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# --- environment stamp ----------------------------------------------------------


def src_lines() -> dict:
    counts = {m: len((PACKAGE / f"{m}.py").read_text().splitlines()) for m in MODULES}
    counts["total"] = sum(len(p.read_text().splitlines()) for p in PACKAGE.glob("*.py"))
    return counts


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "src_lines": src_lines(),
    }


if __name__ == "__main__":
    sys.exit(main())
