"""Steadiness report: run workloads repeatedly on one commit and print each
end-to-end metric's median, quartiles and spread.

    python3 bench/steadiness.py --workloads oracle,exact,growth,sweep --seeds 1-10

Each (workload, seed) is one `run.py` process, run one after another. The
spread is the distance between the first and third quartile as a share of
the median, the figure the bounds in BENCHMARK.json must cover: a metric is
marked steady when its spread is below a third of its bound (set-up time is
exempt from that test; its bound guards the medians). With --sets 2 the
seeds run twice; each set's spread is printed and the second median is
compared with the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} reported incorrect results")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="oracle,exact,growth,sweep")
    parser.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 1,5,9")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)
    all_steady = True
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            runs = []
            for seed in seeds:
                runs.append(run_once(workload, seed, spec["run_seconds"]))
                print(f"  {workload} seed {seed}: " + " ".join(
                    f"{name} {runs[-1][name]:.6g}" for name in bounds), flush=True)
            sets.append({name: [r[name] for r in runs] for name in bounds})
        print(f"{workload}: {len(seeds)} seeds x {args.sets} set(s), "
              f"{spec['run_seconds']} s per run")
        for name, metric in bounds.items():
            median, q1, q3, spread = summary(sets[0][name])
            steady = name == "setup_s" or spread < metric["bound"] / 3
            line = (f"  {name:<15} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                    f"spread {spread:7.2%}  bound {metric['bound']:.0%}")
            for later in sets[1:]:
                later_spread = summary(later[name])[3]
                drift = statistics.median(later[name]) / median - 1
                worse = -drift if metric["better"] == "higher" else drift
                steady = steady and worse <= metric["bound"] and (
                    name == "setup_s" or later_spread < metric["bound"] / 3)
                line += f"  next spread {later_spread:7.2%} median {drift:+.2%}"
            all_steady = all_steady and steady
            print(line + ("" if steady else "  NOT STEADY"), flush=True)
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
