"""Command-line interface: counting, closed-form evaluation, and the
verification sweeps.

Exit codes: 0 success, 1 verification failure, 2 bad flags or parameters,
3 resource cap exceeded.  The commands raise and `main` is the one place
where an exception becomes an exit code: CellCapError exits 3 and any
ValueError (FormulaDomainError among them) exits 2, each printing
`error: <message>` to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import mpmath

from . import formulas, tilings, verify
from .exactnum import json_value

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_BAD_FLAGS = 2
EXIT_RESOURCE = 3


def _emit(payload: dict) -> None:
    # fixed key order, so identical invocations produce identical bytes
    sys.stdout.write(json.dumps(payload) + "\n")


def _cmd_count(args) -> int:
    (a, b, c), relabel = tilings.normalize_sides(args.a, args.b, args.c)
    hexagon = tilings.CoredHexagon(a, b, c, args.m)
    value = verify.count(hexagon, args.weight, args.method, cap=args.cap)
    _emit(
        {
            "params": {"a": args.a, "b": args.b, "c": args.c, "m": args.m},
            "relabel": relabel,
            "weight": args.weight,
            "method": args.method,
            "value": json_value(value),
        }
    )
    return EXIT_OK


def _cmd_cyclic_count(args) -> int:
    hexagon = tilings.CoredHexagon(args.a, args.a, args.a, args.m)
    value = verify.count(hexagon, args.weight, "brute", cap=args.cap, cyclic=True)
    _emit(
        {
            "params": {"a": args.a, "m": args.m},
            "weight": args.weight,
            "value": json_value(value),
        }
    )
    return EXIT_OK


def _cored_count(shifted: bool, signed: bool):
    """The evaluator of one of the four closed-form counts, which insists
    that the parity of the sides matches the core placement of its id.
    With --factor it gives the count's prime factorization instead."""

    def evaluate(args):
        (a, b, c), _ = tilings.normalize_sides(args.a, args.b, args.c)
        if (a % 2 != b % 2) != shifted:
            raise ValueError(
                "sides have equal parity: use enum/signed-enum"
                if shifted
                else "sides have mixed parity: use shifted/signed-shifted"
            )
        if args.factor:
            return formulas.count_cored_factorization(a, b, c, args.m, signed=signed)
        return formulas.count_cored_formula(a, b, c, args.m, signed=signed)

    return evaluate


def _asymptotic_k(args) -> str:
    _check_digits(args.digits)
    k = formulas.asymptotic_k(args.a, args.b, args.c, args.m, digits=args.digits)
    return mpmath.nstr(k, args.digits - 5)


_SIDES = ("a", "b", "c")

# formula id -> (the flags it needs besides --m, its evaluator over the
# parsed flags); the order is the order of the --id choices
_FORMULAS = {
    "macmahon": (_SIDES, lambda o: formulas.macmahon_box(o.a, o.b, o.c)),
    "enum": (_SIDES, _cored_count(shifted=False, signed=False)),
    "shifted": (_SIDES, _cored_count(shifted=True, signed=False)),
    "signed-enum": (_SIDES, _cored_count(shifted=False, signed=True)),
    "signed-shifted": (_SIDES, _cored_count(shifted=True, signed=True)),
    "andrews": (("a",), lambda o: formulas.andrews_rhs(o.a, o.m)),
    "zare1": (("a",), lambda o: formulas.zare1_rhs(o.a, o.m)),
    "om3": (("a",), lambda o: formulas.om3_rhs(o.a, o.m)),
    "om6": (("a",), lambda o: formulas.om6_rhs(o.a, o.m)),
    "case10": (("a",), lambda o: formulas.rhs_case10(o.a, o.m)),
    "asymptotic-k": (_SIDES, _asymptotic_k),
    "conjecture1": (_SIDES, lambda o: formulas.conjecture_rhs(1, o.a, o.b, o.c, o.m)),
    "conjecture2": (_SIDES, lambda o: formulas.conjecture_rhs(2, o.a, o.b, o.c, o.m)),
    "lemma-rhs": (_SIDES, lambda o: formulas.lemma_rhs(o.a, o.b, o.c, o.m, shifted=o.shifted)),
}
_FACTORED = ("enum", "shifted", "signed-enum", "signed-shifted")


def _cmd_formula(args) -> int:
    needs, evaluate = _FORMULAS[args.id]
    missing = [n for n in needs if getattr(args, n) is None]
    if missing:
        raise ValueError(f"formula {args.id!r} needs --" + " --".join(missing))
    if args.factor and args.id not in _FACTORED:
        raise ValueError(f"--factor applies only to {', '.join(_FACTORED)}, not {args.id!r}")
    value = evaluate(args)
    params = {
        key: getattr(args, key) for key in ("a", "b", "c", "m") if getattr(args, key) is not None
    }
    if args.factor:
        factors = {str(k): value[k] for k in sorted(value)}
        _emit({"id": args.id, "params": params, "factors": factors})
    else:
        _emit({"id": args.id, "params": params, "value": json_value(value)})
    return EXIT_OK


def _check_digits(digits: int) -> None:
    # the constant is printed to digits - 5 significant digits
    if digits <= 5:
        raise ValueError(f"--digits must be at least 6, got {digits}")


def _cmd_verify(args) -> int:
    bounds = {}
    if args.max_a is not None:
        bounds["max_a"] = args.max_a
    if args.max_m is not None:
        bounds["max_m"] = args.max_m
    if args.cap is not None:
        bounds["cap"] = args.cap
    names = sorted(verify.SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in verify.SUITES:
            raise ValueError(f"unknown suite {name!r}; pick one of {sorted(verify.SUITES)} or all")
    # an output path that cannot be written fails before any suite runs
    for flag in ("jsonl", "csv"):
        path = getattr(args, flag)
        if path:
            try:
                open(path, "a").close()
            except OSError as exc:
                raise ValueError(f"cannot write --{flag} {path}: {exc.strerror}") from None
    jobs = args.jobs or os.cpu_count() or 1
    if len(names) > 1 and jobs > 1:
        # one worker per suite; output order stays the fixed suite order
        with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
            futures = [pool.submit(verify.run_suite, n, bounds, args.seed) for n in names]
            per_suite = [f.result() for f in futures]
    else:
        per_suite = [verify.run_suite(n, bounds, args.seed) for n in names]
    reports = [r for suite_reports in per_suite for r in suite_reports]
    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            fh.write(verify.reports_to_jsonl(reports))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(verify.reports_to_csv(reports))
    _emit(
        {
            "suites": names,
            "total": len(reports),
            "passed": sum(1 for r in reports if r.status == verify.PASS),
            "failed": sum(1 for r in reports if r.status == verify.FAIL),
            "skipped": sum(1 for r in reports if r.status == verify.SKIP),
        }
    )
    return EXIT_SUITE_FAILED if verify.suite_failed(reports) else EXIT_OK


def _cmd_asymptotic(args) -> int:
    try:
        ns = [int(part) for part in args.n_list.split(",") if part]
    except ValueError:
        raise ValueError(f"bad --n-list {args.n_list!r}") from None
    if any(n <= 0 for n in ns):
        raise ValueError(f"--n-list entries must be positive, got {args.n_list!r}")
    _check_digits(args.digits)
    k = formulas.asymptotic_k(args.a, args.b, args.c, args.m, digits=args.digits)
    lines = ["n,log_count_over_n2,deviation"]
    with mpmath.workdps(args.digits):
        for n in ns:
            count = formulas.count_cored_formula(
                args.a * n, args.b * n, args.c * n, args.m * n
            )
            ratio = mpmath.log(mpmath.mpf(int(count))) / (n * n)
            lines.append(
                f"{n},{mpmath.nstr(ratio, 25)},{mpmath.nstr(abs(ratio - k), 10)}"
            )
    sys.stdout.write(f"k,{mpmath.nstr(k, args.digits - 5)}\n")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_conjecture(args) -> int:
    # the even-core cases of the Conjectures suite under the chosen shift
    ms = range(0, args.max_m + 1, 2)
    reports = [
        r
        for a, b, c, _ in verify.admissible_tuples(args.max_a, 0)
        if verify.conjecture_shift(a, b)[0] == args.which
        for r in verify.conjecture_reports(a, b, c, ms)
    ]
    lines = ["a,b,c,m,determinant,conjecture,status"]
    for r in reports:
        p = r.case_params
        lines.append(f"{p['a']},{p['b']},{p['c']},{p['m']},{r.lhs},{r.rhs},{r.status}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_SUITE_FAILED if verify.suite_failed(reports) else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cored-hexagons",
        description="Exact lozenge-tiling counts of cored hexagons, with "
        "determinant and closed-form cross-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count tilings of one cored hexagon")
    count.add_argument("--a", type=int, required=True)
    count.add_argument("--b", type=int, required=True)
    count.add_argument("--c", type=int, required=True)
    count.add_argument("--m", type=int, required=True)
    count.add_argument(
        "--weight", choices=(tilings.WEIGHT_ONE, tilings.WEIGHT_MINUS1), default="one"
    )
    count.add_argument("--method", choices=verify.ROUTES, default="formula")
    count.add_argument("--cap", type=int, default=None, help="brute-force cell cap")
    count.set_defaults(func=_cmd_count)

    cyc = sub.add_parser("cyclic-count", help="weighted cyclically symmetric counts")
    cyc.add_argument("--a", type=int, required=True)
    cyc.add_argument("--m", type=int, required=True)
    cyc.add_argument("--weight", choices=tilings.WEIGHTS, default="one")
    cyc.add_argument("--cap", type=int, default=None)
    cyc.set_defaults(func=_cmd_cyclic_count)

    formula = sub.add_parser("formula", help="evaluate one closed form")
    formula.add_argument("--id", required=True, choices=list(_FORMULAS))
    formula.add_argument("--a", type=int, default=None)
    formula.add_argument("--b", type=int, default=None)
    formula.add_argument("--c", type=int, default=None)
    formula.add_argument(
        "--m", type=int, default=0, help="any integer for andrews, om3, om6; zare1 needs m >= 0"
    )
    formula.add_argument("--shifted", action="store_true")
    formula.add_argument("--digits", type=int, default=50)
    formula.add_argument(
        "--factor", action="store_true", help="print the prime factorization of a count"
    )
    formula.set_defaults(func=_cmd_formula)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", required=True)
    ver.add_argument("--max-a", type=int, default=None)
    ver.add_argument("--max-m", type=int, default=None)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--cap", type=int, default=None)
    ver.add_argument("--jsonl", default=None, help="write one report per line here")
    ver.add_argument("--csv", default=None, help="write the per-suite summary here")
    ver.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for --suite all (default: available parallelism)",
    )
    ver.set_defaults(func=_cmd_verify)

    asym = sub.add_parser("asymptotic", help="growth constant and convergence table")
    asym.add_argument("--a", type=int, required=True)
    asym.add_argument("--b", type=int, required=True)
    asym.add_argument("--c", type=int, required=True)
    asym.add_argument("--m", type=int, required=True)
    asym.add_argument("--n-list", default="4,8,16")
    asym.add_argument("--digits", type=int, default=50)
    asym.set_defaults(func=_cmd_asymptotic)

    conj = sub.add_parser("conjecture", help="off-center conjecture sweep table")
    conj.add_argument("--which", type=int, choices=[1, 2], required=True)
    conj.add_argument("--max-a", type=int, default=4)
    conj.add_argument("--max-m", type=int, default=4)
    conj.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a negative sweep bound would check nothing and read as a pass, and
        # a negative --jobs would quietly run serially
        for flag in ("cap", "max_a", "max_m", "jobs"):
            bound = getattr(args, flag, None)
            if bound is not None and bound < 0:
                raise ValueError(f"--{flag.replace('_', '-')} must be nonnegative, got {bound}")
        if getattr(args, "cap", 0) is None and os.environ.get("CORED_HEX_CELL_CAP"):
            args.cap = tilings.default_cell_cap()
        return args.func(args)
    except tilings.CellCapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RESOURCE
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_FLAGS


if __name__ == "__main__":
    sys.exit(main())
