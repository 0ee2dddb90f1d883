"""Command-line interface: counting, closed-form evaluation, and the
verification sweeps.

Exit codes: 0 success, 1 verification failure, 2 bad flags or parameters,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import mpmath

from . import formulas, lgv, tilings, verify
from .exactnum import CycloElement, cyclo_to_dict, value_to_str

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_BAD_FLAGS = 2
EXIT_RESOURCE = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_BAD_FLAGS):
        super().__init__(message)
        self.code = code


def _emit(payload: dict) -> None:
    # fixed key order, so identical invocations produce identical bytes
    sys.stdout.write(json.dumps(payload) + "\n")


def _value_payload(value) -> object:
    if isinstance(value, CycloElement) and not value.is_rational:
        return cyclo_to_dict(value)
    return value_to_str(value)


def _normalized(args) -> tuple[tilings.CoredHexagon, str]:
    (a, b, c), relabel = tilings.normalize_sides(args.a, args.b, args.c)
    try:
        hexagon = tilings.CoredHexagon(a, b, c, args.m)
    except ValueError as exc:
        raise CliError(str(exc))
    return hexagon, relabel


def _cmd_count(args) -> int:
    hexagon, relabel = _normalized(args)
    signed = args.weight == "minus1"
    if args.method == "brute":
        try:
            value = tilings.count_weighted(
                hexagon, "minus1" if signed else "one", cap=args.cap
            )
        except tilings.CellCapError as exc:
            raise CliError(str(exc), EXIT_RESOURCE)
    elif args.method == "determinant":
        if signed != (hexagon.m % 2 == 1):
            raise CliError(
                "the lattice-path determinant computes the plain count for even m "
                "and the (-1)-count for odd m; pick the matching weight"
            )
        value = lgv.det_fraction_free(
            lgv.build_cored_matrix(hexagon.a, hexagon.b, hexagon.c, hexagon.m)
        )
    else:
        try:
            value = formulas.count_cored_formula(
                hexagon.a, hexagon.b, hexagon.c, hexagon.m, signed=signed
            )
        except formulas.FormulaDomainError as exc:
            raise CliError(str(exc))
    _emit(
        {
            "params": {"a": args.a, "b": args.b, "c": args.c, "m": args.m},
            "relabel": relabel,
            "weight": args.weight,
            "method": args.method,
            "value": _value_payload(value),
        }
    )
    return EXIT_OK


def _cmd_cyclic_count(args) -> int:
    hexagon = tilings.CoredHexagon(args.a, args.a, args.a, args.m)
    try:
        value = tilings.count_weighted(hexagon, args.weight, cap=args.cap, cyclic=True)
    except tilings.CellCapError as exc:
        raise CliError(str(exc), EXIT_RESOURCE)
    _emit(
        {
            "params": {"a": args.a, "m": args.m},
            "weight": args.weight,
            "value": _value_payload(value),
        }
    )
    return EXIT_OK


_FORMULA_PARAMS = {
    "macmahon": ("a", "b", "c"),
    "enum": ("a", "b", "c"),
    "shifted": ("a", "b", "c"),
    "signed-enum": ("a", "b", "c"),
    "signed-shifted": ("a", "b", "c"),
    "andrews": ("a",),
    "zare1": ("a",),
    "om3": ("a",),
    "om6": ("a",),
    "case10": ("a",),
    "asymptotic-k": ("a", "b", "c"),
    "conjecture1": ("a", "b", "c"),
    "conjecture2": ("a", "b", "c"),
    "lemma-rhs": ("a", "b", "c"),
}


def _cmd_formula(args) -> int:
    fid = args.id
    missing = [n for n in _FORMULA_PARAMS[fid] if getattr(args, n) is None]
    if missing:
        raise CliError(f"formula {fid!r} needs --" + " --".join(missing))
    try:
        if fid == "macmahon":
            value = formulas.macmahon_box(args.a, args.b, args.c)
        elif fid in ("enum", "shifted", "signed-enum", "signed-shifted"):
            (a, b, c), _ = tilings.normalize_sides(args.a, args.b, args.c)
            shifted_input = a % 2 != b % 2
            if fid in ("enum", "signed-enum") and shifted_input:
                raise CliError("sides have mixed parity: use shifted/signed-shifted")
            if fid in ("shifted", "signed-shifted") and not shifted_input:
                raise CliError("sides have equal parity: use enum/signed-enum")
            value = formulas.count_cored_formula(
                a, b, c, args.m, signed=fid.startswith("signed")
            )
        elif fid in ("andrews", "zare1", "om3", "om6"):
            case = {
                "andrews": formulas.OMEGA_ONE,
                "zare1": formulas.OMEGA_MINUS_ONE,
                "om3": formulas.OMEGA_THIRD,
                "om6": formulas.OMEGA_SIXTH,
            }[fid]
            value = formulas.rhs_omega_det(args.a, args.m, case)
        elif fid == "case10":
            value = formulas.rhs_case10(args.a, args.m)
        elif fid == "asymptotic-k":
            _check_digits(args.digits)
            value = mpmath.nstr(
                formulas.asymptotic_k(args.a, args.b, args.c, args.m, digits=args.digits),
                args.digits - 5,
            )
        elif fid in ("conjecture1", "conjecture2"):
            value = formulas.conjecture_rhs(
                1 if fid == "conjecture1" else 2, args.a, args.b, args.c, args.m
            )
        elif fid == "lemma-rhs":
            value = formulas.lemma_rhs(
                args.a, args.b, args.c, args.m, shifted=args.shifted
            )
    except formulas.FormulaDomainError as exc:
        raise CliError(str(exc))
    params = {
        key: getattr(args, key)
        for key in ("a", "b", "c", "m")
        if getattr(args, key, None) is not None
    }
    _emit({"id": fid, "params": params, "value": _value_payload(value)})
    return EXIT_OK


def _check_digits(digits: int) -> None:
    # the constant is printed to digits - 5 significant digits
    if digits <= 5:
        raise CliError(f"--digits must be at least 6, got {digits}")


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
            raise CliError(f"unknown suite {name!r}; pick one of {sorted(verify.SUITES)} or all")
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
        raise CliError(f"bad --n-list {args.n_list!r}")
    _check_digits(args.digits)
    try:
        k = formulas.asymptotic_k(args.a, args.b, args.c, args.m, digits=args.digits)
    except formulas.FormulaDomainError as exc:
        raise CliError(str(exc))
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
    count.add_argument("--weight", choices=["one", "minus1"], default="one")
    count.add_argument(
        "--method", choices=["formula", "determinant", "brute"], default="formula"
    )
    count.add_argument("--cap", type=int, default=None, help="brute-force cell cap")
    count.set_defaults(func=_cmd_count)

    cyc = sub.add_parser("cyclic-count", help="weighted cyclically symmetric counts")
    cyc.add_argument("--a", type=int, required=True)
    cyc.add_argument("--m", type=int, required=True)
    cyc.add_argument(
        "--weight",
        choices=["one", "minus1", "omega3", "omega6", "minus1-n6"],
        default="one",
    )
    cyc.add_argument("--cap", type=int, default=None)
    cyc.set_defaults(func=_cmd_cyclic_count)

    formula = sub.add_parser("formula", help="evaluate one closed form")
    formula.add_argument("--id", required=True, choices=list(_FORMULA_PARAMS))
    formula.add_argument("--a", type=int, default=None)
    formula.add_argument("--b", type=int, default=None)
    formula.add_argument("--c", type=int, default=None)
    formula.add_argument(
        "--m", type=int, default=0, help="any integer for andrews, om3, om6; zare1 needs m >= 0"
    )
    formula.add_argument("--shifted", action="store_true")
    formula.add_argument("--digits", type=int, default=50)
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
        if getattr(args, "cap", None) is not None and args.cap < 0:
            raise CliError(f"--cap must be nonnegative, got {args.cap}")
        if getattr(args, "cap", 0) is None and os.environ.get("CORED_HEX_CELL_CAP"):
            args.cap = tilings.default_cell_cap()
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except tilings.CellCapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RESOURCE
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_FLAGS


if __name__ == "__main__":
    sys.exit(main())
