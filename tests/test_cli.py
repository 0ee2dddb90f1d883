import json
import random
from fractions import Fraction

import pytest

from cored_hexagons import lgv, tilings, verify
from cored_hexagons.cli import _FORMULAS, main
from cored_hexagons.formulas import count_cored_formula
from text_formats import int_digit_limit


CONJECTURE_1_TABLE = """\
a,b,c,m,determinant,conjecture,status
0,0,0,0,,,skip
0,0,0,2,,,skip
0,0,2,0,,,skip
0,0,2,2,,,skip
0,2,0,0,,,skip
0,2,0,2,0,0,pass
0,2,2,0,1,1,pass
0,2,2,2,1,1,pass
1,1,1,0,2,2,pass
1,1,1,2,4,4,pass
2,0,0,0,1,1,pass
2,0,0,2,1,1,pass
2,0,2,0,1,1,pass
2,0,2,2,6,6,pass
2,2,0,0,1,1,pass
2,2,0,2,1,1,pass
2,2,2,0,20,20,pass
2,2,2,2,84,84,pass
"""

CONJECTURE_2_TABLE = """\
a,b,c,m,determinant,conjecture,status
0,1,1,0,,,skip
0,1,1,2,,,skip
1,0,0,0,,,skip
1,0,0,2,,,skip
1,0,2,0,,,skip
1,0,2,2,,,skip
1,2,0,0,,,skip
1,2,0,2,0,0,pass
1,2,2,0,6,6,pass
1,2,2,2,15,15,pass
2,1,1,0,3,3,pass
2,1,1,2,10,10,pass
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCount:
    def test_brute_unit_hexagon(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--a", "1", "--b", "1", "--c", "1", "--m", "0",
            "--method", "brute",
        )
        assert code == 0
        assert json.loads(out)["value"] == "2"

    def test_formula_all_odd_signed(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--a", "3", "--b", "3", "--c", "3", "--m", "1",
            "--weight", "minus1", "--method", "formula",
        )
        assert code == 0
        assert json.loads(out)["value"] == "0"

    def test_methods_agree(self, capsys):
        values = {}
        for method in ("formula", "determinant", "brute"):
            code, out, _ = run_cli(
                capsys, "count", "--a", "2", "--b", "5", "--c", "1", "--m", "2",
                "--method", method,
            )
            assert code == 0
            values[method] = json.loads(out)["value"]
        assert len(set(values.values())) == 1

    def test_relabeling_echoed(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--a", "1", "--b", "2", "--c", "3", "--m", "1",
            "--method", "brute",
        )
        assert code == 0
        assert json.loads(out)["relabel"] == "bca"

    def test_parity_mismatch_is_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "count", "--a", "1", "--b", "2", "--c", "4", "--m", "1",
            "--weight", "one", "--method", "determinant",
        )
        assert code == 2
        assert "determinant" in err

    def test_cap_is_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "count", "--a", "3", "--b", "3", "--c", "3", "--m", "2",
            "--method", "brute", "--cap", "10",
        )
        assert code == 3

    def test_bad_cell_cap_env_is_named(self, capsys, monkeypatch):
        monkeypatch.setenv("CORED_HEX_CELL_CAP", "abc")
        code, _, err = run_cli(
            capsys, "count", "--a", "1", "--b", "1", "--c", "1", "--m", "0",
            "--method", "brute",
        )
        assert code == 2
        assert "CORED_HEX_CELL_CAP" in err and "'abc'" in err

    @pytest.mark.parametrize(
        "env, argv, source",
        [
            (None, ("verify", "--suite", "TilingsVsFormula", "--cap", "-3"), "--cap"),
            (None, ("count", "--a", "2", "--b", "2", "--c", "2", "--m", "2",
                    "--method", "brute", "--cap", "-5"), "--cap"),
            (None, ("cyclic-count", "--a", "2", "--m", "2", "--cap", "-1"), "--cap"),
            ("-7", ("count", "--a", "2", "--b", "2", "--c", "2", "--m", "2",
                    "--method", "brute"), "CORED_HEX_CELL_CAP"),
            ("-7", ("verify", "--suite", "TilingsVsFormula"), "CORED_HEX_CELL_CAP"),
        ],
    )
    def test_negative_cap_is_exit_2_naming_its_source(self, capsys, monkeypatch, env, argv, source):
        if env is not None:
            monkeypatch.setenv("CORED_HEX_CELL_CAP", env)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert source in err and "nonnegative" in err

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (("count", "--a", "-1", "--b", "1", "--c", "1", "--m", "0"),
             2, "side lengths must be nonnegative"),
            (("count", "--a", "3", "--b", "3", "--c", "3", "--m", "2",
              "--method", "brute", "--cap", "10"),
             3, "region needs 90 search units, above the cap 10; "
                "raise the cap explicitly or via CORED_HEX_CELL_CAP"),
            (("cyclic-count", "--a", "3", "--m", "2", "--cap", "10"),
             3, "region needs 30 search units, above the cap 10; "
                "raise the cap explicitly or via CORED_HEX_CELL_CAP"),
            (("formula", "--id", "enum", "--a", "-1", "--b", "1", "--c", "1"),
             2, "side lengths must be nonnegative"),
            (("formula", "--id", "asymptotic-k", "--a", "-1", "--b", "1", "--c", "1"),
             2, "parameters must be nonnegative"),
            (("formula", "--id", "shifted", "--a", "2", "--b", "2", "--c", "2"),
             2, "sides have equal parity: use enum/signed-enum"),
            (("asymptotic", "--a", "-1", "--b", "1", "--c", "1", "--m", "0"),
             2, "parameters must be nonnegative"),
            (("asymptotic", "--a", "1", "--b", "1", "--c", "1", "--m", "0", "--n-list", "x"),
             2, "bad --n-list 'x'"),
            (("asymptotic", "--a", "1", "--b", "1", "--c", "1", "--m", "1", "--n-list", "2,0"),
             2, "--n-list entries must be positive, got '2,0'"),
            (("verify", "--suite", "Case10", "--jsonl", "/nonexistent/x.jsonl"),
             2, "cannot write --jsonl /nonexistent/x.jsonl: No such file or directory"),
            (("verify", "--suite", "Case10", "--jsonl", "/"),
             2, "cannot write --jsonl /: Is a directory"),
            (("verify", "--suite", "all", "--csv", "/nonexistent/x.csv"),
             2, "cannot write --csv /nonexistent/x.csv: No such file or directory"),
            (("verify", "--suite", "Case10", "--jobs", "-1"),
             2, "--jobs must be nonnegative, got -1"),
        ],
        ids=[
            "count-negative-side", "count-brute-over-cap", "cyclic-count-over-cap",
            "formula-enum-negative-side", "formula-asymptotic-k-negative-side",
            "formula-shifted-equal-parity", "asymptotic-negative-side",
            "asymptotic-bad-n-list", "asymptotic-nonpositive-n",
            "verify-jsonl-missing-dir", "verify-jsonl-is-a-dir", "verify-csv-missing-dir",
            "verify-negative-jobs",
        ],
    )
    def test_error_paths_print_one_line(self, capsys, argv, code, err):
        assert run_cli(capsys, *argv) == (code, "", f"error: {err}\n")

    def test_unwritable_output_is_refused_before_any_suite_runs(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a suite ran before the output paths were checked")

        monkeypatch.setattr(verify, "run_suite", refuse)
        code, out, err = run_cli(
            capsys, "verify", "--suite", "all", "--jobs", "1", "--jsonl", "/nonexistent/x.jsonl"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write --jsonl /nonexistent/x.jsonl")

    def test_byte_stable_output(self, capsys):
        outs = set()
        for _ in range(2):
            _, out, _ = run_cli(
                capsys, "count", "--a", "2", "--b", "2", "--c", "2", "--m", "2",
            )
            outs.add(out)
        assert len(outs) == 1

    @pytest.mark.parametrize(
        "argv, params, signed",
        [
            (("count", "--method", "formula"), (100, 100, 100, 60), False),
            (("formula", "--id", "enum"), (120, 120, 120, 0), False),
            (("formula", "--id", "signed-enum"), (200, 200, 202, 151), True),
        ],
    )
    def test_values_past_the_digit_limit_print_in_full(self, capsys, argv, params, signed):
        flags = [x for flag, v in zip(("--a", "--b", "--c", "--m"), params) for x in (flag, str(v))]
        with int_digit_limit(4300):
            code, out, err = run_cli(capsys, *argv, *flags)
        assert (code, err) == (0, "")
        shown = json.loads(out)["value"]
        assert len(shown) > 4300
        with int_digit_limit(0):
            assert int(shown) == count_cored_formula(*params, signed=signed)


class TestOtherCommands:
    def test_formula_macmahon(self, capsys):
        code, out, _ = run_cli(
            capsys, "formula", "--id", "macmahon", "--a", "0", "--b", "5", "--c", "7"
        )
        assert code == 0
        assert json.loads(out)["value"] == "1"

    @pytest.mark.parametrize("fid", ["andrews", "zare1", "om3", "om6"])
    def test_negative_order_is_exit_2(self, capsys, fid):
        code, out, err = run_cli(capsys, "formula", "--id", fid, "--a", "-1", "--m", "0")
        assert (code, out) == (2, "")
        assert "order a of B(a, m) must be nonnegative" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--id", "zare1", "--a", "2", "--m", "-1"), "parameter m of B(a, m)"),
            (
                ("--id", "lemma-rhs", "--a", "2", "--b", "2", "--c", "2", "--m", "-1"),
                "got a=2, m=-1",
            ),
            (
                ("--id", "conjecture1", "--a", "4", "--b", "4", "--c", "4", "--m", "-1"),
                "got a=4, b=4, c=4, m=-1",
            ),
            (
                ("--id", "conjecture1", "--a", "2", "--b", "2", "--c", "2", "--m", "-1"),
                "got a=2, b=2, c=2, m=-1",
            ),
            (
                ("--id", "conjecture2", "--a", "3", "--b", "2", "--c", "2", "--m", "-1"),
                "got a=3, b=2, c=2, m=-1",
            ),
        ],
        ids=["zare1", "lemma-rhs", "conjecture1", "conjecture1-small", "conjecture2"],
    )
    def test_negative_m_is_a_named_domain_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "formula", *argv)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--suite", "Case10", "--max-a", "-1"),
            ("verify", "--suite", "Case10", "--max-m", "-1"),
            ("conjecture", "--which", "1", "--max-a", "-1"),
            ("conjecture", "--which", "2", "--max-m", "-1"),
        ],
        ids=["verify-max-a", "verify-max-m", "conjecture-max-a", "conjecture-max-m"],
    )
    def test_negative_sweep_bound_is_exit_2(self, capsys, argv):
        # a sweep over nothing would check nothing and read as a pass
        flag = argv[-2]
        assert run_cli(capsys, *argv) == (2, "", f"error: {flag} must be nonnegative, got -1\n")

    def test_negative_box_side_is_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "formula", "--id", "macmahon", "--a", "-1", "--b", "1", "--c", "1"
        )
        assert (code, out) == (2, "")
        assert err == "error: box sides must be nonnegative, got a=-1, b=1, c=1\n"

    @pytest.mark.parametrize(
        "fid, sides",
        [
            ("enum", ("3", "5", "1", "2")),
            ("shifted", ("2", "1", "1", "2")),
            ("signed-enum", ("1", "1", "1", "1")),
            ("signed-shifted", ("2", "3", "1", "3")),
            ("signed-enum", ("4", "2", "6", "3")),
        ],
    )
    def test_factor_multiplies_out_to_the_value(self, capsys, fid, sides):
        flags = [x for flag, v in zip(("--a", "--b", "--c", "--m"), sides) for x in (flag, v)]
        code, out, _ = run_cli(capsys, "formula", "--id", fid, *flags)
        assert code == 0
        value = int(json.loads(out)["value"])
        code, out, _ = run_cli(capsys, "formula", "--id", fid, *flags, "--factor")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["id", "params", "factors"]
        keys = [int(k) for k in payload["factors"]]
        assert keys == sorted(keys)
        product = 1
        for k, e in payload["factors"].items():
            product *= int(k) ** e
        assert product == value

    def test_factor_on_another_formula_is_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "formula", "--id", "macmahon", "--a", "1", "--b", "1", "--c", "1", "--factor"
        )
        assert (code, out) == (2, "")
        assert "--factor applies only to enum" in err

    def test_cyclic_count_cyclotomic_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "cyclic-count", "--a", "2", "--m", "1", "--weight", "omega6"
        )
        assert code == 0
        value = json.loads(out)["value"]
        assert value == {"ring": "sixth", "c0": "0", "c1": "5"}

    def test_verify_suite(self, capsys, tmp_path):
        jsonl = tmp_path / "reports.jsonl"
        csv = tmp_path / "summary.csv"
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "Case10", "--max-a", "2", "--max-m", "2",
            "--jsonl", str(jsonl), "--csv", str(csv),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["failed"] == 0
        assert jsonl.exists() and csv.exists()
        lines = jsonl.read_text().strip().splitlines()
        assert len(lines) == summary["total"]
        assert csv.read_text().startswith("suite,total,passed,failed,skipped")

    def test_verify_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "Nope")
        assert code == 2

    def test_asymptotic_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "asymptotic", "--a", "1", "--b", "1", "--c", "1", "--m", "1",
            "--n-list", "2,4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("k,")
        assert lines[1] == "n,log_count_over_n2,deviation"
        assert len(lines) == 4

    def test_asymptotic_k_default_digits(self, capsys):
        code, out, _ = run_cli(
            capsys, "formula", "--id", "asymptotic-k", "--a", "1", "--b", "1", "--c", "1",
            "--m", "1",
        )
        assert code == 0
        assert json.loads(out)["value"] == "1.25705964308349630550237624052027110451344693"

    def test_too_few_digits_is_exit_2(self, capsys):
        sides = ("--a", "1", "--b", "1", "--c", "1", "--m", "1")
        for digits in ("3", "5"):
            code, out, err = run_cli(
                capsys, "formula", "--id", "asymptotic-k", *sides, "--digits", digits
            )
            assert (code, out) == (2, "") and "--digits" in err
        code, out, err = run_cli(capsys, "asymptotic", *sides, "--digits", "4")
        assert (code, out) == (2, "") and "--digits" in err
        code, _, _ = run_cli(capsys, "formula", "--id", "asymptotic-k", *sides, "--digits", "6")
        assert code == 0

    def test_conjecture_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "conjecture", "--which", "1", "--max-a", "2", "--max-m", "2"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a,b,c,m,determinant,conjecture,status"
        assert all(line.endswith(("pass", "skip")) for line in lines[1:])

    def test_conjecture_tables_are_pinned(self, capsys):
        code, out, _ = run_cli(
            capsys, "conjecture", "--which", "1", "--max-a", "2", "--max-m", "2"
        )
        assert code == 0
        assert out == CONJECTURE_1_TABLE
        code, out, _ = run_cli(
            capsys, "conjecture", "--which", "2", "--max-a", "2", "--max-m", "2"
        )
        assert code == 0
        assert out == CONJECTURE_2_TABLE

    def test_conjecture_builds_only_the_chosen_shift(self, capsys, monkeypatch):
        epsilons = []
        build = lgv.build_cored_matrix

        def spy(a, b, c, m, epsilon=None):
            epsilons.append(epsilon)
            return build(a, b, c, m, epsilon)

        monkeypatch.setattr(lgv, "build_cored_matrix", spy)
        code, _, _ = run_cli(
            capsys, "conjecture", "--which", "2", "--max-a", "4", "--max-m", "4"
        )
        assert code == 0
        assert epsilons and set(epsilons) == {Fraction(3, 2)}

    def test_verify_at_cap_zero_exits_0(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "Polynomiality", "--cap", "0")
        assert (code, err) == (0, "")
        summary = json.loads(out)
        assert summary["failed"] == 0 and summary["skipped"] == 0

    def test_verify_jobs_do_not_change_the_output(self, capsys, tmp_path):
        written = {}
        for jobs in ("1", "2"):
            jsonl, csv = tmp_path / f"{jobs}.jsonl", tmp_path / f"{jobs}.csv"
            code, out, _ = run_cli(
                capsys, "verify", "--suite", "all", "--max-a", "1", "--max-m", "1",
                "--jobs", jobs, "--jsonl", str(jsonl), "--csv", str(csv),
            )
            assert code == 0
            written[jobs] = (out, jsonl.read_bytes(), csv.read_bytes())
        assert written["1"] == written["2"]
        assert written["1"][1].count(b"\n") == json.loads(written["1"][0])["total"]

    def test_cell_cap_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("CORED_HEX_CELL_CAP", "10")
        code, _, _ = run_cli(
            capsys, "count", "--a", "3", "--b", "3", "--c", "3", "--m", "0",
            "--method", "brute",
        )
        assert code == 3


def drawn_count_argv(rng):
    """A count or cyclic-count command line with sides in -2..5 and a cap of
    at most 60, so that no brute-force search runs long."""
    def side():
        return str(rng.randint(-2, 5))

    if rng.random() < 0.6:
        argv = ["count", "--a", side(), "--b", side(), "--c", side(), "--m", side(),
                "--method", rng.choice(verify.ROUTES), "--weight", rng.choice(("one", "minus1"))]
    else:
        argv = ["cyclic-count", "--a", side(), "--m", side(),
                "--weight", rng.choice(tilings.WEIGHTS)]
    return argv + ["--cap", str(rng.randint(-1, 60))]


def test_count_commands_exit_0_2_or_3_with_one_line(capsys, monkeypatch):
    monkeypatch.delenv("CORED_HEX_CELL_CAP", raising=False)
    rng = random.Random(26)
    codes, drawn = set(), set()
    for _ in range(300):
        argv = drawn_count_argv(rng)
        # an uncaught exception, a traceback, propagates out of main here
        code, out, err = run_cli(capsys, *argv)
        codes.add(code)
        flags = dict(zip(argv[1::2], argv[2::2]))
        drawn.add((argv[0], flags.get("--method"), flags["--weight"]))
        assert code in (0, 2, 3), argv
        if code == 0:
            (line,) = out.splitlines()
            assert isinstance(json.loads(line), dict) and err == "", argv
        else:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
    assert codes == {0, 2, 3}
    assert {(c, m, w) for c, m, w in drawn if c == "count"} == {
        ("count", m, w) for m in verify.ROUTES for w in ("one", "minus1")
    }
    assert {w for c, _, w in drawn if c == "cyclic-count"} == set(tilings.WEIGHTS)


def drawn_other_argv(rng):
    """A formula, asymptotic, conjecture or verify command line with sides
    in -2..5 and sweeps of at most a, m <= 2 and a cap of at most 60, so
    that every draw runs in milliseconds."""
    def side():
        return str(rng.randint(-2, 5))

    def bound(top):
        return str(rng.randint(-1, top))

    command = rng.choice(("formula", "asymptotic", "conjecture", "verify"))
    if command == "formula":
        argv = ["formula", "--id", rng.choice(list(_FORMULAS)), "--m", side(),
                "--digits", str(rng.randint(20, 60))]
        # a side left out is a domain error for the ids that need it
        argv += [arg for flag in ("--a", "--b", "--c") if rng.random() < 0.9
                 for arg in (flag, side())]
        argv += [flag for flag in ("--shifted", "--factor") if rng.random() < 0.2]
    elif command == "asymptotic":
        # argparse would read a negative first entry, "-1,2", as a flag
        argv = ["asymptotic", "--a", side(), "--b", side(), "--c", side(), "--m", side(),
                "--n-list", f"{rng.randint(0, 4)},{rng.randint(0, 4)}",
                "--digits", str(rng.randint(20, 60))]
    elif command == "conjecture":
        argv = ["conjecture", "--which", rng.choice("12"), "--max-a", bound(2),
                "--max-m", bound(2)]
    else:
        argv = ["verify", "--suite", rng.choice(sorted(verify.SUITES)), "--max-a", bound(2),
                "--max-m", bound(2), "--cap", bound(60), "--jobs", "1"]
    return argv


def test_other_commands_exit_0_2_or_3_with_their_output(capsys, monkeypatch):
    monkeypatch.delenv("CORED_HEX_CELL_CAP", raising=False)
    rng = random.Random(29)
    codes, drawn = {}, set()
    headers = {"asymptotic": "n,log_count_over_n2,deviation",
               "conjecture": "a,b,c,m,determinant,conjecture,status"}
    for _ in range(400):
        argv = drawn_other_argv(rng)
        # an uncaught exception, a traceback, propagates out of main here
        code, out, err = run_cli(capsys, *argv)
        codes.setdefault(argv[0], set()).add(code)
        drawn.add(tuple(argv[:3]))  # the command and its first flag
        assert code in (0, 2, 3), argv
        if code != 0:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
        elif argv[0] in headers:
            assert headers[argv[0]] in out.splitlines() and err == "", argv
        else:
            (line,) = out.splitlines()
            assert isinstance(json.loads(line), dict) and err == "", argv
    assert {command: {0, 2} <= seen for command, seen in codes.items()} == {
        "formula": True, "asymptotic": True, "conjecture": True, "verify": True
    }
    assert {v for c, _, v in drawn if c == "formula"} == set(_FORMULAS)
    assert {v for c, _, v in drawn if c == "verify"} == set(verify.SUITES)
