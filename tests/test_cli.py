import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mckay_slodowy
from mckay_slodowy.cli import run
from mckay_slodowy.groups import FAMILY_NAMES, PAIR_NAMES


def _capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pair_poincare_example(capsys):
    code, out, _ = _capture(
        capsys, ["pair", "A2^2", "poincare", "--vertex", "0", "--terms", "10", "--closed-form"]
    )
    assert code == 0
    assert "(1) / (1 - 4*t^2)" in out
    assert "1 0 4 0 16 0 64 0 256 0" in out


def test_chartable_tetrahedral_layout(capsys):
    code, out, _ = _capture(capsys, ["chartable", "binary_tetrahedral"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 9  # header + sizes + 7 rows
    assert lines[0].split()[-7:] == ["1", "-1", "x", "z", "z^2", "-z", "-z^2"]
    assert any(l.startswith("tau_2") for l in lines)


def test_chartable_numeric_flag(capsys):
    code, out, _ = _capture(capsys, ["chartable", "alternating4", "--numeric"])
    assert code == 0
    assert "chi_" in out


def test_verify_pair_exit_zero(capsys):
    code, out, _ = _capture(capsys, ["verify", "--pair", "S4A4"])
    assert code == 0
    assert "denominator identity" in out
    assert "FAIL" not in out


def test_verify_requires_target(capsys):
    code, _, err = _capture(capsys, ["verify"])
    assert code == 1
    assert "domain error" in err


def test_domain_error_exit_one(capsys):
    code, _, err = _capture(capsys, ["pair", "Dn+1^2", "--n", "1"])
    assert code == 1
    assert "requires n >=" in err


def test_usage_error_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 64


def test_json_outputs_parse(capsys):
    for argv in (
        ["group", "binary_dihedral", "--n", "3", "--json"],
        ["chartable", "symmetric4", "--json"],
        ["pair", "D4^3", "--json"],
        ["poincare", "--pair", "E6^2", "--side", "res", "--vertex", "0",
         "--terms", "8", "--closed-form", "--json"],
        ["chebyshev", "U", "4", "--json"],
        ["exponents", "--type", "C_3^(1)", "--json"],
        ["verify", "--pair", "A2^2", "--json"],
    ):
        code, out, _ = _capture(capsys, argv)
        assert code == 0, argv
        payload = json.loads(out)
        assert payload, argv


def test_json_error_detail_on_stderr(capsys):
    code, _, err = _capture(capsys, ["poincare", "--pair", "A2n^2", "--n", "1", "--json"])
    assert code == 1
    detail = json.loads(err)
    assert detail["error"] == "domain error"


def test_poincare_series_values(capsys):
    code, out, _ = _capture(
        capsys,
        ["poincare", "--pair", "S4A4", "--side", "res", "--vertex", "2", "--terms", "8"],
    )
    assert code == 0
    assert "0 1 2 7 20 61 182 547" in out


def test_pair_show_and_dot(capsys):
    code, out, _ = _capture(capsys, ["pair", "E6^2"])
    assert code == 0
    assert "E_6^(2)" in out and "F_4^(1)" in out
    code, out, _ = _capture(capsys, ["pair", "Dn+1^2", "--n", "3", "--dot"])
    assert code == 0
    _assert_valid_dot(out)


def test_dot_valid_for_all_pairs(capsys):
    cases = [("A2n-1^2", n) for n in range(3, 9)]
    cases += [("Dn+1^2", n) for n in range(2, 9)]
    cases += [("A2n^2", n) for n in range(2, 9)]
    cases += [("E6^2", None), ("D4^3", None), ("A2^2", None), ("S4A4", None)]
    for name, n in cases:
        argv = ["pair", name, "--dot"] + ([] if n is None else ["--n", str(n)])
        for side in ("res", "ind"):
            code, out, _ = _capture(capsys, argv + ["--side", side])
            assert code == 0
            _assert_valid_dot(out)


def _assert_valid_dot(text: str) -> None:
    """Minimal DOT grammar check: digraph wrapper, balanced braces/brackets,
    every statement a node or edge line."""
    lines = [l.strip() for l in text.strip().splitlines()]
    assert lines[0] == "digraph representation_graph {"
    assert lines[-1] == "}"
    node_re = re.compile(r'^\d+ \[label=".+ \(\d+\)"\];$')
    edge_re = re.compile(r"^\d+ -> \d+ \[(dir=none, )?multiplicity=\d+\];$")
    for line in lines[1:-1]:
        assert node_re.match(line) or edge_re.match(line), line


def test_chebyshev_text(capsys):
    code, out, _ = _capture(capsys, ["chebyshev", "T", "3"])
    assert code == 0
    assert "[0, -3, 0, 4]" in out


def test_exponents_text(capsys):
    code, out, _ = _capture(capsys, ["exponents", "--type", "D_4^(3)"])
    assert code == 0
    assert "exponents [0, 1, 2]" in out
    assert "Coxeter number 2" in out
    code, _, err = _capture(capsys, ["exponents", "--type", "Q_1^(9)"])
    assert code == 1


@pytest.mark.parametrize("label", ["B_0^(1)", "B_1^(1)", "A_1^(2)", "D_1^(2)", "C_0", "D_0"])
def test_exponents_below_a_first_rank_exit_one(capsys, label):
    for argv in (["exponents", "--type", label], ["exponents", "--type", label, "--json"]):
        code, out, err = _capture(capsys, argv)
        assert (code, out) == (1, "")
        assert "no exponent data" in err or "unknown finite type" in err


def test_exponents_subscript_is_capped(capsys):
    code, out, _ = _capture(capsys, ["exponents", "--type", "C_10000^(1)", "--json"])
    assert code == 0
    assert len(json.loads(out)["exponents"]) == 10001
    for label in ("C_10001^(1)", "A_" + "9" * 5000, "C_0010001^(1)"):
        code, out, err = _capture(capsys, ["exponents", "--type", label])
        assert (code, out) == (1, "")
        assert "capped at 10000" in err
    code, out, _ = _capture(capsys, ["exponents", "--type", "C_0003^(1)"])
    assert code == 0 and "exponents [0, 1, 2, 3]" in out


@pytest.mark.parametrize("degree", ["-1", "2001", "100000"])
def test_chebyshev_degree_out_of_range_is_a_usage_error(capsys, degree):
    with pytest.raises(SystemExit) as exc:
        run(["chebyshev", "U", degree])
    assert exc.value.code == 64
    assert "chebyshev" in capsys.readouterr().err


def test_unicode_flag(capsys):
    code, out, _ = _capture(capsys, ["chartable", "binary_dihedral", "--n", "2", "--unicode"])
    assert code == 0
    assert "δ" in out


def test_verify_all_small_range(capsys):
    code, out, _ = _capture(capsys, ["verify", "--all", "--n-max", "2", "--k-max", "6"])
    assert code == 0
    assert "FAIL" not in out
    assert "Chebyshev identity suite" in out
    assert "exponent duality" in out


def test_pair_action_after_options(capsys):
    opts = ["--n", "3", "--side", "ind", "--vertex", "1", "--terms", "7", "--closed-form"]
    outputs = []
    for argv in (
        ["pair", "A2n^2", "poincare", *opts],
        ["pair", "A2n^2", *opts, "poincare"],
        ["pair", "A2n^2", "--n", "3", "poincare", *opts[2:]],
    ):
        for extra in ([], ["--json"]):
            code, out, err = _capture(capsys, argv + extra)
            assert code == 0 and not err, argv
            outputs.append((tuple(extra), out))
    assert len(set(outputs)) == 2
    code, out, _ = _capture(capsys, ["pair", "E6^2", "--unicode", "show"])
    assert code == 0
    assert out == _capture(capsys, ["pair", "E6^2", "--unicode"])[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["pair", "E6^2", "poincare", "--terms", "0"],
        ["pair", "A2n^2", "--n", "3", "--terms", "-1", "poincare"],
        ["poincare", "--pair", "E6^2", "--terms", "-3"],
        ["poincare", "--pair", "E6^2", "--terms", "x"],
        ["pair", "E6^2", "--n", "3", "frobnicate"],
        ["pair", "E6^2", "show", "--n", "3", "poincare"],
    ],
)
def test_pair_and_poincare_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 64
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["pair", "E6^2", "--n", "5"],
        ["poincare", "--pair", "D4^3", "--n", "2"],
        ["group", "binary_tetrahedral", "--n", "5"],
        ["chartable", "symmetric4", "--n", "2"],
        ["verify", "--pair", "S4A4", "--n", "3"],
    ],
)
def test_n_for_a_name_without_n_is_a_domain_error(capsys, argv):
    code, out, err = _capture(capsys, argv)
    assert code == 1
    assert "takes no n" in err and not out


@pytest.mark.parametrize("k_max", ["25", "21", "-1", "x"])
def test_verify_k_max_out_of_range_is_a_usage_error(capsys, k_max):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--pair", "S4A4", "--k-max", k_max])
    assert exc.value.code == 64
    captured = capsys.readouterr()
    assert "error:" in captured.err and "FAIL" not in captured.out


@pytest.mark.parametrize("k_max", ["0", "20"])
def test_verify_k_max_bounds_are_accepted(capsys, k_max):
    code, out, _ = _capture(capsys, ["verify", "--pair", "A2^2", "--k-max", k_max])
    assert code == 0
    assert f"(k <= {k_max})" in out


@pytest.mark.parametrize("call", ["verify_pair", "verify_all"])
@pytest.mark.parametrize("k_max", [-1, 21])
def test_verify_rejects_k_max_before_any_check(monkeypatch, call, k_max):
    from mckay_slodowy import verify
    from mckay_slodowy.errors import DomainError

    def no_pair(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "normal_pair", no_pair)
    with pytest.raises(DomainError, match="k_max"):
        if call == "verify_pair":
            verify.verify_pair("S4A4", k_max=k_max)
        else:
            verify.verify_all(n_max=2, k_max=k_max)


@pytest.mark.parametrize("n_max", ["1", "-3"])
def test_verify_all_n_max_below_two_is_a_usage_error(capsys, n_max):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--all", "--n-max", n_max, "--k-max", "0"])
    assert exc.value.code == 64
    captured = capsys.readouterr()
    assert "error:" in captured.err and "passed" not in captured.out


def test_verify_all_rejects_n_max_before_any_check(monkeypatch):
    from mckay_slodowy import verify
    from mckay_slodowy.errors import DomainError

    def no_pair(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "normal_pair", no_pair)
    with pytest.raises(DomainError, match="n_max"):
        verify.verify_all(n_max=1, k_max=0)


def test_family_above_the_bound_fails_before_the_closure(capsys, monkeypatch):
    monkeypatch.delenv("MSC_MAX_GROUP_ORDER", raising=False)
    start = time.perf_counter()
    code, _, err = _capture(capsys, ["group", "binary_dihedral", "--n", "3000"])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert "order 12000" in err


def _python(*args, **kwargs) -> subprocess.CompletedProcess:
    """Run the interpreter on this checkout's package, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(Path(mckay_slodowy.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, timeout=300, **kwargs)


def test_closed_stdout_ends_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = _python(
            "-m", "mckay_slodowy.cli", "chartable", "binary_octahedral",
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.returncode in (0, 1, 2, 64)


def test_runtime_needs_neither_numpy_nor_networkx():
    code = (
        "import sys\n"
        "sys.modules['numpy'] = sys.modules['networkx'] = None\n"
        "from mckay_slodowy.cli import run\n"
        "codes = [run(['chartable', 'binary_octahedral', '--numeric', '--json']),\n"
        "         run(['verify', '--pair', 'E6^2', '--k-max', '4'])]\n"
        "sys.exit(max(codes))\n"
    )
    proc = _python("-c", code, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "0 failed" in proc.stdout


def test_a_cold_cli_import_loads_neither_dataclasses_nor_inspect():
    # importing the two took about half of a cold start; the value types
    # subclass record.Record instead
    code = "import sys, mckay_slodowy.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    proc = _python("-c", code, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_coefficients_past_the_int_str_digit_limit_print(fmt):
    # coefficient 14 300 of the E6^2 invariants series is the first with more
    # than 4 300 digits, Python's default limit for int -> str
    proc = _python(
        "-m", "mckay_slodowy.cli", "poincare", "--pair", "E6^2", "--terms", "14400", *fmt,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert max(len(digits) for digits in re.findall(r"\d+", proc.stdout)) > 4300


def test_value_and_arithmetic_errors_exit_one_on_one_line(capsys, monkeypatch):
    from mckay_slodowy import cli

    def fail(args):
        raise ArithmeticError("non-exact polynomial division")

    monkeypatch.setitem(cli._COMMANDS, "chebyshev", fail)
    code, out, err = _capture(capsys, ["chebyshev", "T", "3"])
    assert code == 1
    assert err == "ArithmeticError: non-exact polynomial division\n"
    code, out, err = _capture(capsys, ["chebyshev", "T", "3", "--json"])
    assert code == 1
    assert json.loads(err) == {"error": "ArithmeticError", "detail": "non-exact polynomial division"}


def test_verify_reports_value_errors_as_a_named_failure():
    from mckay_slodowy.verify import _wrap

    def overflow():
        raise ValueError("Exceeds the limit (4300 digits)")

    result = _wrap("a check", overflow)
    assert not result.ok
    assert result.detail == "ValueError: Exceeds the limit (4300 digits)"


def test_a_check_fails_by_raising_or_by_returning_false():
    from mckay_slodowy.errors import CheckFailure, DomainError
    from mckay_slodowy.verify import CheckResult, _wrap

    def raises(exc):
        def fn():
            raise exc
        return fn

    assert _wrap("t", lambda: None) == CheckResult("t", True, "")
    assert _wrap("t", lambda: [], "shown") == CheckResult("t", True, "shown")
    assert _wrap("t", lambda: False, "shown") == CheckResult("t", False, "shown")
    assert _wrap("t", raises(CheckFailure("x")), "shown") == CheckResult("t", False, "x")
    assert _wrap("t", raises(DomainError("y"))) == CheckResult("t", False, "y")
    assert _wrap("t", raises(ZeroDivisionError("z"))) == CheckResult("t", False, "ZeroDivisionError: z")
    with pytest.raises(KeyError):
        _wrap("t", raises(KeyError("k")))


def test_a_raising_normality_check_is_a_failed_row(monkeypatch):
    # the normality check once built its row itself, and the exception escaped
    from mckay_slodowy.errors import CheckFailure
    from mckay_slodowy.groups import NormalPair
    from mckay_slodowy.verify import verify_pair

    def fail(self):
        raise CheckFailure("x")

    monkeypatch.setattr(NormalPair, "exhaustive_normality_check", fail)
    results = verify_pair("A2^2", k_max=0)
    rows = [r for r in results if r.name.endswith("exhaustive normality")]
    assert [(r.ok, r.detail) for r in rows] == [(False, "x")]
    assert sum(not r.ok for r in results) == 1


def test_a_raising_chebyshev_suite_is_a_failed_row(monkeypatch):
    from mckay_slodowy import verify
    from mckay_slodowy.errors import CheckFailure

    def fail(n_max):
        raise CheckFailure("x")

    monkeypatch.setattr(verify, "chebyshev_identities_check", fail)
    results = verify.verify_all(n_max=2, k_max=0)
    rows = [r for r in results if r.name == "Chebyshev identity suite (n <= 50)"]
    assert [(r.ok, r.detail) for r in rows] == [(False, "x")]
    assert sum(not r.ok for r in results) == 1


def test_the_identity_row_lists_every_failing_record_in_order(monkeypatch):
    from mckay_slodowy import verify
    from mckay_slodowy.groups import normal_pair

    real = verify.identity_fixtures("A2^2", None)
    bad = [
        ("restrict", "delta_1", {"xi_1": 3}),
        real[0],
        ("induce", "no_such_label", {}),
        ("fuse_res", "delta_0^+", {"delta_1": 2}),
    ]
    monkeypatch.setattr(verify, "identity_fixtures", lambda name, n: bad)
    result = verify.run_identity_fixtures(normal_pair("A2^2"), "A2^2", None)
    assert result.name.endswith("decomposition/fusion identities (4)")
    assert not result.ok
    parts = result.detail.split("; ")
    assert [p.split(":")[0] for p in parts] == [
        "restrict delta_1", "induce no_such_label", "fuse_res delta_0^+"]
    assert parts[0] == "restrict delta_1: expected {'xi_1': 3}, got {'xi_1': 2}"


# -- argv fuzz: every input gets a defined exit code ---------------------------


def _word(names):
    """One positional from names, a junk word, or none."""
    return st.sampled_from([[name] for name in names] + [["bogus"], []])


def _flag(flag):
    return st.sampled_from([[], [flag]])


def _option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _ints(low, high):
    return st.sampled_from([*map(str, range(low, high + 1)), "", "x", "1.5", "-"])


def _argv(*parts):
    return st.tuples(*(p if isinstance(p, st.SearchStrategy) else st.just(p) for p in parts)).map(
        lambda ps: [a for p in ps for a in p]
    )


_N = _option("--n", _ints(-3, 6))
_SIDE = _option("--side", st.sampled_from(["res", "ind", "up"]))
_VERTEX = _option("--vertex", _ints(-2, 8))
_TERMS = _option("--terms", _ints(-1, 40))
# above 60 only the first degree out of range: U_2000 alone takes about a second
_DEGREE = st.one_of(_ints(-1, 60), st.just("2001"))
_LABEL = st.one_of(
    st.from_regex(r"[A-G]_[0-9]{1,2}(\^\([0-4]\))?", fullmatch=True),
    st.from_regex(r"[A-HZa]?_?-?[0-9]{0,3}(\^\(-?[0-9]{0,2}\)?)?", fullmatch=True),
    st.text(max_size=8),
)
ARGV = st.one_of(
    _argv(["group"], _word(FAMILY_NAMES), _N, _flag("--json")),
    _argv(["chartable"], _word(FAMILY_NAMES), _N, _flag("--numeric"), _flag("--json"), _flag("--unicode")),
    _argv(["pair"], _word(PAIR_NAMES), _word(("show", "poincare")), _N, _SIDE, _VERTEX, _TERMS,
          _flag("--closed-form"), _flag("--dot"), _flag("--json"), _flag("--unicode")),
    _argv(["poincare"], _option("--pair", st.sampled_from([*PAIR_NAMES, "bogus"])), _N, _SIDE,
          _VERTEX, _TERMS, _flag("--closed-form"), _flag("--json")),
    _argv(["chebyshev"], _word(("T", "U")), _DEGREE.map(lambda d: [d]), _flag("--json")),
    _argv(["exponents"], _option("--type", _LABEL), _flag("--json")),
    _argv(["verify", "--pair"], _word(PAIR_NAMES), _N, _option("--k-max", _ints(-1, 21)), _flag("--json")),
)


@settings(max_examples=300, deadline=None)
@given(argv=ARGV)
def test_argv_fuzz_exits_with_a_defined_code(argv):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("MSC_MAX_GROUP_ORDER", "200")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2, 64), argv
