import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from wardcf import matchings
from wardcf.cli import build_parser, run
from wardcf.contfrac import expand_T, named_family


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_triangle_csv(capsys):
    code, out = invoke(capsys, "triangle", "--family", "ward", "--rows", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,value"
    assert lines[-1] == "4,4,105"
    row4 = [line for line in lines if line.startswith("4,")]
    assert row4 == ["4,0,0", "4,1,1", "4,2,25", "4,3,105", "4,4,105"]


def test_triangle_json(capsys):
    code, out = invoke(capsys, "triangle", "--family", "eulerian2", "--rows", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"family": "eulerian2", "rows": [[1], [0, 1], [0, 1, 2], [0, 1, 8, 6]]}


def test_triangle_pretty(capsys):
    code, out = invoke(capsys, "triangle", "--family", "stirling2assoc", "--rows", "6")
    assert code == 0
    assert out.splitlines()[-1].split() == ["0", "1", "25", "15", "0", "0", "0"]


def test_expand_semifactorial(capsys):
    code, out = invoke(capsys, "expand", "--family", "semifactorial", "--order", "4")
    assert code == 0
    assert out.strip() == "1, 1, 3, 15, 105"


def test_expand_ward_symbolic_and_set(capsys):
    code, out = invoke(capsys, "expand", "--family", "ward", "--order", "2")
    assert code == 0
    assert out.strip() == "1, x, 3*x^2 + x"
    code, out = invoke(capsys, "expand", "--family", "ward", "--order", "4", "--set", "x=1")
    assert code == 0
    assert out.strip() == "1, 1, 4, 26, 236"


def test_expand_writes_every_coefficient_text(capsys):
    # 169,541 bytes before the newline, the largest coefficient alone
    # 154,225: its text is written in several slices and must read whole.
    code, out = invoke(capsys, "expand", "--family", "master-T", "--order", "5")
    assert code == 0
    texts = [str(c) for c in expand_T(named_family("master-T"), 5).coeffs]
    assert out == ", ".join(texts) + "\n"
    assert (len(out), max(map(len, texts))) == (169_542, 154_225)


def test_expand_set_polynomial_value(capsys):
    code, out = invoke(
        capsys, "expand", "--family", "generalized-ward", "--order", "1", "--set", "z=x"
    )
    assert code == 0
    assert out.strip() == "1, 2*x"


def test_verify_suites_pass(capsys):
    quick = {
        "thm1.1": "4",
        "thm1.2": "3",
        "thm2.1": "3",
        "cor2.3": "2",
        "bijection-schroeder": "3",
        "bijection-phylo": "4",
        "lemma4.2": "3",
        "appendixB": "5",
        "ward-euler": "5",
        "flajolet": "3",
        "contraction": "8",
        "euler-identity": "8",
        "closed-form-ux": "5",
    }
    for suite, n in quick.items():
        code, out = invoke(capsys, "verify", "--suite", suite, "--n", n)
        assert code == 0, f"{suite}: {out}"
        assert out.startswith("PASS"), f"{suite}: {out}"


def test_verify_clamps_to_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("WARDCF_MAX_N", "2")
    code, out = invoke(capsys, "verify", "--suite", "thm2.1", "--n", "9")
    assert code == 0
    assert "clamped to 2" in out
    assert "PASS" in out


def test_verify_unknown_suite_is_usage_error(capsys):
    code = run(["verify", "--suite", "nonsense", "--n", "3"])
    assert code == 2


def test_verify_failure_prints_fail_and_exits_1(capsys, monkeypatch):
    import wardcf.cli as cli

    monkeypatch.setitem(
        cli.SUITES, "thm2.1",
        (lambda n: (False, "counterexample: pairs=(1,2); wiggly={}; dashed={}"), False),
    )
    code, out = invoke(capsys, "verify", "--suite", "thm2.1", "--n", "2")
    assert code == 1
    assert out.startswith("FAIL: thm2.1:")
    assert "pairs=(1,2)" in out


def test_ward_euler_caps_only_its_enumeration(capsys, monkeypatch):
    monkeypatch.setenv("WARDCF_MAX_N", "2")
    code, out = invoke(capsys, "verify", "--suite", "ward-euler", "--n", "5")
    assert code == 0
    assert out == (
        "note: closer/opener check clamped to 2 by WARDCF_MAX_N\n"
        "PASS: ward-euler: second-order Eulerian identities verified for n <= 5\n"
    )


@pytest.mark.parametrize("cap, note", [("0", True), ("4", True), ("5", False), ("6", False)])
def test_ward_euler_says_when_it_clamps(capsys, monkeypatch, cap, note):
    monkeypatch.setenv("WARDCF_MAX_N", cap)
    code, out = invoke(capsys, "verify", "--suite", "ward-euler", "--n", "5")
    assert code == 0 and out.endswith("verified for n <= 5\n")
    assert out.startswith(f"note: closer/opener check clamped to {cap} by WARDCF_MAX_N\n") == note


def test_bijection_phylo_fails_when_a_class_goes_missing(capsys, monkeypatch):
    # An enumeration without the matchings that carry a wiggly line.
    original = matchings.enumerate_augmented
    monkeypatch.setattr(
        matchings, "enumerate_augmented",
        lambda n: (sm for sm in original(n) if not sm.wiggly),
    )
    code, out = invoke(capsys, "verify", "--suite", "bijection-phylo", "--n", "4")
    assert code == 1
    assert out.startswith("FAIL: bijection-phylo: count mismatch at n=2, 1 wiggly lines"), out


def test_unknown_flag_is_usage_error(capsys):
    assert run(["triangle", "--family", "ward", "--rows", "3", "--frobnicate"]) == 2
    assert run(["nonsense"]) == 2


def test_hankel_report(capsys):
    code, out = invoke(
        capsys, "hankel", "--family", "ward", "--size", "3", "--rmax", "3"
    )
    assert code == 0
    report = json.loads(out)
    assert report == {"sequence": "ward", "m": 3, "r_max": 3, "ok": True}


def test_hankel_budget_and_allow_large(capsys):
    code = run(["hankel", "--family", "ward", "--size", "7"])
    captured = capsys.readouterr()
    assert code == 2
    assert (captured.out, captured.err) == (
        "",
        "wardcf: size 7 exceeds the desk budget 6; pass --allow-large to run anyway\n",
    )
    code, out = invoke(
        capsys, "hankel", "--family", "eulerian2-reversed", "--size", "7", "--rmax", "2",
        "--allow-large",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_invert(capsys):
    code, out = invoke(capsys, "invert", "--order", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x1 = x + z"
    assert lines[1] == "x2 = u*x + w*x - x^2 - 3*x*z - 2*z^2"


def test_invert_with_set(capsys):
    code, out = invoke(capsys, "invert", "--order", "3", "--set", "u=x", "--set", "z=0",
                       "--set", "w=1")
    assert code == 0
    assert all(line.endswith("= x") for line in out.strip().splitlines())


def test_invert_golden_order_3(capsys):
    code, out = invoke(capsys, "invert", "--order", "3")
    assert code == 0
    assert out == (
        "x1 = x + z\n"
        "x2 = u*x + w*x - x^2 - 3*x*z - 2*z^2\n"
        "x3 = 3*u^2*x + 4*u*w*x - 3*u*x^2 - 5*u*x*z + w^2*x - 4*w*x^2"
        " - 6*w*x*z + 5*x^2*z + 11*x*z^2 + 6*z^3\n"
    )


def usage_error(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    assert code == 2, argv
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("wardcf: "), captured.err
    return lines[0]


@pytest.mark.parametrize("argv", [
    ("invert", "--order", "3", "--set", "z=1/0"),
    ("expand", "--family", "ward", "--order", "2", "--set", "x=1/0"),
])
def test_zero_denominator_is_usage_error(capsys, argv):
    assert "zero denominator" in usage_error(capsys, *argv)


@pytest.mark.parametrize("argv, flag", [
    (("invert", "--order", "0"), "--order"),
    (("invert", "--order", "-2"), "--order"),
    (("verify", "--suite", "closed-form-ux", "--n", "0"), "--n"),
    (("verify", "--suite", "closed-form-ux", "--n", "-1"), "--n"),
])
def test_inversion_size_below_1_is_usage_error(capsys, argv, flag):
    assert flag in usage_error(capsys, *argv)


@pytest.mark.parametrize("argv", [
    ("expand", "--family", "ward", "--order", "2", "--set", "t=1"),
    ("invert", "--order", "2", "--set", "t=x"),
    ("expand", "--family", "ward", "--order", "2", "--set", "x=t"),
    ("invert", "--order", "2", "--set", "z=2*t^2 + 1"),
])
def test_set_rejects_series_variable(capsys, argv):
    assert "series variable" in usage_error(capsys, *argv)


@pytest.mark.parametrize("argv, flag", [
    (("verify", "--suite", "thm1.1", "--n", "-1"), "--n"),
    (("verify", "--suite", "appendixB", "--n", "-2"), "--n"),
    (("verify", "--suite", "contraction", "--n", "-1"), "--n"),
    (("expand", "--family", "ward", "--order", "-1"), "--order"),
    (("triangle", "--family", "ward", "--rows", "-1"), "--rows"),
])
def test_negative_size_is_usage_error(capsys, argv, flag):
    assert flag in usage_error(capsys, *argv)


@pytest.mark.parametrize("argv, flag", [
    (("--size", "-1"), "--size"),
    (("--size", "0"), "--size"),
    (("--size", "3", "--rmax", "-1"), "--rmax"),
    (("--size", "3", "--rmax", "0"), "--rmax"),
    (("--size", "3", "--rmax", "4"), "--rmax"),
])
def test_hankel_bad_size_names_its_flag(capsys, argv, flag):
    assert flag in usage_error(capsys, "hankel", "--family", "ward", *argv)


@pytest.mark.parametrize("value", ["-3", "abc", ""])
def test_bad_env_cap_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("WARDCF_MAX_N", value)
    assert "WARDCF_MAX_N" in usage_error(capsys, "verify", "--suite", "thm1.1", "--n", "2")


@pytest.mark.parametrize("value", ["x y", "x+", "-", "x * y"])
def test_malformed_set_value_is_usage_error(capsys, value):
    usage_error(capsys, "expand", "--family", "ward", "--order", "2", "--set", f"x={value}")


@pytest.mark.parametrize("sets, message", [
    (("--set", "x=1", "--set", "x=2"), "binds x twice"),
    (("--set", "x=1", "--set", " x =2"), "binds x twice"),
    (("--set", "=2"), "variable name is missing"),
    (("--set", " =x"), "variable name is missing"),
])
def test_set_names_one_variable_once(capsys, sets, message):
    assert message in usage_error(capsys, "expand", "--family", "ward", "--order", "2", *sets)


@pytest.mark.parametrize("argv", [
    ("expand", "--family", "ward", "--order", "2", "--set", "q=2"),
    ("expand", "--family", "generalized-ward", "--order", "3", "--set", "w=1", "--set", "y=1"),
    ("invert", "--order", "2", "--set", "q=2"),
    ("invert", "--order", "1", "--set", "u=x"),
])
def test_set_on_a_variable_the_output_lacks_is_usage_error(capsys, argv):
    name = argv[-1].split("=")[0]
    assert f"{name} does not occur" in usage_error(capsys, *argv)


@pytest.mark.parametrize("argv", [
    ("expand", "--family", "generalized-ward", "--order", "12", "--set", "w=2/3"),
    ("invert", "--order", "6", "--set", "z=5/7"),
    ("invert", "--order", "8", "--set", "u=x"),
])
def test_set_bindings_of_the_benchmark_jobs_are_accepted(capsys, argv):
    code, out = invoke(capsys, *argv)
    assert code == 0 and out


def test_exponent_limit_is_usage_error(capsys):
    assert "exceeds the limit 32767" in usage_error(
        capsys, "expand", "--family", "ward", "--order", "2", "--set", "x=y^40000")
    # within the limit as parsed, above it once squared
    assert "exponent above 32767" in usage_error(
        capsys, "expand", "--family", "ward", "--order", "2", "--set", "x=y^20000")


def test_size_0_is_accepted(capsys, monkeypatch):
    assert invoke(capsys, "expand", "--family", "ward", "--order", "0") == (0, "1\n")
    assert invoke(capsys, "triangle", "--family", "ward", "--rows", "0") == (0, "1\n")
    code, out = invoke(capsys, "verify", "--suite", "appendixB", "--n", "0")
    assert code == 0 and out.startswith("PASS")
    monkeypatch.setenv("WARDCF_MAX_N", "0")
    code, out = invoke(capsys, "verify", "--suite", "thm1.1", "--n", "2")
    assert code == 0 and "clamped to 0" in out and "PASS" in out


def test_inversion_size_1_is_accepted(capsys):
    code, out = invoke(capsys, "invert", "--order", "1")
    assert (code, out) == (0, "x1 = x + z\n")
    code, out = invoke(capsys, "verify", "--suite", "closed-form-ux", "--n", "1")
    assert code == 0 and out.startswith("PASS")


def test_deterministic_output(capsys):
    first = invoke(capsys, "expand", "--family", "master-T", "--order", "3")
    second = invoke(capsys, "expand", "--family", "master-T", "--order", "3")
    assert first == second


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("argv, golden", [
    (("expand", "--family", "master-T", "--order", "4"), "expand_master-T_order4.txt"),
    (("expand", "--family", "generalized-ward", "--order", "8", "--set", "w=2/3"),
     "expand_generalized-ward_order8_w2-3.txt"),
    (("invert", "--order", "5"), "invert_order5.txt"),
    (("invert", "--order", "6", "--set", "z=3/7"), "invert_order6_z3-7.txt"),
])
def test_output_matches_golden_file(capsys, argv, golden):
    # The files hold the output of the Monomial-keyed kernel, and the z=3/7
    # file that of the kernel that multiplied Fraction coefficients: the
    # canonical text must not drift with the packing, the print order or
    # the common-denominator products.
    code, out = invoke(capsys, *argv)
    assert code == 0
    assert out.encode() == (DATA / golden).read_bytes()


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """The ``$ wardcf ...`` lines of the README's Examples block, each with
    the output lines that follow it."""
    block = README.read_text().split("Examples:", 1)[1].split("```bash\n", 1)[1]
    examples = []
    for line in block.split("```", 1)[0].splitlines():
        if line.startswith("$ wardcf "):
            examples.append((shlex.split(line)[2:], []))
        elif line:
            examples[-1][1].append(line)
    return examples


def test_readme_examples_print_what_they_show(capsys, monkeypatch):
    monkeypatch.delenv("WARDCF_MAX_N", raising=False)
    examples = readme_examples()
    assert len(examples) == 5
    for argv, expected in examples:
        code, out = invoke(capsys, *argv)
        assert (code, out.splitlines()) == (0, expected), argv


def readme_synopsis():
    """verb -> {flag: choices} from the ``{a|b|...}`` groups of the README's
    Command line block."""
    block = README.read_text().split("## Command line", 1)[1].split("```text\n", 1)[1]
    block = block.split("```", 1)[0]
    synopsis = {}
    for entry in block.split("wardcf ")[1:]:
        verb, rest = entry.split(None, 1)
        groups = re.findall(r"(--[\w-]+)\s+\{([^}]*)\}", rest)
        synopsis[verb] = {
            flag: sorted(re.sub(r"\s+", "", choices).split("|")) for flag, choices in groups
        }
    return synopsis


def parser_choices():
    """verb -> {flag: choices} for every option of build_parser() that has
    a fixed set of choices."""
    (verbs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        verb: {
            a.option_strings[0]: sorted(a.choices)
            for a in sub._actions
            if a.choices is not None
        }
        for verb, sub in verbs.choices.items()
    }


def test_readme_synopsis_lists_the_parser_choices():
    synopsis = readme_synopsis()
    assert sorted(synopsis) == ["expand", "hankel", "invert", "triangle", "verify"]
    assert synopsis == parser_choices()
