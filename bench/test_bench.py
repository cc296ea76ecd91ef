"""Tests of the benchmark's own parts: oracle, workloads, tracer.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import layers
import oracle
import run
import tracer
import workloads

SEED = 7
GW6 = ["hankel", "--family", "generalized-ward", "--size", "6"]


def _job(tmp_path, argv, traced=False):
    tmp_path.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(SEED, str(tmp_path))
    out = str(tmp_path / "trace") if traced else None
    try:
        return runner.run_job(argv, out), out
    finally:
        runner.close()


def test_job_rss_excludes_the_harness(tmp_path):
    ballast = b"x" * (64 << 20)  # the harness's own peak must not show
    runner = run.Runner(SEED, str(tmp_path))
    try:
        job = runner.spawn([sys.executable, "-c", "pass"])
    finally:
        runner.close()
    assert job.returncode == 0 and job.rss_mb < 48
    del ballast


# -- evaluator ----------------------------------------------------------------------


@pytest.mark.parametrize("text, expected", [
    ("0", Fraction(0)),
    ("-3/7*x^2", Fraction(-3, 7) * 4),
    ("a[1,2]", Fraction(5)),
    ("w''", Fraction(1, 3)),
    ("a[3]^2*w'' - 2", Fraction(-2, 1) + 9 * Fraction(1, 3)),
    ("15*x^3 + 10*x^2 + x", Fraction(15 * 8 + 10 * 4 + 2)),
    ("-x + 1/2", Fraction(-2) + Fraction(1, 2)),
])
def test_evaluator_reads_canonical_text(text, expected):
    values = {("x", ()): Fraction(2), ("a", (1, 2)): Fraction(5),
              ("a", (3,)): Fraction(3), ("w''", ()): Fraction(1, 3)}
    assert oracle.evaluate(text, lambda name, idx=(): values[(name, idx)]) == expected


def test_evaluator_reports_variables_it_reads():
    seen: set = set()
    oracle.evaluate("2*b[0,1]*x^3 + y", oracle.point(1), seen)
    assert seen == {("b", (0, 1)), ("x", ()), ("y", ())}


@pytest.mark.parametrize("text", ["", "x y", "x+", "x +", "2*3", "x*2", "x^", "a[1,]", "1/0*x", "x ++ y", "- x", "x+y"])
def test_evaluator_rejects_text_outside_the_format(text):
    with pytest.raises(ValueError):
        oracle.evaluate(text, oracle.point(1))


def test_numeric_fraction_matches_known_values():
    # alpha_i = i, delta_i = 0 gives the double factorials (2n-1)!!
    assert oracle.tfraction_series(lambda i: i, lambda i: 0, 5) == [1, 1, 3, 15, 105, 945]
    # the Ward polynomials at x = 1 (the row sums of the Ward triangle)
    alpha, delta = oracle.family("ward", lambda name, idx=(): Fraction(1))
    assert oracle.tfraction_series(alpha, delta, 4) == [1, 1, 4, 26, 236]


def test_lagrange_inversion_inverts():
    # F(t) = t + t^2/2! a_1 + ...; with a_n = 1, F(t) = e^t - 1 and R = log(1+t),
    # so x_m = -(m+1)! [t^(m+1)] log(1+t) = (-1)^(m+1) m!.
    assert oracle.inverse_x([Fraction(1)] * 6, 5) == [1, -2, 6, -24, 120]


# -- oracle verdicts on real and altered outputs --------------------------------------


def test_oracle_accepts_and_rejects_expand(tmp_path):
    argv = ["expand", "--family", "generalized-ward", "--order", "4", "--set", "w=2/3"]
    job, _ = _job(tmp_path, argv)
    assert job.failure is None
    coeffs = job.stdout.strip().split(", ")
    changed = coeffs[3].replace("2*", "3*", 1)
    assert changed != coeffs[3]
    altered = ", ".join(coeffs[:3] + [changed] + coeffs[4:]) + "\n"
    assert "coefficient 3" in oracle.check(argv, 0, altered, SEED)
    assert "coefficients" in oracle.check(argv, 0, ", ".join(coeffs[:-1]) + "\n", SEED)
    unbound = job.stdout.replace("x", "w", 1)
    assert "bound variable" in oracle.check(argv, 0, unbound, SEED)
    assert oracle.check(argv, 1, job.stdout, SEED) == "exit code 1"


def test_oracle_accepts_and_rejects_invert(tmp_path):
    argv = ["invert", "--order", "4", "--set", "u=x"]
    job, _ = _job(tmp_path, argv)
    assert job.failure is None
    lines = job.stdout.splitlines()
    assert lines[0].startswith("x1 = ")
    assert oracle.check(argv, 0, "\n".join(lines[:-1]), SEED) is not None
    renamed = "\n".join(line.replace(" x", " u", 1) for line in lines)
    assert "bound variable" in oracle.check(argv, 0, renamed, SEED)
    assert oracle.check(argv, 0, job.stdout.replace("x1 =", "x1 = 1 +"), SEED) is not None


def test_oracle_checks_verify_lines():
    argv = ["verify", "--suite", "thm1.1", "--n", "7"]
    ok = "PASS: thm1.1: fraction = triangle = trees = matchings for n <= 7\n"
    assert oracle.check(argv, 0, ok, SEED) is None
    clamped = "note: n clamped to 6 by WARDCF_MAX_N\n" + ok.replace("7", "6")
    assert oracle.check(argv, 0, clamped, SEED) is not None
    assert oracle.check(argv, 0, ok.replace("7", "6"), SEED) is not None
    fail = "FAIL: thm1.1: fraction vs triangle at n=3: x vs 2*x\n"
    assert oracle.check(argv, 1, fail, SEED) is not None
    assert oracle.check(argv, 0, fail, SEED) is not None
    other = ok.replace("PASS: thm1.1", "PASS: thm1.2")
    assert oracle.check(argv, 0, other, SEED) is not None


def test_oracle_checks_hankel_reports():
    argv = ["hankel", "--family", "ward", "--size", "8", "--allow-large"]
    ok = {"sequence": "ward", "m": 8, "r_max": 8, "ok": True}
    assert oracle.check(argv, 0, json.dumps(ok), SEED) is None
    for bad in ({"ok": False}, {"m": 7}, {"r_max": 6}, {"sequence": "generalized-ward"}):
        assert oracle.check(argv, 0, json.dumps({**ok, **bad}), SEED) is not None
    assert oracle.check(argv, 0, "not json", SEED) is not None


# -- workloads ---------------------------------------------------------------------


def test_same_seed_same_jobs():
    for w in workloads.WORKLOADS:
        assert workloads.jobs(w, 3) == workloads.jobs(w, 3)
    assert any(workloads.jobs(w, 1) != workloads.jobs(w, 2) for w in workloads.WORKLOADS)
    # without --set bindings the seed only reorders the jobs
    for w in ("enumerate", "hankel"):
        assert sorted(workloads.jobs(w, 1)) == sorted(workloads.jobs(w, 2))


def test_set_values_are_one_digit_rationals():
    for seed in range(20):
        for w in ("expand", "invert"):
            sets = [a[i + 1] for a in workloads.jobs(w, seed) for i, x in enumerate(a)
                    if x == "--set" and a[i + 1] != "u=x"]
            assert len(sets) == 1
            value = Fraction(sets[0].split("=")[1])
            assert 0 < value.numerator <= 9 and value.denominator <= 9


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(run.BENCH_DIR).parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.PER_LAYER
    ]


# -- tracer ------------------------------------------------------------------------


def _traced_counts(tmp_path, argv):
    job, out = _job(tmp_path, argv, traced=True)
    assert job.failure is None
    header, spans = tracer.load(out)
    return header, spans


def test_trace_counts_the_sections_expansions(tmp_path):
    header, spans = _traced_counts(tmp_path, GW6)
    assert header["counters"]["contfrac.expand.calls"] == 11
    assert header["counters"]["hankel.minors_checked"] == sum(
        math.comb(6, r) ** 2 for r in range(1, 7))
    assert header["errors"] == 0
    selfs = tracer.self_times(header, spans)
    assert selfs["hankel.scan"] > 0


def test_trace_counts_repeat(tmp_path):
    argv = ["expand", "--family", "generalized-ward", "--order", "5", "--set", "z=1/2"]
    first, _ = _traced_counts(tmp_path / "a", argv)
    second, _ = _traced_counts(tmp_path / "b", argv)
    assert first["counters"] == second["counters"]
    assert first["counters"]["poly.parse.calls"] >= 1
    assert first["counters"]["poly.format.bytes"] > 0


BINDINGS_CHECK = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import tracer, wardcf
t = tracer.Tracer()
t.install()
traced = set(t.wrapped.values())
from wardcf import cli, hankel, matchings, paths, poly
assert poly.Polynomial.__radd__ is poly.Polynomial.__add__ in traced
assert poly.Polynomial.__rmul__ is poly.Polynomial.__mul__ in traced
assert cli.parse_poly is poly.parse_poly in traced
assert paths.star is matchings.star in traced
assert cli._HANKEL_SEQS["ward"] is hankel.ward_sequence in traced
missed = [
    (mod.__name__, name)
    for mod in [wardcf] + [sys.modules["wardcf." + m] for m in tracer.MODULES]
    for name, obj in vars(mod).items()
    if tracer._is_function(obj) and not name.startswith("_")
    and obj.__module__.startswith("wardcf") and obj not in traced
]
assert not missed, missed
"""


def test_tracer_rebinds_every_alias():
    code = BINDINGS_CHECK.format(src=str(run.SRC_DIR), bench=str(run.BENCH_DIR))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
