import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wardcf
from wardcf.contfrac import (
    JCoeffs,
    TCoeffs,
    contract_T_to_J,
    euler_identity_check,
    expand_J,
    expand_S,
    expand_T,
    named_family,
)
from wardcf.poly import Polynomial, Series, var

x = var("x")
y = var("y")
u = var("u")
v = var("v")
z = var("z")
w = var("w")

ZERO = lambda i: Polynomial.zero()
CONST = lambda c: (lambda i: Polynomial.const(c))


def test_expand_T_ward_prefix():
    s = expand_T(named_family("ward"), 3)
    assert s.coefficient(0) == 1
    assert s.coefficient(1) == x
    assert s.coefficient(2) == x + 3 * x**2
    assert s.coefficient(3) == x + 10 * x**2 + 15 * x**3


def test_expand_T_zero_coeffs():
    assert expand_T(TCoeffs(ZERO, ZERO), 4) == Series.one(4)


def test_expand_T_semifactorial():
    s = expand_T(named_family("semifactorial"), 4)
    assert [s.coefficient(n) for n in range(5)] == [1, 1, 3, 15, 105]


def test_expand_S_four_variable_matching_weights():
    def alpha(i):
        if i % 2 == 1:
            return x + (i - 1) * u
        return y + (i - 1) * v

    s = expand_S(alpha, 2)
    assert s.coefficient(0) == 1
    assert s.coefficient(1) == x
    assert s.coefficient(2) == x * y + x * v + x**2


def test_expand_S_catalan():
    s = expand_S(CONST(1), 4)
    assert [s.coefficient(n) for n in range(5)] == [1, 1, 2, 5, 14]
    assert expand_S(ZERO, 3) == Series.one(3)


def test_expand_J_semifactorial_contraction_by_hand():
    # gamma = 0, beta_i = i interleaves odd semifactorials with zeros.
    s = expand_J(ZERO, lambda i: Polynomial.const(i), 6)
    assert [s.coefficient(n) for n in range(7)] == [1, 0, 1, 0, 3, 0, 15]


def test_expand_J_geometric():
    c = Polynomial.const(7)
    s = expand_J(lambda i: c, ZERO, 4)
    assert [s.coefficient(n) for n in range(5)] == [1, 7, 49, 343, 2401]


def test_expand_J_matches_contracted_T():
    # Ward T-fraction restricted so even deltas vanish.
    alpha = lambda i: Polynomial.const(i)
    delta = lambda i: (i - 1) * x if i % 2 == 1 else Polynomial.zero()
    seq = TCoeffs(alpha, delta)
    j = contract_T_to_J(seq)
    assert expand_J(j.gamma, j.beta, 6) == expand_T(seq, 6)


def test_contract_formulas():
    seq = TCoeffs(lambda i: Polynomial.const(i), ZERO)
    j = contract_T_to_J(seq)
    assert j.gamma(0) == 1
    for n in range(1, 5):
        assert j.gamma(n) == 4 * n + 1
        assert j.beta(n) == (2 * n - 1) * (2 * n)
    assert expand_J(j.gamma, j.beta, 8) == expand_S(lambda i: Polynomial.const(i), 8)

    zeroed = contract_T_to_J(TCoeffs(ZERO, ZERO))
    assert zeroed.gamma(0) == 0 and zeroed.gamma(3) == 0 and zeroed.beta(2) == 0


def test_contract_odd_delta_family():
    alpha = lambda i: x
    delta = lambda i: z if i % 2 == 1 else Polynomial.zero()
    seq = TCoeffs(alpha, delta)
    j = contract_T_to_J(seq)
    assert j.gamma(0) == x + z
    for n in range(1, 5):
        assert j.gamma(n) == 2 * x + z
        assert j.beta(n) == x**2
    assert expand_J(j.gamma, j.beta, 8) == expand_T(seq, 8)


def test_contract_rejects_nonzero_even_delta():
    seq = TCoeffs(lambda i: Polynomial.const(i), lambda i: Polynomial.const(i - 1))
    j = contract_T_to_J(seq)
    with pytest.raises(ValueError):
        j.gamma(1)


def test_euler_identity():
    assert euler_identity_check(lambda i: Polynomial.const(i), 8)  # sum n! t^n
    assert euler_identity_check(ZERO, 5)
    assert euler_identity_check(lambda i: x**i, 6)


def prefix(series, order):
    """The coefficients of t^0..t^order of series."""
    return series.coeffs[: order + 1]


def test_depth_stability():
    # Three levels deeper change no coefficient up to the order; master-T
    # stops at order 3, since its expansion grows steeply past order 6.
    for name in ["ward", "generalized-ward", "eulerian2-reversed", "master-T"]:
        seq = named_family(name)
        for order in ((2, 3) if name == "master-T" else (3, 5)):
            assert expand_T(seq, order).coeffs == prefix(expand_T(seq, order + 3), order)
    alpha = lambda i: Polynomial.const(i)
    assert expand_S(alpha, 5).coeffs == prefix(expand_S(alpha, 8), 5)
    beta = lambda i: Polynomial.const(i)
    assert expand_J(ZERO, beta, 5).coeffs == prefix(expand_J(ZERO, beta, 8), 5)


def test_default_depth_reads_no_coefficient_past_the_order():
    # f_order enters f_0 only through its constant term 1, so an expansion
    # to order n reads alpha and delta at indices 1..n alone.
    def upto(n, weight):
        def coeff(i):
            if i > n:
                raise AssertionError(f"index {i} read at order {n}")
            return weight(i)

        return coeff

    a, d = (lambda i: var("a", i)), (lambda i: var("d", i))
    for n in range(7):
        deep = prefix(expand_T(TCoeffs(a, d), n + 2), n)
        assert expand_T(TCoeffs(upto(n, a), upto(n, d)), n).coeffs == deep
        assert expand_S(upto(n, a), n).coeffs == prefix(expand_S(a, n + 2), n)


def test_low_orders_match_hand_expansions():
    a1, a2, d1, d2 = var("a", 1), var("a", 2), var("d", 1), var("d", 2)
    c0, b1 = var("c", 0), var("b", 1)
    t_seq = TCoeffs(lambda i: var("a", i), lambda i: var("d", i))
    # 1 / (1 - d1 t - a1 t (1 + (d2 + a2) t + ...))
    t2 = [Polynomial.one(), d1 + a1, (d1 + a1) ** 2 + a1 * (d2 + a2)]
    # 1 / (1 - c0 t - b1 t^2 (1 + c1 t + ...))
    j2 = [Polynomial.one(), c0, c0**2 + b1]
    for order in (1, 2):
        assert expand_T(t_seq, order) == Series(order, t2[: order + 1])
        assert expand_S(t_seq.alpha, order) == Series(order, [1, a1, a1**2 + a1 * a2][: order + 1])
        j_frac = expand_J(lambda i: var("c", i), lambda i: var("b", i), order)
        assert j_frac == Series(order, j2[: order + 1])


def test_T_with_zero_delta_equals_S():
    for order in range(0, 9):
        seq = named_family("semifactorial")
        assert expand_T(seq, order) == expand_S(seq.alpha, order)


def test_reversal_duality_ward():
    # Coefficients of the reversed family are the degree-n reversals of the
    # plain family's coefficients.
    n_max = 6
    plain = expand_T(named_family("ward"), n_max)
    reversed_ = expand_T(named_family("ward-reversed"), n_max)
    from wardcf.poly import VarId

    for n in range(n_max + 1):
        assert reversed_.coefficient(n) == plain.coefficient(n).reversed_in(VarId("x"), n)


def test_negative_order_is_an_error():
    # No truncation has a negative order; it must not read as order 0.
    with pytest.raises(ValueError, match="order must be at least 0, got -1"):
        expand_T(named_family("ward"), -1)
    with pytest.raises(ValueError, match="got -1"):
        expand_S(CONST(1), -1)
    with pytest.raises(ValueError, match="got -2"):
        expand_J(ZERO, CONST(1), -2)


# Each linear family as the paper states it, written out by hand.
STATED = {
    "ward": (lambda i: i * x, lambda i: Polynomial.const(i - 1)),
    "ward-reversed": (lambda i: Polynomial.const(i), lambda i: (i - 1) * x),
    "generalized-ward": (lambda i: x + (i - 1) * u, lambda i: z + (i - 1) * w),
    "semifactorial": (lambda i: Polynomial.const(i), ZERO),
    "eulerian2-reversed": (lambda i: Polynomial.const(i), lambda i: (i - 1) * (x - 1)),
}


@pytest.mark.parametrize("name", sorted(STATED))
def test_linear_families_have_their_stated_coefficients(name):
    alpha, delta = STATED[name]
    seq = named_family(name)
    for i in range(1, 8):
        a, d = seq.alpha(i), seq.delta(i)
        assert isinstance(a, Polynomial) and isinstance(d, Polynomial)
        assert (a, d) == (alpha(i), delta(i)), i


def test_master_T_prefix():
    s = expand_T(named_family("master-T"), 1)
    a0, b00, g00 = var("a", 0), var("b", 0, 0), var("g", 0, 0)
    assert s.coefficient(1) == a0 * b00 + g00


SRC = Path(wardcf.__file__).parents[1]
TRACED_PEAK = """
import tracemalloc
from wardcf.contfrac import expand_T, named_family
{warm}
tracemalloc.start()
{work}
print(tracemalloc.get_traced_memory()[1])
{report}
"""


def _traced_peak(warm, work, report=""):
    """The traced peak of the statements ``work`` after ``warm``, and the
    lines that ``report`` prints after it, from a fresh interpreter.
    Variable slots are process-wide: after other tests have registered
    their variables, master-T's keys would be longer ints."""
    script = TRACED_PEAK.format(warm=warm, work=work, report=report)
    done = subprocess.run([sys.executable, "-c", script], cwd=SRC, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    peak, *printed = done.stdout.splitlines()
    return int(peak), printed


def test_master_T_expansion_memory_holds_one_level():
    # The ladder holds one level and the reciprocal cleans its accumulator
    # in place: once the process is warm, expand_T of master-T to order 5
    # peaks at 0.77 MB traced, and at 1.22 MB when each level kept the
    # level below and built the body and each coefficient twice (Python
    # 3.11).  The result itself holds 0.40 MB.
    peak, printed = _traced_peak(
        'expand_T(named_family("master-T"), 5)',
        'series = expand_T(named_family("master-T"), 5)',
        "print([len(c.terms) for c in series.coeffs])",
    )
    assert printed == ["[1, 2, 8, 45, 327, 2934]"]
    assert peak < 1.0e6, peak


def test_master_T_text_memory_holds_one_degree_class():
    # The canonical text sorts one degree class at a time: str() over the
    # order-5 master-T coefficients peaks at 0.74 MB traced, and at 1.14 MB
    # when every key's sort row was held at once (Python 3.11).
    peak, _ = _traced_peak(
        'coeffs = expand_T(named_family("master-T"), 5).coeffs\n[str(c) for c in coeffs]',
        "for c in coeffs:\n    str(c)",
    )
    assert peak < 0.95e6, peak
