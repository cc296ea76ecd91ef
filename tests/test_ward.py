import math

import pytest

from wardcf.contfrac import expand_T, named_family
from wardcf.eulerian import enumerate_stirling_perms, eulerian2_triangle
from wardcf.matchings import (
    count_augmented,
    count_Mprime,
    enumerate_matchings,
    generalized_ward_oracle,
    poly_12var,
    poly_18var,
)
from wardcf.paths import (
    enumerate_dyck,
    enumerate_labeled_schroeder2,
    enumerate_motzkin,
    enumerate_schroeder2,
)
from wardcf.poly import Fraction, Polynomial, VarId, parse_poly, var
from wardcf.trees import count_assoc_stirling, enumerate_phylo, multivariate_ward
from wardcf.ward import (
    _egf,
    _explicit_inverse_series,
    check_closed_form_u_eq_x,
    check_cor_B2,
    check_cor_B3,
    check_cor_B4,
    check_prop_B1,
    closed_form_u_eq_x,
    generalized_ward_cf,
    invert_generalized_ward,
    invert_sequence,
    multivariate_ward_via_inversion,
    ward_poly,
    ward_reversed,
    ward_triangle,
)

x, u, z, w = var("x"), var("u"), var("z"), var("w")


def double_factorial(m):
    return math.prod(range(m, 0, -2)) if m > 0 else 1


TRIANGLE_8 = [
    [1],
    [0, 1],
    [0, 1, 3],
    [0, 1, 10, 15],
    [0, 1, 25, 105, 105],
    [0, 1, 56, 490, 1260, 945],
    [0, 1, 119, 1918, 9450, 17325, 10395],
    [0, 1, 246, 6825, 56980, 190575, 270270, 135135],
    [0, 1, 501, 22935, 302995, 1636635, 4099095, 4729725, 2027025],
]


def test_ward_triangle_values():
    tri = ward_triangle(8)
    assert tri == TRIANGLE_8
    assert tri[8][8] == 2027025
    sums = [sum(row) for row in tri]
    assert sums == [1, 1, 4, 26, 236, 2752, 39208, 660032, 12818912]


def test_ward_triangle_edge_columns():
    tri = ward_triangle(9)
    for n in range(1, 10):
        assert tri[n][0] == 0
        assert tri[n][1] == 1
        if n >= 2:
            assert tri[n][2] == 2 ** (n + 1) - n - 3
        assert tri[n][n] == double_factorial(2 * n - 1)


def test_ward_poly_and_reversed():
    assert ward_poly(3) == x + 10 * x**2 + 15 * x**3
    assert ward_reversed(0) == Polynomial.one()
    for n in range(7):
        rev = ward_reversed(n)
        assert rev.substitute({VarId("x"): -1}) == math.factorial(n)
        assert rev.substitute({VarId("x"): 0}) == double_factorial(2 * n - 1)


def test_ward_polys_match_tfraction():
    s = expand_T(named_family("ward"), 8)
    for n in range(9):
        assert s.coefficient(n) == ward_poly(n)


def test_generalized_ward_prefix_and_specializations():
    ws = generalized_ward_cf(6)
    assert ws[0] == Polynomial.one()
    assert ws[1] == x + z
    for n, p in enumerate(ws):
        assert all(isinstance(c, int) for _, c in p.items())  # integer coefficients
        # homogeneity of degree n in (x,u,z,w)
        lam = var("lam")
        scaled = p.substitute(
            {VarId("x"): lam * x, VarId("u"): lam * u, VarId("z"): lam * z, VarId("w"): lam * w}
        )
        assert scaled == lam**n * p
    subs_ward = {VarId("u"): x, VarId("z"): Polynomial.zero(), VarId("w"): Polynomial.one()}
    subs_rev = {
        VarId("x"): Polynomial.one(),
        VarId("u"): Polynomial.one(),
        VarId("z"): Polynomial.zero(),
        VarId("w"): x,
    }
    for n in range(7):
        assert ws[n].substitute(subs_ward) == ward_poly(n)
        assert ws[n].substitute(subs_rev) == ward_reversed(n)


def test_appendix_recurrence_checks():
    ws = generalized_ward_cf(8)
    checks = (check_prop_B1, check_cor_B2, check_cor_B3, check_cor_B4)
    assert all(check(ws) for check in checks)
    # each check reads the polynomials it is given, W_0 included
    for wrong in (ws[:2] + [ws[2] + 1] + ws[3:], [ws[0] + 1] + ws[1:]):
        assert not any(check(wrong) for check in checks)


def test_triple_agreement_fraction_oracle_recurrence():
    # The fraction coefficients, the decorated-matching sums, and the
    # unrolled differential recurrence must coincide as canonical values.
    from wardcf.matchings import generalized_ward_oracle

    ws = generalized_ward_cf(5)
    merge = {VarId("w'"): var("w"), VarId("w''"): Polynomial.zero()}
    unrolled = [Polynomial.one()]
    for n in range(1, 6):
        prev = unrolled[n - 1]
        unrolled.append(
            (z + n * u) * prev
            + (u + w) * (u * prev.deriv(VarId("u")) + x * prev.deriv(VarId("x")))
            + (x - u) * Polynomial.sum(unrolled[j] * unrolled[n - 1 - j] for j in range(n))
        )
    for n in range(6):
        assert ws[n] == unrolled[n]
        assert ws[n] == generalized_ward_oracle(n).substitute(merge)


def test_specialization_fixture_z1_w0():
    # Frozen values of the z=1, w=0 specialization (computed here once and
    # pinned); the leading coefficients are the odd semifactorials.
    fixtures = [
        "1",
        "x + 1",
        "3*x^2 + 3*x + 1",
        "15*x^3 + 15*x^2 + 6*x + 1",
        "105*x^4 + 105*x^3 + 45*x^2 + 10*x + 1",
        "945*x^5 + 945*x^4 + 420*x^3 + 105*x^2 + 15*x + 1",
    ]
    sub = {VarId("u"): x, VarId("z"): Polynomial.one(), VarId("w"): Polynomial.zero()}
    for n, p in enumerate(generalized_ward_cf(5)):
        assert str(p.substitute(sub)) == fixtures[n]


def test_invert_sequence_identity_on_tree_polys():
    # Inverting the tree polynomials themselves recovers the plain variables.
    trees = multivariate_ward_via_inversion(4)
    assert trees[0] == Polynomial.one()
    assert trees[2] == 3 * var("x", 1) ** 2 + var("x", 2)
    xs = invert_sequence(trees, 4)
    assert xs == [var("x", i) for i in range(1, 5)]


def test_invert_sequence_generic():
    a = [Polynomial.one()] + [var("a", i) for i in range(1, 5)]
    xs = invert_sequence(a, 4)
    a1, a2, a3, a4 = (var("a", i) for i in range(1, 5))
    assert xs[0] == a1
    assert xs[1] == -3 * a1**2 + a2
    assert xs[2] == 15 * a1**3 - 10 * a1 * a2 + a3
    assert xs[3] == -105 * a1**4 + 105 * a1**2 * a2 - 15 * a1 * a3 - 10 * a2**2 + a4


def test_invert_sequence_sign_law():
    # -x_n equals the tree polynomial evaluated at negated sequence values.
    a = [Polynomial.one()] + [var("a", i) for i in range(1, 6)]
    xs = invert_sequence(a, 5)
    trees = multivariate_ward_via_inversion(5)
    neg = {VarId("x", i): -var("a", i) for i in range(1, 6)}
    for n in range(1, 6):
        assert -xs[n - 1] == trees[n].substitute(neg)


def test_invert_sequence_preconditions():
    with pytest.raises(ValueError):
        invert_sequence([var("a", 0)], 0)
    with pytest.raises(ValueError):
        invert_sequence([Polynomial.one()], 3)
    with pytest.raises(ValueError, match="nonnegative"):
        invert_sequence([Polynomial.one()] * 3, -2)
    assert invert_sequence([Polynomial.one()], 0) == []


def test_invert_generalized_ward_first_three():
    xs = invert_generalized_ward(3)
    assert xs[0] == x + z
    assert xs[1] == u * x + w * x - x**2 - 3 * x * z - 2 * z**2
    assert xs[2] == parse_poly(
        "3*u^2*x + 4*u*w*x - 3*u*x^2 - 5*u*x*z + w^2*x - 4*w*x^2"
        " - 6*w*x*z + 5*x^2*z + 11*x*z^2 + 6*z^3"
    )


def test_closed_form_u_eq_x_values():
    assert closed_form_u_eq_x(1) == x + z
    # z=0, w=1 turns every coefficient into x
    sub = {VarId("z"): Polynomial.zero(), VarId("w"): Polynomial.one()}
    for m in range(1, 6):
        assert closed_form_u_eq_x(m).substitute(sub) == x


def test_check_closed_form_u_eq_x():
    assert check_closed_form_u_eq_x(6)


def test_explicit_inverse_series_is_the_closed_form_egf():
    # The binomial expansion of (1+zt)^(w/z) and the closed forms x_m are
    # separate computations of the same inverse R(t) = t - sum x_m t^(m+1)/(m+1)!.
    for m in range(1, 7):
        closed = [Polynomial.one()] + [-closed_form_u_eq_x(j) for j in range(1, m + 1)]
        assert _explicit_inverse_series(m + 1) == _egf(closed)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: ward_triangle(-1), id="ward_triangle(-1)"),
    pytest.param(lambda: ward_poly(-1), id="ward_poly(-1)"),
    pytest.param(lambda: ward_poly(-3), id="ward_poly(-3)"),
    pytest.param(lambda: eulerian2_triangle(-1), id="eulerian2_triangle(-1)"),
    pytest.param(lambda: list(enumerate_stirling_perms(-1)), id="enumerate_stirling_perms(-1)"),
    pytest.param(lambda: count_assoc_stirling(-1, 0), id="count_assoc_stirling(-1, 0)"),
    pytest.param(lambda: multivariate_ward(-1), id="multivariate_ward(-1)"),
    pytest.param(lambda: multivariate_ward_via_inversion(-1),
                 id="multivariate_ward_via_inversion(-1)"),
    pytest.param(lambda: check_closed_form_u_eq_x(0), id="check_closed_form_u_eq_x(0)"),
    pytest.param(lambda: list(enumerate_phylo(-1, 0)), id="enumerate_phylo(-1, 0)"),
    pytest.param(lambda: list(enumerate_motzkin(-1)), id="enumerate_motzkin(-1)"),
    pytest.param(lambda: list(enumerate_dyck(-2)), id="enumerate_dyck(-2)"),
    pytest.param(lambda: list(enumerate_schroeder2(-2)), id="enumerate_schroeder2(-2)"),
    pytest.param(lambda: list(enumerate_labeled_schroeder2(-2)),
                 id="enumerate_labeled_schroeder2(-2)"),
    pytest.param(lambda: list(enumerate_matchings(-1)), id="enumerate_matchings(-1)"),
    pytest.param(lambda: poly_18var(-1), id="poly_18var(-1)"),
    pytest.param(lambda: poly_12var(-1), id="poly_12var(-1)"),
    pytest.param(lambda: generalized_ward_oracle(-1), id="generalized_ward_oracle(-1)"),
    pytest.param(lambda: count_Mprime(-1, 0), id="count_Mprime(-1, 0)"),
    pytest.param(lambda: count_augmented(-1, -1), id="count_augmented(-1, -1)"),
    pytest.param(lambda: closed_form_u_eq_x(0), id="closed_form_u_eq_x(0)"),
    pytest.param(lambda: closed_form_u_eq_x(-1), id="closed_form_u_eq_x(-1)"),
])
def test_size_below_range_is_an_error(call):
    # A size below the least one must not read as an empty or one-entry
    # answer, nor fail deep inside with IndexError or RecursionError.
    with pytest.raises(ValueError, match="at least|nonnegative"):
        call()
