import ast
import operator
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardcf.hankel import hankel_section
from wardcf.matchings import IndexedWeights, parse_matching, super_weight
from wardcf.poly import (
    MAX_EXPONENT,
    Monomial,
    Polynomial,
    Series,
    VarId,
    _PRINT_BLOCK,
    parse_poly,
    var,
)
from wardcf.ward import invert_sequence

x = var("x")
y = var("y")
z = var("z")


# -- strategies -------------------------------------------------------------

VARS = [VarId("x"), VarId("y"), VarId("z"), VarId("a", 1), VarId("b", 2, 1)]


@st.composite
def polynomials(draw, max_terms=4, max_exp=3):
    n = draw(st.integers(0, max_terms))
    p = Polynomial.zero()
    for _ in range(n):
        c = draw(st.integers(-5, 5))
        exps = {}
        for v in draw(st.lists(st.sampled_from(VARS), max_size=3)):
            exps[v] = exps.get(v, 0) + draw(st.integers(1, max_exp))
        p = p + Polynomial({Monomial(exps.items()): c})
    return p


# -- VarId / Monomial ordering ------------------------------------------------


def test_varid_order_and_str():
    assert VarId("a") < VarId("a", 3) < VarId("b", 2, 1) < VarId("x")
    assert str(VarId("b", 2, 1)) == "b[2,1]"
    assert str(VarId("x")) == "x"


def test_monomial_graded_lex():
    mk = lambda **kw: Monomial((VarId(k), e) for k, e in kw.items())
    assert mk(x=1) < mk(x=2)
    assert mk(y=3) < mk(x=1, y=3)
    # same degree: earlier variable with larger exponent wins
    assert mk(x=1, y=1) < mk(x=2)
    assert mk(y=2) < mk(x=1, y=1)


# -- arithmetic identities ------------------------------------------------------


def test_add_identity_and_cancellation():
    p = x + 3 * x**2
    assert p + Polynomial.zero() == p
    assert x + (-x) == Polynomial.zero()
    assert (x + z) + (x - z) == 2 * x


def test_mul_examples():
    assert (x + z) * Polynomial.one() == x + z
    assert (x + z) ** 2 == x**2 + 2 * x * z + z**2
    assert (1 - x) * (1 + x + x**2 + x**3) == 1 - x**4


def test_substitute_examples():
    w2 = x + 3 * x**2
    assert w2.substitute({VarId("x"): 1}) == 4  # Ward row-2 sum
    p = x * y + z
    assert p.substitute({}) == p
    assert (x * y).substitute({VarId("x"): y}) == y**2


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == Polynomial.zero()


@given(polynomials(), polynomials())
@settings(max_examples=40, deadline=None)
def test_substitute_is_homomorphism(p, q):
    bindings = {VarId("x"): y + 1, VarId("y"): z * z - 2}
    lhs = (p * q).substitute(bindings)
    rhs = p.substitute(bindings) * q.substitute(bindings)
    assert lhs == rhs
    assert (p + q).substitute(bindings) == p.substitute(bindings) + q.substitute(bindings)


@pytest.mark.parametrize("terms", [3, 0, [1, 2], "x", Fraction(1, 2), x])
def test_terms_must_be_a_mapping(terms):
    with pytest.raises(TypeError, match=f"terms must be a mapping .* not {type(terms).__name__}"):
        Polynomial(terms)


def test_no_terms_is_zero():
    assert Polynomial() == Polynomial(None) == Polynomial({}) == Polynomial.zero() == 0


@pytest.mark.parametrize("value", [0.5, 2.5, 1.0, 0.0, "2", None])
def test_terms_take_only_exact_values(value):
    kind = type(value).__name__
    with pytest.raises(TypeError, match=f"coefficient must be int or Fraction, not {kind}"):
        Polynomial({Monomial(((VarId("x"), 1),)): value})
    with pytest.raises(TypeError, match=f"coefficient must be int or Fraction, not {kind}"):
        Polynomial.const(value)
    with pytest.raises(TypeError, match=f"monomial exponent must be int, not {kind}"):
        Monomial(((VarId("x"), value),))


def test_inexact_values_raise_outside_the_operators():
    with pytest.raises(TypeError, match="polynomial value must be .*, not float"):
        Series(2, [1, 0.5, 0])
    with pytest.raises(TypeError, match="not float"):
        Series.one(2).scale(0.5)
    with pytest.raises(TypeError, match="not float"):
        x.substitute({VarId("x"): 0.5})
    with pytest.raises(TypeError, match="not float"):
        hankel_section(lambda n: 0.5, 1)
    with pytest.raises(TypeError, match="not str"):
        invert_sequence([1, "x"], 1)
    # The operators still hand an unknown operand back to Python.
    for op in (x.__add__, x.__sub__, x.__rsub__, x.__mul__):
        assert op(0.5) is NotImplemented
    with pytest.raises(TypeError, match="for -: 'float' and 'Polynomial'"):
        0.5 - x


def test_deriv_and_coefficient_of():
    p = 3 * x**2 * y + x * y - 5
    assert p.deriv(VarId("x")) == 6 * x * y + y
    assert p.coefficient_of(VarId("x"), 1) == y
    assert p.coefficient_of(VarId("x"), 0) == Polynomial.const(-5)
    assert p.coefficient_of(VarId("x"), -1) == Polynomial.zero()


def test_div_var():
    p = x * z + x**2
    assert p.div_var(VarId("x")) == z + x
    with pytest.raises(ValueError):
        (x + 1).div_var(VarId("x"))


def test_reversed_in():
    p = 1 + 10 * x + 15 * x**2
    assert p.reversed_in(VarId("x"), 3) == x**3 + 10 * x**2 + 15 * x


# -- text format --------------------------------------------------------------


def test_canonical_text_format():
    assert str(3 * x**2 + x) == "3*x^2 + x"
    assert str(Polynomial.zero()) == "0"
    assert str(x - z) == "x - z"
    assert str(-x + 1) == "-x + 1"
    assert str(Polynomial.const(Fraction(1, 2)) * x) == "1/2*x"
    assert str(var("b", 2, 1) ** 2 * 3) == "3*b[2,1]^2"


def test_parse_round_trip_fixed():
    for text in ["3*x^2 + x", "0", "x - z", "-x + 1", "1/2*x", "3*b[2,1]^2", "a[3]*x^2 - 7"]:
        assert str(parse_poly(text)) == text


@given(polynomials())
@settings(max_examples=80, deadline=None)
def test_parse_round_trip_random(p):
    assert parse_poly(str(p)) == p


# -- series -------------------------------------------------------------------


def geometric(order):
    return Series(order, [Polynomial.one()] * (order + 1))


def test_series_mul_examples():
    one_plus_t = Series(2, [1, 1, 0])
    one_minus_t = Series(2, [1, -1, 0])
    assert one_plus_t * one_minus_t == Series(2, [1, 0, -1])
    s = Series(3, [1, 1, 2, 6])
    assert s * Series.one(3) == s


def test_series_order_mismatch_is_error():
    with pytest.raises(ValueError):
        Series.one(2) * Series.one(3)
    with pytest.raises(ValueError):
        Series.one(2) + Series.one(3)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
@pytest.mark.parametrize("other", [2, Fraction(1, 2), x])
def test_series_operators_reject_other_operands(op, other):
    s = Series(1, [1, x])
    with pytest.raises(TypeError, match="unsupported operand"):
        op(s, other)
    with pytest.raises(TypeError, match="unsupported operand"):
        op(other, s)


@pytest.mark.parametrize("other", [2, Fraction(1, 2), x])
def test_compose_rejects_other_operands(other):
    kind = type(other).__name__
    with pytest.raises(TypeError, match=f"composition operand must be Series, not {kind}$"):
        Series(1, [0, 1]).compose(other)


def test_series_rejects_a_negative_order():
    with pytest.raises(ValueError, match="series order must be at least 0, got -1"):
        Series(-1, [])
    with pytest.raises(ValueError, match="got -2"):
        Series.zero(-2)


def test_series_rejects_t_in_coefficients():
    with pytest.raises(ValueError):
        Series(1, [var("t"), Polynomial.zero()])


def test_reciprocal_geometric():
    one_minus_t = Series(3, [1, -1, 0, 0])
    assert one_minus_t.reciprocal() == geometric(3)
    assert Series.one(3).reciprocal() == Series.one(3)


def test_reciprocal_with_symbol():
    # 1/(1 - x t - t) at order 2, verified by multiplying back
    s = Series(2, [Polynomial.one(), -(x + 1), Polynomial.zero()])
    r = s.reciprocal()
    assert r == Series(2, [1, 1 + x, (1 + x) ** 2])
    assert s * r == Series.one(2)


@given(polynomials(max_terms=2, max_exp=2), polynomials(max_terms=2, max_exp=2))
@settings(max_examples=30, deadline=None)
def test_reciprocal_roundtrip(p, q):
    s = Series(4, [Polynomial.one(), p, q, Polynomial.zero(), p * q])
    assert s * s.reciprocal() == Series.one(4)


def test_compositional_inverse_examples():
    assert Series.t(3).compositional_inverse() == Series.t(3)
    s = Series(3, [0, 1, -1, 0])  # t - t^2
    inv = s.compositional_inverse()
    assert inv == Series(3, [0, 1, 1, 2])
    assert s.compose(inv) == Series.t(3)
    assert inv.compose(s) == Series.t(3)


def test_compositional_inverse_egf_case():
    # inverse of t - x1 t^2/2! - x2 t^3/3! - x3 t^4/4!
    x1, x2, x3 = var("x", 1), var("x", 2), var("x", 3)
    s = Series(
        4,
        [
            Polynomial.zero(),
            Polynomial.one(),
            -x1 * Fraction(1, 2),
            -x2 * Fraction(1, 6),
            -x3 * Fraction(1, 24),
        ],
    )
    inv = s.compositional_inverse()
    assert inv.coefficient(2) == x1 * Fraction(1, 2)
    assert inv.coefficient(3) == (3 * x1**2 + x2) * Fraction(1, 6)
    assert inv.coefficient(4) == (15 * x1**3 + 10 * x1 * x2 + x3) * Fraction(1, 24)


@given(polynomials(max_terms=2, max_exp=2), polynomials(max_terms=2, max_exp=2))
@settings(max_examples=30, deadline=None)
def test_compositional_inverse_roundtrip(p, q):
    s = Series(4, [Polynomial.zero(), Polynomial.one(), p, q, p + q])
    inv = s.compositional_inverse()
    assert s.compose(inv) == Series.t(4)
    assert inv.compose(s) == Series.t(4)


def ladder_inverse(s):
    """Reference inverse: solve degree by degree, one composition per degree."""
    inv = [Polynomial.zero()] * (s.order + 1)
    if s.order >= 1:
        inv[1] = Polynomial.one()
    for n in range(2, s.order + 1):
        inv[n] = -s.compose(Series(s.order, inv)).coeffs[n]
    return Series(s.order, inv)


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def invertible_series(draw, coeffs):
    order = draw(st.integers(0, 6))
    tail = [draw(coeffs) for _ in range(order - 1)]
    return Series(order, ([0, 1] + tail)[: order + 1])


@given(st.one_of(
    invertible_series(small_fractions),
    invertible_series(polynomials(max_terms=2, max_exp=1)),
))
@settings(max_examples=60, deadline=None)
def test_compositional_inverse_matches_ladder(s):
    assert s.compositional_inverse() == ladder_inverse(s)


def test_compositional_inverse_low_orders():
    assert Series(0, [0]).compositional_inverse() == Series.zero(0)
    assert Series(1, [0, 1]).compositional_inverse() == Series.t(1)


def test_compositional_inverse_errors():
    with pytest.raises(ValueError, match="^inverse needs zero constant term$"):
        Series(3, [1, 1, 0, 0]).compositional_inverse()
    with pytest.raises(ValueError, match="^inverse needs zero constant term$"):
        Series(0, [x]).compositional_inverse()
    with pytest.raises(ValueError, match="^inverse needs t-coefficient 1$"):
        Series(3, [0, 2, 0, 0]).compositional_inverse()
    with pytest.raises(ValueError, match="^inverse needs t-coefficient 1$"):
        Series(1, [0, x]).compositional_inverse()


# -- the fused multiply-accumulate kernel ------------------------------------------------
#
# Series products and reciprocals add each coefficient product straight into
# their accumulators.  The references below make every product as a dict of
# its own, keyed by Monomial, and then add it in with accumulate.


def accumulate(target, terms):
    """Add the rational terms of a dict into the dict target."""
    for m, c in terms.items():
        target[m] = target.get(m, 0) + c


def product_terms(p, q):
    """p * q as a dict keyed by Monomial, built without packed keys."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = dict(m1.exps)
            for v, e in m2.exps:
                exps[v] = exps.get(v, 0) + e
            m = Monomial(exps.items())
            out[m] = out.get(m, 0) + c1 * c2
    return out


def unfused_mul(s, r):
    n = s.order
    acc = [{} for _ in range(n + 1)]
    for i, a in enumerate(s.coeffs):
        for j, b in enumerate(r.coeffs[: n + 1 - i]):
            accumulate(acc[i + j], product_terms(a, b))
    return Series(n, [Polynomial(d) for d in acc])


def unfused_reciprocal(s):
    out = [Polynomial.one()]
    for n in range(1, s.order + 1):
        acc = {}
        for j in range(1, n + 1):
            accumulate(acc, product_terms(s.coeffs[j], out[n - j]))
        out.append(Polynomial({m: -c for m, c in acc.items()}))
    return Series(s.order, out)


def unfused_compose(s, inner):
    result = Series.zero(s.order)
    for c in reversed(s.coeffs):
        result = unfused_mul(result, inner)
        result = Series(s.order, (result.coeffs[0] + c,) + result.coeffs[1:])
    return result


def unfused_inverse(s):
    n = s.order
    if n == 0:
        return Series.zero(0)
    h = unfused_reciprocal(Series(n - 1, s.coeffs[1:]))
    inv, power = [Polynomial.zero(), Polynomial.one()], h
    for k in range(2, n + 1):
        power = unfused_mul(power, h)
        inv.append(power.coeffs[k - 1] * Fraction(1, k))
    return Series(n, inv)


def assert_integral_coefficients_are_ints(s):
    for c in s.coeffs:
        assert all(type(a) is int or a.denominator > 1 for _, a in c.items())


# Two variables and exponents up to 2, so that products collide and cancel.
XY = [VarId("x"), VarId("y")]
# The last kind mixes ints and Fractions over pairwise coprime denominators
# up to 31, so a series' lcm exceeds each single denominator, and small
# numerators make some sums reduce back to ints.
COPRIME_DENOMINATORS = [2, 3, 5, 7, 11, 13, 29, 31]
COEFF_KINDS = [
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.one_of(
        st.integers(-3, 3),
        st.builds(Fraction, st.integers(-4, 4), st.sampled_from(COPRIME_DENOMINATORS)),
    ),
]


@st.composite
def colliding_polys(draw, coeffs):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        exps = zip(XY, draw(st.tuples(st.integers(0, 2), st.integers(0, 2))))
        terms[Monomial((v, e) for v, e in exps if e)] = draw(coeffs)
    return Polynomial(terms)


@st.composite
def series_pairs(draw):
    coeffs = draw(st.sampled_from(COEFF_KINDS))
    order = draw(st.integers(0, 6))
    return tuple(
        Series(order, [draw(colliding_polys(coeffs)) for _ in range(order + 1)]) for _ in "sr"
    )


@given(series_pairs())
@settings(max_examples=60, deadline=None)
def test_fused_products_and_reciprocals_equal_the_unfused_ones(pair):
    s, r = pair
    product = s * r
    assert product == unfused_mul(s, r)
    assert_integral_coefficients_are_ints(product)
    head_one = Series(s.order, (1,) + s.coeffs[1:])
    reciprocal = head_one.reciprocal()
    assert reciprocal == unfused_reciprocal(head_one)
    assert_integral_coefficients_are_ints(reciprocal)


@given(series_pairs())
@settings(max_examples=30, deadline=None)
def test_fused_compose_and_inverse_equal_the_unfused_ones(pair):
    s, r = pair
    inner = Series(s.order, (0,) + r.coeffs[1:])
    assert s.compose(inner) == unfused_compose(s, inner)
    invertible = Series(s.order, ((0, 1) + r.coeffs[2:])[: s.order + 1])
    inverse = invertible.compositional_inverse()
    assert inverse == unfused_inverse(invertible)
    assert_integral_coefficients_are_ints(inverse)


@st.composite
def poly_pairs(draw):
    coeffs = draw(st.sampled_from(COEFF_KINDS))
    return draw(colliding_polys(coeffs)), draw(colliding_polys(coeffs))


@given(poly_pairs())
@settings(max_examples=100, deadline=None)
def test_polynomial_products_equal_the_term_by_term_ones(pair):
    p, q = pair
    product = p * q
    assert product == Polynomial(product_terms(p, q))
    assert all(type(a) is int or a.denominator > 1 for _, a in product.items())


@given(poly_pairs(), st.builds(Fraction, st.integers(-4, 4), st.sampled_from(COPRIME_DENOMINATORS)))
@settings(max_examples=60, deadline=None)
def test_substitute_with_a_fraction_equals_the_term_by_term_sum(pair, value):
    # x := value, y kept: each term c x^i y^j becomes c value^i y^j.
    p, q = pair
    p = p + q * y
    expected = {}
    for m, c in p.items():
        exps = dict(m.exps)
        rest = Monomial((v, e) for v, e in exps.items() if v != XY[0])
        expected[rest] = expected.get(rest, 0) + c * value ** exps.get(XY[0], 0)
    image = p.substitute({XY[0]: value})
    assert image == Polynomial(expected)
    assert all(type(a) is int or a.denominator > 1 for _, a in image.items())


def test_sums_over_coprime_denominators_reduce_to_ints():
    # The lcm 29 * 31 exceeds both denominators; [t^1] sums x/29 + 28x/29
    # and y/31 + 30y/31, which are the ints x and y.
    p = Fraction(1, 29) * x + Fraction(1, 31) * y
    q = Fraction(28, 29) * x + Fraction(30, 31) * y
    product = Series(1, [p, q]) * Series(1, [1, 1])
    assert product == Series(1, [p, x + y])
    assert product.coeffs[1].den == 1
    assert all(type(c) is int for _, c in product.coeffs[1].items())
    assert (p + q) * (x - y) == x**2 - y**2
    assert p * (29 * x - 31 * y) == x**2 - y**2 + (Fraction(29, 31) - Fraction(31, 29)) * x * y


def rational_series(rng, order):
    """A series whose coefficients have several terms over denominators up to 31."""
    coeffs = []
    for _ in range(order + 1):
        terms = {}
        for _ in range(rng.randint(2, 4)):
            exps = ((XY[0], rng.randint(0, 2)), (XY[1], rng.randint(0, 2)))
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice(COPRIME_DENOMINATORS))
            terms[Monomial((v, e) for v, e in exps if e)] = c
        coeffs.append(Polynomial(terms))
    return Series(order, coeffs)


def sum_terms(*polys):
    """The sum of polys as a dict keyed by Monomial, in rationals."""
    out = {}
    for p in polys:
        accumulate(out, dict(p.items()))
    return out


def x_exponent(m):
    return dict(m.exps).get(XY[0], 0)


def without_x(m, e):
    """m with its power of x replaced by x^e."""
    return Monomial([(v, k) for v, k in m.exps if v != XY[0]] + ([(XY[0], e)] if e else []))


def test_rational_products_multiply_and_add_no_fractions(monkeypatch):
    # Every operation runs on integer numerators over one denominator per
    # polynomial; a Fraction is only built at the boundary (items(), text).
    rng = random.Random(5)
    s, r = rational_series(rng, 6), rational_series(rng, 6)
    head_one = Series(6, (1,) + s.coeffs[1:])
    inner = Series(6, (0,) + r.coeffs[1:])
    invertible = Series(6, (0, 1) + r.coeffs[2:])
    p, q = s.coeffs[5] + s.coeffs[6], r.coeffs[4] - r.coeffs[3] * y
    assert min(len(p.terms), len(q.terms)) > 1 and p.den > 1 and q.den > 1
    value = Fraction(3, 7)
    operations = {
        "Series.__mul__": (lambda: s * r, unfused_mul(s, r)),
        "reciprocal": (head_one.reciprocal, unfused_reciprocal(head_one)),
        "Polynomial.__mul__": (lambda: p * q, Polynomial(product_terms(p, q))),
        "sum": (lambda: Polynomial.sum(iter([p, q, s.coeffs[2]])),
                Polynomial(sum_terms(p, q, s.coeffs[2]))),
        "__add__": (lambda: p + q, Polynomial(sum_terms(p, q))),
        "__sub__": (lambda: p - q,
                    Polynomial(sum_terms(p, Polynomial({m: -c for m, c in q.items()})))),
        "deriv": (lambda: p.deriv(XY[0]), Polynomial(
            {without_x(m, x_exponent(m) - 1): c * x_exponent(m)
             for m, c in p.items() if x_exponent(m)})),
        "coefficient_of": (lambda: p.coefficient_of(XY[0], 1), Polynomial(
            {without_x(m, 0): c for m, c in p.items() if x_exponent(m) == 1})),
        "substitute": (lambda: p.substitute({XY[0]: value}), Polynomial(sum_terms(*(
            Polynomial({without_x(m, 0): c * value ** x_exponent(m)}) for m, c in p.items())))),
        "compose": (lambda: s.compose(inner), unfused_compose(s, inner)),
        "compositional_inverse": (invertible.compositional_inverse, unfused_inverse(invertible)),
    }
    counts = Counter()
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__"):

        def counted(self, other, real=getattr(Fraction, name), name=name):
            counts[name] += 1
            return real(self, other)

        monkeypatch.setattr(Fraction, name, counted)
    for name, (run, expected) in operations.items():
        assert run() == expected, name
        assert not counts, name
    assert Fraction(1, 2) * 2 == 1 and counts  # the patch does see a product


def test_one_term_integer_product_makes_few_python_calls():
    # The product of two one-term integer polynomials takes about 1.2 us, and
    # each Python-level call inside it adds about 0.1 us (Python 3.11).
    a, b = 3 * x, 5 * y
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        product = a * b
    finally:
        sys.setprofile(None)
    assert product == 15 * x * y
    assert calls[0] == "__mul__" and len(calls) <= 5, calls


@given(st.lists(colliding_polys(st.one_of(*COEFF_KINDS)), max_size=6))
@settings(max_examples=150, deadline=None)
def test_product_matches_pairwise_products(polys):
    expected = reduce(operator.mul, polys, Polynomial.one())
    assert Polynomial.product(polys) == expected
    assert Polynomial.product(iter(polys)) == expected
    assert Polynomial.product(polys + [Polynomial.zero()]) == 0


def test_product_examples():
    assert Polynomial.product([]) == 1
    half = Polynomial.const(Fraction(1, 2))
    assert Polynomial.product([x + y, x - y, half]) == (x**2 - y**2) * Fraction(1, 2)
    assert Polynomial.product([Fraction(2, 3) * x, Polynomial.zero(), y]) == 0
    whole = Polynomial.product([Fraction(1, 2) * x, 2 * y])
    assert (whole.terms, whole.den) == ((x * y).terms, 1)


def python_calls(run):
    """The names of the Python-level functions that run() enters."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_one_term_factors_make_no_python_call_per_factor():
    factors = [3 * x, Fraction(1, 2) * y, -z]
    few = python_calls(lambda: Polynomial.product(factors))
    many = python_calls(lambda: Polynomial.product(factors * 10))
    assert few == many and len(few) <= 4, few


def test_product_checks_the_guard_bits_after_every_factor():
    # 3 * 32767 carries into the next slot and leaves the guard bit clear,
    # so a check made only once at the end would miss it.
    big = x**MAX_EXPONENT
    assert 3 * MAX_EXPONENT & (1 << 15) == 0
    with pytest.raises(OverflowError):
        Polynomial.product([big] * 3)
    with pytest.raises(OverflowError):
        Polynomial.product([y + 1] + [big] * 3)
    with pytest.raises(OverflowError):
        Polynomial.product([2 * y, y - z] + [big] * 3)
    assert Polynomial.product([x ** (MAX_EXPONENT - 1), y + 1, x]) == big * y + big


@pytest.mark.parametrize("method, op, unit", [(Polynomial.sum, operator.add, Polynomial.zero()),
                                              (Polynomial.product, operator.mul, Polynomial.one())])
def test_sum_and_product_take_int_and_fraction_items(method, op, unit):
    for items in ([x, 2], [Fraction(1, 3), x + y], [x - y, Fraction(-5, 2), 3], [2, 3]):
        expected = reduce(op, items, unit)
        got = method(items)
        assert (got.terms, got.den) == (expected.terms, expected.den)


@pytest.mark.parametrize("method", [Polynomial.sum, Polynomial.product])
@pytest.mark.parametrize("before", [[], [x], [x + y]])
@pytest.mark.parametrize("item", [1.5, "x", None, Series(0, [1])])
def test_sum_and_product_reject_other_items(method, before, item):
    with pytest.raises(TypeError, match="a polynomial value must be"):
        method(before + [item])


def test_polynomial_items_are_not_coerced():
    items = [x + y, 2 * x, y]
    for method in (Polynomial.sum, Polynomial.product):
        calls = python_calls(lambda: method(items))
        assert "_coerce_or_raise" not in calls and "_coerce" not in calls, calls


ONE_TERM_COEFFS = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-4, 4), st.sampled_from(COPRIME_DENOMINATORS)),
)


@st.composite
def mostly_one_term_factors(draw):
    """Factors with one term each (a zero coefficient makes the zero
    polynomial), and at most one factor of several terms at a random place."""
    def one_term():
        names = draw(st.lists(st.sampled_from(VARS), unique=True, max_size=3))
        exps = [(v, draw(st.integers(1, 3))) for v in names]
        return Polynomial({Monomial(exps): draw(ONE_TERM_COEFFS)})

    factors = [one_term() for _ in range(draw(st.integers(0, 8)))]
    if draw(st.booleans()):
        several = draw(colliding_polys(COEFF_KINDS[2]).filter(lambda p: len(p.terms) > 1))
        factors.insert(draw(st.integers(0, len(factors))), several)
    return factors


@given(mostly_one_term_factors())
@settings(max_examples=200, deadline=None)
def test_product_of_mostly_one_term_factors_matches_pairwise_products(factors):
    expected = reduce(operator.mul, factors, Polynomial.one())
    got = Polynomial.product(factors)
    assert (got.terms, got.den) == (expected.terms, expected.den)


def test_super_weight_makes_one_product_and_no_pairwise_products():
    sm = parse_matching("pairs=(1,4)(2,8)(3,5)(6,12)(7,11)(9,10); wiggly={5}; dashed={3,9}")
    w = IndexedWeights.symbolic()
    codes = {Polynomial.product.__func__.__code__: "product",
             Polynomial.__mul__.__code__: "__mul__"}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append(codes[frame.f_code])

    sys.setprofile(profile)
    try:
        weight = super_weight(sm, w)
    finally:
        sys.setprofile(None)
    assert calls == ["product"]
    assert len(weight.terms) == 1 and weight.den == 1


def test_fused_products_keep_integral_coefficients_int():
    half = Series(2, [1, Fraction(1, 2), 0]) * Series(2, [1, 2, 0])
    assert half == Series(2, [1, Fraction(5, 2), 1])
    assert type(half.coeffs[2].coefficient(Monomial())) is int
    # x y appears twice in each coefficient product below and cancels
    cancelling = Series(1, [x + y, x - y]) * Series(1, [x - y, x + y])
    assert cancelling == Series(1, [x**2 - y**2, 2 * x**2 + 2 * y**2])


def test_series_products_make_no_polynomial_products(monkeypatch):
    calls = []
    real = Polynomial.__mul__

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    s = Series(4, [1, x + y, x * y - 2, x**2 + y + 1, 3 * y - x])
    r = Series(4, [x - 1, y + 2, 0, x * y + x, y**2 - x])
    expected_product, expected_reciprocal = unfused_mul(s, r), unfused_reciprocal(s)
    monkeypatch.setattr(Polynomial, "__mul__", counted)
    monkeypatch.setattr(Polynomial, "__rmul__", counted)
    assert s * r == expected_product
    assert s.reciprocal() == expected_reciprocal
    assert not calls
    assert x * y == real(x, y) and calls  # the patch does see a product


@pytest.mark.parametrize("text", [
    "x y", "x+", "-", "+", "x * y", "- x", "x - -y", "x++y", "2*x\n*y", "*x", "x*", "",
    "\u0663*x", "a[\u0662]",
])
def test_parse_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        parse_poly(text)


def test_parse_allows_whitespace_around_binary_signs():
    assert parse_poly("x-y") == parse_poly("x - y") == x - var("y")
    assert parse_poly(" -x+1 ") == -x + 1


def test_parse_rejects_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_poly("3/0*x")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_poly("x + 1/0")


def test_coefficient_access():
    g = geometric(5)
    assert g.coefficient(5) == Polynomial.one()
    with pytest.raises(IndexError):
        g.coefficient(6)
    with pytest.raises(IndexError):
        g.coefficient(-1)


def test_shift():
    s = Series(3, [1, 2, 3, 4])
    assert s.shift() == Series(3, [0, 1, 2, 3])


# -- one number format: integer numerators over one denominator ----------------------


def assert_lowest_terms(p):
    assert type(p.den) is int and p.den >= 1
    assert all(type(c) is int and c for c in p.terms.values())
    assert gcd(p.den, *p.terms.values()) == 1
    assert parse_poly(str(p)) == p


@given(poly_pairs(), st.builds(Fraction, st.integers(-4, 4), st.sampled_from(COPRIME_DENOMINATORS)))
@settings(max_examples=60, deadline=None)
def test_every_operation_returns_lowest_terms(pair, value):
    p, q = pair
    v = XY[0]
    polys = [
        p + q, p - q, -p, p * q, q * Fraction(1, 6), p**2, Polynomial.sum(iter([p, q, p])),
        p.deriv(v), p.coefficient_of(v, 1), p.substitute({v: value}), p.substitute({v: q}),
        (p * x).div_var(v), p.reversed_in(v, 2), Polynomial(dict(p.items())),
        parse_poly(str(q)), Polynomial.const(value),
    ]
    s, r = Series(2, [1, p, q]), Series(2, [0, 1, q])
    series = [
        s * r, s + r, s - r, -s, s.scale(q), s.shift(), s.reciprocal(), s.compose(r),
        r.compositional_inverse(),
    ]
    for result in polys + [c for t in series for c in t.coeffs]:
        assert_lowest_terms(result)


def test_equal_rationals_built_two_ways_are_equal_and_hash_equal():
    half = Fraction(1, 2) * x
    for built, direct in ((half + half, x), (Polynomial.const(Fraction(1, 6)) * (3 * x), half)):
        assert built == direct and hash(built) == hash(direct)
        assert (built.terms, built.den) == (direct.terms, direct.den)
    assert half != x


@pytest.mark.parametrize("value", [3, -7, 0, Fraction(5, 3), Fraction(-1, 2)])
def test_constants_hash_as_the_numbers_they_equal(value):
    for p in (Polynomial.const(value), (x + value) - x):
        assert p == value and hash(p) == hash(value)
        assert len({p, value}) == 1
    assert x != value and len({x, value}) == 2


def test_bool_coefficients_are_stored_as_int_numerators():
    for p in (Polynomial.const(True), Polynomial({Monomial(): True})):
        assert p == 1 and p.terms == {0: 1} and p.den == 1
        assert type(p.terms[0]) is int


# -- variable names survive the text format ----------------------------------------------


@pytest.mark.parametrize("name", ["x²", "1x", "é", "", "'", "x_1", "x y", "x\n"])
def test_varid_rejects_names_parse_poly_cannot_read(name):
    with pytest.raises(ValueError):
        VarId(name)


@pytest.mark.parametrize("indices", [(1.5,), ("1",), (-1,), (1, 2, 3), (1.0,)])
def test_varid_rejects_indices_that_cannot_round_trip(indices):
    # a[1] is interned first, so (1.0,), which equals (1,), finds it.
    VarId("a", 1)
    with pytest.raises(ValueError):
        VarId("a", *indices)


NAMES = st.from_regex(r"[A-Za-z][A-Za-z0-9']{0,3}", fullmatch=True)


@st.composite
def polys_over_any_names(draw):
    p = Polynomial.zero()
    for _ in range(draw(st.integers(0, 3))):
        exps = {}
        for _ in range(draw(st.integers(0, 3))):
            v = VarId(draw(NAMES), *draw(st.lists(st.integers(0, 12), max_size=2)))
            exps[v] = exps.get(v, 0) + draw(st.integers(1, 3))
        coeff = draw(st.fractions(max_denominator=4).filter(lambda c: c != 0))
        p = p + Polynomial({Monomial(exps.items()): coeff})
    return p


@given(polys_over_any_names())
@settings(max_examples=200, deadline=None)
def test_parse_round_trip_over_every_name_shape(p):
    assert parse_poly(str(p)) == p


# -- packed Polynomial keys: exponent limit, print order, slot order ----------------------


def test_exponent_limit_in_products():
    top = x**MAX_EXPONENT
    assert str(top) == f"x^{MAX_EXPONENT}"
    assert x ** (MAX_EXPONENT - 1) * x == top
    assert (x ** (MAX_EXPONENT // 2)) ** 2 * x == top
    with pytest.raises(OverflowError):
        top * x
    with pytest.raises(OverflowError):
        top**2
    with pytest.raises(OverflowError):
        (y + top) * (top - z)
    # the overflow of one variable's slot never reaches its neighbour's
    with pytest.raises(OverflowError):
        (top * y) * (x * y)
    # a chained product checks every step: x^40000 sets x's guard bit, and a
    # further x^30000 would carry into the next slot and clear that bit again
    with pytest.raises(OverflowError):
        Polynomial.product([x**20000, x**20000, x**30000])
    with pytest.raises(OverflowError):
        Polynomial.product([y, top + z, 1 - x])
    assert Polynomial.product([top, y, z]) == top * y * z
    # Series products and reciprocals check each accumulated sum of products
    with pytest.raises(OverflowError):
        Series(1, [top, 0]) * Series(1, [x, 0])
    with pytest.raises(OverflowError):
        Series(1, [y + top, 0]) * Series(1, [top - z, 1])
    # the t coefficient makes x^40000 twice, and the two cancel
    with pytest.raises(OverflowError):
        Series(1, [x**20000, -(x**30000)]) * Series(1, [x**10000, x**20000])
    with pytest.raises(OverflowError):
        Series(2, [1, -top, 0]).reciprocal()
    with pytest.raises(OverflowError):
        Series(3, [1, y - top, 0, z]).reciprocal()
    assert Series(1, [top, 0]) * Series(1, [1, y]) == Series(1, [top, top * y])


def test_exponent_limit_at_the_boundary():
    assert parse_poly(f"x^{MAX_EXPONENT}") == x**MAX_EXPONENT
    with pytest.raises(ValueError, match=f"limit {MAX_EXPONENT}"):
        parse_poly(f"x^{MAX_EXPONENT + 1}")
    with pytest.raises(ValueError, match=f"limit {MAX_EXPONENT}"):
        parse_poly(f"y*x^{MAX_EXPONENT}*x")
    with pytest.raises(OverflowError):
        Polynomial({Monomial(((VarId("x"), MAX_EXPONENT + 1),)): 1})
    with pytest.raises(OverflowError):
        x.reversed_in(VarId("x"), MAX_EXPONENT + 2)
    assert (x**MAX_EXPONENT).deriv(VarId("x")) == MAX_EXPONENT * x ** (MAX_EXPONENT - 1)


def test_items_and_coefficient_use_monomials():
    p = 3 * x**2 * y - Fraction(1, 2) * z + 4
    mono = Monomial(((VarId("x"), 2), (VarId("y"), 1)))
    assert sorted(p.items(), key=lambda item: str(item[0])) == [
        (Monomial(), 4), (mono, 3), (Monomial(((VarId("z"), 1),)), Fraction(-1, 2))]
    assert Polynomial(dict(p.items())) == p
    with pytest.raises(TypeError):
        Polynomial({1: 2})
    assert p.coefficient(mono) == 3
    assert p.coefficient(Monomial(((VarId("q", 5), 1),))) == 0
    assert p.degree() == 3 and Polynomial.zero().degree() == -1
    assert p.variables() == {VarId("x"), VarId("y"), VarId("z")}


EXPONENTS = st.one_of(st.integers(1, 3), st.integers(1, MAX_EXPONENT))


@st.composite
def monomial_lists(draw):
    names = draw(st.lists(st.from_regex(r"[a-e][a-e']?", fullmatch=True), min_size=1, max_size=6))
    variables = [VarId(n, *draw(st.lists(st.integers(0, 3), max_size=2))) for n in names]
    monos = draw(st.lists(
        st.dictionaries(st.sampled_from(variables), EXPONENTS, max_size=4).map(
            lambda d: Monomial(d.items())),
        min_size=1, max_size=12, unique=True))
    return monos


@given(monomial_lists())
@settings(max_examples=150, deadline=None)
def test_print_order_is_the_monomial_order(monos):
    # Monomial.__lt__ is the reference for the order of the canonical text.
    p = Polynomial({m: 1 for m in monos})
    assert str(p) == " + ".join(str(m) for m in sorted(monos, reverse=True))
    assert parse_poly(str(p)) == p


def test_print_order_across_degree_classes_larger_than_a_block():
    # The text is sorted one degree class at a time: here the degree-5 class
    # (all 3,003 monomials in 11 variables) spans more than one block of
    # _PRINT_BLOCK keys, between classes of degree 7 and 3.
    names = [VarId("v", i) for i in range(10)] + [VarId("a", 2, 1)]
    monos = []
    for degree, step in ((5, 1), (3, 7), (7, 97)):
        for picked in list(combinations_with_replacement(names, degree))[::step]:
            monos.append(Monomial(Counter(picked).items()))
    assert sum(1 for m in monos if sum(e for _, e in m.exps) == 5) == 3003 > _PRINT_BLOCK
    random.Random(26).shuffle(monos)
    p = Polynomial({m: 1 for m in monos})
    assert str(p) == " + ".join(str(m) for m in sorted(monos, reverse=True))


MONOMIALS = st.dictionaries(st.sampled_from(VARS), EXPONENTS, max_size=3).map(
    lambda d: Monomial(d.items()))
COEFFS = st.fractions(max_denominator=6).filter(lambda c: c != 0)


@given(MONOMIALS, COEFFS, st.dictionaries(MONOMIALS, COEFFS, max_size=6))
@settings(max_examples=150, deadline=None)
def test_one_term_products_match_the_term_by_term_sum(m, c, terms):
    # The reference multiplies Monomials and sums the terms; exponents near
    # MAX_EXPONENT make some products overflow a slot into its guard bit.
    one, many = Polynomial({m: c}), Polynomial(terms)
    expected, overflow = {}, False
    for m2, c2 in terms.items():
        exps = dict(m.exps)
        for v, e in m2.exps:
            exps[v] = exps.get(v, 0) + e
        overflow |= max(exps.values(), default=0) > MAX_EXPONENT
        key = Monomial(exps.items())
        expected[key] = expected.get(key, 0) + c * c2
    for left, right in ((one, many), (many, one)):
        if overflow:
            with pytest.raises(OverflowError):
                left * right
        else:
            product = left * right
            assert product == Polynomial(expected)
            assert all(type(a) is int or a.denominator > 1 for _, a in product.items())


SLOT_ORDER_SCRIPT = """
import sys
from wardcf.poly import Polynomial, VarId, parse_poly, var
for name, *idx in {order!r}:
    Polynomial.variable(VarId(name, *idx))
x, y, z, a, b = var("x"), var("y"), var("z"), var("a", 1), var("b", 2, 1)
built = [
    (x + 2 * y - z**3) ** 3 * (a - b),
    (a * b - x) * (y**2 + z) - 5 * x * y**300,
    parse_poly("1/2*b[2,1]^3*z - a[1]*x^2 + 7"),
]
texts = [str(p) for p in built]
again = [parse_poly(t) for t in texts]
assert again == built, "parse_poly(str(p)) != p"
assert built[1] == parse_poly(texts[1]) + 0 and built[1] != built[0]
assert str(built[0] * built[2]) == str(built[2] * built[0])
print("\\n".join(texts + [str(built[0] * built[2])]))
"""


def test_slot_order_never_leaks():
    # Fresh interpreters, so that the five variables take their slots in
    # two opposite orders.
    src = Path(__file__).resolve().parent.parent / "src"
    orders = [[("x",), ("y",), ("z",), ("a", 1), ("b", 2, 1)]]
    orders.append(orders[0][::-1])
    outputs = []
    for order in orders:
        done = subprocess.run(
            [sys.executable, "-c", SLOT_ORDER_SCRIPT.format(order=order)],
            cwd=src, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[0].startswith("-a[1]*z^9 + b[2,1]*z^9 + 3*a[1]*x*z^6 + ")


# -- one owner of the key format ----------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "wardcf"

# The underscore names each module may import from poly: the transfer in
# matchings builds polynomial keys from the slot registry.  The Hankel
# scan reads Monomials and keeps its own keys, so it imports none.
PRIVATE_POLY_IMPORTS = {"matchings": {"_SLOTS"}}


def private_poly_imports(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.module == "poly" and node.level == 1 or node.module == "wardcf.poly")
        for alias in node.names
        if alias.name.startswith("_")
    }


def test_only_poly_owns_the_key_format():
    found = {
        path.stem: names
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "poly" and (names := private_poly_imports(path.read_text()))
    }
    assert not found.get("hankel")
    assert found == PRIVATE_POLY_IMPORTS

def test_reciprocal_drops_cancelled_keys_and_stores_integral_fractions_as_int():
    # [t^2] of 1/s sums -(x/2 + y)^2 and 5/4 x^2 + x*y: the x*y key cancels
    # to 0, and the x^2 key sums two Fractions to the integer 1.
    s = Series(3, [1, Fraction(1, 2) * x + y, Fraction(5, 4) * x**2 + x * y, x**3])
    r = s.reciprocal()
    assert r.coefficient(2) == -(x**2) + y**2
    assert s * r == Series.one(3)
    for c in r.coeffs:
        assert all(c.terms.values())
    assert r.coeffs[2].den == 1
    assert all(type(v) is int for _, v in r.coeffs[2].items())

