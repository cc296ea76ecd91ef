"""Ward numbers and polynomials, their four-variable generalization, the
differential recurrences they satisfy, and series inversion.

The triangle W(n,k) obeys

    W(n,k) = (n+k-1) W(n-1,k-1) + k W(n-1,k),     W(0,k) = [k=0],

with row-generating polynomials W_n(x) and reversals Wbar_n(x) =
x^n W_n(1/x).  The four-variable family W_n(x,u,z,w) is generated by the
T-fraction with alpha_i = x + (i-1)u and delta_i = z + (i-1)w.

Series inversion: any sequence (a_n) with a_0 = 1 is matched by choosing
x_1, x_2, ... so that the tree-counting polynomials in those variables
reproduce it; concretely the exponential generating function
sum a_n t^(n+1)/(n+1)! is compositionally inverted by Lagrange inversion
and the x_i are read off the inverse.  Series.compose, a separate
computation, checks the u = x inverse by composing it back to t.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .contfrac import expand_T, named_family
from .poly import Polynomial, Series, VarId, var

X, U, Z, W = VarId("x"), VarId("u"), VarId("z"), VarId("w")


def ward_triangle(rows: int) -> list[list[int]]:
    """Rows 0..rows of the triangle W(n,k), 0 <= k <= n."""
    if rows < 0:
        raise ValueError(f"rows must be at least 0, got {rows}")
    tri = [[1]]
    for n in range(1, rows + 1):
        prev = [0, *tri[-1], 0]  # prev[k] = W(n-1,k-1)
        tri.append([(n + k - 1) * prev[k] + k * prev[k + 1] for k in range(n + 1)])
    return tri


def ward_poly(n: int) -> Polynomial:
    row = ward_triangle(n)[n]
    x = var("x")
    return Polynomial.sum(c * x**k for k, c in enumerate(row) if c)


def ward_reversed(n: int) -> Polynomial:
    return ward_poly(n).reversed_in(X, n)


def generalized_ward_cf(order: int) -> list[Polynomial]:
    """W_0 .. W_order in x,u,z,w from the defining T-fraction."""
    s = expand_T(named_family("generalized-ward"), order)
    return [s.coefficient(n) for n in range(order + 1)]


# The Appendix B checks take W_0..W_n from one generalized_ward_cf(n), and
# start each recurrence from W_{-1} = 0.


def check_prop_B1(ws: Sequence[Polynomial]) -> bool:
    """Nonlinear differential recurrence for the four-variable family:

    W_n = [n=0] + (z+nu) W_{n-1}
          + (u+w)(u dW_{n-1}/du + x dW_{n-1}/dx)
          + (x-u) sum_{j=0}^{n-1} W_j W_{n-1-j}.
    """
    x, u, z, w = var("x"), var("u"), var("z"), var("w")
    return all(
        wn
        == int(n == 0)
        + (z + n * u) * prev
        + (u + w) * (u * prev.deriv(U) + x * prev.deriv(X))
        + (x - u) * Polynomial.sum(ws[j] * ws[n - 1 - j] for j in range(n))
        for n, (prev, wn) in enumerate(zip([Polynomial.zero(), *ws], ws))
    )


def check_cor_B2(ws: Sequence[Polynomial]) -> bool:
    """Linear recurrences of the u = x specialization, in both forms.

    P_n = W_n(x,x,z,w) satisfies
        P_n = [n=0] + (z+nx) P_{n-1} + x(x+w) dP_{n-1}/dx,
    and for n >= 1 its x-coefficients satisfy
        W_{n,k} = (n+k-1) W_{n-1,k-1} + (z+kw) W_{n-1,k}.
    The z=0, w=1 specialization must collapse to the integer triangle.
    """
    x, z, w = var("x"), var("z"), var("w")
    ps = [p.substitute({U: x}) for p in ws]
    if not all(
        pn == int(n == 0) + (z + n * x) * prev + x * (x + w) * prev.deriv(X)
        for n, (prev, pn) in enumerate(zip([Polynomial.zero(), *ps], ps))
    ):
        return False
    if not all(
        ps[n].coefficient_of(X, k)
        == (n + k - 1) * ps[n - 1].coefficient_of(X, k - 1)
        + (z + k * w) * ps[n - 1].coefficient_of(X, k)
        for n in range(1, len(ps))
        for k in range(n + 1)
    ):
        return False
    sub = {Z: Polynomial.zero(), W: Polynomial.one()}
    return all(p.substitute(sub) == ward_poly(n) for n, p in enumerate(ps))


def check_cor_B3(ws: Sequence[Polynomial]) -> bool:
    """Nonlinear recurrence of the w = -u specialization:

    Q_n = [n=0] + (z+nu) Q_{n-1} + (x-u) sum Q_j Q_{n-1-j}.
    """
    x, u, z = var("x"), var("u"), var("z")
    qs = [p.substitute({W: -u}) for p in ws]
    return all(
        qn
        == int(n == 0)
        + (z + n * u) * prev
        + (x - u) * Polynomial.sum(qs[j] * qs[n - 1 - j] for j in range(n))
        for n, (prev, qn) in enumerate(zip([Polynomial.zero(), *qs], qs))
    )


def check_cor_B4(ws: Sequence[Polynomial]) -> bool:
    """Riccati-type identity for the u = 0 specialization, as a truncated
    series identity:  H = 1 + ztH + wxt dH/dx + xt H^2."""
    x, z, w = var("x"), var("z"), var("w")
    hs = [p.substitute({U: Polynomial.zero()}) for p in ws]
    h = Series(len(hs) - 1, hs)
    hx = h.map_coeffs(lambda c: c.deriv(X))
    rhs = (
        Series.one(h.order)
        + h.shift().scale(z)
        + hx.shift().scale(w * x)
        + (h * h).shift().scale(x)
    )
    return h == rhs


def _egf(c: Sequence[Polynomial]) -> Series:
    """sum_n c_n t^(n+1)/(n+1)! over n = 0..len(c)-1, as a series of order len(c)."""
    return Series(
        len(c),
        [Polynomial.zero()]
        + [p * Fraction(1, factorial(n + 1)) for n, p in enumerate(c)],
    )


def _invert_egf(c: Sequence[Polynomial]) -> list[Polynomial]:
    """(n+1)! [t^(n+1)] of the compositional inverse of _egf(c), n = 0..len(c)-1."""
    inv = _egf(c).compositional_inverse()
    return [inv.coefficient(n + 1) * factorial(n + 1) for n in range(len(c))]


def invert_sequence(a: Sequence[Polynomial | int], order: int) -> list[Polynomial]:
    """Solve for x_1..x_order so the tree polynomials in the x_i equal a_n.

    The inverse of F(t) = sum a_n t^(n+1)/(n+1)! is
    R(t) = t - sum_m x_m t^(m+1)/(m+1)!, so x_m is -(m+1)! times the
    coefficient of t^(m+1) in R, which Series.compositional_inverse gets by
    Lagrange inversion.  Requires a_0 = 1 and len(a) > order.
    """
    if order < 0:
        raise ValueError(f"inversion order must be nonnegative, got {order}")
    coerced = [Polynomial._coerce_or_raise(p) for p in a]
    if not coerced or coerced[0] != Polynomial.one():
        raise ValueError("inversion needs a_0 = 1")
    if len(coerced) <= order:
        raise ValueError(f"need a_0..a_{order}")
    return [-c for c in _invert_egf(coerced[: order + 1])[1:]]


def multivariate_ward_via_inversion(order: int) -> list[Polynomial]:
    """The tree polynomials themselves, from the generic series inverse."""
    if order < 0:
        raise ValueError(f"inversion order must be nonnegative, got {order}")
    return _invert_egf([Polynomial.one()] + [-var("x", n) for n in range(1, order + 1)])


def invert_generalized_ward(order: int) -> list[Polynomial]:
    """invert_sequence applied to the four-variable family."""
    return invert_sequence(generalized_ward_cf(order), order)


def closed_form_u_eq_x(m: int) -> Polynomial:
    """The u = x inversion coefficient x_m in closed form, as a polynomial.

    x_m = (-1)^(m+1) m! (1 + x/w) z^m + (x/w) prod_{j=1..m} (w - jz);
    the 1/w terms cancel, which is verified here by exact division.
    """
    if m < 1:
        raise ValueError(f"index must be at least 1, got {m}")
    x, z, w = var("x"), var("z"), var("w")
    sign = 1 if (m + 1) % 2 == 0 else -1
    lead = sign * factorial(m) * z**m
    bracket = lead + Polynomial.product(w - j * z for j in range(1, m + 1))  # divisible by w
    return lead + x * bracket.div_var(W)


def check_closed_form_u_eq_x(order: int) -> bool:
    """Verify the u = x closed form and its explicit inverse-EGF series.

    Three facts are checked to the given order (at least 1):
      1. inversion of W_n(x,x,z,w) reproduces closed_form_u_eq_x, and
         R(t) = t - sum_m x_m t^(m+1)/(m+1)! composes back to t, which
         Series.compose checks independently of the Lagrange inverse;
      2. the explicit series
             (1 + x/w)/z * log(1+zt) - (x/w^2) ((1+zt)^(w/z) - 1),
         expanded by the binomial theorem, equals R through t^(order+1)
         (so it is polynomial in w, z);
      3. that series satisfies F_t = 1 - xF - ztF_t + x(x+w) F_x.
    """
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    x, z, w = var("x"), var("z"), var("w")
    try:
        # A wrong closed form or series shows as a division by w that is not exact.
        closed = [closed_form_u_eq_x(m) for m in range(1, order + 1)]
        f = _explicit_inverse_series(order + 1)
    except ValueError:
        return False
    ps = [p.substitute({U: x}) for p in generalized_ward_cf(order)]
    computed = invert_sequence(ps, order)
    if computed != closed:
        return False
    # z=0, w=1 degeneration: every x_m collapses to x.
    sub01 = {Z: Polynomial.zero(), W: Polynomial.one()}
    if any(c.substitute(sub01) != x for c in computed):
        return False
    r = _egf([Polynomial.one()] + [-c for c in computed])
    if _egf(ps).compose(r) != Series.t(order + 1):
        return False
    if f != r:
        return False
    # PDE check, coefficientwise through t^order.
    fx = f.map_coeffs(lambda c: c.deriv(X))
    return all(
        f.coefficient(m + 1) * (m + 1)
        == int(m == 0) - (x + m * z) * f.coefficient(m) + x * (x + w) * fx.coefficient(m)
        for m in range(order + 1)
    )


def _explicit_inverse_series(order: int) -> Series:
    """Coefficients of (1+x/w)/z log(1+zt) - (x/w^2)((1+zt)^(w/z) - 1).

    By the binomial theorem [t^m] (1+zt)^(w/z) = prod_{j<m} (w - jz) / m!,
    kept as one running product, and [t^m] log(1+zt)/z is
    (-1)^(m+1) z^(m-1)/m.  The 1/w and 1/w^2 prefactors are cleared by
    exact division.
    """
    x, z, w = var("x"), var("z"), var("w")
    coeffs = [Polynomial.zero()]
    power = Polynomial.one()
    for m in range(1, order + 1):
        power = power * (w - (m - 1) * z) * Fraction(1, m)
        log_part = (-1) ** (m + 1) * Fraction(1, m) * z ** (m - 1)
        coeffs.append(((w**2 + x * w) * log_part - x * power).div_var(W).div_var(W))
    return Series(order, coeffs)
