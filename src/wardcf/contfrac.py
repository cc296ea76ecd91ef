"""Truncated expansion of S-, J- and T-type continued fractions, and the
statement of every T-fraction the paper proves.

A T-fraction with coefficient sequences alpha (1-indexed) and delta
(1-indexed) is the formal power series

    1 / (1 - delta_1 t - alpha_1 t / (1 - delta_2 t - alpha_2 t / (1 - ...)))

S-fractions are the delta = 0 case; J-fractions carry gamma (0-indexed)
level weights and beta (1-indexed) weights on t^2.  All three are expanded
by one bottom-up ladder of series reciprocals, order levels deep (T: level
delta_{k+1}, fall alpha on t; J: level gamma_k, fall beta on t^2; S: a T
case): every level contributes at least one power of t, so the level
f_order enters f_0 only through its constant term 1, at t^order, and the
ladder determines the series exactly modulo t^(order+1).  The ladder holds
one level at a time: the level below is dropped once the body is built from
it, before the body's reciprocal is taken.

The stated fractions are the named families behind ``expand``, Theorem 1.2's
five-variable one and Corollary 2.3's 18- and 12-variable ones; the counts
they are checked against are in ``matchings``, whose class tables the
Corollary 2.3 ones read by one rule (``_record``).  All but master-T and the
Corollary 2.3 ones are points (x, u, z, w) of the linear fraction
alpha_i = x + (i-1)u, delta_i = z + (i-1)w (``_linear``): ward (x, x, 0, 1),
ward-reversed (1, 1, 0, x), generalized-ward (x, u, z, w), semifactorial
(1, 1, 0, 0), eulerian2-reversed (1, 1, 0, x - 1) and Theorem 1.2's
(x, u, z, w' + w'').
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .matchings import _CLASSES_12, _CLASSES_18, IndexedWeights, star
from .poly import Polynomial, Series, var

CoeffFn = Callable[[int], Polynomial]


def _zero(_: int) -> Polynomial:
    return Polynomial.zero()


class JCoeffs(NamedTuple):
    gamma: CoeffFn  # i >= 0
    beta: CoeffFn  # i >= 1


class TCoeffs(NamedTuple):
    alpha: CoeffFn  # i >= 1
    delta: CoeffFn  # i >= 1


def _ladder(level: CoeffFn, fall: CoeffFn, power: int, order: int) -> Series:
    """The bottom-up reciprocal ladder shared by T-, S- and J-fractions.

    f_k = 1 / (1 - level(k) t - fall(k+1) t^power f_{k+1}) for k from
    order-1 down to 0, starting from f_order = 1; the result is f_0.  f_k
    only influences coefficients of t^k and above, so it is computed at the
    reduced order order - k.

    The ladder holds one level at a time: each weight is negated once and
    dropped after its level, the body is built one coefficient at a time as
    (-fall) f_{j-power} (plus -level at t^1), and f_{k+1} is gone before
    the level's one reciprocal, whose result is far larger than it.
    """
    if order < 0:
        raise ValueError(f"order must be at least 0, got {order}")
    # Shallow levels first: their variables occur in every term, and a
    # variable's slot in a polynomial key follows its first use, so this
    # keeps the keys short.
    weights = [(-level(k), -fall(k + 1)) for k in range(order)]
    f = Series.one(0)
    for target in range(1, order + 1):
        neg_level, neg_fall = weights.pop()
        # f has order target - 1, so t^power * f covers 0..target.
        body = [Polynomial.one()] + [Polynomial.zero()] * target
        for i in range(target + 1 - power):
            body[i + power] = neg_fall * f.coeffs[i]
        body[1] = body[1] + neg_level
        f = None  # only the body is alive through the reciprocal
        f = Series(target, body).reciprocal()
    return f


def expand_T(seq: TCoeffs, order: int) -> Series:
    """Expand a T-fraction to a Series of the given truncation order.

    The expansion reads alpha_i and delta_i for 1 <= i <= order only, and
    its coefficients are exact: expanding deeper changes none of them.
    """
    return _ladder(lambda k: seq.delta(k + 1), seq.alpha, 1, order)


def expand_S(alpha: CoeffFn, order: int) -> Series:
    return expand_T(TCoeffs(alpha, _zero), order)


def expand_J(gamma: CoeffFn, beta: CoeffFn, order: int) -> Series:
    """Expand a J-fraction 1 / (1 - gamma_0 t - beta_1 t^2 / (1 - gamma_1 t - ...))
    as expand_T does a T-fraction."""
    return _ladder(gamma, beta, 2, order)


def contract_T_to_J(seq: TCoeffs) -> JCoeffs:
    """Contract a T-fraction with vanishing even deltas to a J-fraction.

    gamma_0 = alpha_1 + delta_1,
    gamma_n = alpha_{2n} + alpha_{2n+1} + delta_{2n+1}  (n >= 1),
    beta_n  = alpha_{2n-1} alpha_{2n}.

    The requirement delta_{2n} = 0 is enforced lazily: evaluating gamma_n
    or beta_n checks the even delta it would bury.
    """

    def _require_even_zero(n: int):
        if n >= 1 and not seq.delta(2 * n).is_zero():
            raise ValueError(f"contraction needs delta_{2 * n} = 0")

    def gamma(n: int) -> Polynomial:
        _require_even_zero(n)
        if n == 0:
            return seq.alpha(1) + seq.delta(1)
        return seq.alpha(2 * n) + seq.alpha(2 * n + 1) + seq.delta(2 * n + 1)

    def beta(n: int) -> Polynomial:
        _require_even_zero(n)
        return seq.alpha(2 * n - 1) * seq.alpha(2 * n)

    return JCoeffs(gamma, beta)


def euler_identity_check(alpha: CoeffFn, order: int) -> bool:
    """Check that the T-fraction with delta_1 = 0, delta_i = -alpha_{i-1}
    expands to the partial-product series sum_n alpha_1 ... alpha_n t^n."""

    def delta(i: int) -> Polynomial:
        return Polynomial.zero() if i == 1 else -alpha(i - 1)

    expanded = expand_T(TCoeffs(alpha, delta), order)
    prod = Polynomial.one()
    coeffs = [prod]
    for n in range(1, order + 1):
        prod = prod * alpha(n)
        coeffs.append(prod)
    return expanded == Series(order, coeffs)


# -- named coefficient families ------------------------------------------------
#
# The registry backs the command-line `expand` verb and reappears across the
# verification suites.  Every entry creates its variables when called, never
# at import: a variable's slot in a polynomial key follows its first use.


def _linear(x: Polynomial, u: Polynomial, z: Polynomial, w: Polynomial) -> TCoeffs:
    """alpha_i = x + (i-1)u, delta_i = z + (i-1)w."""
    return TCoeffs(lambda i: x + (i - 1) * u, lambda i: z + (i - 1) * w)


def _master_T() -> TCoeffs:
    # Fully symbolic coefficients of the master T-fraction for decorated
    # matchings: alpha_n = a[n-1] * bstar_{n-1}, delta_n = fstar_{n-2} + gstar_{n-1},
    # where wstar_m = sum_{l=0}^m w[l, m-l].
    w = IndexedWeights.symbolic()
    return TCoeffs(
        lambda n: w.a(n - 1) * star(w.b, n - 1),
        lambda n: star(w.f, n - 2) + star(w.g, n - 1),
    )


_ZERO, _ONE = Polynomial.zero(), Polynomial.one()

FAMILIES: dict[str, Callable[[], TCoeffs]] = {
    "ward": lambda: _linear(var("x"), var("x"), _ZERO, _ONE),
    "ward-reversed": lambda: _linear(_ONE, _ONE, _ZERO, var("x")),
    "generalized-ward": lambda: _linear(var("x"), var("u"), var("z"), var("w")),
    "semifactorial": lambda: _linear(_ONE, _ONE, _ZERO, _ZERO),
    "eulerian2-reversed": lambda: _linear(_ONE, _ONE, _ZERO, var("x") - 1),
    "master-T": _master_T,
}


def named_family(name: str) -> TCoeffs:
    try:
        return FAMILIES[name]()
    except KeyError:
        raise ValueError(f"unknown coefficient family {name!r}") from None


# -- the fractions of Theorem 1.2 and Corollary 2.3, which `expand` does not offer --


def tfraction_5var() -> TCoeffs:
    """Theorem 1.2: the generalized-ward fraction with w = w' + w'', matching
    generalized_ward_oracle."""
    return _linear(var("x"), var("u"), var("z"), var("w'") + var("w''"))


def pq_bracket(n: int, p: Polynomial, q: Polynomial) -> Polynomial:
    """sum_{j=0}^{n-1} p^j q^(n-1-j), the (p,q)-analogue of the integer n."""
    return Polynomial.sum(p**j * q ** (n - 1 - j) for j in range(n))


def _pq_line(m: int, p: Polynomial, q: Polynomial, x: Polynomial, u: Polynomial) -> Polynomial:
    """p^m x + q [m]_{p,q} u: the sum over cr + ne = m of p^cr q^ne times x
    when ne = 0 and u otherwise, as the m + 1 labels of one closing step;
    zero for m < 0, where no closing step exists (as ``matchings.star``)."""
    if m < 0:
        return Polynomial.zero()
    return p**m * x + q * pq_bracket(m, p, q) * u


def _record(classes: tuple[tuple[str, ...], ...]) -> TCoeffs:
    """The T-fraction of ``matchings._record_poly`` over the same class table.

    A row (x, y, u, v, p, q) enters level i, b steps behind, as
    _pq_line(i - 1 - b, p, q, x, u) when i - b is odd and with y, v in
    place of x, u when it is even.  The pure row makes alpha_i with b = 0;
    delta_i is the wiggly row with b = 1 plus the dashed row with b = 0.
    """
    made = {name: var(name) for name in dict.fromkeys(n for row in classes for n in row)}
    pure, wiggly, dashed = ([made[name] for name in row] for row in classes)

    def line(row: list[Polynomial], i: int, behind: int) -> Polynomial:
        x, y, u, v, p, q = row
        if (i - behind) % 2:
            return _pq_line(i - 1 - behind, p, q, x, u)
        return _pq_line(i - 1 - behind, p, q, y, v)

    return TCoeffs(lambda i: line(pure, i, 0), lambda i: line(wiggly, i, 1) + line(dashed, i, 0))


def tfraction_18var() -> TCoeffs:
    """Coefficient sequences matching poly_18var, with delta_1 = x''."""
    return _record(_CLASSES_18)


def tfraction_12var() -> TCoeffs:
    """Coefficient sequences matching poly_12var (parity forgotten)."""
    return _record(_CLASSES_12)


def tfraction_12var_bis1() -> TCoeffs:
    """The u' = x' collapse of tfraction_12var."""
    base = tfraction_12var()
    xp = var("x'")
    pp, qp = var("p'"), var("q'")
    xpp, upp = var("x''"), var("u''")
    ppp, qpp = var("p''"), var("q''")

    def delta(i: int) -> Polynomial:
        return pq_bracket(i - 1, pp, qp) * xp + _pq_line(i - 1, ppp, qpp, xpp, upp)

    return TCoeffs(base.alpha, delta)


def tfraction_12var_bis2() -> TCoeffs:
    """The further u = x and u'' = x'' collapse."""
    x, xp, xpp = var("x"), var("x'"), var("x''")
    p, q = var("p"), var("q")
    pp, qp = var("p'"), var("q'")
    ppp, qpp = var("p''"), var("q''")

    def alpha(i: int) -> Polynomial:
        return pq_bracket(i, p, q) * x

    def delta(i: int) -> Polynomial:
        return pq_bracket(i - 1, pp, qp) * xp + pq_bracket(i, ppp, qpp) * xpp

    return TCoeffs(alpha, delta)
