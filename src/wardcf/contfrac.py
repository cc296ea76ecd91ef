"""Truncated expansion of S-, J- and T-type continued fractions.

A T-fraction with coefficient sequences alpha (1-indexed) and delta
(1-indexed) is the formal power series

    1 / (1 - delta_1 t - alpha_1 t / (1 - delta_2 t - alpha_2 t / (1 - ...)))

S-fractions are the delta = 0 case; J-fractions carry gamma (0-indexed)
level weights and beta (1-indexed) weights on t^2.  All three are expanded
by one bottom-up ladder of series reciprocals with finite depth (T: level
delta_{k+1}, fall alpha on t; J: level gamma_k, fall beta on t^2; S: a T
case): every level contributes at least one power of t, so the level
f_order enters f_0 only through its constant term 1, at t^order, and any
depth >= order determines the series exactly modulo t^(order+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .matchings import IndexedWeights, star
from .poly import Polynomial, Series, var

CoeffFn = Callable[[int], Polynomial]


def _zero(_: int) -> Polynomial:
    return Polynomial.zero()


@dataclass(frozen=True)
class JCoeffs:
    gamma: CoeffFn  # i >= 0
    beta: CoeffFn  # i >= 1


@dataclass(frozen=True)
class TCoeffs:
    alpha: CoeffFn  # i >= 1
    delta: CoeffFn  # i >= 1


def _ladder(
    level: CoeffFn, fall: CoeffFn, power: int, order: int, depth: int | None
) -> Series:
    """The bottom-up reciprocal ladder shared by T-, S- and J-fractions.

    f_k = 1 / (1 - level(k) t - fall(k+1) t^power f_{k+1}) for k from
    depth-1 down to 0, starting from f_depth = 1; the result is f_0.  f_k
    only influences coefficients of t^k and above, so it is computed at the
    reduced order max(order - k, 0).
    """
    levels = order if depth is None else depth
    # Shallow levels first: their variables occur in every term, and a
    # variable's slot in a polynomial key follows its first use, so this
    # keeps the keys short.
    weights = [(level(k), fall(k + 1)) for k in range(levels)]
    f = Series.one(max(order - levels, 0))
    for k in range(levels - 1, -1, -1):
        target = max(order - k, 0)
        # f has order max(target - 1, 0), so t^power * f covers 0..target.
        tail = Series(target, ((Polynomial.zero(),) * power + f.coeffs)[: target + 1])
        body = (
            Series.one(target)
            - Series.t(target).scale(weights[k][0])
            - tail.scale(weights[k][1])
        )
        f = body.reciprocal()
    return f


def expand_T(seq: TCoeffs, order: int, depth: int | None = None) -> Series:
    """Expand a T-fraction to a Series of the given truncation order.

    depth overrides the number of levels (default order); any depth
    >= order yields the same truncated series.
    """
    return _ladder(lambda k: seq.delta(k + 1), seq.alpha, 1, order, depth)


def expand_S(alpha: CoeffFn, order: int, depth: int | None = None) -> Series:
    return expand_T(TCoeffs(alpha, _zero), order, depth)


def expand_J(gamma: CoeffFn, beta: CoeffFn, order: int, depth: int | None = None) -> Series:
    """Expand a J-fraction 1 / (1 - gamma_0 t - beta_1 t^2 / (1 - gamma_1 t - ...));
    depth works as in expand_T."""
    return _ladder(gamma, beta, 2, order, depth)


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
# verification suites.

def _ward() -> TCoeffs:
    x = var("x")
    return TCoeffs(lambda i: i * x, lambda i: Polynomial.const(i - 1))


def _ward_reversed() -> TCoeffs:
    x = var("x")
    return TCoeffs(lambda i: Polynomial.const(i), lambda i: (i - 1) * x)


def _generalized_ward() -> TCoeffs:
    x, u, z, w = var("x"), var("u"), var("z"), var("w")
    return TCoeffs(lambda i: x + (i - 1) * u, lambda i: z + (i - 1) * w)


def _semifactorial() -> TCoeffs:
    return TCoeffs(lambda i: Polynomial.const(i), _zero)


def _eulerian2_reversed() -> TCoeffs:
    x = var("x")
    return TCoeffs(lambda i: Polynomial.const(i), lambda i: (i - 1) * (x - 1))


def _master_T() -> TCoeffs:
    # Fully symbolic coefficients of the master T-fraction for decorated
    # matchings: alpha_n = a[n-1] * bstar_{n-1}, delta_n = fstar_{n-2} + gstar_{n-1},
    # where wstar_m = sum_{l=0}^m w[l, m-l].
    w = IndexedWeights.symbolic()
    return TCoeffs(
        lambda n: w.a(n - 1) * star(w.b, n - 1),
        lambda n: star(w.f, n - 2) + star(w.g, n - 1),
    )


FAMILIES: dict[str, Callable[[], TCoeffs]] = {
    "ward": _ward,
    "ward-reversed": _ward_reversed,
    "generalized-ward": _generalized_ward,
    "semifactorial": _semifactorial,
    "eulerian2-reversed": _eulerian2_reversed,
    "master-T": _master_T,
}


def named_family(name: str) -> TCoeffs:
    try:
        return FAMILIES[name]()
    except KeyError:
        raise ValueError(f"unknown coefficient family {name!r}") from None
