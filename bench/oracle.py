"""Output oracle for ``wardcf`` CLI jobs.

It imports nothing from ``wardcf``: it reads the printed text and checks it
with its own exact arithmetic (``fractions`` only).

* ``verify``: exit 0 and a ``PASS`` line for the requested suite that names
  the requested n (a clamped run is rejected).
* ``expand``: every printed polynomial, evaluated at the seed's rational
  point, equals the numeric T-fraction expansion at that point.  The
  expansion here is a transfer sum over 2-colored Schroeder paths (rises 1,
  a fall from height i weighs alpha_i, a long level at height i weighs
  delta_{i+1}), with the coefficient formulas of ``wardcf.contfrac``.
* ``invert``: every printed x_m, evaluated at the point, equals
  -(m+1)! [t^(m+1)] R(t), where R is the compositional inverse of
  F(t) = sum_n a_n t^(n+1)/(n+1)! and a_n is the four-variable family
  (alpha_i = x + (i-1)u, delta_i = z + (i-1)w) at the point.  R is found by
  Lagrange inversion, [t^k]R = (1/k)[s^(k-1)](s/F(s))^k.
* ``hankel``: ``"ok": true`` with the requested ``m`` and ``r_max``.

A ``--set`` binding fixes its variable at the value of the bound text at
the point, and the bound variable must be absent from the output.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from math import factorial
from typing import Callable, Optional

Value = Callable[[str, tuple], Fraction]

_FACTOR = re.compile(r"([A-Za-z][A-Za-z0-9']*)(?:\[(\d+(?:,\d+)?)\])?(?:\^(\d+))?\Z")
_NUMBER = re.compile(r"(\d+)(?:/(\d+))?\Z")
_SEPARATOR = re.compile(r" ([+-]) ")


def point(seed: int) -> Value:
    """The seed's evaluation point: each variable gets a nonzero one-digit
    rational +-p/q, fixed by the seed and the variable's name and indices."""
    cache: dict[tuple, Fraction] = {}

    def value(name: str, indices: tuple = ()) -> Fraction:
        key = (name, indices)
        got = cache.get(key)
        if got is None:
            rng = random.Random(f"wardcf-point:{seed}:{name}:{indices}")
            got = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            cache[key] = got
        return got

    return value


def _factor(part: str, value: Value) -> tuple[int, int, Optional[tuple]]:
    """(numerator, denominator, variable) of one ``*``-separated factor; the
    variable is None for a numeric coefficient."""
    num = _NUMBER.match(part)
    if num:
        den = int(num.group(2) or 1)
        if den == 0:
            raise ValueError(f"zero denominator in {part!r}")
        return int(num.group(1)), den, None
    f = _FACTOR.match(part)
    if not f:
        raise ValueError(f"bad factor {part!r}")
    key = (f.group(1), tuple(int(i) for i in f.group(2).split(",")) if f.group(2) else ())
    v = value(*key) ** int(f.group(3) or 1)
    return v.numerator, v.denominator, key


def evaluate(text: str, value: Value, seen: Optional[set] = None) -> Fraction:
    """Value of canonical polynomial text, such as ``-3/7*x^2*a[1,2] + w''``,
    at a point.  Adds each (name, indices) it reads to ``seen`` if given.
    Raises ValueError on text outside the canonical format."""
    if text == "0":
        return Fraction(0)
    pieces = _SEPARATOR.split(text)
    signs = ["-" if pieces[0].startswith("-") else "+"] + pieces[1::2]
    bodies = [pieces[0].removeprefix("-")] + pieces[2::2]
    factors: dict[str, tuple] = {}
    by_den: dict[int, int] = {}  # denominator -> sum of numerators
    for sign, body in zip(signs, bodies):
        num, den = (-1 if sign == "-" else 1), 1
        for k, part in enumerate(body.split("*")):
            f = factors.get(part)
            if f is None:
                f = factors[part] = _factor(part, value)
            if f[2] is None and k:
                raise ValueError(f"coefficient {part!r} after a variable in {text!r}")
            num *= f[0]
            den *= f[1]
        by_den[den] = by_den.get(den, 0) + num
    if seen is not None:
        seen.update(f[2] for f in factors.values() if f[2] is not None)
    return sum((Fraction(n, d) for d, n in by_den.items()), Fraction(0))


# -- numeric fractions ---------------------------------------------------------


def tfraction_series(alpha: Callable[[int], Fraction], delta: Callable[[int], Fraction],
                     order: int) -> list[Fraction]:
    """Coefficients a_0..a_order of the T-fraction, by summing weighted
    2-colored Schroeder paths of width 2n column by column."""
    width = 2 * order
    al = [Fraction(0)] + [alpha(i) for i in range(1, order + 1)]
    de = [delta(i) for i in range(1, order + 2)]  # de[h] = delta_{h+1}
    cols = [[Fraction(0)] * (order + 1) for _ in range(width + 1)]
    cols[0][0] = Fraction(1)
    for x in range(width):
        here = cols[x]
        for h in range(min(x, width - x, order) + 1):
            v = here[h]
            if not v:
                continue
            if h < width - x - 1:
                cols[x + 1][h + 1] += v
            if h:
                cols[x + 1][h - 1] += v * al[h]
            if x + 2 <= width:
                cols[x + 2][h] += v * de[h]
    return [cols[2 * n][0] for n in range(order + 1)]


def family(name: str, value: Value):
    """(alpha, delta) of a named ``wardcf.contfrac`` family at a point."""
    if name == "ward":
        x = value("x", ())
        return (lambda i: i * x), (lambda i: Fraction(i - 1))
    if name == "generalized-ward":
        x, u, z, w = (value(v, ()) for v in "xuzw")
        return (lambda i: x + (i - 1) * u), (lambda i: z + (i - 1) * w)
    if name == "eulerian2-reversed":
        x = value("x", ())
        return (lambda i: Fraction(i)), (lambda i: (i - 1) * (x - 1))
    if name == "master-T":
        def star(v: str, m: int) -> Fraction:
            return sum((value(v, (l, m - l)) for l in range(m + 1)), Fraction(0))

        return (
            lambda n: value("a", (n - 1,)) * star("b", n - 1),
            lambda n: star("f", n - 2) + star("g", n - 1),
        )
    raise ValueError(f"no oracle for family {name!r}")


def inverse_x(a: list[Fraction], order: int) -> list[Fraction]:
    """x_1..x_order = -(m+1)! [t^(m+1)] R, R the compositional inverse of
    F(t) = sum_n a_n t^(n+1)/(n+1)!, by Lagrange inversion."""
    g = [a[n] / factorial(n + 1) for n in range(order + 1)]  # F(s) = s g(s)
    h = [Fraction(1) / g[0]]  # h = 1/g
    for n in range(1, order + 1):
        h.append(-sum((g[j] * h[n - j] for j in range(1, n + 1)), Fraction(0)) / g[0])
    power = [Fraction(1)] + [Fraction(0)] * order  # h^k, k = 0, 1, ...
    out = []
    for k in range(1, order + 2):
        power = [sum((power[j] * h[n - j] for j in range(n + 1)), Fraction(0))
                 for n in range(order + 1)]
        if k >= 2:
            out.append(-factorial(k) * power[k - 1] / k)
    return out


# -- job checks ------------------------------------------------------------------


def _option(argv: list[str], flag: str) -> Optional[str]:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _bindings(argv: list[str]) -> list[tuple[str, str]]:
    return [tuple(argv[i + 1].split("=", 1)) for i, a in enumerate(argv) if a == "--set"]


def _bound_point(argv: list[str], seed: int) -> tuple[Value, set]:
    """The seed's point with ``--set`` bindings applied, and the bound names."""
    base = point(seed)
    fixed = {name: evaluate(text, base) for name, text in _bindings(argv)}

    def value(name: str, indices: tuple = ()) -> Fraction:
        if not indices and name in fixed:
            return fixed[name]
        return base(name, indices)

    return value, set(fixed)


def _check_polys(texts: list[str], expected: list[Fraction], value: Value,
                 bound: set, label: Callable[[int], str]) -> Optional[str]:
    for i, (text, want) in enumerate(zip(texts, expected)):
        seen: set = set()
        try:
            got = evaluate(text, value, seen)
        except ValueError as exc:
            return f"{label(i)}: {exc}"
        except ZeroDivisionError:
            return f"{label(i)}: division by zero"
        if any(name in bound and not idx for name, idx in seen):
            return f"{label(i)} still contains a bound variable"
        if got != want:
            return f"{label(i)} is {got} at the point, expected {want}"
    return None


def check(argv: list[str], returncode: int, stdout: str, seed: int) -> Optional[str]:
    """None if the job's output is correct, else the reason it is not."""
    if returncode != 0:
        return f"exit code {returncode}"
    verb = argv[0]
    lines = stdout.splitlines()
    if verb == "verify":
        suite, n = _option(argv, "--suite"), int(_option(argv, "--n"))
        if len(lines) != 1:
            return f"expected one PASS line, got {len(lines)} lines"
        m = re.fullmatch(r"PASS: (\S+): .*(?:n <= |order )(-?\d+)", lines[0])
        if not m or m.group(1) != suite:
            return f"not a PASS line for {suite}: {lines[0][:120]!r}"
        if int(m.group(2)) != n:
            return f"PASS line names n={m.group(2)}, requested {n}"
        return None
    if verb == "hankel":
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return "hankel report is not JSON"
        size = int(_option(argv, "--size"))
        want = {"sequence": _option(argv, "--family"), "m": size, "r_max": size, "ok": True}
        got = {k: report.get(k) for k in want} if isinstance(report, dict) else None
        return None if got == want else f"hankel report {stdout.strip()[:120]!r}"
    value, bound = _bound_point(argv, seed)
    order = int(_option(argv, "--order"))
    if verb == "expand":
        if len(lines) != 1:
            return f"expected one line, got {len(lines)}"
        texts = lines[0].split(", ")
        if len(texts) != order + 1:
            return f"expected {order + 1} coefficients, got {len(texts)}"
        alpha, delta = family(_option(argv, "--family"), value)
        expected = tfraction_series(alpha, delta, order)
        return _check_polys(texts, expected, value, bound, lambda i: f"coefficient {i}")
    if verb == "invert":
        texts = []
        for m, line in enumerate(lines, start=1):
            head, sep, text = line.partition(" = ")
            if head != f"x{m}" or not sep:
                return f"line {m} is not 'x{m} = ...'"
            texts.append(text)
        if len(texts) != order:
            return f"expected {order} lines, got {len(texts)}"
        alpha, delta = family("generalized-ward", value)
        expected = inverse_x(tfraction_series(alpha, delta, order), order)
        return _check_polys(texts, expected, value, bound, lambda i: f"x{i + 1}")
    return f"no oracle for verb {verb!r}"
