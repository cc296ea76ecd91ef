"""Exact sparse multivariate polynomials and truncated formal power series.

Coefficients are arbitrary-precision rationals, stored as plain ``int``
whenever the denominator is 1 and as ``fractions.Fraction`` otherwise.
Polynomials are kept in canonical form (no zero coefficients, monomials
compared in graded-lexicographic order), so structural equality is
mathematical equality.

Series are truncated at an explicit order; operations on mismatched orders
raise rather than silently truncating.  The variable ``t`` is reserved for
the series direction and is rejected inside series coefficients.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

Rat = Union[int, Fraction]


def _norm_coeff(c: Rat) -> Rat:
    """Store exact rationals as int when the denominator is 1."""
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return c
    return c


def _accumulate(target: dict, terms: Mapping) -> None:
    """Add a term map into an accumulator dict (zeros left for later sweep)."""
    get = target.get
    for m, c in terms.items():
        prev = get(m)
        target[m] = c if prev is None else prev + c


# Variable names: an ASCII letter, then ASCII letters, digits or primes.
# parse_poly reads exactly these, so every name survives its text format.
_NAME = r"[A-Za-z][A-Za-z0-9']*"


class VarId:
    """An indeterminate: a short name plus up to two nonnegative indices.

    Examples: ``VarId("x")``, ``VarId("a", 3)``, ``VarId("b", 2, 1)``,
    ``VarId("w''")``.
    Total order is lexicographic by (name, indices).  Instances are
    interned, so equality is identity.
    """

    __slots__ = ("name", "indices", "_key", "_hash")
    _cache: dict[tuple, "VarId"] = {}

    def __new__(cls, name: str, *indices: int):
        key = (name, indices)
        got = cls._cache.get(key)
        if got is not None:
            return got
        if not re.fullmatch(_NAME, name, re.ASCII):
            raise ValueError(f"bad variable name: {name!r}")
        if len(indices) > 2 or any(not isinstance(i, int) or i < 0 for i in indices):
            raise ValueError(f"bad variable indices: {indices!r}")
        self = super().__new__(cls)
        self.name = name
        self.indices = tuple(int(i) for i in indices)
        self._key = (self.name, self.indices)
        self._hash = hash(self._key)
        cls._cache[key] = self
        return self

    def __eq__(self, other):
        return self is other

    def __lt__(self, other: "VarId"):
        return self._key < other._key

    def __le__(self, other: "VarId"):
        return self is other or self._key < other._key

    def __hash__(self):
        return self._hash

    def __str__(self):
        if self.indices:
            return f"{self.name}[{','.join(map(str, self.indices))}]"
        return self.name

    def __repr__(self):
        return f"VarId({str(self)!r})"


T_VAR = VarId("t")


class Monomial:
    """A power product, stored as a sorted tuple of (VarId, exponent > 0)."""

    __slots__ = ("exps", "degree", "_hash")

    def __init__(self, exps: Iterable[tuple[VarId, int]] = ()):
        pairs = sorted((v, int(e)) for v, e in exps if e != 0)
        if any(e < 0 for _, e in pairs):
            raise ValueError("negative exponent")
        if len({v for v, _ in pairs}) != len(pairs):
            raise ValueError("repeated variable in monomial")
        self.exps = tuple(pairs)
        self.degree = sum(e for _, e in pairs)
        self._hash = hash(self.exps)

    @classmethod
    def _make(cls, exps: tuple, degree: int) -> "Monomial":
        m = cls.__new__(cls)
        m.exps = exps
        m.degree = degree
        m._hash = hash(exps)
        return m

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __lt__(self, other: "Monomial"):
        # Graded lex: total degree first, then the earliest variable (in
        # VarId order) with a differing exponent decides, larger exponent
        # winning.
        if self.degree != other.degree:
            return self.degree < other.degree
        i = j = 0
        a, b = self.exps, other.exps
        while i < len(a) and j < len(b):
            va, ea = a[i]
            vb, eb = b[j]
            if va == vb:
                if ea != eb:
                    return ea < eb
                i += 1
                j += 1
            elif va < vb:
                return False  # self has the earlier variable -> larger
            else:
                return True
        if i < len(a):
            return False
        if j < len(b):
            return True
        return False

    def __le__(self, other: "Monomial"):
        return self == other or self < other

    def __mul__(self, other: "Monomial") -> "Monomial":
        a, b = self.exps, other.exps
        if not a:
            return other
        if not b:
            return self
        out = []
        i = j = 0
        la, lb = len(a), len(b)
        while i < la and j < lb:
            pa, pb = a[i], b[j]
            va, vb = pa[0], pb[0]
            if va is vb:
                out.append((va, pa[1] + pb[1]))
                i += 1
                j += 1
            elif va._key < vb._key:
                out.append(pa)
                i += 1
            else:
                out.append(pb)
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return Monomial._make(tuple(out), self.degree + other.degree)

    def exponent(self, v: VarId) -> int:
        for w, e in self.exps:
            if w == v:
                return e
        return 0

    def variables(self) -> tuple[VarId, ...]:
        return tuple(v for v, _ in self.exps)

    def is_one(self) -> bool:
        return not self.exps

    def __str__(self):
        if not self.exps:
            return "1"
        return "*".join(str(v) if e == 1 else f"{v}^{e}" for v, e in self.exps)

    def __repr__(self):
        return f"Monomial({str(self)})"


_ONE_MONOMIAL = Monomial()


class Polynomial:
    """Sparse exact polynomial: a map from Monomial to nonzero rational.

    Canonical form makes ``==`` structural and mathematical at once.
    Instances are immutable by convention; all operations return new values.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Rat] | None = None):
        out: dict[Monomial, Rat] = {}
        if terms:
            for m, c in terms.items():
                c = _norm_coeff(c)
                if c != 0:
                    out[m] = c
        self.terms = out
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c: Rat) -> "Polynomial":
        return cls({_ONE_MONOMIAL: Fraction(c)} if c else {})

    @classmethod
    def variable(cls, v: VarId) -> "Polynomial":
        return cls({Monomial(((v, 1),)): 1})

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls.const(1)

    # -- ring structure ----------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return Polynomial.const(value)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = _norm_coeff(s)
        return Polynomial._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return Polynomial._coerce(other) + (-self)

    def __mul__(self, other):
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Monomial, Rat] = {}
        get = out.get
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1 * m2
                prev = get(m)
                out[m] = c1 * c2 if prev is None else prev + c1 * c2
        return Polynomial._raw(
            {m: _norm_coeff(c) for m, c in out.items() if c != 0}
        )

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    @classmethod
    def _raw(cls, terms: dict[Monomial, Rat]) -> "Polynomial":
        p = cls.__new__(cls)
        p.terms = terms
        p._hash = None
        return p

    @classmethod
    def sum(cls, polys: Iterable["Polynomial"]) -> "Polynomial":
        """Sum many polynomials with a single accumulator dict."""
        out: dict[Monomial, Rat] = {}
        for p in polys:
            _accumulate(out, p.terms)
        return cls._raw({m: _norm_coeff(c) for m, c in out.items() if c != 0})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_integer(self) -> bool:
        """True iff every coefficient has denominator 1."""
        return all(isinstance(c, int) for c in self.terms.values())

    def coefficientwise_nonneg(self) -> bool:
        return all(c >= 0 for c in self.terms.values())

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m.degree for m in self.terms)

    def variables(self) -> set[VarId]:
        out: set[VarId] = set()
        for m in self.terms:
            out.update(m.variables())
        return out

    def contains_var(self, v: VarId) -> bool:
        return any(m.exponent(v) for m in self.terms)

    def coefficient(self, m: Monomial) -> Rat:
        return self.terms.get(m, 0)

    def coefficient_of(self, v: VarId, k: int) -> "Polynomial":
        """The polynomial coefficient of v**k, with v stripped out."""
        out: dict[Monomial, Rat] = {}
        for m, c in self.terms.items():
            if m.exponent(v) == k:
                rest = Monomial((w, e) for w, e in m.exps if w != v)
                out[rest] = out.get(rest, 0) + c
        return Polynomial(out)

    # -- algebra helpers -----------------------------------------------------

    def substitute(self, bindings: Mapping[VarId, "Polynomial | Rat"]) -> "Polynomial":
        """Ring-homomorphic image; unbound variables pass through."""
        if not bindings:
            return self
        images = {v: Polynomial._coerce(p) for v, p in bindings.items()}
        powers: dict[tuple[VarId, int], Polynomial] = {}

        def power(v: VarId, e: int) -> Polynomial:
            key = (v, e)
            got = powers.get(key)
            if got is None:
                got = images[v] ** e
                powers[key] = got
            return got

        pieces = []
        for m, c in self.terms.items():
            factor = Polynomial.const(c)
            passthrough: list[tuple[VarId, int]] = []
            for v, e in m.exps:
                if v in images:
                    factor = factor * power(v, e)
                else:
                    passthrough.append((v, e))
            if passthrough:
                factor = factor * Polynomial._raw({Monomial(passthrough): 1})
            pieces.append(factor)
        return Polynomial.sum(pieces)

    def deriv(self, v: VarId) -> "Polynomial":
        """Exact partial derivative with respect to v."""
        out: dict[Monomial, Rat] = {}
        for m, c in self.terms.items():
            e = m.exponent(v)
            if e == 0:
                continue
            rest = Monomial(
                tuple((w, k) for w, k in m.exps if w != v)
                + ((() if e == 1 else ((v, e - 1),)))
            )
            out[rest] = out.get(rest, 0) + c * e
        return Polynomial(out)

    def div_var(self, v: VarId) -> "Polynomial":
        """Exact division by the variable v; raises if not divisible."""
        out: dict[Monomial, Rat] = {}
        for m, c in self.terms.items():
            e = m.exponent(v)
            if e == 0:
                raise ValueError(f"not divisible by {v}")
            rest = Monomial(
                tuple((w, k) for w, k in m.exps if w != v)
                + ((() if e == 1 else ((v, e - 1),)))
            )
            out[rest] = c
        return Polynomial(out)

    def divide_exact(self, divisor: "Polynomial") -> "Polynomial":
        """Exact polynomial division; raises ValueError on nonzero remainder.

        Long division by graded-lex leading terms.  Only valid (and only
        terminating with zero remainder) when the divisor divides self.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        quotient: dict[Monomial, Rat] = {}
        rem = dict(self.terms)
        lead_m = max(divisor.terms)
        lead_c = divisor.terms[lead_m]
        lead_exps = dict(lead_m.exps)
        while rem:
            m = max(rem)
            c = rem[m]
            mexps = dict(m.exps)
            q_exps = {}
            for v, e in lead_exps.items():
                d = mexps.get(v, 0) - e
                if d < 0:
                    raise ValueError("not exactly divisible")
                if d:
                    q_exps[v] = d
            for v, e in mexps.items():
                if v not in lead_exps:
                    q_exps[v] = e
            qm = Monomial(q_exps.items())
            qc = _norm_coeff(Fraction(c) / Fraction(lead_c))
            quotient[qm] = quotient.get(qm, 0) + qc
            for dm, dc in divisor.terms.items():
                key = dm * qm
                s = rem.get(key, 0) - dc * qc
                if s == 0:
                    rem.pop(key, None)
                else:
                    rem[key] = _norm_coeff(s)
        return Polynomial(quotient)

    def reversed_in(self, v: VarId, n: int) -> "Polynomial":
        """Degree-n reversal in v: sum c_k v^k  ->  sum c_k v^(n-k)."""
        out: dict[Monomial, Rat] = {}
        for m, c in self.terms.items():
            e = m.exponent(v)
            if e > n:
                raise ValueError("degree exceeds reversal bound")
            rest = tuple((w, k) for w, k in m.exps if w != v)
            if n - e:
                rest = rest + ((v, n - e),)
            out[Monomial(rest)] = c
        return Polynomial(out)

    # -- text format ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            neg = c < 0
            a = -c if neg else c
            if m.is_one():
                body = _coeff_str(a)
            elif a == 1:
                body = str(m)
            else:
                body = f"{_coeff_str(a)}*{m}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"


class _Packed:
    """Polynomials over a fixed variable list as dicts from packed integer
    keys to nonzero coefficients.

    A monomial's key holds its exponents as the digits of one integer, in
    a power-of-two base above max_exponent, so the key of a product is the
    sum of the keys.  Every exponent that arises, in the factors and in
    the products, must be at most max_exponent, or a digit carries into
    the next variable's.
    """

    def __init__(self, variables: list[VarId], max_exponent: int):
        self.base = 1 << max(max_exponent.bit_length(), 1)
        self._keys = {v: self.base**i for i, v in enumerate(variables)}

    def key(self, v: VarId) -> int:
        """The key of the monomial v."""
        return self._keys[v]

    def pack(self, p: Polynomial) -> dict[int, Rat]:
        out: dict[int, Rat] = {}
        for mono, c in p.terms.items():
            out[sum(e * self._keys[v] for v, e in mono.exps)] = c
        return out

    def unpack(self, d: dict[int, Rat]) -> Polynomial:
        terms = {}
        for key, c in d.items():
            exps = []
            for v in self._keys:
                key, e = divmod(key, self.base)
                if e:
                    exps.append((v, e))
            terms[Monomial(exps)] = c
        return Polynomial(terms)

    @staticmethod
    def add_product(acc: dict[int, Rat], a: dict[int, Rat], b: dict[int, Rat], sign: int) -> None:
        """Add sign*a*b into acc, dropping the keys whose coefficient cancels."""
        get = acc.get
        for k1, c1 in a.items():
            c1 *= sign
            for k2, c2 in b.items():
                k = k1 + k2
                s = get(k, 0) + c1 * c2
                if s:
                    acc[k] = s
                else:
                    del acc[k]


def _coeff_str(c: Rat) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


def var(name: str, *indices: int) -> Polynomial:
    """Convenience: the polynomial consisting of a single variable."""
    return Polynomial.variable(VarId(name, *indices))


_FACTOR = re.compile(
    rf"^(?P<name>{_NAME})"
    r"(?:\[(?P<idx>\d+(?:,\d+)?)\])?"
    r"(?:\^(?P<exp>\d+))?$",
    re.ASCII,
)
_NUMBER = re.compile(r"^\d+(?:/\d+)?$", re.ASCII)
_TERM_SEP = re.compile(r"\s*([+-])\s*")


def parse_poly(text: str) -> Polynomial:
    """Parse the canonical text format emitted by ``str(Polynomial)``.

    Terms are joined by binary ``+`` or ``-`` with optional whitespace
    around the operator, and the first term may carry a sign.  Whitespace
    anywhere else and empty terms are errors.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        s = s[1:]
    parts = _TERM_SEP.split(s)
    terms = [(sign, parts[0])] + [
        (1 if op == "+" else -1, term) for op, term in zip(parts[1::2], parts[2::2])
    ]
    if any(not term for _, term in terms):
        raise ValueError(f"empty term in {text!r}")
    total = Polynomial.zero()
    for sgn, term in terms:
        coeff: Rat = sgn
        exps: dict[VarId, int] = {}
        for factor in term.split("*"):
            if not factor:
                raise ValueError(f"bad term {term!r}")
            if _NUMBER.fullmatch(factor):
                if "/" in factor:
                    num, den = factor.split("/")
                    if int(den) == 0:
                        raise ValueError(f"zero denominator in {text!r}")
                    coeff = coeff * Fraction(int(num), int(den))
                else:
                    coeff = coeff * int(factor)
                continue
            m = _FACTOR.fullmatch(factor)
            if not m:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            idx = tuple(int(i) for i in m.group("idx").split(",")) if m.group("idx") else ()
            v = VarId(m.group("name"), *idx)
            e = int(m.group("exp")) if m.group("exp") else 1
            exps[v] = exps.get(v, 0) + e
        total = total + Polynomial._raw({Monomial(exps.items()): 1}) * coeff
    return total


class Series:
    """Truncated formal power series in t with Polynomial coefficients.

    ``coeffs[n]`` is the exact coefficient of t**n; arithmetic is exact
    modulo t**(order+1).
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Polynomial | Rat]):
        cs = [Polynomial._coerce(c) for c in coeffs]
        if len(cs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(cs)}")
        for c in cs:
            if c.contains_var(T_VAR):
                raise ValueError("series coefficient contains the variable t")
        self.order = order
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls(order, [Polynomial.zero()] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls(order, [Polynomial.one()] + [Polynomial.zero()] * order)

    @classmethod
    def t(cls, order: int) -> "Series":
        cs = [Polynomial.zero()] * (order + 1)
        if order >= 1:
            cs[1] = Polynomial.one()
        return cls(order, cs)

    # -- basics --------------------------------------------------------------

    def coefficient(self, n: int) -> Polynomial:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient index {n} out of range 0..{self.order}")
        return self.coeffs[n]

    def _check_order(self, other: "Series"):
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __eq__(self, other):
        return (
            isinstance(other, Series)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __add__(self, other: "Series") -> "Series":
        self._check_order(other)
        return Series(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Series") -> "Series":
        self._check_order(other)
        return Series(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "Series":
        return Series(self.order, [-a for a in self.coeffs])

    def __mul__(self, other: "Series") -> "Series":
        self._check_order(other)
        n = self.order
        acc: list[dict] = [{} for _ in range(n + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(0, n + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    _accumulate(acc[i + j], (a * b).terms)
        out = [
            Polynomial._raw({m: _norm_coeff(c) for m, c in d.items() if c != 0})
            for d in acc
        ]
        return Series(n, out)

    def scale(self, p: Polynomial | Rat) -> "Series":
        p = Polynomial._coerce(p)
        return Series(self.order, [c * p for c in self.coeffs])

    def shift(self) -> "Series":
        """Multiply by t, truncating at the fixed order."""
        return Series(self.order, (Polynomial.zero(),) + self.coeffs[:-1])

    def map_coeffs(self, f: Callable[[Polynomial], Polynomial]) -> "Series":
        return Series(self.order, [f(c) for c in self.coeffs])

    def reciprocal(self) -> "Series":
        """Inverse modulo t**(order+1); requires constant term 1."""
        if self.coeffs[0] != Polynomial.one():
            raise ValueError("reciprocal needs constant term 1")
        out = [Polynomial.one()]
        for n in range(1, self.order + 1):
            acc: dict = {}
            for j in range(1, n + 1):
                if not self.coeffs[j].is_zero():
                    _accumulate(acc, (self.coeffs[j] * out[n - j]).terms)
            out.append(
                Polynomial._raw({m: _norm_coeff(-c) for m, c in acc.items() if c != 0})
            )
        return Series(self.order, out)

    def compose(self, inner: "Series") -> "Series":
        """self(inner(t)); requires inner to have zero constant term."""
        self._check_order(inner)
        if not inner.coeffs[0].is_zero():
            raise ValueError("composition needs zero constant term")
        result = Series.zero(self.order)
        for c in reversed(self.coeffs):
            result = result * inner
            if not c.is_zero():
                result = Series(
                    self.order, (result.coeffs[0] + c,) + result.coeffs[1:]
                )
        return result

    def compositional_inverse(self) -> "Series":
        """The series r with self(r(t)) = t mod t**(order+1).

        Requires zero constant term and, from order 1 on, t-coefficient 1.
        By Lagrange inversion (Stanley, EC2 §5.4), writing self = t*g(t),

            [t^k] r = (1/k) [t^(k-1)] (1/g(t))^k,

        so one reciprocal and order-1 series products give every
        coefficient.  At order 0 the result is 0, at order 1 it is t.
        """
        if not self.coeffs[0].is_zero():
            raise ValueError("inverse needs zero constant term")
        n = self.order
        if n == 0:
            return Series.zero(0)
        if self.coeffs[1] != Polynomial.one():
            raise ValueError("inverse needs t-coefficient 1")
        h = Series(n - 1, self.coeffs[1:]).reciprocal()
        inv = [Polynomial.zero(), Polynomial.one()]
        power = h
        for k in range(2, n + 1):
            power = power * h
            inv.append(power.coeffs[k - 1] * Fraction(1, k))
        return Series(n, inv)

    def __str__(self):
        parts = []
        for n, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            body = str(c)
            if len(c.terms) > 1 or body.startswith("-"):
                body = f"({body})"
            if n == 0:
                parts.append(body)
            elif n == 1:
                parts.append("t" if body == "1" else f"{body}*t")
            else:
                parts.append(f"t^{n}" if body == "1" else f"{body}*t^{n}")
        if not parts:
            return "0"
        return " + ".join(parts) + f" + O(t^{self.order + 1})"

    def __repr__(self):
        return f"Series({self})"
