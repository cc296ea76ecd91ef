"""Exact sparse multivariate polynomials and truncated formal power series.

A polynomial is an integer polynomial over one denominator.  Its ``terms``
map packed monomial keys to nonzero ``int`` numerators, and its ``den`` is
a positive ``int`` with gcd(den, *numerators) = 1; zero is ``({}, 1)``.
This lowest-terms form is canonical, so structural equality is
mathematical equality.  Every sum, product, reciprocal, derivative,
coefficient extraction and substitution runs on ints and finishes through
``_lowest``: one gcd over the numerators, and one exact division when it
is not 1.  A ``Fraction`` appears only at the boundary: ``Polynomial(...)``,
``const`` and ``parse_poly`` read rationals through ``_from_rationals``,
and ``items()``, ``coefficient()`` and the text format write them through
``_ratio``.

A private registry gives each variable, on its first use in a polynomial, a
fixed 16-bit slot: 15 exponent bits and one guard bit above them.  A
monomial's key holds each exponent in its variable's slot, so the key of a
product is the sum of the keys.  Exponents are at most ``MAX_EXPONENT``;
the guard bits are checked once per product, or once per accumulated sum
of products, and an ``OverflowError`` is raised rather than let an
exponent carry into the next slot.  Slots follow the order of first use,
which differs from process to process, so nothing visible depends on
them: ``==`` and hashing compare keys within one process, and the
canonical text orders monomials graded-lexicographically by VarId, an
order computed only when printing, by sorts whose keys compare in C.
``Monomial`` is the boundary type for building terms
(``Polynomial({Monomial: c})``) and reading them (``items()``).  This
module is the only one that defines a key format: the decorated-matching
transfer in ``matchings`` adds the registry's variable keys and checks its
guard bits, and the Hankel scan re-encodes the Monomials it reads.

``_add_product`` multiplies and adds the numerators of two term maps into
an accumulator.  A ``Polynomial`` product divides it by the product of the
two denominators.  ``Polynomial.product`` keeps a run of one-term factors
as one running term, a sum of keys and a product of numerators, and
chains ``_add_product`` over the factors from the first one with zero or
several terms on; it checks the guard bits after every factor and
divides once at the end.  A
``Series`` product or reciprocal first brings each operand's coefficients
over the lcm of their stored denominators (``Polynomial._scaled``; an
integer series is neither scaled nor copied).
``compose`` and ``compositional_inverse`` run on the same products, and
``substitute`` multiplies each term's factors in one ``Polynomial.product``.

Series are truncated at an explicit order; operations on mismatched orders
raise rather than silently truncating.  The variable ``t`` is reserved for
the series direction and is rejected inside series coefficients.
"""

from __future__ import annotations

import re
import sys
from array import array
from fractions import Fraction
from functools import reduce
from itertools import chain, compress
from math import gcd, lcm
from operator import getitem, or_
from typing import Callable, Iterable, Iterator, Mapping, Union

Rat = Union[int, Fraction]

_EXPONENT_BITS = 15
_SLOT_BITS = _EXPONENT_BITS + 1
MAX_EXPONENT = (1 << _EXPONENT_BITS) - 1


def _checked(value, types: tuple, what: str):
    """value, if it is an instance of one of types; TypeError otherwise."""
    if not isinstance(value, types):
        names = " or ".join(t.__name__ for t in types)
        raise TypeError(f"a {what} must be {names}, not {type(value).__name__}")
    return value


def _lowest(terms: dict[int, int], den: int) -> "Polynomial":
    """The polynomial terms / den in lowest terms, for den > 0.

    terms is an accumulator the caller gives up: its zero values are
    deleted and the rest divided by their gcd with den in place, so no
    second dict is built.
    """
    if not all(terms.values()):
        for k in [k for k, c in terms.items() if not c]:
            del terms[k]
    if den != 1:
        g = gcd(den, *terms.values())  # den itself when terms is empty
        if g != 1:
            den //= g
            for k, c in terms.items():
                terms[k] = c // g
    return Polynomial._raw(terms, den)


def _from_rationals(pairs: Iterable[tuple[int, Rat]]) -> "Polynomial":
    """The sum of the terms c * key over the (key, int or Fraction) pairs:
    their numerators over the lcm of their denominators, in lowest terms."""
    pairs = list(pairs)
    den = lcm(*[c.denominator for _, c in pairs])
    out: dict[int, int] = {}
    for k, c in pairs:
        out[k] = out.get(k, 0) + c.numerator * (den // c.denominator)
    return _lowest(out, den)


def _ratio(num: int, den: int) -> Rat:
    """num / den: an int when the division is exact, else a Fraction
    reduced by one gcd."""
    if den == 1:
        return num
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _add_product(acc: dict, a: Mapping[int, int], b: Mapping[int, int]) -> None:
    """Add the product of two maps of key to int numerator into the
    accumulator acc, the shorter one in the outer loop.

    Every key the product makes stays in acc, zeros included, so that one
    ``_SLOTS.check(acc)`` before ``_lowest`` sees all of them.
    """
    if len(a) > len(b):
        a, b = b, a
    right = b.items()
    get = acc.get
    for k1, c1 in a.items():
        for k2, c2 in right:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2


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
            # 1.0 == 1 finds a[1] too, so only int indices may take the hit.
            for i in indices:
                if type(i) is not int:
                    break
            else:
                return got
        if not re.fullmatch(_NAME, name, re.ASCII):
            raise ValueError(f"bad variable name: {name!r}")
        if len(indices) > 2 or any(type(i) is not int or i < 0 for i in indices):
            raise ValueError(f"bad variable indices: {indices!r}")
        self = super().__new__(cls)
        self.name = name
        self.indices = indices
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
    """A power product, stored as a sorted tuple of (VarId, exponent > 0).

    The boundary type of the polynomial kernel: terms are built from and
    read back as Monomials, and ``<`` (graded lex) is the reference for
    the order of the canonical text.
    """

    __slots__ = ("exps", "degree", "_hash")

    def __init__(self, exps: Iterable[tuple[VarId, int]] = ()):
        pairs = sorted((v, int(e)) for v, e in exps if _checked(e, (int,), "monomial exponent"))
        if any(e < 0 for _, e in pairs):
            raise ValueError("negative exponent")
        if len({v for v, _ in pairs}) != len(pairs):
            raise ValueError("repeated variable in monomial")
        self.exps = tuple(pairs)
        self.degree = sum(e for _, e in pairs)
        self._hash = hash(self.exps)

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

    def variables(self) -> tuple[VarId, ...]:
        return tuple(v for v, _ in self.exps)

    def __str__(self):
        if not self.exps:
            return "1"
        return "*".join(str(v) if e == 1 else f"{v}^{e}" for v, e in self.exps)

    def __repr__(self):
        return f"Monomial({str(self)})"


# -- packed keys ---------------------------------------------------------------------

_BIG_ENDIAN = sys.byteorder == "big"


def _slot_values(raw: bytes) -> array:
    """The exponent in each slot of a key written as little-endian bytes."""
    slots = array("H", raw)
    if _BIG_ENDIAN:
        slots.byteswap()
    return slots


def _exponents(key: int, nbytes: int) -> array:
    """The exponent in each of the first nbytes // 2 slots of key."""
    return _slot_values(key.to_bytes(nbytes, "little"))


def _nbytes(key: int) -> int:
    """Bytes that hold every slot of key up to its highest nonzero one."""
    return (key.bit_length() + _SLOT_BITS - 1) // _SLOT_BITS * 2


class _SlotRegistry:
    """The slot of every variable used in a polynomial so far.

    Variables get slots in order of first use: slot i holds its variable's
    exponent in bits 16i..16i+14 of a key, and bit 16i+15 is its guard.
    Keys in a polynomial keep every guard bit clear, so the sum of two
    keys sets a guard bit exactly when an exponent overflows.
    """

    def __init__(self):
        self.units: dict[VarId, int] = {}
        self.variables: list[VarId] = []
        self.guards = 0

    def unit(self, v: VarId) -> int:
        """The key of the monomial v; gives v a slot on first use."""
        u = self.units.get(v)
        if u is None:
            u = 1 << (_SLOT_BITS * len(self.variables))
            self.units[v] = u
            self.variables.append(v)
            self.guards |= u << _EXPONENT_BITS
        return u

    def key(self, m: Monomial) -> int:
        key = 0
        for v, e in _checked(m, (Monomial,), "term key").exps:
            if e > MAX_EXPONENT:
                raise OverflowError(f"exponent {e} of {v} exceeds {MAX_EXPONENT}")
            key += e * self.unit(v)
        return key

    def monomial(self, key: int) -> Monomial:
        exps = _exponents(key, _nbytes(key))
        return Monomial((self.variables[i], e) for i, e in enumerate(exps) if e)

    def check(self, keys: Iterable[int]) -> None:
        """Raise OverflowError if one of the keys of a product (a term map,
        or any iterable of keys) set a guard bit."""
        if reduce(or_, keys, 0) & self.guards:
            raise OverflowError(f"a product has an exponent above {MAX_EXPONENT}")


_SLOTS = _SlotRegistry()


class _Powers(dict):
    """The text of v^e, by e, for one variable v."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def __missing__(self, e: int) -> str:
        text = self[e] = self.name if e == 1 else f"{self.name}^{e}"
        return text


# Keys re-laid out per block when printing: bounds the copies' memory.
_PRINT_BLOCK = 2048


def _print_order(keys: list[int]) -> Iterator[tuple[int, str]]:
    """Each key with its monomial's text (empty for the constant), in
    descending graded-lex order of the monomials.

    A first pass reads each key's degree, a block of keys at a time.  Then
    the keys of one degree class at a time, highest first, are laid out as
    rows and sorted: the exponents of the variables that occur are copied,
    a block of keys at a time and one slot-wide column at a time, into one
    row per key, the variables in VarId order, two big-endian bytes each.
    Rows compare in C as lex compares the monomials.  Only one class's rows
    are held at a time, and each row is freed as its text is yielded.
    """
    present = reduce(or_, keys, 0)
    if not present:
        yield 0, ""
        return
    nbytes = _nbytes(present)
    per_key = nbytes // 2
    slots = [i for i, e in enumerate(_exponents(present, nbytes)) if e]
    slots.sort(key=_SLOTS.variables.__getitem__)
    width = 2 * len(slots)
    classes: dict[int, list[int]] = {}
    for start in range(0, len(keys), _PRINT_BLOCK):
        block = keys[start : start + _PRINT_BLOCK]
        exps = _slot_values(b"".join([k.to_bytes(nbytes, "little") for k in block]))
        for k, i in zip(block, range(0, len(exps), per_key)):
            classes.setdefault(sum(exps[i : i + per_key]), []).append(k)
    powers = [_Powers(str(_SLOTS.variables[s])) for s in slots]
    for degree in sorted(classes, reverse=True):
        same = classes.pop(degree)
        rows: list = []
        for start in range(0, len(same), _PRINT_BLOCK):
            raw = b"".join([k.to_bytes(nbytes, "little") for k in same[start : start + _PRINT_BLOCK]])
            block = bytearray(len(raw) // nbytes * width)
            for j, s in enumerate(slots):
                block[2 * j :: width] = raw[2 * s + 1 :: nbytes]
                block[2 * j + 1 :: width] = raw[2 * s :: nbytes]
            block = bytes(block)
            rows += [block[i : i + width] for i in range(0, len(block), width)]
        for i in sorted(range(len(same)), key=rows.__getitem__, reverse=True):
            exps = array("H", rows[i])
            rows[i] = None  # each row is read once; free it as the text grows
            if not _BIG_ENDIAN:
                exps.byteswap()
            yield same[i], "*".join(map(getitem, compress(powers, exps), compress(exps, exps)))


class Polynomial:
    """Sparse exact polynomial: ``terms``, a map from packed monomial key to
    nonzero int numerator, over the positive int ``den``, in lowest terms
    (see the module docstring).

    Canonical form makes ``==`` structural and mathematical at once.
    Instances are immutable by convention; all operations return new values.
    """

    __slots__ = ("terms", "den", "_hash")

    def __init__(self, terms: Mapping[Monomial, Rat] | None = None):
        if terms is not None and not isinstance(terms, Mapping):
            raise TypeError(
                f"terms must be a mapping of Monomial to coefficient, not {type(terms).__name__}"
                " (Polynomial.const makes a constant)"
            )
        p = _from_rationals(
            (_SLOTS.key(m), c)
            for m, c in (terms or {}).items()
            if _checked(c, (int, Fraction), "coefficient")
        )
        self.terms, self.den = p.terms, p.den
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c: Rat) -> "Polynomial":
        if type(c) is int:
            return cls._raw({0: c} if c else {})
        return _from_rationals([(0, _checked(c, (int, Fraction), "coefficient"))])

    @classmethod
    def variable(cls, v: VarId) -> "Polynomial":
        return cls._raw({_SLOTS.unit(v): 1})

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

    @staticmethod
    def _coerce_or_raise(value) -> "Polynomial":
        """value as a Polynomial; unlike _coerce, raises TypeError if it cannot be."""
        return Polynomial._coerce(_checked(value, (Polynomial, int, Fraction), "polynomial value"))

    def _scaled(self, den: int) -> dict[int, int]:
        """The numerators of self over den, a multiple of self.den: its own
        terms, not a copy, when den is self.den."""
        if den == self.den:
            return self.terms
        scale = den // self.den
        return {k: c * scale for k, c in self.terms.items()}

    def __add__(self, other):
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if len(self.terms) < len(other.terms):  # copy the longer, add the shorter in
            self, other = other, self
        den = lcm(self.den, other.den)
        out = dict(self._scaled(den))
        get = out.get
        for k, c in other._scaled(den).items():
            out[k] = get(k, 0) + c
        return _lowest(out, den)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw({m: -c for m, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, int] = {}
        if len(a) == 1:  # one term shifts every key of b alike: no collisions
            ((k1, c1),) = a.items()
            for k2, c2 in b.items():
                out[k1 + k2] = c1 * c2
        else:
            _add_product(out, a, b)
        _SLOTS.check(out)
        return _lowest(out, self.den * other.den)

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
    def _raw(cls, terms: dict[int, int], den: int = 1) -> "Polynomial":
        p = cls.__new__(cls)
        p.terms = terms
        p.den = den
        p._hash = None
        return p

    @classmethod
    def sum(cls, polys: Iterable["Polynomial | Rat"]) -> "Polynomial":
        """Sum many polynomials with a single accumulator dict, over the lcm
        of the denominators seen so far: a new denominator rescales the
        accumulator, so polys is read once and never listed.  int and
        Fraction items count as constants, as in ``+``; any other item
        raises TypeError."""
        out: dict[int, int] = {}
        get = out.get
        den = 1
        for p in polys:
            if not isinstance(p, Polynomial):
                p = cls._coerce_or_raise(p)
            if den % p.den:
                scale = p.den // gcd(den, p.den)
                for k, c in out.items():
                    out[k] = c * scale
                den *= scale
            for k, c in p._scaled(den).items():
                out[k] = get(k, 0) + c
        return _lowest(out, den)

    @classmethod
    def product(cls, polys: Iterable["Polynomial | Rat"]) -> "Polynomial":
        """Multiply many polynomials, dividing by the product of their
        denominators once, in one ``_lowest`` at the end.  The empty product
        is 1; int and Fraction items count as constants, as in ``*``, and
        any other item raises TypeError.

        While every factor so far has one term, the running product is one
        term too: its key is the sum of the factors' keys, with the guard
        bits checked after each addition, and its numerator the product of
        theirs.  From the first factor with zero or several terms on, each
        factor's numerators are multiplied into a fresh dict by
        ``_add_product`` and its guard bits checked."""
        key, num, den = 0, 1, 1
        polys = iter(polys)
        for p in polys:
            if not isinstance(p, Polynomial):
                p = cls._coerce_or_raise(p)
            if len(p.terms) != 1:
                break
            ((k, c),) = p.terms.items()
            key += k
            if key & _SLOTS.guards:
                _SLOTS.check((key,))  # raises the product's OverflowError
            num *= c
            den *= p.den
        else:
            return _lowest({key: num}, den)
        acc = {key: num}
        for p in chain((p,), polys):
            if not isinstance(p, Polynomial):
                p = cls._coerce_or_raise(p)
            out: dict[int, int] = {}
            _add_product(out, acc, p.terms)
            _SLOTS.check(out)
            if not all(out.values()):  # keep cancelled keys out of later steps
                out = {k: c for k, c in out.items() if c}
            acc = out
            den *= p.den
        return _lowest(acc, den)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.const(other)
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            terms = self.terms
            if terms.keys() <= {0}:  # a constant equals its int or Fraction, so hashes as it
                self._hash = hash(_ratio(terms.get(0, 0), self.den))
            else:
                self._hash = hash((self.den, frozenset(terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def items(self) -> list[tuple[Monomial, Rat]]:
        """The terms as (Monomial, coefficient) pairs, in no set order."""
        den = self.den
        return [(_SLOTS.monomial(k), _ratio(c, den)) for k, c in self.terms.items()]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(_exponents(k, _nbytes(k))) for k in self.terms), default=-1)

    def variables(self) -> set[VarId]:
        present = reduce(or_, self.terms, 0)
        exps = _exponents(present, _nbytes(present))
        return {_SLOTS.variables[i] for i, e in enumerate(exps) if e}

    def contains_var(self, v: VarId) -> bool:
        unit = _SLOTS.units.get(v)
        return unit is not None and bool(reduce(or_, self.terms, 0) & unit * MAX_EXPONENT)

    def coefficient(self, m: Monomial) -> Rat:
        return _ratio(self.terms.get(_SLOTS.key(m), 0), self.den)

    def coefficient_of(self, v: VarId, k: int) -> "Polynomial":
        """The polynomial coefficient of v**k, with v stripped out; zero for
        k < 0, so a recurrence may read the coefficient left of k = 0."""
        unit = _SLOTS.unit(v)
        shift = unit.bit_length() - 1
        strip = k * unit
        return _lowest(
            {key - strip: c for key, c in self.terms.items() if (key >> shift) & MAX_EXPONENT == k},
            self.den,
        )

    # -- algebra helpers -----------------------------------------------------

    def substitute(self, bindings: Mapping[VarId, "Polynomial | Rat"]) -> "Polynomial":
        """Ring-homomorphic image; unbound variables pass through.  Each term
        is one ``Polynomial.product``: its bound variables' memoized image
        powers in VarId order, then its unbound monomial and coefficient."""
        if not bindings:
            return self
        images = {v: Polynomial._coerce_or_raise(p) for v, p in bindings.items()}
        powers: dict[tuple[VarId, int], Polynomial] = {}
        # The bound variables that have a slot, in VarId order: a term's
        # factors are multiplied in this order.
        bound = sorted(
            (v, unit.bit_length() - 1, unit)
            for v, unit in ((v, _SLOTS.units.get(v)) for v in images)
            if unit is not None
        )
        pieces = []
        for key, c in self.terms.items():
            factors = []
            for v, shift, unit in bound:
                e = (key >> shift) & MAX_EXPONENT
                if e:
                    if (v, e) not in powers:
                        powers[v, e] = images[v] ** e
                    factors.append(powers[v, e])
                    key -= e * unit
            factors.append(_lowest({key: c}, self.den))
            pieces.append(Polynomial.product(factors))
        return Polynomial.sum(pieces)

    def _strip(self, v: VarId) -> tuple[int, list[tuple[int, int, int]]]:
        """v's unit and each term as (key, exponent of v, numerator)."""
        unit = _SLOTS.unit(v)
        shift = unit.bit_length() - 1
        return unit, [(k, (k >> shift) & MAX_EXPONENT, c) for k, c in self.terms.items()]

    def deriv(self, v: VarId) -> "Polynomial":
        """Exact partial derivative with respect to v."""
        unit, terms = self._strip(v)
        return _lowest({k - unit: c * e for k, e, c in terms if e}, self.den)

    def div_var(self, v: VarId) -> "Polynomial":
        """Exact division by the variable v; raises if not divisible."""
        unit, terms = self._strip(v)
        if any(e == 0 for _, e, _ in terms):
            raise ValueError(f"not divisible by {v}")
        return Polynomial._raw({k - unit: c for k, _, c in terms}, self.den)

    def reversed_in(self, v: VarId, n: int) -> "Polynomial":
        """Degree-n reversal in v: sum c_k v^k  ->  sum c_k v^(n-k)."""
        unit, terms = self._strip(v)
        out: dict[int, int] = {}
        for k, e, c in terms:
            if e > n:
                raise ValueError("degree exceeds reversal bound")
            if n - e > MAX_EXPONENT:
                raise OverflowError(f"exponent {n - e} of {v} exceeds {MAX_EXPONENT}")
            out[k + (n - 2 * e) * unit] = c
        return Polynomial._raw(out, self.den)

    # -- text format ---------------------------------------------------------

    def __str__(self):
        terms, den = self.terms, self.den
        if not terms:
            return "0"
        parts = []
        for k, mono in _print_order(list(terms)):
            c = terms[k]
            neg = c < 0
            a = _ratio(-c if neg else c, den)
            if not k:
                body = str(a)
            elif a == 1:
                body = mono
            else:
                body = f"{a}*{mono}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"


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
    pairs: list[tuple[int, Rat]] = []
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
        key = 0
        for v, e in exps.items():
            if e > MAX_EXPONENT:
                raise ValueError(f"exponent {e} of {v} exceeds the limit {MAX_EXPONENT}")
            key += e * _SLOTS.unit(v)
        pairs.append((key, coeff))
    return _from_rationals(pairs)


class Series:
    """Truncated formal power series in t with Polynomial coefficients.

    ``coeffs[n]`` is the exact coefficient of t**n; arithmetic is exact
    modulo t**(order+1).
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Polynomial | Rat]):
        if order < 0:
            raise ValueError(f"series order must be at least 0, got {order}")
        cs = [Polynomial._coerce_or_raise(c) for c in coeffs]
        if len(cs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(cs)}")
        if T_VAR in _SLOTS.units and any(c.contains_var(T_VAR) for c in cs):
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
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        return Series(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        return Series(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "Series":
        return Series(self.order, [-a for a in self.coeffs])

    def __mul__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        n = self.order
        ds = lcm(*[a.den for a in self.coeffs])
        dr = lcm(*[b.den for b in other.coeffs])
        right = [b._scaled(dr) for b in other.coeffs]
        acc: list[dict] = [{} for _ in range(n + 1)]
        for i, a in enumerate(self.coeffs):
            if a.terms:
                left = a._scaled(ds)
                for d, b in zip(acc[i:], right):
                    if b:
                        _add_product(d, left, b)
        for d in acc:
            _SLOTS.check(d)
        return Series(n, [_lowest(d, ds * dr) for d in acc])

    def scale(self, p: Polynomial | Rat) -> "Series":
        p = Polynomial._coerce_or_raise(p)
        return Series(self.order, [c * p for c in self.coeffs])

    def shift(self) -> "Series":
        """Multiply by t, truncating at the fixed order."""
        return Series(self.order, (Polynomial.zero(),) + self.coeffs[:-1])

    def map_coeffs(self, f: Callable[[Polynomial], Polynomial]) -> "Series":
        return Series(self.order, [f(c) for c in self.coeffs])

    def reciprocal(self) -> "Series":
        """Inverse modulo t**(order+1); requires constant term 1.

        Coefficient n is summed over the common denominator d * e, where d
        is the lcm of the denominators of self and e that of coefficients
        0..n-1 of the result.  Its accumulator dict then becomes the
        coefficient itself: its values are negated in place and it goes
        through ``_lowest``, so no second dict is built.
        """
        if self.coeffs[0] != Polynomial.one():
            raise ValueError("reciprocal needs constant term 1")
        d = lcm(*[c.den for c in self.coeffs])
        coeffs = [c._scaled(d) for c in self.coeffs]
        e = 1
        out = [Polynomial.one()]
        for n in range(1, self.order + 1):
            acc: dict = {}
            for j in range(1, n + 1):
                if coeffs[j]:
                    _add_product(acc, coeffs[j], out[n - j]._scaled(e))
            _SLOTS.check(acc)
            for k, c in acc.items():
                acc[k] = -c
            out.append(_lowest(acc, d * e))
            e = lcm(e, out[-1].den)
        return Series(self.order, out)

    def compose(self, inner: "Series") -> "Series":
        """self(inner(t)); requires inner to have zero constant term."""
        self._check_order(_checked(inner, (Series,), "composition operand"))
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
