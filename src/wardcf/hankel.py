"""Coefficientwise Hankel total positivity checks at desk scale.

The m x m Hankel section of a polynomial sequence P has entry (i, j) equal
to P_{i+j}, so it is determined by its 2m - 1 moments P_0..P_{2m-2}, and
``HankelSection`` holds exactly those.  A sequence is coefficientwise
Hankel-totally positive when every minor (every row subset against every
column subset, not only contiguous ones) is a polynomial with nonnegative
coefficients; this module checks all r x r minors with r <= r_max exactly.

Determinants are exact.  The minor scan packs the moments' terms on a
layout of its own (``_Layout``), so that one product of two Python ints
multiplies a whole run of terms in C.  With the section's variables v0,
v1, v2, ... in VarId order, the term c v0^e0 v1^e1 v2^e2 ... goes to the
integer key whose digits are (e0 + e1, e2, ...) and adds c L 2^(W e0) to
that key's int, so slot e0 of the int is a signed W-bit digit.  The map
is additive and injective: key sums and int products multiply the
polynomials exactly, and a univariate section is one int per minor.  L,
the lcm of the moments' denominators, makes every coefficient an integer
and scales an r x r minor by L^r > 0, which keeps its signs.  W is one bit
more than the largest permanent of the moments' l1 norms over the minors
scanned, a bound on every coefficient of those minors, so an int holds a
negative coefficient exactly when it is negative or has the top bit of one
of its slots set: one test per key, and only an offending minor is
decoded back into a Polynomial.

The scan goes level by level (``_minors``, which also computes W's
permanents on ints): the r x r minors are expanded along their first row
into the (r-1) x (r-1) minors, which are then dropped.  A Hankel section
is symmetric, so each level keeps only the pairs with rows <= cols.  Each
minor is summed in a dict and, once finished, kept as two parallel
columns of keys and ints (``_store``): an ``array('q')`` of 8 bytes a
value when every value fits in a signed 64-bit word, a tuple otherwise.
The tests hold the references it is checked against: cofactor expansion,
fraction-free (Bareiss) elimination with exact polynomial division, and a
memoized scan on Polynomials.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import combinations, compress
from math import lcm
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .eulerian import E2_reversed
from .poly import Monomial, Polynomial, Rat, VarId
from .ward import generalized_ward_cf, ward_poly


class HankelSection(NamedTuple):
    """The m x m Hankel section whose entry (i, j) is moments[i + j]."""

    moments: tuple[Polynomial, ...]  # P_0..P_{2m-2}

    @property
    def m(self) -> int:
        return (len(self.moments) + 1) // 2


def hankel_section(seq: Callable[[int], Polynomial], m: int) -> HankelSection:
    if m < 1:
        raise ValueError("section size must be positive")
    return HankelSection(tuple(Polynomial._coerce_or_raise(seq(n)) for n in range(2 * m - 1)))


# -- the all-minors scan on packed keys -------------------------------------------------

# A finished minor: its keys and its packed ints, as two parallel columns.
_Stored = tuple[Sequence[int], Sequence[int]]


class _Layout(NamedTuple):
    """Where the scan puts the term c v0^e0 v1^e1 v2^e2 ...: at the key whose
    digits are (e0 + e1, e2, ...) in ``base``, as c * scale * 2^(width * e0)."""

    variables: list[VarId]  # v0, v1, v2, ... in VarId order
    base: int
    width: int  # W, the bits of a signed slot
    scale: int  # L, the lcm of the moments' denominators


def _check_section(h: HankelSection) -> None:
    """Raise ValueError unless h holds an odd number of Polynomials."""
    if len(h.moments) % 2 == 0:
        raise ValueError(f"{len(h.moments)} moments: an m x m section has 2m - 1")
    for n, p in enumerate(h.moments):
        if not isinstance(p, Polynomial):
            raise ValueError(f"moment {n} is not a Polynomial")


def _slot_tops(width: int, slots: int) -> int:
    """The int whose slots 0..slots-1, each width bits, have their top bit set."""
    tops, filled = 1 << width - 1, 1
    while filled < slots:
        tops |= tops << width * filled
        filled *= 2
    return tops & (1 << width * slots) - 1


def _pack(items: list[tuple[Monomial, Rat]], layout: _Layout) -> dict[int, int]:
    """Terms, times L, as a map from packed keys to packed ints."""
    variables, base, width, scale = layout
    v0, *rest = variables or [None]
    place = {v: base**i for i, v in enumerate(rest)}
    place[v0] = 1 if rest else 0  # e0 is added into v1's digit
    packed: dict[int, int] = {}
    for m, c in items:
        exps = dict(m.exps)
        key = sum(e * place[v] for v, e in exps.items())
        packed[key] = packed.get(key, 0) + (int(c * scale) << width * exps.get(v0, 0))
    return packed


def _column(values: list[Rat]) -> Sequence[Rat]:
    """The values as an array('q') when each fits in a signed 64-bit word,
    else as a tuple (wide keys, big integers, Fractions)."""
    try:
        return array("q", values)
    except (OverflowError, TypeError):
        return tuple(values)


def _store(terms: dict[int, Rat]) -> _Stored:
    """A finished minor as parallel key and coefficient columns, without
    the terms whose coefficient cancelled."""
    coeffs = terms.values()
    return _column(list(compress(terms, coeffs))), _column(list(filter(None, coeffs)))


def _unpack(stored: _Stored, layout: _Layout, r: int) -> Polynomial:
    """The Polynomial of a stored r x r minor: each int read as signed
    W-bit digits, e1 restored as its digit minus e0, and L^r divided out."""
    variables, base, width, scale = layout
    half = 1 << width - 1
    monomials = {}
    for key, value in zip(*stored):
        digits = []
        for _ in variables[1:]:
            key, e = divmod(key, base)
            digits.append(e)
        # With 2^(W-1) added to each slot, every slot holds its digit plus
        # 2^(W-1), in [0, 2^W), so no slot borrows from the next, and the
        # slots that differ from 2^(W-1) hold the nonzero digits.
        slots = value.bit_length() // width + 2
        size = width * slots
        tops = _slot_tops(width, slots)
        biased = value + tops
        bits, changed = (format(v, "b").zfill(size) for v in (biased, biased ^ tops))
        at = changed.find("1")
        while at >= 0:
            e0 = (size - 1 - at) // width
            end = size - width * e0
            c = int(bits[end - width : end], 2) - half
            exps = [e0, digits[0] - e0, *digits[1:]] if digits else [e0]
            monomials[Monomial(zip(variables, exps))] = Fraction(c, scale**r)
            at = changed.find("1", end)
    return Polynomial(monomials)


def _add_product(acc: dict[int, Rat], a: dict[int, Rat], b: _Stored, sign: int) -> None:
    """Add sign*a*b into acc, where b is a stored minor; a cancelled key
    stays in acc with coefficient 0."""
    get = acc.get
    terms = list(zip(*b))
    for k1, c1 in a.items():
        c1 *= sign
        for k2, c2 in terms:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2


def _minors(m: int, r_max: int, expand: Callable[[list], object], unit: object) -> Iterator[tuple]:
    """Every r x r minor with r <= r_max of an m x m Hankel section, as
    (r, rows, cols, minor), only the pairs with rows <= cols, in the order
    r, then rows, then cols, each lexicographic.

    The minor is expand(terms), its expansion along its first row: one
    term (sign, i + j, minor without row i and column j) for each column j
    in cols, i the first row, with unit the 0 x 0 minor.  Level r is
    expanded from level r - 1 alone, and at most these two levels are held.
    """
    previous = {((), ()): unit}
    for r in range(1, r_max + 1):
        subsets = list(combinations(range(m), r))
        level = {}
        for i, rows in enumerate(subsets):
            first, rest = rows[0], rows[1:]
            for cols in subsets[i:]:
                terms = []
                for idx, col in enumerate(cols):
                    sub = cols[:idx] + cols[idx + 1 :]
                    below = previous[(rest, sub) if rest <= sub else (sub, rest)]
                    terms.append((-1 if idx % 2 else 1, first + col, below))
                minor = expand(terms)
                yield r, rows, cols, minor
                level[rows, cols] = minor
        previous = level


def _largest_permanent(norms: list[int], m: int, r_max: int) -> int:
    """The largest permanent of the matrix norms[i + j] over rows R and
    columns C, for every r x r pair with r <= r_max.

    With norms the l1 norms of the moments, it bounds the absolute value
    of every coefficient of every minor the scan computes.
    """
    permanent = lambda terms: sum(norms[n] * below for _, n, below in terms)
    return max(minor for *_, minor in _minors(m, r_max, permanent, 1))


def _packed_section(h: HankelSection, r_max: int) -> tuple[_Layout, int, list[dict[int, int]]]:
    """The scan's layout for the minors with r <= r_max, the mask of the
    top bits of the slots they use, and the moments packed.

    Keys hold their digits in the power-of-two base just above m times the
    largest digit of a moment, since a minor multiplies at most m entries;
    they are usually a single CPython digit, and the scan's dict merges
    run fast on them.  e0 is added into v1's digit rather than given a
    digit of its own because moments such as generalized Ward's are
    homogeneous: with a digit per variable, each key would hold one term.
    """
    items = [p.items() for p in h.moments]
    exps = [dict(m.exps) for terms in items for m, _ in terms]
    variables = sorted({v for e in exps for v in e})
    v0, v1 = (variables + [None, None])[:2]
    largest = max((max([e.get(v0, 0) + e.get(v1, 0), *e.values()]) for e in exps), default=0) * h.m
    base = 1 << max(largest.bit_length(), 1)
    scale = lcm(*(c.denominator for terms in items for _, c in terms))
    norms = [int(sum(abs(c) for _, c in terms) * scale) for terms in items]
    width = _largest_permanent(norms, h.m, r_max).bit_length() + 1  # slots are signed
    layout = _Layout(variables, base, width, scale)
    top = r_max * max((e.get(v0, 0) for e in exps), default=0)
    return layout, _slot_tops(width, top + 1), [_pack(terms, layout) for terms in items]


def all_minors_nonneg(
    h: HankelSection, r_max: int
) -> tuple[bool, Optional[tuple[tuple[int, ...], tuple[int, ...], Polynomial]]]:
    """Scan every r x r minor, r <= r_max, for coefficientwise nonnegativity.

    Returns (True, None) or (False, (rows, cols, minor)) with the first
    offending subset pair in the order r, then rows, then cols, each
    lexicographic.  Minor (rows, cols) equals minor (cols, rows), so the
    first offending pair always has rows <= cols.  A section whose moments
    are not an odd number of Polynomials, or an r_max outside 1..m, is a
    ValueError.
    """
    _check_section(h)
    if not 1 <= r_max <= h.m:
        raise ValueError(f"r_max must be within 1..{h.m}")
    layout, mask, packed = _packed_section(h, r_max)

    def expand(terms: list[tuple[int, int, _Stored]]) -> _Stored:
        minor: dict[int, int] = {}
        for sign, n, below in terms:
            if packed[n]:
                _add_product(minor, packed[n], below, sign)
        return _store(minor)

    for r, rows, cols, stored in _minors(h.m, r_max, expand, _store({0: 1})):
        values = stored[1]
        if min(values, default=0) < 0 or any(map(mask.__and__, values)):
            return False, (rows, cols, _unpack(stored, layout, r))
    return True, None


# -- specific sequences ---------------------------------------------------------------------

LARGE_SECTION_BUDGET = 6


def ward_sequence(n: int) -> Polynomial:
    return ward_poly(n)


def generalized_ward_sequence(n: int) -> Polynomial:
    return generalized_ward_cf(n)[n]


def e2_reversed_sequence(n: int) -> Polynomial:
    return E2_reversed(n)
