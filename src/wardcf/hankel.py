"""Coefficientwise Hankel total positivity checks at desk scale.

The m x m Hankel section of a polynomial sequence P has entry (i, j) equal
to P_{i+j}.  A sequence is coefficientwise Hankel-totally positive when
every minor (every row subset against every column subset, not only
contiguous ones) is a polynomial with nonnegative coefficients; this
module checks all r x r minors with r <= r_max exactly.

Determinants are exact.  The minor scan reads the section's terms as
Monomials and re-packs each into an integer key of its own, tighter than a
polynomial's (``_packed_section``), so that monomial products are additions
of short integers; an offending minor comes back as a Polynomial built from
Monomials.  The scan goes level by level: the r x r minors are expanded
along their first row into the (r-1) x (r-1) minors, which are then
dropped.  A Hankel section is symmetric, so each level keeps only the
pairs with rows <= cols, and the scan checks that symmetry before it
starts.  Each minor is summed in a dict and, once finished, kept as two
parallel columns of keys and coefficients (``_store``): an ``array('q')``
of 8 bytes a value when every value fits in a signed 64-bit word, a tuple
otherwise.  ``hankel --family generalized-ward --size 6`` peaked at 43.3
MB of RSS with dicts of boxed ints and peaks at 20.6 MB with columns.  The
tests hold the references it is checked against: cofactor expansion,
fraction-free (Bareiss) elimination with exact polynomial division, and a
memoized scan on Polynomials.
"""

from __future__ import annotations

from array import array
from itertools import combinations, compress
from typing import Callable, NamedTuple, Optional, Sequence

from .eulerian import E2_reversed
from .poly import Monomial, Polynomial, Rat, VarId
from .ward import generalized_ward_cf, ward_poly


class HankelSection(NamedTuple):
    """Symmetric m x m section with entries drawn from a sequence."""

    m: int
    entries: tuple[tuple[Polynomial, ...], ...]


def hankel_section(seq: Callable[[int], Polynomial], m: int) -> HankelSection:
    if m < 1:
        raise ValueError("section size must be positive")
    cache = [Polynomial._coerce_or_raise(seq(n)) for n in range(2 * m - 1)]
    rows = tuple(tuple(cache[i + j] for j in range(m)) for i in range(m))
    return HankelSection(m, rows)


# -- the all-minors scan on packed keys -------------------------------------------------

# A finished minor: its keys and its coefficients, as two parallel columns.
_Stored = tuple[Sequence[int], Sequence[Rat]]


def _check_section(h: HankelSection) -> None:
    """Raise ValueError at the first (i, j), row by row, where h is not an
    m x m section of Polynomials constant along its anti-diagonals."""
    m = h.m
    if type(m) is not int:
        raise ValueError(f"section size {m!r} is not an int")
    for i, row in enumerate(h.entries):
        if i >= m or len(row) != m:
            j = 0 if i >= m else min(len(row), m)
            raise ValueError(f"entry ({i}, {j}): the section is not {m} x {m}")
        for j, p in enumerate(row):
            if not isinstance(p, Polynomial):
                raise ValueError(f"entry ({i}, {j}) is not a Polynomial")
            # The first entry of this anti-diagonal, in a row already checked.
            i0 = max(0, i + j - m + 1)
            j0 = i + j - i0
            q = h.entries[i0][j0]
            if q is not p and q != p:
                raise ValueError(f"entry ({i}, {j}) differs from entry ({i0}, {j0}) on its"
                                 " anti-diagonal")
    if len(h.entries) < m:
        raise ValueError(f"entry ({len(h.entries)}, 0): the section is not {m} x {m}")


def _pack(items: list[tuple[Monomial, Rat]], variables: list[VarId], base: int) -> dict[int, Rat]:
    """Terms as a map from packed keys to coefficients."""
    place = {v: base**i for i, v in enumerate(variables)}
    return {sum(e * place[v] for v, e in m.exps): c for m, c in items}


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


def _unpack(stored: _Stored, variables: list[VarId], base: int) -> Polynomial:
    """The Polynomial of a stored minor."""
    monomials = {}
    for key, c in zip(*stored):
        exps = []
        for v in variables:
            key, e = divmod(key, base)
            exps.append((v, e))
        monomials[Monomial(exps)] = c
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


def _packed_section(h: HankelSection) -> tuple[list[VarId], int, list[list[dict[int, Rat]]]]:
    """The section's variables in VarId order, the base, and its entries packed.

    A monomial's key holds its exponents as the digits of one integer, in
    the power-of-two base just above the largest exponent a minor can have
    and in the order of the variables, so the key of a product is the sum
    of the keys.  These keys are usually a single CPython digit, where a
    polynomial's own 16-bit slots over the same variables span several, and
    the scan's dict merges run faster on them.
    """
    # A Hankel section repeats each entry along its anti-diagonal.
    items = {id(p): p.items() for row in h.entries for p in row}
    exps = [m.exps for terms in items.values() for m, _ in terms]
    variables = sorted({v for pairs in exps for v, _ in pairs})
    # A minor multiplies at most m entries.
    largest = max((e for pairs in exps for _, e in pairs), default=0) * h.m
    base = 1 << max(largest.bit_length(), 1)
    packed = {i: _pack(terms, variables, base) for i, terms in items.items()}
    return variables, base, [[packed[id(p)] for p in row] for row in h.entries]


def all_minors_nonneg(
    h: HankelSection, r_max: int
) -> tuple[bool, Optional[tuple[tuple[int, ...], tuple[int, ...], Polynomial]]]:
    """Scan every r x r minor, r <= r_max, for coefficientwise nonnegativity.

    Returns (True, None) or (False, (rows, cols, minor)) with the first
    offending subset pair in the order r, then rows, then cols, each
    lexicographic.  Level r is expanded along the first row from level
    r - 1 alone, and at most these two levels are held.  Minor (rows, cols)
    equals minor (cols, rows) in a symmetric section, so only pairs with
    rows <= cols are computed; the first offending pair always has
    rows <= cols, since its mirror would come earlier; a section that is
    not m x m, holds a non-Polynomial or is not constant along an
    anti-diagonal is a ValueError.  The minors are held on the scan's own
    keys (``_packed_section``), never as Polynomials: each finished minor
    is two columns, keys and coefficients, packed in an ``array('q')``
    where they fit in 64 bits and a tuple where they do not (``_store``),
    which holds the generalized-Ward size-5 scan to 0.66 MB of traced
    allocations against 2.7 MB on dicts.  Only the offending minor is
    unpacked.
    """
    _check_section(h)
    if not 1 <= r_max <= h.m:
        raise ValueError(f"r_max must be within 1..{h.m}")
    variables, base, grid = _packed_section(h)
    previous = {((), ()): _store({0: 1})}  # the 0 x 0 minor is 1
    for r in range(1, r_max + 1):
        subsets = list(combinations(range(h.m), r))
        level: dict[tuple[tuple[int, ...], tuple[int, ...]], _Stored] = {}
        for i, rows in enumerate(subsets):
            first, rest = rows[0], rows[1:]
            for cols in subsets[i:]:
                minor: dict[int, Rat] = {}
                for idx, col in enumerate(cols):
                    entry = grid[first][col]
                    if entry:
                        sub = cols[:idx] + cols[idx + 1 :]
                        below = previous[(rest, sub) if rest <= sub else (sub, rest)]
                        _add_product(minor, entry, below, -1 if idx % 2 else 1)
                stored = _store(minor)
                if min(stored[1], default=0) < 0:
                    return False, (rows, cols, _unpack(stored, variables, base))
                level[rows, cols] = stored
        previous = level
    return True, None


# -- specific sequences ---------------------------------------------------------------------

LARGE_SECTION_BUDGET = 6


def ward_sequence(n: int) -> Polynomial:
    return ward_poly(n)


def generalized_ward_sequence(n: int) -> Polynomial:
    return generalized_ward_cf(n)[n]


def e2_reversed_sequence(n: int) -> Polynomial:
    return E2_reversed(n)
