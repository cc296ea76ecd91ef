"""Coefficientwise Hankel total positivity checks at desk scale.

The m x m Hankel section of a polynomial sequence P has entry (i, j) equal
to P_{i+j}, so it is determined by its 2m - 1 moments P_0..P_{2m-2}, and
``HankelSection`` holds exactly those.  A sequence is coefficientwise
Hankel-totally positive when every minor (every row subset against every
column subset, not only contiguous ones) is a polynomial with nonnegative
coefficients; this module checks all r x r minors with r <= r_max exactly.

Determinants are exact.  The minor scan reads the moments' terms as
Monomials and re-packs each into an integer key of its own, tighter than a
polynomial's (``_packed_section``), so that monomial products are additions
of short integers; an offending minor comes back as a Polynomial built from
Monomials.  The scan goes level by level: the r x r minors are expanded
along their first row into the (r-1) x (r-1) minors, which are then
dropped.  A Hankel section is symmetric, so each level keeps only the
pairs with rows <= cols.  Each minor is summed in a dict and, once
finished, kept as two parallel columns of keys and coefficients
(``_store``): an ``array('q')`` of 8 bytes a value when every value fits
in a signed 64-bit word, a tuple otherwise.  The tests hold the references
it is checked against: cofactor expansion, fraction-free (Bareiss)
elimination with exact polynomial division, and a memoized scan on
Polynomials.
"""

from __future__ import annotations

from array import array
from itertools import combinations, compress
from typing import Callable, NamedTuple, Optional, Sequence

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

# A finished minor: its keys and its coefficients, as two parallel columns.
_Stored = tuple[Sequence[int], Sequence[Rat]]


def _check_section(h: HankelSection) -> None:
    """Raise ValueError unless h holds an odd number of Polynomials."""
    if len(h.moments) % 2 == 0:
        raise ValueError(f"{len(h.moments)} moments: an m x m section has 2m - 1")
    for n, p in enumerate(h.moments):
        if not isinstance(p, Polynomial):
            raise ValueError(f"moment {n} is not a Polynomial")


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


def _packed_section(h: HankelSection) -> tuple[list[VarId], int, list[dict[int, Rat]]]:
    """The section's variables in VarId order, the base, and its moments packed.

    A monomial's key holds its exponents as the digits of one integer, in
    the power-of-two base just above the largest exponent a minor can have
    and in the order of the variables, so the key of a product is the sum
    of the keys.  These keys are usually a single CPython digit, where a
    polynomial's own 16-bit slots over the same variables span several, and
    the scan's dict merges run faster on them.
    """
    items = [p.items() for p in h.moments]
    exps = [m.exps for terms in items for m, _ in terms]
    variables = sorted({v for pairs in exps for v, _ in pairs})
    # A minor multiplies at most m entries.
    largest = max((e for pairs in exps for _, e in pairs), default=0) * h.m
    base = 1 << max(largest.bit_length(), 1)
    return variables, base, [_pack(terms, variables, base) for terms in items]


def all_minors_nonneg(
    h: HankelSection, r_max: int
) -> tuple[bool, Optional[tuple[tuple[int, ...], tuple[int, ...], Polynomial]]]:
    """Scan every r x r minor, r <= r_max, for coefficientwise nonnegativity.

    Returns (True, None) or (False, (rows, cols, minor)) with the first
    offending subset pair in the order r, then rows, then cols, each
    lexicographic.  Level r is expanded along the first row from level
    r - 1 alone, and at most these two levels are held.  A Hankel section
    is symmetric, so minor (rows, cols) equals minor (cols, rows) and only
    pairs with rows <= cols are computed; the first offending pair always has
    rows <= cols, since its mirror would come earlier; a section whose
    moments are not an odd number of Polynomials is a ValueError.  Entry
    (i, j) is read as moment i + j.  The minors are held on the scan's own
    keys (``_packed_section``), never as Polynomials: each finished minor
    is two columns, keys and coefficients, packed in an ``array('q')``
    where they fit in 64 bits and a tuple where they do not (``_store``).
    Only the offending minor is unpacked.
    """
    _check_section(h)
    if not 1 <= r_max <= h.m:
        raise ValueError(f"r_max must be within 1..{h.m}")
    variables, base, packed = _packed_section(h)
    previous = {((), ()): _store({0: 1})}  # the 0 x 0 minor is 1
    for r in range(1, r_max + 1):
        subsets = list(combinations(range(h.m), r))
        level: dict[tuple[tuple[int, ...], tuple[int, ...]], _Stored] = {}
        for i, rows in enumerate(subsets):
            first, rest = rows[0], rows[1:]
            for cols in subsets[i:]:
                minor: dict[int, Rat] = {}
                for idx, col in enumerate(cols):
                    entry = packed[first + col]
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
