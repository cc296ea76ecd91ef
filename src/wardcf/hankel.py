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
pairs with rows <= cols.  The tests hold the references it is checked
against: cofactor expansion, fraction-free (Bareiss) elimination with
exact polynomial division, and a memoized scan on Polynomials.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, NamedTuple, Optional

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


def _pack(items: list[tuple[Monomial, Rat]], variables: list[VarId], base: int) -> dict[int, Rat]:
    """Terms as a map from packed keys to coefficients."""
    place = {v: base**i for i, v in enumerate(variables)}
    return {sum(e * place[v] for v, e in m.exps): c for m, c in items}


def _unpack(terms: dict[int, Rat], variables: list[VarId], base: int) -> Polynomial:
    """The Polynomial of packed terms."""
    monomials = {}
    for key, c in terms.items():
        exps = []
        for v in variables:
            key, e = divmod(key, base)
            exps.append((v, e))
        monomials[Monomial(exps)] = c
    return Polynomial(monomials)


def _add_product(acc: dict[int, Rat], a: dict[int, Rat], b: dict[int, Rat], sign: int) -> None:
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
    rows <= cols, since its mirror would come earlier.  The minors are
    held on the scan's own keys (``_packed_section``), never as
    Polynomials; only the offending minor is unpacked.
    """
    if not 1 <= r_max <= h.m:
        raise ValueError(f"r_max must be within 1..{h.m}")
    variables, base, grid = _packed_section(h)
    previous = {((), ()): {0: 1}}  # the 0 x 0 minor is 1
    for r in range(1, r_max + 1):
        subsets = list(combinations(range(h.m), r))
        level: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, Rat]] = {}
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
                if any(c < 0 for c in minor.values()):
                    return False, (rows, cols, _unpack(minor, variables, base))
                level[rows, cols] = minor
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
