"""Coefficientwise Hankel total positivity checks at desk scale.

The m x m Hankel section of a polynomial sequence P has entry (i, j) equal
to P_{i+j}.  A sequence is coefficientwise Hankel-totally positive when
every minor (every row subset against every column subset, not only
contiguous ones) is a polynomial with nonnegative coefficients; this
module checks all r x r minors with r <= r_max exactly.

Determinants are exact.  The minor scan re-packs each monomial into an
integer key tighter than a polynomial's own (``poly._Packed``), so that
monomial products are additions of short integers, and goes level by
level: the r x r minors are expanded along their first row into the
(r-1) x (r-1) minors, which are then dropped.  A Hankel section is
symmetric, so each level keeps only the pairs with rows <= cols.  An
independent fraction-free (Bareiss) elimination with exact polynomial
division is provided and cross-checked against cofactor expansion in the
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional, Sequence

from .poly import Polynomial, Rat, _Packed


@dataclass(frozen=True)
class HankelSection:
    """Symmetric m x m section with entries drawn from a sequence."""

    m: int
    entries: tuple[tuple[Polynomial, ...], ...]


def hankel_section(seq: Callable[[int], Polynomial], m: int) -> HankelSection:
    if m < 1:
        raise ValueError("section size must be positive")
    cache = [Polynomial._coerce(seq(n)) for n in range(2 * m - 1)]
    rows = tuple(tuple(cache[i + j] for j in range(m)) for i in range(m))
    return HankelSection(m, rows)


# -- exact determinants on Polynomial matrices ------------------------------------------


def det_cofactor(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Expansion along the first row; exponential, for cross-checks."""
    size = len(matrix)
    if size == 0:
        return Polynomial.one()
    if size == 1:
        return matrix[0][0]
    total = Polynomial.zero()
    for j in range(size):
        if matrix[0][j].is_zero():
            continue
        minor = [
            [row[c] for c in range(size) if c != j] for row in matrix[1:]
        ]
        piece = matrix[0][j] * det_cofactor(minor)
        total = total + piece if j % 2 == 0 else total - piece
    return total


def det_bareiss(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Fraction-free elimination with exact polynomial division."""
    size = len(matrix)
    if size == 0:
        return Polynomial.one()
    a = [[p for p in row] for row in matrix]
    sign = 1
    prev = Polynomial.one()
    for k in range(size - 1):
        if a[k][k].is_zero():
            pivot_row = next(
                (r for r in range(k + 1, size) if not a[r][k].is_zero()), None
            )
            if pivot_row is None:
                return Polynomial.zero()
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num.divide_exact(prev)
            a[i][k] = Polynomial.zero()
        prev = a[k][k]
    det = a[size - 1][size - 1]
    return det if sign == 1 else -det


# -- the all-minors scan on packed keys -------------------------------------------------


def _packed_section(h: HankelSection) -> tuple[_Packed, list[list[dict[int, Rat]]]]:
    entries = [p for row in h.entries for p in row]
    variables = sorted({v for p in entries for v in p.variables()})
    # A minor multiplies at most m entries.
    packer = _Packed(variables, _Packed.largest_exponent(entries) * h.m)
    return packer, [[packer.pack(p) for p in row] for row in h.entries]


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
    rows <= cols, since its mirror would come earlier.
    """
    if not 1 <= r_max <= h.m:
        raise ValueError(f"r_max must be within 1..{h.m}")
    packer, grid = _packed_section(h)
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
                        packer.add_product(minor, entry, below, -1 if idx % 2 else 1)
                if any(c < 0 for c in minor.values()):
                    return False, (rows, cols, packer.unpack(minor))
                level[rows, cols] = minor
        previous = level
    return True, None


# -- specific sequences ---------------------------------------------------------------------

LARGE_SECTION_BUDGET = 6


def ward_sequence(n: int) -> Polynomial:
    from .ward import ward_poly

    return ward_poly(n)


def generalized_ward_sequence(n: int) -> Polynomial:
    from .ward import generalized_ward_cf

    return generalized_ward_cf(n)[n]


def e2_reversed_sequence(n: int) -> Polynomial:
    from .eulerian import E2_reversed

    return E2_reversed(n)
