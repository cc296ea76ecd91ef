"""Coefficientwise Hankel total positivity checks at desk scale.

The m x m Hankel section of a polynomial sequence P has entry (i, j) equal
to P_{i+j}.  A sequence is coefficientwise Hankel-totally positive when
every minor (every row subset against every column subset, not only
contiguous ones) is a polynomial with nonnegative coefficients; this
module checks all r x r minors with r <= r_max exactly.

Determinants are exact.  The minor scan packs each monomial into a single
integer key (exponents as digits of a large base) so that monomial
products become integer additions, and computes all minors by expansion
along the first row with memoization on (rows, columns) - each minor is
computed once and shared.  An independent fraction-free (Bareiss)
elimination with exact polynomial division is provided and cross-checked
against cofactor expansion in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
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


# -- packed representation for the all-minors scan ----------------------------------------


def _packed_section(h: HankelSection) -> tuple[_Packed, list[list[dict[int, Rat]]]]:
    variables = sorted({v for row in h.entries for p in row for v in p.variables()})
    max_deg = 0
    for row in h.entries:
        for p in row:
            for mono in p.terms:
                for v, e in mono.exps:
                    max_deg = max(max_deg, e)
    bound = max_deg * h.m + 1
    base = 1 << max(bound.bit_length(), 1)
    packer = _Packed(variables, base)
    grid = [[packer.pack(p) for p in row] for row in h.entries]
    return packer, grid


def all_minors_nonneg(
    h: HankelSection, r_max: int
) -> tuple[bool, Optional[tuple[tuple[int, ...], tuple[int, ...], Polynomial]]]:
    """Scan every r x r minor, r <= r_max, for coefficientwise nonnegativity.

    Returns (True, None) or (False, (rows, cols, minor)) with the
    lexicographically first offending subset pair.  Minors are shared
    through a memoized first-row expansion.
    """
    if not 1 <= r_max <= h.m:
        raise ValueError(f"r_max must be within 1..{h.m}")
    packer, grid = _packed_section(h)
    cache: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, Rat]] = {}

    def minor(rows: tuple[int, ...], cols: tuple[int, ...]) -> dict[int, Rat]:
        if not rows:
            return {0: 1}
        key = (rows, cols)
        got = cache.get(key)
        if got is not None:
            return got
        mirrored = cache.get((cols, rows))
        if mirrored is not None:  # Hankel sections are symmetric
            cache[key] = mirrored
            return mirrored
        r0, rest = rows[0], rows[1:]
        acc: dict[int, Rat] = {}
        for idx, c in enumerate(cols):
            entry = grid[r0][c]
            if not entry:
                continue
            sub_cols = cols[:idx] + cols[idx + 1 :]
            piece = _Packed.mul(entry, minor(rest, sub_cols))
            if idx % 2 == 1:
                piece = {k: -v for k, v in piece.items()}
            get = acc.get
            for k, v in piece.items():
                prev = get(k)
                s = v if prev is None else prev + v
                if s == 0:
                    acc.pop(k, None)
                else:
                    acc[k] = s
        cache[key] = acc
        return acc

    from itertools import combinations

    for r in range(1, r_max + 1):
        subsets = list(combinations(range(h.m), r))
        for rows in subsets:
            for cols in subsets:
                value = minor(rows, cols)
                if any(c < 0 for c in value.values()):
                    return False, (rows, cols, packer.unpack(value))
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


def check_e2_reversed_tp(m: int, r_max: int | None = None, allow_large: bool = False) -> bool:
    """All minors of the m x m reversed second-order Eulerian Hankel section
    are coefficientwise nonnegative.

    Sections beyond the desk budget need allow_large=True; they are
    correct but slow.
    """
    if m > LARGE_SECTION_BUDGET and not allow_large:
        raise ValueError(
            f"section size {m} exceeds the desk budget {LARGE_SECTION_BUDGET};"
            " pass allow_large=True to run anyway"
        )
    ok, _ = all_minors_nonneg(hankel_section(e2_reversed_sequence, m), r_max or m)
    return ok
