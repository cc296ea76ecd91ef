"""Stirling permutations and second-order Eulerian numbers.

A Stirling permutation of order n is a word over {1,1,2,2,...,n,n} in
which the entries between the two copies of m all exceed m.  Index j is a
descent when the letter there exceeds the next one; the final index always
counts as a descent.  The descent distribution gives the second-order
Eulerian numbers, computed here both ways: by the recurrence

    E2(n,k) = (2n-k) E2(n-1,k-1) + k E2(n-1,k),    E2(0,k) = [k=0],

and by enumerating the words.  The recurrence runs as one loop that holds
one row at a time (``_e2_rows``); ``eulerian2_triangle`` keeps its rows and
``E2_poly`` reads the last.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from . import contfrac
from .matchings import count_Mprime
from .poly import Polynomial, VarId, var
from .ward import ward_reversed


def enumerate_stirling_perms(n: int) -> Iterator[tuple[int, ...]]:
    """All (2n-1)!! Stirling permutations of order n.

    The pair nn is inserted into each gap of each order-(n-1) word, gaps
    scanned left to right.
    """
    if n < 0:
        raise ValueError(f"order must be at least 0, got {n}")
    if n == 0:
        yield ()
        return
    for w in enumerate_stirling_perms(n - 1):
        for gap in range(len(w) + 1):
            yield w[:gap] + (n, n) + w[gap:]


def descents(word: tuple[int, ...]) -> int:
    """Descent count; the last index of a nonempty word is always one."""
    if not word:
        return 0
    return 1 + sum(1 for j in range(len(word) - 1) if word[j] > word[j + 1])


def eulerian2_by_enumeration(n: int, k: int) -> int:
    """The same number, counted over Stirling permutations."""
    return sum(1 for w in enumerate_stirling_perms(n) if descents(w) == k)


def _e2_rows(rows: int) -> Iterator[list[int]]:
    """Rows 0..rows of E2(n,k), 0 <= k <= n, each from the one before."""
    if rows < 0:
        raise ValueError(f"rows must be at least 0, got {rows}")
    row = [1]
    yield row
    for n in range(1, rows + 1):
        prev = [0, *row, 0]  # prev[k] = E2(n-1,k-1)
        row = [(2 * n - k) * prev[k] + k * prev[k + 1] for k in range(n + 1)]
        yield row


def eulerian2_triangle(rows: int) -> list[list[int]]:
    return list(_e2_rows(rows))


def E2_poly(n: int) -> Polynomial:
    x = var("x")
    row = deque(_e2_rows(n), maxlen=1)[0]
    return Polynomial.sum(c * x**k for k, c in enumerate(row) if c)


def E2_reversed(n: int) -> Polynomial:
    return E2_poly(n).reversed_in(VarId("x"), n)


def ward_euler_identity(n: int) -> bool:
    """Reversed Ward polynomial at x equals reversed second-order Eulerian
    polynomial at 1+x."""
    shifted = E2_reversed(n).substitute({VarId("x"): var("x") + 1})
    return ward_reversed(n) == shifted


def clop_equals_eulerian(n: int) -> bool:
    """Matchings counted by closer/opener adjacencies match the reversed
    descent distribution: M'(n,l) = E2(n, n-l) for every l."""
    row = eulerian2_triangle(n)[n]
    return all(count_Mprime(n, l) == row[n - l] for l in range(n + 1))


def e2_reversed_tfraction_check(order: int) -> bool:
    """The T-fraction with alpha_i = i, delta_i = (i-1)(x-1) generates the
    reversed second-order Eulerian polynomials."""
    s = contfrac.expand_T(contfrac.named_family("eulerian2-reversed"), order)
    return all(s.coefficient(n) == E2_reversed(n) for n in range(order + 1))
