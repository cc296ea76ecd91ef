import math
from collections import deque

from wardcf.eulerian import (
    _e2_rows,
    E2_poly,
    E2_reversed,
    clop_equals_eulerian,
    descents,
    e2_reversed_tfraction_check,
    enumerate_stirling_perms,
    eulerian2_by_enumeration,
    eulerian2_triangle,
    ward_euler_identity,
)
from wardcf.matchings import count_Mprime
from wardcf.poly import Polynomial, VarId, var
from wardcf.ward import ward_reversed


def double_factorial(m):
    return math.prod(range(m, 0, -2)) if m > 0 else 1


def eulerian2(n, k):
    """E2(n, k), read from the recurrence's row n; the rows before it are
    dropped as they are passed."""
    row = deque(_e2_rows(n), maxlen=1)[0]
    return row[k] if 0 <= k <= n else 0


E2_TABLE = [
    [1],
    [0, 1],
    [0, 1, 2],
    [0, 1, 8, 6],
    [0, 1, 22, 58, 24],
    [0, 1, 52, 328, 444, 120],
    [0, 1, 114, 1452, 4400, 3708, 720],
    [0, 1, 240, 5610, 32120, 58140, 33984, 5040],
    [0, 1, 494, 19950, 195800, 644020, 785304, 341136, 40320],
]


def test_stirling_perm_enumeration():
    assert list(enumerate_stirling_perms(1)) == [(1, 1)]
    assert sorted(enumerate_stirling_perms(2)) == [(1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1)]
    assert len(list(enumerate_stirling_perms(4))) == 105
    for w in enumerate_stirling_perms(3):
        # entries between the two copies of m exceed m
        for m in range(1, 4):
            first = w.index(m)
            second = w.index(m, first + 1)
            assert all(w[j] > m for j in range(first + 1, second))


def test_descents():
    assert descents((1, 1, 2, 2)) == 1
    assert descents((2, 2, 1, 1)) == 2
    assert descents((1, 2, 2, 1)) == 2
    assert descents(()) == 0


def test_eulerian2_table():
    assert eulerian2_triangle(8) == E2_TABLE
    assert eulerian2(4, 3) == 58
    assert eulerian2(7, 4) == 32120
    # far past the recursion limit: E2(n,3) = (3^(n+2) - (8n+12) 2^n + 4n^2 + 6n + 3)/2
    n = 1200
    assert 2 * eulerian2(n, 3) == 3 ** (n + 2) - (8 * n + 12) * 2**n + 4 * n * n + 6 * n + 3


def test_eulerian2_enumeration_agrees_with_recurrence():
    for n in range(7):
        for k in range(n + 1):
            assert eulerian2(n, k) == eulerian2_by_enumeration(n, k)


def test_eulerian2_diagonal_and_row_sums():
    for n in range(9):
        assert eulerian2(n, n) == math.factorial(n)
        assert sum(eulerian2(n, k) for k in range(n + 1)) == double_factorial(2 * n - 1)


def test_reversed_poly_values():
    zero = {VarId("x"): Polynomial.zero()}
    one = {VarId("x"): Polynomial.one()}
    for n in range(7):
        assert E2_reversed(n).substitute(zero) == math.factorial(n)
        assert E2_reversed(n).substitute(one) == double_factorial(2 * n - 1)


def test_ward_euler_identity():
    x = var("x")
    assert ward_reversed(2) == 3 + x
    assert E2_reversed(2).substitute({VarId("x"): x + 1}) == 3 + x
    for n in range(9):
        assert ward_euler_identity(n)


def test_clop_equals_eulerian():
    assert clop_equals_eulerian(0)
    assert count_Mprime(3, 0) == 6 and count_Mprime(3, 1) == 8 and count_Mprime(3, 2) == 1
    for n in range(6):
        assert clop_equals_eulerian(n)


def test_e2_reversed_tfraction():
    assert e2_reversed_tfraction_check(5)
    assert E2_reversed(0) == Polynomial.one()
    assert E2_reversed(2) == 2 + var("x")
