import json
import tracemalloc
from array import array
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wardcf import cli, hankel
from wardcf.hankel import (
    HankelSection,
    _add_product,
    _pack,
    _packed_section,
    _store,
    _unpack,
    all_minors_nonneg,
    e2_reversed_sequence,
    generalized_ward_sequence,
    hankel_section,
    ward_sequence,
)
from wardcf.poly import (
    _SLOTS,
    MAX_EXPONENT,
    Monomial,
    Polynomial,
    VarId,
    parse_poly,
    var,
)

x = var("x")
z = var("z")


def const_seq(values):
    return lambda n: Polynomial.const(values[n])


# -- reference determinants on Polynomial matrices --------------------------------------
#
# The scan is checked against these: expansion along the first row, and
# fraction-free (Bareiss) elimination with exact polynomial division.


def coefficientwise_nonneg(p):
    return all(c >= 0 for _, c in p.items())


def divide_exact(p, divisor):
    """Exact polynomial division; raises ValueError on nonzero remainder.

    Long division by leading terms in the order of the keys, which is
    a lexicographic monomial order (an exact quotient does not depend
    on the order).  Only valid (and only terminating with zero
    remainder) when the divisor divides p.
    """
    if divisor.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    quotient = {}
    rem = {_SLOTS.key(m): c for m, c in p.items()}
    terms = {_SLOTS.key(m): c for m, c in divisor.items()}
    lead_k = max(terms)
    lead_c = Fraction(terms[lead_k])
    guards = _SLOTS.guards
    while rem:
        k = max(rem)
        # Each slot of k + guards - lead_k keeps its guard bit exactly
        # when lead_k's exponent there is at most k's.
        shifted = k + guards - lead_k
        if shifted & guards != guards:
            raise ValueError("not exactly divisible")
        qk = shifted - guards
        qc = Fraction(rem[k]) / lead_c
        quotient[qk] = qc
        for dk, dc in terms.items():
            key = dk + qk
            if key & guards:
                raise OverflowError(f"a product has an exponent above {MAX_EXPONENT}")
            s = rem.get(key, 0) - dc * qc
            if s == 0:
                rem.pop(key, None)
            else:
                rem[key] = s
    return Polynomial({_SLOTS.monomial(k): c for k, c in quotient.items()})


def det_cofactor(matrix):
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


def det_bareiss(matrix):
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
                a[i][j] = divide_exact(num, prev)
            a[i][k] = Polynomial.zero()
        prev = a[k][k]
    det = a[size - 1][size - 1]
    return det if sign == 1 else -det


def test_divide_exact():
    p = (x + z) * (x**2 - z + 3)
    assert divide_exact(p, x + z) == x**2 - z + 3
    with pytest.raises(ValueError):
        divide_exact(x + 1, z)


def matrix(h):
    """The m x m matrix of a section, entry (i, j) its moment i + j."""
    return [[h.moments[i + j] for j in range(h.m)] for i in range(h.m)]


def test_hankel_section_shape():
    h = hankel_section(ward_sequence, 3)
    assert h.m == 3 and len(h.moments) == 5
    entries = matrix(h)
    assert entries[0][0] == Polynomial.one()
    assert entries[1][2] == entries[2][1] == ward_sequence(3)


def test_two_by_two_determinants_by_hand():
    h = hankel_section(ward_sequence, 2)
    det = det_cofactor(matrix(h))
    assert det == x + 2 * x**2  # W0 W2 - W1^2
    sem = hankel_section(const_seq([1, 1, 3]), 2)
    det2 = det_cofactor(matrix(sem))
    assert det2 == Polynomial.const(2)


def test_negative_counterexample():
    h = hankel_section(const_seq([1, 2, 1]), 2)
    ok, ce = all_minors_nonneg(h, 2)
    assert not ok
    rows, cols, minor = ce
    assert rows == (0, 1) and cols == (0, 1)
    assert minor == Polynomial.const(-3)


def test_counterexample_off_the_diagonal():
    # The anti-diagonal section: the first offending pair has rows < cols,
    # and the scan reports it as that pair, not as its mirror.
    h = hankel_section(const_seq([0, 0, 1, 0, 0]), 3)
    assert all_minors_nonneg(h, 3) == (False, ((0, 1), (1, 2), Polynomial.const(-1)))


def test_delta_sequence_is_tp():
    h = hankel_section(const_seq([1, 0, 0, 0, 0]), 3)
    ok, ce = all_minors_nonneg(h, 3)
    assert ok and ce is None


def test_ward_section_all_minors_nonneg():
    h = hankel_section(ward_sequence, 4)
    ok, ce = all_minors_nonneg(h, 4)
    assert ok and ce is None


def test_generalized_ward_section_nonneg_small():
    h = hankel_section(generalized_ward_sequence, 3)
    ok, _ = all_minors_nonneg(h, 3)
    assert ok


def test_e2_reversed_tp():
    h = hankel_section(e2_reversed_sequence, 2)
    det = det_cofactor(matrix(h))
    assert det == 1 + x  # (2+x) - 1


def test_r_max_validation():
    h = hankel_section(ward_sequence, 2)
    with pytest.raises(ValueError):
        all_minors_nonneg(h, 3)
    with pytest.raises(ValueError):
        all_minors_nonneg(h, 0)


ONE = Polynomial.one()


@pytest.mark.parametrize(
    "moments, where",
    [
        # Two moments fill a 1 x 2 Hankel matrix, not a square one.
        ((x, ONE), r"2 moments: an m x m section has 2m - 1"),
        ((1, 2, 5), r"moment 0 is not a Polynomial"),
        ((), r"0 moments: an m x m section has 2m - 1"),
        ((ONE, x, 5), r"moment 2 is not a Polynomial"),
    ],
    ids=["not-square", "int-entries", "no-rows", "int-last"],
)
def test_malformed_section_is_rejected(moments, where):
    with pytest.raises(ValueError, match=where):
        all_minors_nonneg(HankelSection(moments), 1)


# -- determinant method agreement -------------------------------------------------------

VARS = [VarId("x"), VarId("z")]


@st.composite
def small_polys(draw):
    p = Polynomial.zero()
    for _ in range(draw(st.integers(0, 3))):
        c = draw(st.integers(-3, 3))
        exps = {}
        for v in draw(st.lists(st.sampled_from(VARS), max_size=2)):
            exps[v] = exps.get(v, 0) + draw(st.integers(1, 2))
        p = p + Polynomial({Monomial(exps.items()): c})
    return p


@given(st.integers(1, 4).flatmap(lambda r: st.lists(
    st.lists(small_polys(), min_size=r, max_size=r), min_size=r, max_size=r)))
@settings(max_examples=25, deadline=None)
def test_bareiss_agrees_with_cofactor(matrix):
    assert det_bareiss(matrix) == det_cofactor(matrix)


def test_bareiss_on_hankel_matches_minor_scan():
    # Both determinants equal the full m x m minor of the reference scan,
    # and the level scan reaches the reference scan's verdict.
    for seq in (ward_sequence, e2_reversed_sequence, generalized_ward_sequence):
        for m in (3, 4):
            h = hankel_section(seq, m)
            entries = matrix(h)
            full = memoized_minor(h)(tuple(range(m)), tuple(range(m)))
            assert not full.is_zero()
            assert det_bareiss(entries) == full, (seq.__name__, m)
            assert det_cofactor(entries) == full, (seq.__name__, m)
            assert all_minors_nonneg(h, m) == memoized_minors_nonneg(h, m), (seq.__name__, m)


def test_bareiss_zero_column():
    zero = Polynomial.zero()
    mat = [[zero, x], [zero, z]]
    assert det_bareiss(mat) == Polynomial.zero()
    mat2 = [[zero, x], [z, zero]]
    assert det_bareiss(mat2) == -(x * z)


# -- the level scan against the memoized recursive scan ---------------------------------


def memoized_minor(h):
    """The minor (rows, cols) of a symmetric section by a memoized
    first-row expansion on Polynomials, looking up the mirrored pair
    (cols, rows) too."""
    entries = matrix(h)
    cache = {}

    def minor(rows, cols):
        if not rows:
            return Polynomial.one()
        got = cache.get((rows, cols), cache.get((cols, rows)))
        if got is None:
            got = Polynomial.zero()
            for idx, c in enumerate(cols):
                piece = entries[rows[0]][c] * minor(rows[1:], cols[:idx] + cols[idx + 1 :])
                got = got - piece if idx % 2 else got + piece
            cache[rows, cols] = got
        return got

    return minor


def memoized_minors_nonneg(h, r_max):
    """The scan before the level-by-level rewrite: every minor by
    ``memoized_minor``, over all pairs in the order r, rows, cols."""
    minor = memoized_minor(h)
    for r in range(1, r_max + 1):
        subsets = list(combinations(range(h.m), r))
        for rows in subsets:
            for cols in subsets:
                value = minor(rows, cols)
                if not coefficientwise_nonneg(value):
                    return False, (rows, cols, value)
    return True, None


@st.composite
def mostly_nonneg_polys(draw):
    p = Polynomial.zero()
    for _ in range(draw(st.integers(0, 3))):
        exps = {v: draw(st.integers(0, 2)) for v in VARS}
        p = p + Polynomial({Monomial(exps.items()): draw(st.integers(-1, 4))})
    return p


@given(st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(mostly_nonneg_polys(), min_size=2 * m - 1, max_size=2 * m - 1))))
@settings(max_examples=200, deadline=None)
def test_level_scan_matches_memoized_scan(case):
    m, seq = case
    h = hankel_section(lambda n: seq[n], m)
    for r_max in range(1, m + 1):
        assert all_minors_nonneg(h, r_max) == memoized_minors_nonneg(h, r_max)


# The scan stores a finished minor's keys and coefficients as array('q')
# columns when they fit in a signed 64-bit word and as tuples otherwise.
BOUNDARY = [2**63 - 1, 2**63, -(2**63), -(2**63) - 1]
WIDE_VARS = [VarId("x"), VarId("z"), VarId("a", 1), VarId("b", 2, 1), VarId("c", 3)]


def test_store_packs_columns_and_drops_cancelled_terms():
    keys, coeffs = _store({1: 0, 2: 3, 5: 2**63 - 1})
    assert type(keys) is type(coeffs) is array
    assert (list(keys), list(coeffs)) == ([2, 5], [3, 2**63 - 1])
    keys, coeffs = _store({3: -(2**63), 1 << 64: 1})
    assert keys == (3, 1 << 64) and type(coeffs) is array and list(coeffs) == [-(2**63), 1]
    assert _store({3: -(2**63) - 1}) == (array("q", [3]), (-(2**63) - 1,))
    keys, coeffs = _store({4: 2**63, 1: Fraction(1, 2), 2: Fraction(0)})
    assert type(keys) is array and list(keys) == [4, 1]
    assert coeffs == (2**63, Fraction(1, 2))


@st.composite
def wide_polys(draw):
    """Coefficients at and beyond the 64-bit bounds and Fractions, and
    exponents that make the scan's keys wider than 64 bits."""
    coefficient = st.one_of(
        st.integers(-1, 4),
        st.sampled_from(BOUNDARY + [3**50, -(3**50)]),
        st.fractions(0, 5, max_denominator=6),
    )
    p = Polynomial.zero()
    for _ in range(draw(st.integers(0, 3))):
        exps = {v: draw(st.sampled_from([0, 1, 2, 8000])) for v in WIDE_VARS}
        p = p + Polynomial({Monomial(exps.items()): draw(coefficient)})
    return p


@given(st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(wide_polys(), min_size=2 * m - 1, max_size=2 * m - 1))))
@settings(max_examples=100, deadline=None)
def test_level_scan_matches_memoized_scan_on_wide_terms(case):
    m, seq = case
    h = hankel_section(lambda n: seq[n], m)
    for r_max in range(1, m + 1):
        assert all_minors_nonneg(h, r_max) == memoized_minors_nonneg(h, r_max)


@pytest.mark.parametrize("t", BOUNDARY + [2**64 + 1, Fraction(2**63 - 1, 3)])
def test_minor_at_the_64_bit_bounds(t):
    # P_n = c_n x^n with c = (1, v, w, w^2, w^4) and w - v^2 = t: the 2 x 2
    # minor at rows (0, 1), cols (0, 1) is t x^2.  For t > 0 every 2 x 2
    # minor is nonnegative and the 3 x 3 minors read it back.
    v = 2**32
    w = t + v * v
    c = [1, v, w, w * w, w**4]
    h = hankel_section(lambda n: c[n] * x**n, 3)
    expected = memoized_minors_nonneg(h, 3)
    assert all_minors_nonneg(h, 3) == expected
    assert memoized_minor(h)((0, 1), (0, 1)) == t * x**2
    assert expected[0] is (t > 0)
    if t < 0:
        assert expected[1] == ((0, 1), (0, 1), t * x**2)


def test_scan_memory_stays_packed():
    # A finished minor is kept as packed columns, not a dict of boxed ints:
    # this scan peaks at 0.45 MB traced, and at 0.75 MB on dicts, once the
    # process is warm (Python 3.11).
    h = hankel_section(generalized_ward_sequence, 5)
    tracemalloc.start()
    try:
        result = all_minors_nonneg(h, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (True, None)
    assert peak < 1.2e6, peak


# -- the scan's packed keys ---------------------------------------------------------------

PACKED_VARS = [VarId("x"), VarId("z"), VarId("a", 1), VarId("b", 2, 1)]


@st.composite
def packable_polys(draw):
    p = Polynomial.zero()
    for _ in range(draw(st.integers(0, 4))):
        exps = {v: draw(st.integers(0, 9)) for v in draw(st.lists(st.sampled_from(PACKED_VARS)))}
        p = p + Polynomial({Monomial(exps.items()): draw(st.integers(-5, 5))})
    return p


def packed_product(p, q, r, sign, short_bits=0):
    """r + sign*p*q on the scan's layout for the section with moments
    (p, r, q), in the scan's base for it, or in a base short_bits bits
    smaller; q is read in the form the scan stores a finished minor in.
    The coefficients are integers, so L = 1, and the section's 2 x 2 minor
    pq - r^2 has the permanent |p||q| + |r|^2, which bounds every
    coefficient of r + sign*p*q and so sets a wide enough slot."""
    layout, _, _ = _packed_section(hankel_section(lambda n: (p, r, q)[n], 2), 2)
    layout = layout._replace(base=layout.base >> short_bits)
    acc = _pack(r.items(), layout)
    _add_product(acc, _pack(p.items(), layout), _store(_pack(q.items(), layout)), sign)
    return _unpack(_store(acc), layout, 1)


@given(packable_polys(), packable_polys(), packable_polys(), st.sampled_from([1, -1]))
@settings(max_examples=100, deadline=None)
def test_packed_product_matches_polynomial_product(p, q, r, sign):
    assert packed_product(p, q, r, sign) == r + sign * p * q


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("largest", [1, 2, 3, 4, 7, 8, 100])
def test_packed_product_at_the_exponent_bound(sign, largest):
    # a and b are v0 and v1, so a * b^largest has the digit largest + 1,
    # as x^(largest + 1) has; p*q reaches twice it in x, the bound the
    # scan's base holds for a product of two entries; one bit less carries.
    a, b = var("a", 1), var("b", 2, 1)
    p = x ** (largest + 1) * z + 2 * b**largest
    q = x ** (largest + 1) - 3 * a * b**largest
    r = 5 * x * z**largest
    exact = r + sign * p * q
    assert packed_product(p, q, r, sign) == exact
    assert packed_product(p, q, r, sign, short_bits=1) != exact


@st.composite
def round_trip_cases(draw):
    """A polynomial in 0-4 variables with ints of both signs, some past
    64 bits, and Fractions, and how many bits to widen its base by: the
    layout stays valid, and its keys pass 64 bits."""
    variables = draw(st.lists(st.sampled_from(PACKED_VARS), max_size=4, unique=True))
    coefficient = st.one_of(
        st.integers(-5, 5),
        st.sampled_from(BOUNDARY + [3**50, -(3**50)]),
        st.fractions(-5, 5, max_denominator=6),
    )
    p = Polynomial.zero()
    for _ in range(draw(st.integers(0, 4))):
        exps = {v: draw(st.sampled_from([0, 1, 2, 9, 300])) for v in variables}
        p = p + Polynomial({Monomial(exps.items()): draw(coefficient)})
    return p, draw(st.sampled_from([0, 24]))


WIDE_KEY = 3 * Polynomial({Monomial((v, 300) for v in PACKED_VARS): 1}) - Fraction(2**64, 5)


@given(round_trip_cases())
@example((WIDE_KEY, 24))
@settings(max_examples=150, deadline=None)
def test_pack_store_unpack_round_trip(case):
    p, widen = case
    layout, _, _ = _packed_section(HankelSection((p,)), 1)
    layout = layout._replace(base=layout.base << widen)
    stored = _store(_pack(p.items(), layout))
    if p == WIDE_KEY:
        assert max(stored[0]) >= 2**64
    assert _unpack(stored, layout, 1) == p


@st.composite
def permanent_cases(draw):
    m = draw(st.integers(1, 4))
    norm = st.sampled_from([0, 1, 2**64]) | st.integers(0, 2**70)
    norms = draw(st.lists(norm, min_size=2 * m - 1, max_size=2 * m - 1))
    return norms, m, draw(st.integers(1, m))


@given(permanent_cases())
@example(([2**64 + 1, 0, 3, 0, 2**70, 5, 0], 4, 4))
@settings(max_examples=100, deadline=None)
def test_largest_permanent_matches_brute_force(case):
    # Every r x r pair of rows and columns, not only rows <= cols, with the
    # permanent summed over all permutations.
    norms, m, r_max = case
    expected = max(
        sum(prod(norms[i + j] for i, j in zip(rows, perm)) for perm in permutations(cols))
        for r in range(1, r_max + 1)
        for rows in combinations(range(m), r)
        for cols in combinations(range(m), r)
    )
    assert hankel._largest_permanent(norms, m, r_max) == expected


@pytest.mark.parametrize(
    "entry",
    [
        Polynomial.const(3),
        3 * x,
        3 * var("a", 1) * x**2,
        Polynomial.const(Fraction(3, 2)) * x * z,
    ],
    ids=["constant", "one-variable", "folded", "fraction"],
)
def test_minor_at_the_slot_width_bound(entry, monkeypatch):
    # The section (0, entry, 0) has the 2 x 2 minor -entry^2, whose
    # coefficient times L^2 is -9: it reaches the largest permanent, 9,
    # so the slots are 9's bit length plus one bit wide, and one bit
    # narrower -9 no longer fits its slot.
    zero = Polynomial.zero()
    h = HankelSection((zero, entry, zero))
    expected = (False, ((0, 1), (0, 1), -(entry * entry)))
    layout, _, _ = _packed_section(h, 2)
    assert layout.width == (9).bit_length() + 1
    assert all_minors_nonneg(h, 2) == expected
    bound = hankel._largest_permanent
    monkeypatch.setattr(hankel, "_largest_permanent", lambda *args: bound(*args) >> 1)
    assert all_minors_nonneg(h, 2) != expected


def test_hankel_verb_reports_a_negative_minor(capsys, monkeypatch):
    # P_2 = 1 + x^2 + 3x^3 in place of (1 + x)^2: the leading 2 x 2 minor
    # is 3x^3 - 2x, after every 1 x 1 minor passed.
    def seq(n):
        return 1 + x**2 + 3 * x**3 if n == 2 else (1 + x) ** n

    monkeypatch.setitem(cli._HANKEL_SEQS, "ward", seq)
    assert cli.run(["hankel", "--family", "ward", "--size", "3"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    found = report["counterexample"]
    rows, cols = tuple(found["rows"]), tuple(found["cols"])
    assert (rows, cols) == ((0, 1), (0, 1))
    expected = memoized_minor(hankel_section(seq, 3))(rows, cols)
    assert expected == 3 * x**3 - 2 * x
    assert parse_poly(found["minor"]) == expected


@pytest.mark.parametrize(
    "seq, expected",
    [
        # Fraction moments: the scan holds the minor times L^2 = 48^2.
        (
            lambda n: (
                1 + Fraction(1, 3) * x**2 + Fraction(3, 2) * x**3 if n == 2
                else (1 + Fraction(1, 2) * x) ** n
            ),
            Fraction(3, 2) * x**3 + Fraction(1, 12) * x**2 - x,
        ),
        # Two variables: x is v0, and z's exponent comes back from the
        # digit that holds both.
        (lambda n: x**2 + z**2 + 3 * x**3 * z if n == 2 else (x + z) ** n, 3 * x**3 * z - 2 * x * z),
    ],
    ids=["fractions", "two-variables"],
)
def test_hankel_verb_reports_an_exact_minor(seq, expected, capsys, monkeypatch):
    monkeypatch.setitem(cli._HANKEL_SEQS, "ward", seq)
    assert cli.run(["hankel", "--family", "ward", "--size", "3"]) == 1
    found = json.loads(capsys.readouterr().out)["counterexample"]
    rows, cols = tuple(found["rows"]), tuple(found["cols"])
    assert (rows, cols) == ((0, 1), (0, 1))
    assert memoized_minor(hankel_section(seq, 3))(rows, cols) == expected
    assert parse_poly(found["minor"]) == expected
