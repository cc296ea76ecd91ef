import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from wardcf import matchings
from wardcf.contfrac import (
    TCoeffs,
    expand_S,
    expand_T,
    named_family,
    pq_bracket,
    tfraction_12var,
    tfraction_12var_bis1,
    tfraction_12var_bis2,
    tfraction_18var,
)
from wardcf.matchings import (
    IndexedWeights,
    PerfectMatching,
    SuperMatching,
    count_augmented,
    count_Mprime,
    cr,
    enumerate_augmented,
    enumerate_matchings,
    enumerate_super,
    format_matching,
    generalized_ward_oracle,
    master_poly_T,
    ne,
    parse_matching,
    poly_12var,
    poly_18var,
    qne,
    star,
    super_weight,
)
from wardcf.poly import _SLOTS, Monomial, Polynomial, VarId, var


def pm(*pairs):
    return PerfectMatching.from_pairs(pairs)


def double_factorial(m):
    return math.prod(range(m, 0, -2)) if m > 0 else 1


# -- brute statistics, read off the pairs ---------------------------------------


def is_record(j, pm):
    """Opener with no arch nesting strictly above its own."""
    if not pm.is_opener(j):
        raise ValueError(f"{j} is not an opener")
    k = pm.partner[j]
    return not any(pm.partner[i] > k for i in range(1, j))


def is_antirecord(k, pm):
    """Closer whose arch has nothing nesting above it (equivalently ne = 0)."""
    if not pm.is_closer(k):
        raise ValueError(f"{k} is not a closer")
    j = pm.partner[k]
    return not any(pm.partner[l] < j for l in range(k + 1, 2 * pm.n + 1))


def crossing_total(pm):
    """Total crossings, by direct scan of the pairs, which pairs() lists by opener."""
    total = 0
    for (i, k), (j, l) in combinations(pm.pairs(), 2):
        if i < j < k < l:
            total += 1
    return total


def nesting_total(pm):
    """Total nestings, by direct scan of the pairs, which pairs() lists by opener."""
    total = 0
    for (i, l), (j, k) in combinations(pm.pairs(), 2):
        if i < j < k < l:
            total += 1
    return total


def clop_count(pm):
    """Number of positions i with i a closer and i+1 an opener."""
    return sum(
        1
        for i in range(1, 2 * pm.n)
        if pm.is_closer(i) and pm.is_opener(i + 1)
    )


# -- structures and enumeration -------------------------------------------------


def test_matching_validation():
    with pytest.raises(ValueError):
        PerfectMatching((0, 1, 2))  # fixed points
    with pytest.raises(ValueError):
        PerfectMatching((0, 2, 1, 3))  # odd size
    with pytest.raises(ValueError, match="vertex 3 outside 1..2"):
        parse_matching("pairs=(1,3); wiggly={}; dashed={}")
    with pytest.raises(ValueError, match="vertex 5 outside 1..2"):
        parse_matching("pairs=(1,2); wiggly={5}; dashed={}")


@pytest.mark.parametrize("build, message", [
    (lambda: PerfectMatching.from_pairs([(1.0, 2)]), r"vertex 1\.0: a vertex is an int"),
    (lambda: PerfectMatching.from_pairs([(True, 2)]), "vertex True: a vertex is an int"),
    (lambda: PerfectMatching.from_pairs([(1, 4), (2, 3.0)]), r"vertex 3\.0: a vertex is an int"),
    (lambda: PerfectMatching((0, 2, True)), "partner True of vertex 2: a vertex is an int"),
    (lambda: PerfectMatching((0, 2.0, 1)), r"partner 2\.0 of vertex 1: a vertex is an int"),
], ids=["float-pair", "bool-pair", "float-in-second-pair", "bool-partner", "float-partner"])
def test_matching_vertices_must_be_ints(build, message):
    # from_pairs([(True, 2)]) used to build the partner array (0, 2, True).
    with pytest.raises(ValueError, match=message):
        build()


def test_super_validation():
    base = pm((1, 2), (3, 4))
    SuperMatching(base, wiggly=[2])  # 2 closer, 3 opener: fine
    with pytest.raises(ValueError):
        SuperMatching(base, wiggly=[1])
    with pytest.raises(ValueError):
        SuperMatching(base, dashed=[2])
    base2 = pm((1, 4), (2, 8), (3, 5), (6, 12), (7, 11), (9, 10))
    SuperMatching(base2, wiggly=[5], dashed=[3, 9])
    with pytest.raises(ValueError):
        # wiggly (5,6) and dashed (6,7)? 6 opener, 7 opener -> invalid anyway;
        # use a genuine shared-vertex clash: wiggly (5,6), dashed needs opener-closer.
        SuperMatching(base2, wiggly=[5], dashed=[6])


@pytest.mark.parametrize("line", [True, 1.0])
def test_super_lines_must_be_int_vertices(line):
    # A bool vertex would format as dashed={True}, which parse_matching rejects.
    base = pm((1, 2))
    for kind in ("wiggly", "dashed"):
        with pytest.raises(ValueError, match="a vertex is an int"):
            SuperMatching(base, **{kind: [line]})


def test_enumerate_matchings_counts():
    assert len(list(enumerate_matchings(0))) == 1
    assert len(list(enumerate_matchings(2))) == 3
    assert len(list(enumerate_matchings(6))) == 10395


def test_enumerate_matchings_deterministic_prefix():
    first = next(iter(enumerate_matchings(3)))
    assert first.pairs() == ((1, 2), (3, 4), (5, 6))
    runs = [tuple(m.partner for m in enumerate_matchings(3)) for _ in range(2)]
    assert runs[0] == runs[1]


def test_enumerate_super_small():
    supers = list(enumerate_super(1))
    assert len(supers) == 2
    kinds = {(tuple(s.wiggly), tuple(s.dashed)) for s in supers}
    assert kinds == {((), ()), ((), (1,))}
    assert len(list(enumerate_super(0))) == 1


def test_enumerate_super_count_matches_tfraction_at_ones():
    # Total number of decorated matchings equals the all-ones evaluation of
    # the decorated-matching T-fraction coefficient.
    one = Polynomial.one()
    weights = IndexedWeights(
        a=lambda l: one, b=lambda l, lp: one, f=lambda l, lp: one, g=lambda l, lp: one
    )
    seq = TCoeffs(
        alpha=lambda i: Polynomial.const(i),
        delta=lambda i: Polynomial.const(2 * i - 1),
    )
    s = expand_T(seq, 3)
    for n in range(4):
        count = len(list(enumerate_super(n)))
        assert Polynomial.const(count) == s.coefficient(n)
        assert master_poly_T(n, weights) == s.coefficient(n)


# -- statistics --------------------------------------------------------------------


def test_cr_ne_basic():
    crossed = pm((1, 3), (2, 4))
    assert cr(3, crossed) == 1 and ne(3, crossed) == 0
    assert cr(4, crossed) == 0 and ne(4, crossed) == 0
    nested = pm((1, 4), (2, 3))
    assert ne(3, nested) == 1 and cr(3, nested) == 0
    flat = pm((1, 2), (3, 4))
    assert all(cr(k, flat) == 0 and ne(k, flat) == 0 for k in range(1, 5))


def test_qne():
    crossed = pm((1, 3), (2, 4))
    assert qne(2, crossed) == 1
    assert qne(1, crossed) == 0
    fig = pm((1, 4), (2, 8), (3, 5), (6, 12), (7, 11), (9, 10))
    assert qne(7, fig) == 2  # arches (2,8) and (6,12) straddle vertex 7


def test_records_antirecords():
    nested = pm((1, 4), (2, 3))
    assert is_antirecord(4, nested)
    assert not is_antirecord(3, nested)
    flat = pm((1, 2), (3, 4))
    assert all(is_antirecord(k, flat) for k in flat.closers())
    for m in enumerate_matchings(3):
        for j in m.openers():
            assert is_record(j, m) == is_antirecord(m.partner[j], m)
    with pytest.raises(ValueError):
        is_record(2, flat)


def test_antirecord_iff_no_nesting():
    for n in range(1, 7):
        for m in enumerate_matchings(n):
            for k in m.closers():
                assert is_antirecord(k, m) == (ne(k, m) == 0)


def test_closer_parity_matches_cr_plus_ne():
    for n in range(1, 7):
        for m in enumerate_matchings(n):
            for k in m.closers():
                assert k % 2 == (cr(k, m) + ne(k, m)) % 2


def test_statistic_totals_agree_with_quadruple_scan():
    for n in range(1, 5):
        for m in enumerate_matchings(n):
            assert sum(cr(k, m) for k in m.closers()) == crossing_total(m)
            assert sum(ne(k, m) for k in m.closers()) == nesting_total(m)


def test_reversal_symmetry_of_record_statistics():
    # The flip i -> 2n+1-i swaps (even closer antirecords, odd closer
    # antirecords, even closer non-antirecords, odd closer non-antirecords)
    # with (odd opener records, even opener records, odd opener non-records,
    # even opener non-records).
    for n in range(1, 6):
        size = 2 * n
        for m in enumerate_matchings(n):
            flipped = PerfectMatching.from_pairs(
                tuple(sorted((size + 1 - a, size + 1 - b)))
                for a, b in m.pairs()
            )
            closer_stats = [0, 0, 0, 0]
            for k in m.closers():
                even = k % 2 == 0
                anti = is_antirecord(k, m)
                idx = (0 if even else 1) if anti else (2 if even else 3)
                closer_stats[idx] += 1
            opener_stats = [0, 0, 0, 0]
            for j in flipped.openers():
                odd = j % 2 == 1
                rec = is_record(j, flipped)
                idx = (0 if odd else 1) if rec else (2 if odd else 3)
                opener_stats[idx] += 1
            assert closer_stats == opener_stats


# -- clop / augmented counts ----------------------------------------------------------


def test_clop_and_Mprime():
    assert count_Mprime(2, 1) == 1
    for n in range(0, 5):
        assert count_Mprime(n, 0) == math.factorial(n)
        assert sum(count_Mprime(n, l) for l in range(n + 1)) == double_factorial(2 * n - 1)


def test_count_augmented_matches_ward_numbers():
    from wardcf.ward import ward_triangle

    tri = ward_triangle(5)
    assert count_augmented(2, 1) == 1
    assert count_augmented(2, 0) == 3
    assert count_augmented(4, 2) == 25  # W(4,2)
    for n in range(0, 5):
        assert count_augmented(n, 0) == double_factorial(2 * n - 1)
        for l in range(n + 1):
            assert count_augmented(n, l) == tri[n][n - l]


# -- master polynomials ------------------------------------------------------------------


def test_star_sums():
    b = lambda l, lp: var("b", l, lp)
    assert star(b, -1) == Polynomial.zero()
    assert star(b, 0) == var("b", 0, 0)
    assert star(b, 2) == var("b", 0, 2) + var("b", 1, 1) + var("b", 2, 0)


def test_master_poly_T_small():
    w = IndexedWeights.symbolic()
    assert master_poly_T(0, w) == Polynomial.one()
    assert master_poly_T(1, w) == var("a", 0) * var("b", 0, 0) + var("g", 0, 0)


def test_master_poly_T_matches_tfraction():
    w = IndexedWeights.symbolic()
    s = expand_T(named_family("master-T"), 4)
    for n in range(5):
        assert master_poly_T(n, w) == s.coefficient(n)


def test_master_poly_T_without_lines_matches_sfraction():
    # At f = g = 0 every decorated matching weighs 0, so master_poly_T sums
    # the undecorated matchings: the S-fraction with alpha_i = a_{i-1} b*_{i-1}.
    a = lambda l: var("a", l)
    b = lambda l, lp: var("b", l, lp)
    zero = lambda l, lp: Polynomial.zero()
    w = IndexedWeights(a, b, zero, zero)
    assert master_poly_T(1, w) == var("a", 0) * var("b", 0, 0)
    b00, b01, b10 = var("b", 0, 0), var("b", 0, 1), var("b", 1, 0)
    a0, a1 = var("a", 0), var("a", 1)
    assert master_poly_T(2, w) == a0 * a1 * b00 * (b01 + b10) + a0**2 * b00**2

    alpha = lambda i: var("a", i - 1) * star(b, i - 1)
    s = expand_S(alpha, 4)
    for n in range(5):
        assert master_poly_T(n, w) == s.coefficient(n)


def brute_super_weight(sm, w):
    """Reference for super_weight: pure vertices found by probing the line
    sets, the definitional cr, ne and qne, and one product per factor."""
    pm = sm.base

    def is_pure(i):
        return not (
            i in sm.wiggly or i - 1 in sm.wiggly or i in sm.dashed or i - 1 in sm.dashed
        )

    weight = Polynomial.one()
    for i in range(1, 2 * pm.n + 1):
        if is_pure(i):
            weight = weight * (w.a(qne(i, pm)) if pm.is_opener(i) else w.b(cr(i, pm), ne(i, pm)))
    for i in sm.wiggly:
        weight = weight * w.f(cr(i, pm), ne(i, pm))
    for i in sm.dashed:
        weight = weight * w.g(cr(i + 1, pm), ne(i + 1, pm))
    return weight


def rational_weights():
    """Non-monomial weights with Fraction coefficients, none symmetric in
    (crossings, nestings), so a swap of the two changes a product."""
    x, y = var("x"), var("y")
    return IndexedWeights(
        a=lambda l: x + Fraction(1, l + 2),
        b=lambda l, lp: Fraction(l + 1, lp + 2) * y + l + 1,
        f=lambda l, lp: Fraction(1, 3) * x * y**l + lp,
        g=lambda l, lp: x**lp - Fraction(l + 2, 5) * y,
    )


@pytest.mark.parametrize("weights", [IndexedWeights.symbolic, rational_weights],
                         ids=["symbolic", "rational"])
def test_super_weight_matches_per_vertex_reference(weights):
    # The fractions read b, f and g only through anti-diagonal sums, so no
    # sum over all decorated matchings tells crossings from nestings; this
    # compares each decorated matching's own product.
    w = IndexedWeights(*map(lru_cache(maxsize=None), weights()))
    for n in range(6):
        for sm in enumerate_super(n):
            assert super_weight(sm, w) == brute_super_weight(sm, w), format_matching(sm)


# -- 18- and 12-variable specializations ----------------------------------------------------


def test_poly_18var_small():
    assert poly_18var(0) == Polynomial.one()
    assert poly_18var(1) == var("x") + var("x''")


def test_poly_18var_matches_tfraction():
    s = expand_T(tfraction_18var(), 3)
    for n in range(4):
        assert poly_18var(n) == s.coefficient(n)


def test_poly_18var_collapses_to_four_variable_sfraction():
    # Primes to zero and all p,q to 1 leaves the plain matching polynomial.
    ones = {VarId(nm): Polynomial.one() for nm in ("p", "q", "p'", "q'", "p''", "q''")}
    zeros = {
        VarId(nm): Polynomial.zero()
        for nm in ("x'", "y'", "u'", "v'", "x''", "y''", "u''", "v''")
    }
    x, y, u, v = var("x"), var("y"), var("u"), var("v")

    def alpha(i):
        if i % 2 == 1:
            return x + (i - 1) * u
        return y + (i - 1) * v

    s = expand_S(alpha, 4)
    for n in range(5):
        collapsed = poly_18var(n).substitute({**ones, **zeros})
        assert collapsed == s.coefficient(n)


def test_poly_12var_matches_tfraction():
    assert poly_12var(1) == var("x") + var("x''")
    s = expand_T(tfraction_12var(), 3)
    for n in range(4):
        assert poly_12var(n) == s.coefficient(n)


def test_poly_12var_bis_collapses():
    xp, x, xpp = var("x'"), var("x"), var("x''")
    s = expand_T(tfraction_12var_bis1(), 3)
    sub = {VarId("u'"): xp}
    for n in range(4):
        assert poly_12var(n).substitute(sub) == s.coefficient(n)

    s2 = expand_T(tfraction_12var_bis2(), 3)
    sub2 = {VarId("u'"): xp, VarId("u"): x, VarId("u''"): xpp}
    for n in range(4):
        assert poly_12var(n).substitute(sub2) == s2.coefficient(n)


def test_pq_bracket():
    p, q = var("p"), var("q")
    assert pq_bracket(0, p, q) == Polynomial.zero()
    assert pq_bracket(1, p, q) == Polynomial.one()
    assert pq_bracket(3, p, q) == p**2 + p * q + q**2
    one = Polynomial.one()
    assert pq_bracket(5, one, one) == 5


# -- five-variable decorated matching polynomial ----------------------------------------------


def test_generalized_ward_oracle_small():
    assert generalized_ward_oracle(1) == var("x") + var("z")


def test_generalized_ward_oracle_matches_tfraction():
    x, u, z = var("x"), var("u"), var("z")
    wp, wpp = var("w'"), var("w''")
    seq = TCoeffs(
        alpha=lambda i: x + (i - 1) * u,
        delta=lambda i: z + (i - 1) * (wp + wpp),
    )
    s = expand_T(seq, 4)
    for n in range(5):
        assert generalized_ward_oracle(n) == s.coefficient(n)


def test_generalized_ward_oracle_depends_on_w_sum_only():
    w = var("w")
    merge = {VarId("w'"): w, VarId("w''"): Polynomial.zero()}
    merge2 = {VarId("w'"): Polynomial.zero(), VarId("w''"): w}
    for n in range(6):
        p = generalized_ward_oracle(n)
        assert p.substitute(merge) == p.substitute(merge2)


def test_generalized_ward_specializes_to_ward_polys():
    from wardcf.ward import ward_poly

    x = var("x")
    sub = {
        VarId("u"): x,
        VarId("z"): Polynomial.zero(),
        VarId("w'"): Polynomial.one(),
        VarId("w''"): Polynomial.zero(),
    }
    for n in range(5):
        assert generalized_ward_oracle(n).substitute(sub) == ward_poly(n)


# -- brute and per-matching references for the prefix-walk oracles --------------------


def brute_poly_18var(n):
    """Reference: one monomial per decorated matching, statistics by scans."""
    (x, y, u, v, xp, yp, up, vp, xpp, ypp, upp, vpp,
     p, q, pp, qp, ppp, qpp) = [
        VarId(s)
        for s in ("x", "y", "u", "v", "x'", "y'", "u'", "v'", "x''", "y''", "u''", "v''",
                  "p", "q", "p'", "q'", "p''", "q''")
    ]
    total = {}
    for sm in enumerate_super(n):
        pm = sm.base
        exps = {}

        def bump(vid, by=1):
            if by:
                exps[vid] = exps.get(vid, 0) + by

        for k in pm.closers():
            if k - 1 in sm.dashed:
                vset = (xpp, ypp, upp, vpp)
                pq = (ppp, qpp)
            elif k in sm.wiggly:
                vset = (xp, yp, up, vp)
                pq = (pp, qp)
            else:
                vset = (x, y, u, v)
                pq = (p, q)
            even = k % 2 == 0
            anti = is_antirecord(k, pm)
            if anti:
                bump(vset[0] if even else vset[1])
            else:
                bump(vset[2] if even else vset[3])
            bump(pq[0], cr(k, pm))
            bump(pq[1], ne(k, pm))
        mono = Monomial(exps.items())
        total[mono] = total.get(mono, 0) + 1
    return Polynomial(total)


def brute_poly_12var(n):
    merge = {
        VarId(a): var(b)
        for a, b in (("y", "x"), ("v", "u"), ("y'", "x'"), ("v'", "u'"),
                     ("y''", "x''"), ("v''", "u''"))
    }
    return brute_poly_18var(n).substitute(merge)


def brute_generalized_ward(n):
    x, u, z = VarId("x"), VarId("u"), VarId("z")
    wp, wpp = VarId("w'"), VarId("w''")
    total = {}
    for sm in enumerate_super(n):
        pm = sm.base
        exps = {x: 0, u: 0, z: 0, wp: 0, wpp: 0}
        for k in pm.closers():
            if k - 1 in sm.dashed:
                if pm.partner[k] == k - 1:
                    exps[z] += 1
                else:
                    exps[wpp] += 1
            elif k in sm.wiggly:
                exps[wp] += 1
            else:
                if cr(k, pm) == 0:
                    exps[x] += 1
                else:
                    exps[u] += 1
        mono = Monomial((vid, e) for vid, e in exps.items() if e)
        total[mono] = total.get(mono, 0) + 1
    return Polynomial(total)


def closer_stats(partner):
    """(cr(k), ne(k)) at every closer k and None at every opener, from one
    left-to-right sweep over a partner array.

    The sweep keeps the open openers in increasing order.  At closer k with
    opener j, the open openers after j are the arches crossing (j, k) and
    those before j the arches nesting over it; k is an antirecord iff
    ne(k) = 0.
    """
    opened = []
    stats = [None] * len(partner)
    for k in range(1, len(partner)):
        j = partner[k]
        if j > k:
            opened.append(k)
        else:
            before = opened.index(j)
            del opened[before]
            stats[k] = (len(opened) - before, before)
    return stats


def sweep_decorated_sum(n, factors):
    """Reference for ``matchings._decorated_sum``: one sweep per base
    matching for the closer statistics, then a two-state transfer along
    1..2n restarted for every matching."""
    total = {}
    for pm in enumerate_matchings(n):
        partner = pm.partner
        stats = closer_stats(partner)
        before = {}
        here = {0: 1}
        wiggly = None  # wiggly factor of vertex i-1 when it is a closer
        for i in range(1, len(partner)):
            j = partner[i]
            if j > i:  # an opener, covered only by a wiggly line from i-1
                pure, line, wiggly = 0, wiggly, None
            else:
                pure, wiggly, dashed = factors(i, j, *stats[i])
                line = dashed if partner[i - 1] > i - 1 else None
            after = {key + pure: c for key, c in here.items()}
            if line is not None:
                for key, c in before.items():
                    key += line
                    after[key] = after.get(key, 0) + c
            before, here = here, after
        for key, c in here.items():
            total[key] = total.get(key, 0) + c
    _SLOTS.check(total)
    return Polynomial._raw(total)


def brute_count_augmented(n, l):
    return sum(1 for sm in enumerate_augmented(n) if len(sm.wiggly) == l)


def clop_histogram(n):
    """Matchings of [2n] by their number of closer/opener adjacencies."""
    return Counter(clop_count(m) for m in enumerate_matchings(n))


@pytest.mark.parametrize("n", range(7))
def test_counts_match_clop_histogram(n):
    # A matching with c adjacencies carries C(c, l) wiggly-only decorations
    # with l lines, so the augmented counts are the histogram's binomial
    # transform.
    histogram = clop_histogram(n)
    sizes = range(-1, n + 2)
    assert [count_Mprime(n, l) for l in sizes] == [histogram[l] for l in sizes]
    assert [count_augmented(n, l) for l in sizes] == [
        sum(h * math.comb(c, l) for c, h in histogram.items()) if l >= 0 else 0 for l in sizes
    ]


@pytest.mark.parametrize("n", range(6))
def test_oracles_match_brute_references(n):
    assert poly_18var(n) == brute_poly_18var(n)
    assert poly_12var(n) == brute_poly_12var(n)
    assert generalized_ward_oracle(n) == brute_generalized_ward(n)
    for l in range(-1, n + 2):
        assert count_augmented(n, l) == brute_count_augmented(n, l)


@pytest.mark.parametrize("oracle", [poly_18var, poly_12var, generalized_ward_oracle],
                         ids=lambda f: f.__name__)
def test_prefix_walk_matches_per_matching_sweep(monkeypatch, oracle):
    walked = [oracle(n) for n in range(7)]
    monkeypatch.setattr(matchings, "_decorated_sum", sweep_decorated_sum)
    assert walked == [oracle(n) for n in range(7)]


def test_each_leaf_of_the_prefix_walk_is_one_matching():
    # A closer's factor names its opener, cr and ne, so every matching has
    # its own monomial with coefficient 1; a walk that merged prefixes
    # would add up matchings that differ.
    def factors(k, j, crossings, nestings):
        key = (_SLOTS.unit(VarId("m", j, k)) + _SLOTS.unit(VarId("c", k, crossings))
               + _SLOTS.unit(VarId("e", k, nestings)))
        return key, None, None

    for n in range(5):
        expected = Polynomial.sum(
            Polynomial({Monomial(
                [(VarId("m", j, k), 1) for j, k in m.pairs()]
                + [(VarId("c", k, cr(k, m)), 1) for k in m.closers()]
                + [(VarId("e", k, ne(k, m)), 1) for k in m.closers()]
            ): 1})
            for m in enumerate_matchings(n)
        )
        assert matchings._decorated_sum(n, factors) == expected
        assert set(expected.terms.values()) == {1}
    for n in range(6):
        count = sum(1 for _ in enumerate_super(n))
        assert matchings._decorated_sum(n, lambda *_: (0, 0, 0)) == Polynomial.const(count)
    for n in range(7):
        plain = matchings._decorated_sum(n, lambda *_: (0, None, None))
        assert plain == Polynomial.const(double_factorial(2 * n - 1))


def test_sweep_matches_vertex_statistics():
    for n in range(6):
        for m in enumerate_matchings(n):
            stats = closer_stats(m.partner)
            assert stats[0] is None
            for k in range(1, 2 * n + 1):
                if m.is_opener(k):
                    assert stats[k] is None
                else:
                    assert stats[k] == (cr(k, m), ne(k, m))
                    assert (stats[k][1] == 0) == is_antirecord(k, m)


# -- text format ----------------------------------------------------------------------------


def test_matching_text_round_trip():
    sm = SuperMatching(
        pm((1, 4), (2, 8), (3, 5), (6, 12), (7, 11), (9, 10)),
        wiggly=[5],
        dashed=[3, 9],
    )
    text = format_matching(sm)
    assert text == "pairs=(1,4)(2,8)(3,5)(6,12)(7,11)(9,10); wiggly={5}; dashed={3,9}"
    assert parse_matching(text) == sm
    empty = SuperMatching(pm((1, 2)))
    assert parse_matching(format_matching(empty)) == empty


@pytest.mark.parametrize("text", [
    "pairs=(\uff11,2); wiggly={}; dashed={}",
    "pairs=(1,2)(3,4); wiggly={\uff12}; dashed={}",
    "pairs=(1,2); wiggly={}; dashed={\u0661}",
], ids=["pair", "wiggly", "dashed"])
def test_parse_matching_accepts_only_ascii_digits(text):
    with pytest.raises(ValueError, match="bad matching text"):
        parse_matching(text)
