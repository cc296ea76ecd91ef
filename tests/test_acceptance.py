"""Acceptance suite: one test per criterion, exact tolerances, with the
stated runtime ceilings asserted.  Each criterion prints its own PASS line
(run with -s or -rA to see them)."""

import json
import math
import time

from wardcf.cli import run as cli_run
from wardcf.contfrac import (
    TCoeffs,
    contract_T_to_J,
    euler_identity_check,
    expand_J,
    expand_S,
    expand_T,
    named_family,
    tfraction_12var,
    tfraction_12var_bis1,
    tfraction_12var_bis2,
    tfraction_18var,
)
from wardcf.eulerian import (
    E2_reversed,
    clop_equals_eulerian,
    e2_reversed_tfraction_check,
    eulerian2_triangle,
    ward_euler_identity,
)
from wardcf.hankel import (
    all_minors_nonneg,
    e2_reversed_sequence,
    generalized_ward_sequence,
    hankel_section,
    ward_sequence,
)
from wardcf.matchings import (
    IndexedWeights,
    PerfectMatching,
    SuperMatching,
    count_augmented,
    count_Mprime,
    enumerate_augmented,
    enumerate_super,
    master_poly_T,
    poly_12var,
    poly_18var,
)
from wardcf.paths import (
    FlajoletWeights,
    enumerate_labeled_schroeder2,
    flajolet_check,
    matching_to_path,
    path_to_matching,
    satisfies_bounds,
    verify_heights,
    verify_statistics,
)
from wardcf.poly import Polynomial, VarId, parse_poly, var
from wardcf.trees import (
    BinNode,
    arch_system_of,
    arch_system_to_matching,
    augmented_to_tree,
    binary_to_arch_system,
    binary_tree_of,
    count_assoc_stirling,
    enumerate_phylo,
    serialize_tree,
    tree_to_augmented,
    tree_to_binary,
)
from wardcf.ward import (
    check_closed_form_u_eq_x,
    check_cor_B2,
    check_cor_B3,
    check_cor_B4,
    check_prop_B1,
    generalized_ward_cf,
    invert_generalized_ward,
    invert_sequence,
    multivariate_ward_via_inversion,
    ward_poly,
    ward_triangle,
)

x = var("x")


def report(criterion, detail):
    print(f"PASS {criterion}: {detail}")


def test_criterion_01_ward_triangle(capsys):
    start = time.time()
    code = cli_run(["triangle", "--family", "ward", "--rows", "8", "--format", "json"])
    out = capsys.readouterr().out
    elapsed = time.time() - start
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[8] == [0, 1, 501, 22935, 302995, 1636635, 4099095, 4729725, 2027025]
    assert rows[8][8] == 2027025
    assert [sum(r) for r in rows] == [1, 1, 4, 26, 236, 2752, 39208, 660032, 12818912]
    assert elapsed < 1.0
    with capsys.disabled():
        report("criterion 1", f"triangle rows 0..8 exact in {elapsed:.3f}s")


def test_criterion_02_ward_polynomials_three_ways(capsys):
    start = time.time()
    series = expand_T(named_family("ward"), 6)
    for n in range(7):
        from_fraction = series.coefficient(n)
        from_triangle = ward_poly(n)
        assert from_fraction == from_triangle
        from_trees = Polynomial.sum(
            len(list(enumerate_phylo(n, k))) * x**k
            for k in (range(n + 1) if n else (0,))
        )
        assert from_trees == from_triangle
        from_matchings = Polynomial.sum(
            count_augmented(n, l) * x ** (n - l) for l in range(n + 1)
        )
        assert from_matchings == from_triangle
    elapsed = time.time() - start
    assert elapsed < 30.0
    with capsys.disabled():
        report("criterion 2", f"fraction = triangle = trees = matchings, n <= 6, {elapsed:.1f}s")


def test_criterion_03_master_tfraction(capsys):
    start = time.time()
    w = IndexedWeights.symbolic()
    series = expand_T(named_family("master-T"), 5)
    for n in range(6):
        assert master_poly_T(n, w) == series.coefficient(n)
    elapsed = time.time() - start
    assert elapsed < 300.0
    with capsys.disabled():
        report("criterion 3", f"fully symbolic decorated-matching fraction, n <= 5, {elapsed:.1f}s")


def test_criterion_04_schroeder_bijection(capsys):
    # Exhaustive round trips, image characterization, height and statistic
    # identities, and the worked 12-vertex instance.
    for n in range(5):
        forward_image = set()
        for sm in enumerate_super(n):
            lp = matching_to_path(sm)
            assert satisfies_bounds(lp)
            assert path_to_matching(lp) == sm
            assert verify_heights(sm, lp.path)
            assert verify_statistics(sm)
            forward_image.add(lp)
        legal = set(enumerate_labeled_schroeder2(2 * n))
        assert forward_image == legal
        for lp in legal:
            assert matching_to_path(path_to_matching(lp)) == lp

    example = SuperMatching(
        PerfectMatching.from_pairs([(1, 4), (2, 8), (3, 5), (6, 12), (7, 11), (9, 10)]),
        wiggly=[5],
        dashed=[3, 9],
    )
    lp = matching_to_path(example)
    assert lp.path.steps == ("R", "R", "D", None, "W", None, "R", "F", "D", None, "F", "F")
    assert lp.labels == (1, 1, 1, None, 2, None, 1, 1, 3, None, 2, 1)
    assert lp.path.heights == (0, 1, 2, None, 2, None, 2, 3, 2, None, 2, 1, 0)
    with capsys.disabled():
        report("criterion 4", "path bijection exhaustive for n <= 4, worked instance exact")


def test_criterion_05_phylo_bijection(capsys):
    tri = ward_triangle(5)
    for n in range(6):
        by_wiggly = {}
        for sm in enumerate_augmented(n):
            tree = augmented_to_tree(sm)
            assert tree_to_augmented(tree) == sm
            by_wiggly[len(sm.wiggly)] = by_wiggly.get(len(sm.wiggly), 0) + 1
        for l, count in by_wiggly.items():
            assert count == tri[n][n - l]
        for k in range(n + 1) if n else (0,):
            for tree in enumerate_phylo(n, k):
                assert augmented_to_tree(tree_to_augmented(tree)) == tree

    example = SuperMatching(
        PerfectMatching.from_pairs(
            [(1, 5), (2, 4), (3, 7), (6, 10), (8, 9), (11, 12), (13, 14)]
        ),
        wiggly=[5, 7, 10],
    )
    arch = arch_system_of(example)
    assert arch.arches == (
        (1, 6, True), (2, 5, False), (3, 8, True), (6, 11, True),
        (8, 10, False), (11, 13, False), (13, 15, False),
    )
    assert arch.labels == (
        (4, 1), (5, 2), (7, 3), (9, 4), (10, 5), (12, 6), (14, 7), (15, 8)
    )
    bt = binary_tree_of(arch)
    expected_bt = BinNode(
        BinNode(BinNode(1, BinNode(4, 5), right_wiggly=True), 2),
        BinNode(3, BinNode(6, BinNode(7, 8)), right_wiggly=True),
        right_wiggly=True,
    )
    assert bt == expected_bt
    tree = augmented_to_tree(example)
    assert serialize_tree(tree) == "(((1,4,5),2),3,6,(7,8))"
    assert tree_to_binary(tree) == expected_bt
    assert binary_to_arch_system(expected_bt) == arch
    assert arch_system_to_matching(arch) == example
    with capsys.disabled():
        report("criterion 5", "tree bijection exhaustive for n <= 5, worked instance exact")


def test_criterion_06_refined_specializations(capsys):
    s18 = expand_T(tfraction_18var(), 4)
    s12 = expand_T(tfraction_12var(), 4)
    s12a = expand_T(tfraction_12var_bis1(), 4)
    s12b = expand_T(tfraction_12var_bis2(), 4)
    xp, xpp = var("x'"), var("x''")
    for n in range(5):
        p18 = poly_18var(n)
        p12 = poly_12var(n)
        assert p18 == s18.coefficient(n)
        assert p12 == s12.coefficient(n)
        assert p12.substitute({VarId("u'"): xp}) == s12a.coefficient(n)
        assert p12.substitute(
            {VarId("u'"): xp, VarId("u"): x, VarId("u''"): xpp}
        ) == s12b.coefficient(n)
    with capsys.disabled():
        report("criterion 6", "18- and 12-variable specializations, n <= 4")


def test_criterion_07_second_order_eulerian(capsys):
    table = [
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
    assert eulerian2_triangle(8) == table
    assert eulerian2_triangle(7)[7][4] == 32120
    for n in range(7):
        assert clop_equals_eulerian(n)
    for n in range(9):
        assert ward_euler_identity(n)
    assert e2_reversed_tfraction_check(8)
    with capsys.disabled():
        report("criterion 7", "second-order Eulerian table, adjacency counts, identities")


def test_criterion_08_assoc_stirling(capsys):
    table = [
        [1],
        [0, 0],
        [0, 1, 0],
        [0, 1, 0, 0],
        [0, 1, 3, 0, 0],
        [0, 1, 10, 0, 0, 0],
        [0, 1, 25, 15, 0, 0, 0],
        [0, 1, 56, 105, 0, 0, 0, 0],
        [0, 1, 119, 490, 105, 0, 0, 0, 0],
        [0, 1, 246, 1918, 1260, 0, 0, 0, 0, 0],
        [0, 1, 501, 6825, 9450, 945, 0, 0, 0, 0, 0],
    ]
    for n, row in enumerate(table):
        for k, value in enumerate(row):
            assert count_assoc_stirling(n, k) == value
    tri = ward_triangle(6)
    for n in range(7):
        for k in range(n + 1):
            assert tri[n][k] == count_assoc_stirling(n + k, k)
    with capsys.disabled():
        report("criterion 8", "partition table through n=10, triangle identity through n=6")


def test_criterion_09_differential_recurrences(capsys):
    ws = generalized_ward_cf(8)
    assert check_prop_B1(ws)
    assert check_cor_B2(ws)
    assert check_cor_B3(ws)
    assert check_cor_B4(ws)
    assert check_closed_form_u_eq_x(6)
    with capsys.disabled():
        report("criterion 9", "recurrences to order 8, closed form and series to order 6")


def test_criterion_10_series_inversion(capsys):
    a = [Polynomial.one()] + [var("a", i) for i in range(1, 6)]
    xs = invert_sequence(a, 5)
    a1, a2, a3, a4 = (var("a", i) for i in range(1, 5))
    assert xs[0] == a1
    assert xs[1] == -3 * a1**2 + a2
    assert xs[2] == 15 * a1**3 - 10 * a1 * a2 + a3
    assert xs[3] == -105 * a1**4 + 105 * a1**2 * a2 - 15 * a1 * a3 - 10 * a2**2 + a4
    trees_polys = multivariate_ward_via_inversion(5)
    neg = {VarId("x", i): -var("a", i) for i in range(1, 6)}
    for n in range(1, 6):
        assert -xs[n - 1] == trees_polys[n].substitute(neg)
    gw = invert_generalized_ward(3)
    u, z, w = var("u"), var("z"), var("w")
    assert gw[0] == x + z
    assert gw[1] == u * x + w * x - x**2 - 3 * x * z - 2 * z**2
    assert gw[2] == parse_poly(
        "3*u^2*x + 4*u*w*x - 3*u*x^2 - 5*u*x*z + w^2*x - 4*w*x^2"
        " - 6*w*x*z + 5*x^2*z + 11*x*z^2 + 6*z^3"
    )
    with capsys.disabled():
        report("criterion 10", "inversion coefficients, sign law n <= 5, four-variable values")


def test_inversion_runtime_ceiling(capsys):
    start = time.time()
    invert_generalized_ward(8)
    elapsed = time.time() - start
    assert elapsed < 3.0
    with capsys.disabled():
        report("inversion ceiling", f"four-variable inversion to order 8 in {elapsed:.2f}s")


def test_criterion_11_hankel_positivity(capsys):
    start = time.time()
    for name, seq in [
        ("ward", ward_sequence),
        ("generalized-ward", generalized_ward_sequence),
        ("eulerian2-reversed", e2_reversed_sequence),
    ]:
        ok, counterexample = all_minors_nonneg(hankel_section(seq, 5), 5)
        assert ok, (name, counterexample)
    elapsed = time.time() - start
    assert elapsed < 120.0
    with capsys.disabled():
        report("criterion 11", f"all 5x5-section minors nonnegative, {elapsed:.1f}s")


def test_criterion_12_foundations(capsys):
    w = FlajoletWeights(
        rise=lambda k: var("a", k),
        fall=lambda k: var("b", k),
        level=lambda k: var("c", k),
        level2=lambda k: var("d", k),
    )
    assert flajolet_check(4, w)
    assert euler_identity_check(lambda i: Polynomial.const(i), 8)
    factorial_series = expand_T(
        TCoeffs(
            lambda i: Polynomial.const(i),
            lambda i: Polynomial.zero() if i == 1 else Polynomial.const(-(i - 1)),
        ),
        8,
    )
    assert [factorial_series.coefficient(n) for n in range(9)] == [
        Polynomial.const(math.factorial(n)) for n in range(9)
    ]
    seq = TCoeffs(lambda i: Polynomial.const(i), lambda i: Polynomial.zero())
    j = contract_T_to_J(seq)
    assert expand_J(j.gamma, j.beta, 8) == expand_T(seq, 8)
    for name in ("ward", "ward-reversed", "generalized-ward", "semifactorial",
                 "eulerian2-reversed", "master-T"):
        fam = named_family(name)
        # master-T's expansion grows steeply past order 6
        for order in ((2, 3) if name == "master-T" else (4, 6)):
            deep = expand_T(fam, order + 3)
            assert expand_T(fam, order).coeffs == deep.coeffs[: order + 1]
    deep = expand_S(lambda i: Polynomial.const(i), 10)
    assert expand_S(lambda i: Polynomial.const(i), 6).coeffs == deep.coeffs[:7]
    with capsys.disabled():
        report("criterion 12", "path/fraction master check, partial products, contraction, depth stability")
