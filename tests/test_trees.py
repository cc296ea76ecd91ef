import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardcf import trees
from wardcf.matchings import PerfectMatching, SuperMatching, enumerate_augmented
from wardcf.poly import Polynomial, VarId, var
from wardcf.trees import (
    ArchSystem,
    BinNode,
    arch_system_of,
    arch_system_to_matching,
    augmented_to_tree,
    binary_to_arch_system,
    binary_tree_of,
    contract_wiggly,
    count_assoc_stirling,
    enumerate_partitions_min2,
    enumerate_phylo,
    multivariate_ward,
    parse_tree,
    PhyloTree,
    serialize_tree,
    tree_to_augmented,
    tree_to_binary,
)
from wardcf.ward import ward_poly, ward_reversed, ward_triangle


def double_factorial(m):
    return math.prod(range(m, 0, -2)) if m > 0 else 1


# The worked instance: matching of [14] with arches
# (1,5)(2,4)(3,7)(6,10)(8,9)(11,12)(13,14) and wiggly lines at 5, 7, 10.
EXAMPLE = SuperMatching(
    PerfectMatching.from_pairs(
        [(1, 5), (2, 4), (3, 7), (6, 10), (8, 9), (11, 12), (13, 14)]
    ),
    wiggly=[5, 7, 10],
)


# -- the insertion reference -------------------------------------------------------------
#
# Trees of type (n, k) by inserting leaf n+1 into smaller trees.  Its list has
# k*T(n-1, k) + (n+k-1)*T(n-1, k-1) entries by construction, the Ward
# recurrence itself, so it serves as a reference for the set of trees and
# never as the count that checks the triangle.


def min_leaf(node):
    while not isinstance(node, int):
        node = node[0]
    return node


def canon(children):
    return tuple(sorted(children, key=min_leaf))


@lru_cache(maxsize=None)
def insertion_trees(n, k):
    if n == 0 and k == 0:
        return (1,)
    if not 1 <= k <= n:
        return ()
    new_leaf = n + 1
    out = []
    # Attach leaf n+1 as an extra child of each internal vertex.
    for t in insertion_trees(n - 1, k):
        out.extend(attach_everywhere(t, new_leaf))
    # Subdivide each edge with a new binary vertex, or grow a new root.
    for t in insertion_trees(n - 1, k - 1):
        out.extend(subdivide_everywhere(t, new_leaf))
        out.append(canon((t, new_leaf)))
    return tuple(out)


def attach_everywhere(node, leaf):
    if isinstance(node, int):
        return
    yield canon(node + (leaf,))
    for i, c in enumerate(node):
        for c2 in attach_everywhere(c, leaf):
            yield canon(node[:i] + (c2,) + node[i + 1 :])


def subdivide_everywhere(node, leaf):
    if isinstance(node, int):
        return
    for i, c in enumerate(node):
        yield canon(node[:i] + (canon((c, leaf)),) + node[i + 1 :])
        for c2 in subdivide_everywhere(c, leaf):
            yield canon(node[:i] + (c2,) + node[i + 1 :])


def test_set_partition_trees_equal_the_insertion_reference():
    for n in range(6):
        for k in range(n + 1) if n else (0,):
            reference = {PhyloTree(node) for node in insertion_trees(n, k)}
            assert len(reference) == len(insertion_trees(n, k))
            assert set(enumerate_phylo(n, k)) == reference


def test_phylo_counts_at_seven(monkeypatch):
    monkeypatch.setattr(trees, "_BLOCK_TREES", {})  # drop the 7-leaf blocks afterwards
    counts = [sum(1 for _ in enumerate_phylo(7, k)) for k in range(8)]
    assert counts == [0, 1, 246, 6825, 56980, 190575, 270270, 135135]


def test_memo_holds_only_blocks_below_the_root(monkeypatch):
    monkeypatch.setattr(trees, "_BLOCK_TREES", {})
    for n in range(6):
        for k in range(n + 1) if n else (0,):
            list(enumerate_phylo(n, k))
            assert all(s <= n for s, _ in trees._BLOCK_TREES), (n, k)
            for (s, j), shapes in trees._BLOCK_TREES.items():
                assert all(sorted(PhyloTree(t).leaves()) == list(range(1, s + 1)) for t in shapes)
                assert all(PhyloTree(t).internal_count() == j for t in shapes)


def test_leaves_and_child_sizes_in_preorder():
    tree = PhyloTree(((2, 3), (5, 1, 4)))
    assert tree.root == ((1, 4, 5), (2, 3))
    assert tree.leaves() == [1, 4, 5, 2, 3]
    assert tree.child_sizes() == [2, 3, 2]
    assert (tree.n, tree.internal_count()) == (4, 3)
    assert PhyloTree(1).leaves() == [1] and PhyloTree(1).child_sizes() == []


def test_phylo_counts_match_ward_triangle():
    tri = ward_triangle(5)
    assert len(list(enumerate_phylo(0, 0))) == 1
    assert len(list(enumerate_phylo(3, 2))) == 10
    assert len(list(enumerate_phylo(5, 5))) == 945
    for n in range(6):
        for k in range(n + 1):
            found = list(enumerate_phylo(n, k))
            assert len(found) == tri[n][k]
            assert len(set(found)) == len(found)  # enumeration has no repeats
            for t in found:
                assert t.n == n and t.internal_count() == k
                assert all(s >= 2 for s in t.child_sizes())
                assert PhyloTree(t.root) == t  # canonical and valid as built


def test_phylo_generating_polynomial_equals_ward_poly():
    x = var("x")
    for n in range(6):
        total = Polynomial.zero()
        for k in range(n + 1) if n else (0,):
            total = total + len(list(enumerate_phylo(n, k))) * x**k
        assert total == ward_poly(n)


def test_multivariate_ward_values():
    x1, x2, x3, x4 = (var("x", i) for i in range(1, 5))
    assert multivariate_ward(0) == Polynomial.one()
    assert multivariate_ward(2) == 3 * x1**2 + x2
    assert multivariate_ward(3) == 15 * x1**3 + 10 * x1 * x2 + x3
    assert multivariate_ward(4) == (
        105 * x1**4 + 105 * x1**2 * x2 + 15 * x1 * x3 + 10 * x2**2 + x4
    )


def test_multivariate_ward_specializations():
    x = var("x")
    for n in range(6):
        all_x = {VarId("x", i): x for i in range(1, n + 1)}
        assert multivariate_ward(n).substitute(all_x) == ward_poly(n)
        powers = {VarId("x", i): x ** (i - 1) for i in range(1, n + 1)}
        assert multivariate_ward(n).substitute(powers) == ward_reversed(n)


def test_multivariate_ward_quasi_homogeneous():
    lam = var("lam")
    for n in range(6):
        p = multivariate_ward(n)
        scaled = p.substitute({VarId("x", i): lam**i * var("x", i) for i in range(1, n + 1)})
        assert scaled == lam**n * p


def test_multivariate_ward_matches_series_inversion():
    from wardcf.ward import multivariate_ward_via_inversion

    via_inv = multivariate_ward_via_inversion(5)
    for n in range(6):
        assert multivariate_ward(n) == via_inv[n]


# -- the worked instance through every stage ---------------------------------------------


def test_example_arch_system():
    arch = arch_system_of(EXAMPLE)
    assert arch.size == 15
    assert arch.arches == (
        (1, 6, True),
        (2, 5, False),
        (3, 8, True),
        (6, 11, True),
        (8, 10, False),
        (11, 13, False),
        (13, 15, False),
    )
    assert arch.horizontals == (
        (1, 2), (2, 3), (3, 4), (6, 7), (8, 9), (11, 12), (13, 14)
    )
    assert arch.labels == (
        (4, 1), (5, 2), (7, 3), (9, 4), (10, 5), (12, 6), (14, 7), (15, 8)
    )


def expected_binary_tree():
    node13 = BinNode(7, 8)
    node11 = BinNode(6, node13)
    node6 = BinNode(3, node11, right_wiggly=True)
    node8 = BinNode(4, 5)
    node3 = BinNode(1, node8, right_wiggly=True)
    node2 = BinNode(node3, 2)
    return BinNode(node2, node6, right_wiggly=True)


def test_example_binary_tree():
    assert binary_tree_of(arch_system_of(EXAMPLE)) == expected_binary_tree()


def test_example_tree():
    tree = augmented_to_tree(EXAMPLE)
    assert serialize_tree(tree) == "(((1,4,5),2),3,6,(7,8))"
    assert tree.n == 7
    assert tree.internal_count() == 7 - len(EXAMPLE.wiggly)


def test_example_reverse_stages():
    tree = augmented_to_tree(EXAMPLE)
    bt = tree_to_binary(tree)
    assert bt == expected_binary_tree()
    arch = binary_to_arch_system(bt)
    assert arch == arch_system_of(EXAMPLE)
    assert arch_system_to_matching(arch) == EXAMPLE
    assert tree_to_augmented(tree) == EXAMPLE


def test_cherry_and_empty():
    cherry = augmented_to_tree(SuperMatching(PerfectMatching.from_pairs([(1, 2)])))
    assert serialize_tree(cherry) == "(1,2)"
    assert tree_to_augmented(cherry) == SuperMatching(PerfectMatching.from_pairs([(1, 2)]))
    empty = augmented_to_tree(SuperMatching(PerfectMatching.from_pairs([])))
    assert serialize_tree(empty) == "1"


def test_exhaustive_round_trip():
    for n in range(6):
        image = {}
        for sm in enumerate_augmented(n):
            tree = augmented_to_tree(sm)
            assert tree.n == n
            assert tree.internal_count() == n - len(sm.wiggly)
            assert tree_to_augmented(tree) == sm
            assert tree not in image
            image[tree] = sm
        # image covers every tree of every type (n, k)
        for k in range(n + 1) if n else (0,):
            for tree in enumerate_phylo(n, k):
                assert tree in image
                assert augmented_to_tree(image[tree]) == tree


@st.composite
def augmented_matchings(draw, max_n=40):
    """A matching that pairs off a shuffled vertex list, with random legal
    wiggly lines."""
    n = draw(st.integers(0, max_n))
    order = draw(st.permutations(range(1, 2 * n + 1)))
    pm = PerfectMatching.from_pairs(zip(order[::2], order[1::2]))
    wiggly = [
        i for i in range(1, 2 * n)
        if pm.is_closer(i) and pm.is_opener(i + 1) and draw(st.booleans())
    ]
    return SuperMatching(pm, wiggly)


@given(augmented_matchings())
@settings(max_examples=100, deadline=None)
def test_round_trip_far_past_the_exhaustive_sizes(sm):
    tree = augmented_to_tree(sm)
    assert tree.n == sm.base.n
    assert tree.internal_count() == sm.base.n - len(sm.wiggly)
    assert tree_to_augmented(tree) == sm
    assert parse_tree(serialize_tree(tree)) == tree


def test_arch_system_stage_round_trip():
    for n in range(1, 6):
        for sm in enumerate_augmented(n):
            arch = arch_system_of(sm)
            assert binary_to_arch_system(binary_tree_of(arch)) == arch


def test_binary_tree_leaves_other_than_1_to_n_plus_1_rejected():
    # An arch system numbers its leaves 1..n+1 from left to right.
    with pytest.raises(ValueError, match="leaf labels"):
        binary_to_arch_system(BinNode(1, 3))


def test_dashed_decorations_rejected():
    sm = SuperMatching(PerfectMatching.from_pairs([(1, 2)]), dashed=[1])
    with pytest.raises(ValueError):
        arch_system_of(sm)


# -- tree text format ---------------------------------------------------------------------


def test_tree_serialization_round_trip():
    for n in range(6):
        for k in range(n + 1) if n else (0,):
            for tree in enumerate_phylo(n, k):
                assert parse_tree(serialize_tree(tree)) == tree


def test_tree_validation():
    with pytest.raises(ValueError):
        PhyloTree((1,))  # one child
    with pytest.raises(ValueError):
        PhyloTree((1, 3))  # labels must be 1..n+1


@pytest.mark.parametrize("root", [(True, 2), (1.0, 2), ((1, 3), 2.0), [1, 2]])
def test_tree_leaves_must_be_ints(root):
    # (True, 2) would serialize as "(True,2)", which parse_tree rejects.
    with pytest.raises(ValueError, match="an int leaf or a tuple of nodes"):
        PhyloTree(root)


def test_a_binary_node_is_not_a_tree_node():
    # BinNode is a tuple (left, right, right_wiggly), not a tuple of children.
    with pytest.raises(ValueError, match=r"not BinNode\(left=1, right=2, right_wiggly=False\)"):
        PhyloTree(BinNode(1, 2))


@pytest.mark.parametrize("text, message", [
    ("(1,\uff12)", "expected leaf at 3"),
    ("(1,2\u00b2)", "unbalanced parse at 4"),
    ("(\u0661,2)", "expected leaf at 1"),
], ids=["fullwidth-two", "superscript-two", "arabic-indic-one"])
def test_parse_tree_accepts_only_ascii_digits(text, message):
    with pytest.raises(ValueError, match=message):
        parse_tree(text)


# -- partitions into blocks of size >= 2 ---------------------------------------------------


ASSOC_TABLE = [
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


def test_assoc_stirling_table():
    for n, row in enumerate(ASSOC_TABLE):
        for k, expect in enumerate(row):
            assert count_assoc_stirling(n, k) == expect
    assert count_assoc_stirling(6, 2) == 25
    assert count_assoc_stirling(0, 0) == 1


def test_assoc_stirling_recurrence():
    for n in range(2, 11):
        for k in range(n + 1):
            lhs = count_assoc_stirling(n, k)
            rhs = k * count_assoc_stirling(n - 1, k) + (n - 1) * count_assoc_stirling(
                n - 2, k - 1
            ) if k >= 1 else (1 if n == 0 else 0)
            assert lhs == rhs


def test_assoc_stirling_blocks_are_valid():
    for part in enumerate_partitions_min2(tuple(range(1, 9)), 3):
        assert len(part) == 3
        assert all(len(b) >= 2 for b in part)
        assert sorted(v for b in part for v in b) == list(range(1, 9))


def test_ward_equals_assoc_stirling():
    tri = ward_triangle(6)
    for n in range(7):
        for k in range(n + 1):
            assert tri[n][k] == count_assoc_stirling(n + k, k)
