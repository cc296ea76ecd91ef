"""Phylogenetic trees, their bijection with wiggly-decorated matchings, and
set partitions with all blocks of size >= 2.

A phylogenetic tree of type (n, k) has n+1 leaves labeled 1..n+1 and k
unlabeled internal vertices, each with at least two children; (0, 0) is the
single labeled vertex.  Trees are canonicalized by sorting children by
minimum descendant label, so structural equality is tree equality.

Trees of type (n, k) are enumerated by recursive set partitions: the
root's children split the leaves into at least two blocks, and each block
carries a tree of its own, memoized on leaves 1..s per block size s and
relabeled onto the block.  The enumeration builds every tree canonical and
once, and it shares no arithmetic with the Ward recurrence that counts
them.

The bijection runs through two inspectable intermediate stages:

  matching  ->  arch system on [2n+1]  ->  planar binary tree with wiggly
  right edges  ->  phylogenetic tree (wiggly edges contracted),

and back, splitting high-degree vertices into wiggly right chains and
listing the binary tree's left-child chains in order of their leaves.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterator, NamedTuple, Optional, Union

from .matchings import PerfectMatching, SuperMatching
from .poly import Polynomial, var

# A tree node is an int leaf label or a tuple of child nodes.
Node = Union[int, tuple]


def _min_leaf(node: Node) -> int:
    while not isinstance(node, int):
        node = node[0]
    return node


def _canon(children) -> tuple:
    return tuple(sorted(children, key=_min_leaf))


def _nodes(node: Node, out: list[Node]) -> list[Node]:
    """out with node and then its descendants appended in preorder."""
    out.append(node)
    if type(node) is tuple:
        for c in node:
            _nodes(c, out)
    return out


class PhyloTree:
    """Canonical rooted tree with labeled leaves and >=2 children per
    internal vertex."""

    __slots__ = ("root",)

    def __init__(self, root: Node):
        self.root = self._normalize(root)
        labels = sorted(self.leaves())
        if labels != list(range(1, len(labels) + 1)):
            raise ValueError("leaf labels must be 1..n+1")

    @classmethod
    def _canonical(cls, root: Node) -> "PhyloTree":
        """A tree whose root is already canonical with leaves 1..n+1, as the
        enumeration builds it: neither normalized nor checked again."""
        tree = cls.__new__(cls)
        tree.root = root
        return tree

    @classmethod
    def _normalize(cls, node: Node) -> Node:
        if type(node) is int:
            return node
        if type(node) is not tuple:
            raise ValueError(f"a tree node is an int leaf or a tuple of nodes, not {node!r}")
        children = tuple(cls._normalize(c) for c in node)
        if len(children) < 2:
            raise ValueError("internal vertices need at least two children")
        return _canon(children)

    def leaves(self) -> list[int]:
        return [node for node in _nodes(self.root, []) if type(node) is int]

    @property
    def n(self) -> int:
        return len(self.leaves()) - 1

    def internal_count(self) -> int:
        return len(self.child_sizes())

    def child_sizes(self) -> list[int]:
        """Number of children of each internal vertex, in preorder."""
        return [len(node) for node in _nodes(self.root, []) if type(node) is tuple]

    def __eq__(self, other):
        return isinstance(other, PhyloTree) and self.root == other.root

    def __hash__(self):
        return hash(self.root)

    def __repr__(self):
        return f"PhyloTree({serialize_tree(self)})"


def serialize_tree(tree: PhyloTree) -> str:
    def walk(node):
        if isinstance(node, int):
            return str(node)
        return "(" + ",".join(walk(c) for c in node) + ")"

    return walk(tree.root)


def parse_tree(text: str) -> PhyloTree:
    pos = 0

    def parse_node():
        nonlocal pos
        if pos < len(text) and text[pos] == "(":
            pos += 1
            children = [parse_node()]
            while pos < len(text) and text[pos] == ",":
                pos += 1
                children.append(parse_node())
            if pos >= len(text) or text[pos] != ")":
                raise ValueError(f"unbalanced parse at {pos} in {text!r}")
            pos += 1
            return tuple(children)
        start = pos
        while pos < len(text) and "0" <= text[pos] <= "9":
            pos += 1
        if start == pos:
            raise ValueError(f"expected leaf at {pos} in {text!r}")
        return int(text[start:pos])

    node = parse_node()
    if pos != len(text):
        raise ValueError(f"trailing text in {text!r}")
    return PhyloTree(node)


# -- enumeration --------------------------------------------------------------------


# Canonical trees on leaves 1..s with j internal vertices, keyed (s, j).  Only
# blocks below the root are memoized, so after enumerate_phylo(n, k) every key
# has s <= n.
_BLOCK_TREES: dict[tuple[int, int], tuple[Node, ...]] = {}


def _block_trees(block: tuple[int, ...], j: int):
    """Canonical trees on the sorted leaves of block with j internal
    vertices.  Leaf i of the memoized tree on 1..s becomes block[i-1]; the
    map is increasing, so children stay sorted by least leaf."""
    s = len(block)
    if s == 1:
        return block
    shapes = _BLOCK_TREES.get((s, j))
    if shapes is None:
        shapes = _BLOCK_TREES[(s, j)] = tuple(_trees_on(tuple(range(1, s + 1)), j))
    if block[-1] == s:
        return shapes

    def relabel(node):
        if node.__class__ is int:
            return block[node - 1]
        return tuple(map(relabel, node))

    return list(map(relabel, shapes))


def _plans(leaves: tuple[int, ...], j: int, blocks: int) -> Iterator[tuple]:
    """Splits of the sorted leaves into at least `blocks` blocks, listed by
    least leaf, each paired with its number of internal vertices (0 for a
    single leaf, 1..size-1 otherwise), j in total."""
    if not leaves:
        if j == 0 and blocks <= 0:
            yield ()
        return
    first, rest = leaves[0], leaves[1:]
    for extra in range(len(rest) + 2 - max(blocks, 1)):
        for combo in combinations(rest, extra):
            remaining = tuple(v for v in rest if v not in combo)
            for i in range(1, min(extra, j) + 1) if extra else (0,):
                for more in _plans(remaining, j - i, blocks - 1):
                    yield (((first,) + combo, i),) + more


def _trees_on(leaves: tuple[int, ...], k: int) -> Iterator[Node]:
    """Canonical trees on the sorted leaves with k internal vertices: the
    root's children are the blocks of a set partition into >= 2 blocks,
    each carrying a tree of its own."""
    if len(leaves) == 1:
        if k == 0:
            yield leaves[0]
        return
    for plan in _plans(leaves, k - 1, 2):
        yield from product(*(_block_trees(block, i) for block, i in plan))


def enumerate_phylo(n: int, k: int) -> Iterator[PhyloTree]:
    """All phylogenetic trees of type (n, k), each once and canonical.

    Independent of the Ward recurrence: the trees come from set partitions
    of the leaves among the root's children, not from inserting leaf n+1.
    Order: the root's blocks are chosen one by one from the block of leaf
    1, each by its number of further leaves, then those leaves in
    lexicographic order, then its number of internal vertices; for each
    such choice the blocks' trees follow in product order, the last block
    varying fastest.  Each block's trees come in this same order.
    """
    if n < 0:
        raise ValueError(f"size must be at least 0, got {n}")
    for root in _trees_on(tuple(range(1, n + 2)), k):
        yield PhyloTree._canonical(root)


def multivariate_ward(n: int) -> Polynomial:
    """Generating polynomial of trees on n+1 leaves: an internal vertex
    with i+1 children contributes x[i]."""
    if n < 0:
        raise ValueError(f"size must be at least 0, got {n}")
    total = Polynomial.zero()
    for k in range(n + 1):
        for tree in enumerate_phylo(n, k):
            term = Polynomial.one()
            for size in tree.child_sizes():
                term = term * var("x", size - 1)
            total = total + term
    return total


# -- intermediate structures of the bijection --------------------------------------------


class ArchSystem(NamedTuple):
    """Arches and horizontal lines on [2n+1] forming a tree rooted at 1.

    arches are (opener, closer, wiggly) with opener < closer, listed by
    opener; a horizontal line joins each opener i to i+1.
    """

    size: int
    arches: tuple[tuple[int, int, bool], ...]

    @property
    def horizontals(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, i + 1) for i, _, _ in self.arches)

    @property
    def labels(self) -> tuple[tuple[int, int], ...]:
        """(vertex, label): the non-openers numbered left to right."""
        openers = {i for i, _, _ in self.arches}
        leaves = [v for v in range(1, self.size + 1) if v not in openers]
        return tuple((v, label) for label, v in enumerate(leaves, 1))


class BinNode(NamedTuple):
    """Internal vertex of a planar binary tree; the right edge may be
    wiggly.  Leaves are plain ints."""

    left: "BinTree"
    right: "BinTree"
    right_wiggly: bool = False


BinTree = Union[int, BinNode]


def arch_system_of(sm: SuperMatching) -> ArchSystem:
    """First stage: shift each closer right by one, inherit wiggly flags,
    and add a horizontal line after each opener."""
    if sm.dashed:
        raise ValueError("arch systems are defined for wiggly-only decorations")
    pm = sm.base
    arches = tuple((i, j + 1, j in sm.wiggly) for i, j in pm.pairs())
    return ArchSystem(2 * pm.n + 1, arches)


def binary_tree_of(arch: ArchSystem) -> BinTree:
    """Second stage: horizontals become left edges, arches right edges."""
    label_of = dict(arch.labels)
    right = {i: (j, wig) for i, j, wig in arch.arches}

    def build(v: int) -> BinTree:
        if v in label_of:
            return label_of[v]
        j, wig = right[v]
        return BinNode(left=build(v + 1), right=build(j), right_wiggly=wig)

    return build(1)


def contract_wiggly(bt: BinTree) -> PhyloTree:
    """Third stage: contracting every wiggly right edge merges chains of
    binary vertices into one vertex with many children (PhyloTree sorts them)."""

    def children(node: BinNode) -> list[Node]:
        out = [convert(node.left)]
        if node.right_wiggly:
            out.extend(children(node.right))  # type: ignore[arg-type]
        else:
            out.append(convert(node.right))
        return out

    def convert(node: BinTree) -> Node:
        if isinstance(node, int):
            return node
        return tuple(children(node))

    return PhyloTree(convert(bt))


def augmented_to_tree(sm: SuperMatching) -> PhyloTree:
    """Wiggly-decorated matching of [2n] -> tree with n+1 leaves and
    n - #wiggly internal vertices."""
    return contract_wiggly(binary_tree_of(arch_system_of(sm)))


def tree_to_binary(tree: PhyloTree) -> BinTree:
    """Split each vertex with more than two children into a right chain of
    binary vertices joined by wiggly edges."""

    def convert(node: Node) -> BinTree:
        if isinstance(node, int):
            return node
        kids = [convert(c) for c in node]  # already sorted by min label
        out = BinNode(left=kids[-2], right=kids[-1], right_wiggly=False)
        for c in reversed(kids[:-2]):
            out = BinNode(left=c, right=out, right_wiggly=True)
        return out

    return convert(tree.root)


def binary_to_arch_system(bt: BinTree) -> ArchSystem:
    """Linearize a planar binary tree back into an arch system.

    The vertices are listed chain by chain: the left-child chain that ends
    at leaf 1, top down, then the one that ends at leaf 2, and so on; that
    is, by (least label, depth along the left-child chain).  Each internal
    vertex then sits immediately left of its left child, so horizontals
    are adjacent pairs, and its arch ends at the top of its right child's
    chain."""
    # Leaf -> (wiggly, leaf of the right child's chain) per internal vertex
    # of the chain ending at that leaf, top down.
    chains: dict[int, list[tuple[bool, int]]] = {}

    def lay(node: BinTree) -> int:
        chain = []
        while not isinstance(node, int):
            chain.append(node)
            node = node.left
        chains[node] = [(v.right_wiggly, lay(v.right)) for v in chain]
        return node

    lay(bt)
    leaves = sorted(chains)
    if leaves != list(range(1, len(leaves) + 1)):
        raise ValueError("leaf labels must be 1..n+1")
    top, size = {}, 0
    for leaf in leaves:
        top[leaf] = size + 1
        size += len(chains[leaf]) + 1
    arches = tuple(
        (pos, top[right], wiggly)
        for leaf in leaves
        for pos, (wiggly, right) in enumerate(chains[leaf], top[leaf])
    )
    return ArchSystem(size, arches)


def arch_system_to_matching(arch: ArchSystem) -> SuperMatching:
    """Undo the right shift: arch (i, j) -> pair (i, j-1), wiggly arches
    leaving a wiggly line at j-1."""
    pairs = [(i, j - 1) for i, j, _ in arch.arches]
    wiggly = [j - 1 for _, j, wig in arch.arches if wig]
    return SuperMatching(PerfectMatching.from_pairs(pairs), wiggly, ())


def tree_to_augmented(tree: PhyloTree) -> SuperMatching:
    """Inverse of augmented_to_tree."""
    return arch_system_to_matching(binary_to_arch_system(tree_to_binary(tree)))


# -- partitions with all blocks of size >= 2 ------------------------------------------------


def enumerate_partitions_min2(elements: tuple[int, ...], k: int) -> Iterator[tuple]:
    """Partitions of the elements into exactly k blocks, each of size >= 2.

    The block containing the smallest element is chosen first, so the
    stream is deterministic.
    """
    m = len(elements)
    if m == 0:
        if k == 0:
            yield ()
        return
    if k <= 0 or m < 2 * k:
        return
    first, rest = elements[0], elements[1:]
    max_extra = m - 2 * (k - 1) - 1
    for size in range(1, max_extra + 1):
        for combo in combinations(rest, size):
            chosen = set(combo)
            block = (first,) + combo
            remaining = tuple(v for v in rest if v not in chosen)
            for more in enumerate_partitions_min2(remaining, k - 1):
                yield (block,) + more


def count_assoc_stirling(n: int, k: int) -> int:
    """Partitions of an n-set into k blocks of size >= 2, by direct
    enumeration."""
    if n < 0:
        raise ValueError(f"size must be at least 0, got {n}")
    return sum(1 for _ in enumerate_partitions_min2(tuple(range(1, n + 1)), k))
