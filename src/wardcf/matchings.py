"""Perfect matchings with crossing/nesting statistics and their decorated
(wiggly/dashed) extensions.

Vertices are 1-indexed: a matching of [2n] pairs each vertex with exactly
one other.  The smaller element of a pair is its opener, the larger its
closer.  A decorated matching may carry

  * a wiggly line on (i, i+1) when i is a closer and i+1 an opener,
  * a dashed line on (i, i+1) when i is an opener and i+1 a closer,

with no vertex touched by both kinds of line.  Vertex statistics:

  cr(k)  = #{i<j<k<l : i~k, j~l}   arches crossing the arch closed by k
  ne(k)  = #{i<j<k<l : i~l, j~k}   arches nesting over the arch closed by k
  qne(i) = #{j<i<l : j~l}          arches strictly straddling vertex i

Enumeration order is fixed (smallest unmatched vertex first) so streams are
reproducible.

The counting oracles poly_18var, poly_12var, generalized_ward_oracle,
count_Mprime and count_augmented never list decorated matchings.  Their
weights are local: a wiggly or dashed line on (i, i+1) replaces the pure
weights of its two vertices.  So they walk the base matchings once as a
tree of left-to-right prefixes, reading each closer's statistics from the
arches open at it, and sum over the decorations by a two-state transfer
extended one vertex per prefix (``_decorated_sum``).  The transfer runs on
``Polynomial.terms`` keys: a closer factor is the key of its monomial, a
product is a sum of keys, and the sum is checked once for an exponent
overflow before it becomes a Polynomial.  The two counts read one walk per
n that weighs each wiggly line by one variable; count_Mprime inverts its
binomial transform.  The brute sums over enumerate_super /
enumerate_augmented are their references in the tests.  master_poly_T
sums super_weight over the enumeration, one sweep per decorated matching:
super_weight reads every statistic off one left-to-right pass and
multiplies its factors by one ``Polynomial.product``, which adds the keys
of one-term factors (each symbolic weight is one) without building a
dict per factor.  The fractions these counts are checked against are
stated in ``contfrac``; this module imports nothing of the package but
``poly``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Callable, Iterator, NamedTuple

from .poly import _SLOTS, Polynomial, VarId, var


class PerfectMatching:
    """Fixed-point-free involution of [2n], stored as a 1-indexed partner array."""

    __slots__ = ("n", "partner")

    def __init__(self, partner: tuple[int, ...]):
        # partner[0] is unused padding so that partner[i] is the mate of i.
        size = len(partner) - 1
        if size % 2 != 0:
            raise ValueError("matching needs an even number of vertices")
        for i in range(1, size + 1):
            j = partner[i]
            if type(j) is not int:
                raise ValueError(f"partner {j!r} of vertex {i}: a vertex is an int")
            if not 1 <= j <= size or j == i or partner[j] != i:
                raise ValueError("not a fixed-point-free involution")
        self.n = size // 2
        self.partner = tuple(partner)

    @classmethod
    def from_pairs(cls, pairs) -> "PerfectMatching":
        pairs = list(pairs)
        size = 2 * len(pairs)
        partner = [0] * (size + 1)
        for a, b in pairs:
            for v in (a, b):
                if type(v) is not int:
                    raise ValueError(f"vertex {v!r}: a vertex is an int")
                if not 1 <= v <= size:
                    raise ValueError(f"vertex {v} outside 1..{size}")
            partner[a] = b
            partner[b] = a
        return cls(tuple(partner))

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, self.partner[i])
            for i in range(1, 2 * self.n + 1)
            if i < self.partner[i]
        )

    def is_opener(self, i: int) -> bool:
        return i < self.partner[i]

    def is_closer(self, i: int) -> bool:
        return i > self.partner[i]

    def openers(self) -> list[int]:
        return [i for i in range(1, 2 * self.n + 1) if self.is_opener(i)]

    def closers(self) -> list[int]:
        return [i for i in range(1, 2 * self.n + 1) if self.is_closer(i)]

    def __eq__(self, other):
        return isinstance(other, PerfectMatching) and self.partner == other.partner

    def __hash__(self):
        return hash(self.partner)

    def __repr__(self):
        return f"PerfectMatching({''.join(f'({a},{b})' for a, b in self.pairs())})"


class SuperMatching:
    """A perfect matching plus disjoint wiggly and dashed decorations.

    wiggly and dashed hold the left endpoints of the decorated (i, i+1)
    edges.
    """

    __slots__ = ("base", "wiggly", "dashed")

    def __init__(self, base: PerfectMatching, wiggly=(), dashed=()):
        wiggly = frozenset(wiggly)
        dashed = frozenset(dashed)
        for i in wiggly | dashed:
            if type(i) is not int:
                raise ValueError(f"line at vertex {i!r}: a vertex is an int")
            if not 1 <= i <= 2 * base.n:
                raise ValueError(f"line at vertex {i} outside 1..{2 * base.n}")
        for i in wiggly:
            if not (base.is_closer(i) and i + 1 <= 2 * base.n and base.is_opener(i + 1)):
                raise ValueError(f"wiggly line at {i} needs closer,opener")
        for i in dashed:
            if not (base.is_opener(i) and i + 1 <= 2 * base.n and base.is_closer(i + 1)):
                raise ValueError(f"dashed line at {i} needs opener,closer")
        wiggly_verts = {v for i in wiggly for v in (i, i + 1)}
        dashed_verts = {v for i in dashed for v in (i, i + 1)}
        if wiggly_verts & dashed_verts:
            raise ValueError("wiggly and dashed lines sharing a vertex")
        self.base = base
        self.wiggly = wiggly
        self.dashed = dashed

    @property
    def n(self) -> int:
        return self.base.n

    def __eq__(self, other):
        return (
            isinstance(other, SuperMatching)
            and self.base == other.base
            and self.wiggly == other.wiggly
            and self.dashed == other.dashed
        )

    def __hash__(self):
        return hash((self.base, self.wiggly, self.dashed))

    def __repr__(self):
        return f"SuperMatching({format_matching(self)!r})"


# -- text format ----------------------------------------------------------------

_PAIRS_RE = re.compile(r"\((\d+),(\d+)\)", re.ASCII)


def format_matching(sm: SuperMatching) -> str:
    pairs = "".join(f"({a},{b})" for a, b in sm.base.pairs())
    wig = "{" + ",".join(map(str, sorted(sm.wiggly))) + "}"
    dash = "{" + ",".join(map(str, sorted(sm.dashed))) + "}"
    return f"pairs={pairs}; wiggly={wig}; dashed={dash}"


def parse_matching(text: str) -> SuperMatching:
    m = re.match(
        r"^pairs=(?P<pairs>(\(\d+,\d+\))*); wiggly=\{(?P<w>[\d,]*)\}; dashed=\{(?P<d>[\d,]*)\}$",
        text.strip(),
        re.ASCII,
    )
    if not m:
        raise ValueError(f"bad matching text: {text!r}")
    pairs = [(int(a), int(b)) for a, b in _PAIRS_RE.findall(m.group("pairs"))]
    wig = [int(s) for s in m.group("w").split(",") if s]
    dash = [int(s) for s in m.group("d").split(",") if s]
    return SuperMatching(PerfectMatching.from_pairs(pairs), wig, dash)


# -- enumeration ------------------------------------------------------------------


def enumerate_matchings(n: int) -> Iterator[PerfectMatching]:
    """All (2n-1)!! matchings of [2n]: repeatedly pair the smallest
    unmatched vertex with each larger unmatched vertex, in increasing order."""
    if n < 0:
        raise ValueError(f"size must be at least 0, got {n}")
    size = 2 * n
    partner = [0] * (size + 1)

    def rec(unmatched: tuple[int, ...]):
        if not unmatched:
            yield PerfectMatching(tuple(partner))
            return
        i = unmatched[0]
        for j in unmatched[1:]:
            partner[i], partner[j] = j, i
            rest = tuple(v for v in unmatched[1:] if v != j)
            yield from rec(rest)
        partner[i] = 0

    yield from rec(tuple(range(1, size + 1)))


def _decoration_sites(pm: PerfectMatching) -> tuple[list[int], list[int]]:
    wiggly_sites = [
        i
        for i in range(1, 2 * pm.n)
        if pm.is_closer(i) and pm.is_opener(i + 1)
    ]
    dashed_sites = [
        i
        for i in range(1, 2 * pm.n)
        if pm.is_opener(i) and pm.is_closer(i + 1)
    ]
    return wiggly_sites, dashed_sites


def enumerate_super(n: int) -> Iterator[SuperMatching]:
    """All decorated matchings: every legal wiggly/dashed subset of every
    base matching, subject to the shared-vertex exclusion."""
    for pm in enumerate_matchings(n):
        wsites, dsites = _decoration_sites(pm)
        for wk in range(len(wsites) + 1):
            for wset in combinations(wsites, wk):
                blocked = {v for i in wset for v in (i, i + 1)}
                free_d = [i for i in dsites if i not in blocked and i + 1 not in blocked]
                for dk in range(len(free_d) + 1):
                    for dset in combinations(free_d, dk):
                        yield SuperMatching(pm, wset, dset)


def enumerate_augmented(n: int) -> Iterator[SuperMatching]:
    """Decorated matchings with wiggly lines only."""
    for pm in enumerate_matchings(n):
        wsites, _ = _decoration_sites(pm)
        for wk in range(len(wsites) + 1):
            for wset in combinations(wsites, wk):
                yield SuperMatching(pm, wset, ())


# -- vertex statistics --------------------------------------------------------------


def cr(k: int, pm: PerfectMatching) -> int:
    """Arches crossing the arch closed by k; zero unless k is a closer."""
    partner = pm.partner
    j = partner[k]
    if j > k:
        return 0
    return len([p for p in partner[j + 1:k] if p > k])


def ne(k: int, pm: PerfectMatching) -> int:
    """Arches nesting over the arch closed by k; zero unless k is a closer."""
    partner = pm.partner
    j = partner[k]
    if j > k:
        return 0
    return len([p for p in partner[1:j] if p > k])


def qne(i: int, pm: PerfectMatching) -> int:
    """Arches strictly straddling vertex i."""
    return len([p for p in pm.partner[1:i] if p > i])


# -- weight families and master polynomials --------------------------------------------


class IndexedWeights(NamedTuple):
    """Weight lookups for decorated matchings.

    a is indexed by a single straddle count; b, f, g by (crossing, nesting)
    pairs.  b weighs pure closers, f wiggly pairs, g dashed pairs.
    """

    a: Callable[[int], Polynomial]
    b: Callable[[int, int], Polynomial]
    f: Callable[[int, int], Polynomial]
    g: Callable[[int, int], Polynomial]

    @classmethod
    def symbolic(cls) -> "IndexedWeights":
        """Fresh indeterminates a[l], b[l,l'], f[l,l'], g[l,l']."""
        return cls(
            a=lambda l: var("a", l),
            b=lambda l, lp: var("b", l, lp),
            f=lambda l, lp: var("f", l, lp),
            g=lambda l, lp: var("g", l, lp),
        )


def star(w: Callable[[int, int], Polynomial], m: int) -> Polynomial:
    """Anti-diagonal sum: sum_{l=0}^{m} w(l, m-l); zero for m = -1."""
    if m < 0:
        return Polynomial.zero()
    return Polynomial.sum(w(l, m - l) for l in range(m + 1))


def super_weight(sm: SuperMatching, w: IndexedWeights) -> Polynomial:
    """Product of the per-vertex / per-edge weights of one decorated matching.

    One left-to-right sweep keeps the openers of the open arches in
    increasing order, so an opener's qne is the number of open arches, and
    a closer's ne and cr are the open arches opened before and after its
    opener.  A line replaces the pure weights of its two vertices: a wiggly
    line (k, k+1) weighs f and a dashed line (k-1, k) weighs g, each at the
    cr and ne of its closer k.  The factors are multiplied by one
    ``Polynomial.product``: a sum of keys while they have one term each.
    """
    partner = sm.base.partner
    wiggly, dashed = sm.wiggly, sm.dashed
    opened: list[int] = []
    factors = []
    for i in range(1, len(partner)):
        j = partner[i]
        if j > i:
            if i - 1 not in wiggly and i not in dashed:
                factors.append(w.a(len(opened)))
            opened.append(i)
            continue
        nestings = opened.index(j)
        del opened[nestings]
        weigh = w.f if i in wiggly else w.g if i - 1 in dashed else w.b
        factors.append(weigh(len(opened) - nestings, nestings))
    return Polynomial.product(factors)


def master_poly_T(n: int, w: IndexedWeights) -> Polynomial:
    """Sum of super_weight over all decorated matchings of [2n]."""
    # Each weight is looked up by many decorated matchings; build it once.
    cached = IndexedWeights(*map(lru_cache(maxsize=None), w))
    return Polynomial.sum(super_weight(sm, cached) for sm in enumerate_super(n))


# -- specialized statistics polynomials -------------------------------------------------


def _transfer(before: dict[int, int], here: dict[int, int], pure: int, line) -> dict[int, int]:
    """The decoration sums over vertices 1..i, from ``before`` and ``here``,
    those over 1..i-2 and 1..i-1.  Vertex i is free (here times its pure
    factor) or covered by the line on (i-1, i) (before times ``line``, that
    line's factor, or None where no such line may be drawn), so no vertex
    carries two lines."""
    after = {key + pure: c for key, c in here.items()}
    if line is not None:
        for key, c in before.items():
            key += line
            after[key] = after.get(key, 0) + c
    return after


def _decorated_sum(
    n: int, factors: Callable[[int, int, int, int], tuple[int, int, int]]
) -> Polynomial:
    """Sum over the decorated matchings of [2n] of the product of their
    closer factors, summed as a map from ``Polynomial.terms`` keys to counts
    and checked once for an exponent overflow.

    factors(k, j, cr, ne) gives the keys of the (pure, wiggly,
    dashed) factor of closer k with opener j, or None for a line the sum
    leaves out.  A closer weighs its wiggly factor when it carries the
    wiggly line on (k, k+1), its dashed factor when it carries the dashed
    line on (k-1, k), and its pure factor otherwise; openers weigh 1.

    One depth-first walk over left-to-right prefixes: vertex i opens an
    arch or closes one of the open ones, kept as their openers in
    increasing order, so a closer's cr and ne are the open arches opened
    after and before its opener.  Each step extends the parent prefix's
    ``_transfer`` state by vertex i, so matchings that share a prefix share
    its work, and each leaf is one matching.  Prefixes are never merged:
    merging those with equally many open arches would be the Schröder-path
    count that the fractions restate.
    """
    if n < 0:
        raise ValueError(f"size must be at least 0, got {n}")
    size = 2 * n
    total: dict[int, int] = {}
    opened: list[int] = []

    def _prefix_walk(i: int, before: dict, here: dict, wiggly) -> None:
        # before, here: the sums over 1..i-2 and 1..i-1; wiggly: the wiggly
        # factor of vertex i-1 when it is a closer.
        if i > size:
            for key, c in here.items():
                total[key] = total.get(key, 0) + c
            return
        follows_opener = opened and opened[-1] == i - 1
        if len(opened) < size - i:
            opened.append(i)
            _prefix_walk(i + 1, here, _transfer(before, here, 0, wiggly), None)
            opened.pop()
        for nestings in range(len(opened)):
            j = opened.pop(nestings)
            pure, next_wiggly, dashed = factors(i, j, len(opened) - nestings, nestings)
            after = _transfer(before, here, pure, dashed if follows_opener else None)
            _prefix_walk(i + 1, here, after, next_wiggly)
            opened.insert(nestings, j)

    _prefix_walk(1, {}, {0: 1}, None)
    _SLOTS.check(total)
    return Polynomial._raw(total)


# Closer variables of the pure, wiggly and dashed classes: the record
# variables for even antirecords, odd antirecords, even and odd other
# closers, then the crossing and the nesting variable.
_CLASSES_18 = (
    ("x", "y", "u", "v", "p", "q"),
    ("x'", "y'", "u'", "v'", "p'", "q'"),
    ("x''", "y''", "u''", "v''", "p''", "q''"),
)
# The same classes with the even/odd distinction forgotten (y, v -> x, u).
_CLASSES_12 = tuple((x, x, u, u, p, q) for x, _, u, _, p, q in _CLASSES_18)


def _record_poly(n: int, classes: tuple[tuple[str, ...], ...]) -> Polynomial:
    keys = [[_SLOTS.unit(VarId(name)) for name in row] for row in classes]

    def factors(k: int, j: int, crossings: int, nestings: int) -> tuple[int, int, int]:
        slot = k % 2 + (2 if nestings else 0)
        return tuple(row[slot] + crossings * row[4] + nestings * row[5] for row in keys)

    return _decorated_sum(n, factors)


def poly_18var(n: int) -> Polynomial:
    """Count decorated matchings by 18 statistics computed directly.

    Closers are classified three ways (pure / wiggly / dashed), and within
    each class by parity and by antirecord status; crossings and nestings
    are split by the class of the closer in third position.  Computed by
    the prefix walk of ``_decorated_sum``; the brute sum over
    ``enumerate_super`` is the reference in the tests.
    """
    return _record_poly(n, _CLASSES_18)


def poly_12var(n: int) -> Polynomial:
    """poly_18var with the even/odd distinction forgotten (y, v -> x, u in
    every class), from its own walk."""
    return _record_poly(n, _CLASSES_12)


def generalized_ward_oracle(n: int) -> Polynomial:
    """Five-variable decorated matching count.

    Pure closers weigh x (crossing number 0) or u (>= 1); dashed lines
    weigh z when their endpoints share an arch and w'' otherwise; wiggly
    lines weigh w'.  Computed by the prefix walk of ``_decorated_sum``;
    the brute sum over ``enumerate_super`` is the reference in the tests.
    """
    x, u, z, wp, wpp = (_SLOTS.unit(VarId(name)) for name in ("x", "u", "z", "w'", "w''"))

    def factors(k: int, j: int, crossings: int, nestings: int) -> tuple[int, int, int]:
        return (x if crossings == 0 else u, wp, z if j == k - 1 else wpp)

    return _decorated_sum(n, factors)


@lru_cache(maxsize=None)
def _wiggly_counts(n: int) -> tuple[int, ...]:
    """Wiggly-only decorated matchings of [2n] by their number l = 0..n of
    wiggly lines: the prefix walk with every closer weighing 1, a wiggly
    line y and no dashed line, read at y^l."""
    y = _SLOTS.unit(VarId("y"))
    terms = _decorated_sum(n, lambda k, j, crossings, nestings: (0, y, None)).terms
    return tuple(terms.get(l * y, 0) for l in range(n + 1))


def count_augmented(n: int, l: int) -> int:
    """Wiggly-only decorated matchings of [2n] with l wiggly lines."""
    row = _wiggly_counts(n)  # a size below 0 raises whatever l is
    return row[l] if 0 <= l <= n else 0


def count_Mprime(n: int, l: int) -> int:
    """Matchings of [2n] with exactly l closer/opener adjacencies.

    The wiggly sites of a matching are its closer/opener adjacencies, and
    no two of them share a vertex, so a matching with c of them carries
    C(c, l) decorations with l wiggly lines; this inverts that binomial
    transform of the wiggly counts.
    """
    row = _wiggly_counts(n)
    return sum((-1) ** (c - l) * comb(c, l) * row[c] for c in range(l, n + 1)) if l >= 0 else 0
