"""Lattice paths, height-dependent weights, and the bijection between
decorated matchings and labeled 2-colored Schroeder paths.

The steps of a 2-colored Schroeder path, and the labels each can carry
when it starts at height h:

    step                     height change  width  labels
    R  rise                  +1             1      1
    F  fall                  -1             1      1..h
    W  long level, color 1    0             2      1..h
    D  long level, color 2    0             2      1..h+1

The step starting at abscissa i-1 is s_i; a width-2 step leaves s_{i+1}
and the height h_i undefined.  Motzkin paths (R, F and a unit level "L")
and Dyck paths (R, F) are plain tuples.  All three kinds are enumerated by
one depth-first walker over a table of steps, tried in the order R < F < L
for Motzkin, R < F for Dyck and R < F < W < D for Schroeder paths.

The bijection sends a decorated matching of [2n] to a path of length 2n:
pure openers become rises, pure closers falls, wiggly pairs color-1 long
levels, dashed pairs color-2 long levels.  Labels record which open arch
each closing vertex attaches to, counted among the arches started but
unfinished so far in increasing order of opener; a dashed pair closing its
own arch gets the out-of-range label h+1.

T-fractions also admit an older interpretation as Dyck paths whose falls
are weighted differently at peaks; this module implements only the
Schroeder-path view, which subsumes it with simpler bookkeeping.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import accumulate, product
from typing import Callable, Iterator, NamedTuple, Optional

# Called through their modules, so that a substituted contfrac.expand_J or
# matchings.qne is the one that runs.
from . import contfrac, matchings
from .matchings import IndexedWeights, PerfectMatching, SuperMatching, star
from .poly import Polynomial, Series

RISE, FALL, LL1, LL2 = "R", "F", "W", "D"

# Step tables (kind, height change, width), in the order the walker tries
# them at each abscissa.  _SCHROEDER is also what SchroederPath checks.
_MOTZKIN = ((RISE, 1, 1), (FALL, -1, 1), ("L", 0, 1))
_DYCK = _MOTZKIN[:2]
_SCHROEDER = ((RISE, 1, 1), (FALL, -1, 1), (LL1, 0, 2), (LL2, 0, 2))
_HEIGHT_CHANGE = {kind: dh for kind, dh, _ in _MOTZKIN + _SCHROEDER}
_SCHROEDER_MOVE = {kind: (dh, width) for kind, dh, width in _SCHROEDER}


class SchroederPath:
    """2-colored Schroeder path, stored as per-abscissa step kinds.

    steps[i-1] is s_i ("R", "F", "W", "D"), or None at the skipped
    abscissa inside a long level step.
    """

    __slots__ = ("steps", "heights")

    def __init__(self, steps):
        steps = tuple(steps)
        if len(steps) % 2 != 0:
            raise ValueError("path length must be even")
        heights: list[Optional[int]] = [0]
        h = 0
        i = 0
        while i < len(steps):
            kind = steps[i]
            try:
                dh, width = _SCHROEDER_MOVE[kind]
            except (KeyError, TypeError):
                raise ValueError(f"bad step {kind!r} at abscissa {i}") from None
            if width == 2:
                if i + 1 >= len(steps) or steps[i + 1] is not None:
                    raise ValueError("long level step must skip one abscissa")
                heights.append(None)
            h += dh
            if h < 0:
                raise ValueError("path dips below zero")
            heights.append(h)
            i += width
        if h != 0:
            raise ValueError("path must end at height zero")
        self.steps = steps
        self.heights = tuple(heights)

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def n(self) -> int:
        return len(self.steps) // 2

    def __eq__(self, other):
        return isinstance(other, SchroederPath) and self.steps == other.steps

    def __hash__(self):
        return hash(self.steps)

    def __repr__(self):
        return f"SchroederPath({''.join('.' if s is None else s for s in self.steps)})"


class LabeledSchroederPath:
    """A Schroeder path plus integer labels, one per defined step."""

    __slots__ = ("path", "labels")

    def __init__(self, path: SchroederPath, labels):
        labels = tuple(labels)
        if len(labels) != path.length:
            raise ValueError("one label slot per abscissa")
        for s, xi in zip(path.steps, labels):
            if (s is None) != (xi is None):
                raise ValueError("labels must be defined exactly on defined steps")
            if type(xi) is not int and xi is not None:
                raise ValueError(f"a label is an int, not {xi!r}")
        self.path = path
        self.labels = labels

    def __eq__(self, other):
        return (
            isinstance(other, LabeledSchroederPath)
            and self.path == other.path
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.path, self.labels))

    def __repr__(self):
        return f"LabeledSchroederPath({format_path(self)!r})"


# Label ceilings at height h realized by the matching bijection: rises are
# forced, falls and color-1 levels choose an open arch, color-2 levels may
# also close their own.
_CEILING: dict[str, Callable[[int], int]] = {
    RISE: lambda h: 1,
    FALL: lambda h: h,
    LL1: lambda h: h,
    LL2: lambda h: h + 1,
}


def satisfies_bounds(lp: LabeledSchroederPath) -> bool:
    path = lp.path
    for i, (s, xi) in enumerate(zip(path.steps, lp.labels)):
        if s is None:
            continue
        if not 1 <= xi <= _CEILING[s](path.heights[i]):
            return False
    return True


# -- text format -----------------------------------------------------------------


def format_path(lp: LabeledSchroederPath) -> str:
    steps = "".join("." if s is None else s for s in lp.path.steps)
    labels = ",".join("." if xi is None else str(xi) for xi in lp.labels)
    return f"{steps}; labels=[{labels}]"


def parse_path(text: str) -> LabeledSchroederPath:
    m = re.match(
        r"^(?P<steps>[RFWD.]*); labels=\[(?P<labels>[\d,.]*)\]$", text.strip(), re.ASCII
    )
    if not m:
        raise ValueError(f"bad path text: {text!r}")
    steps = tuple(None if ch == "." else ch for ch in m.group("steps"))
    raw = m.group("labels").split(",") if m.group("labels") else []
    labels = tuple(None if s == "." else int(s) for s in raw)
    return LabeledSchroederPath(SchroederPath(steps), labels)


# -- enumeration -----------------------------------------------------------------


def _walk(table, length: int) -> Iterator[tuple[Optional[str], ...]]:
    """Paths of the given length from height 0 back to 0 that never dip
    below 0, depth-first in table order.  A step of width w fills w
    abscissae: its kind, then w-1 Nones."""
    if length < 0:
        raise ValueError(f"length must be at least 0, got {length}")
    moves = [((kind,) + (None,) * (width - 1), dh, width) for kind, dh, width in table]

    def rec(prefix, h, remaining):
        if remaining == 0:
            yield prefix
            return
        for cells, dh, width in moves:
            # The walk must still be able to come back down to height 0.
            if 0 <= h + dh <= remaining - width:
                yield from rec(prefix + cells, h + dh, remaining - width)

    yield from rec((), 0, length)


def enumerate_motzkin(length: int) -> Iterator[tuple[str, ...]]:
    """Motzkin paths of the given length, steps R < F < L at each abscissa."""
    yield from _walk(_MOTZKIN, length)


def enumerate_dyck(length: int) -> Iterator[tuple[str, ...]]:
    """Dyck paths of the given (even) length, steps R < F at each abscissa."""
    if length % 2 != 0:
        raise ValueError("Dyck paths have even length")
    yield from _walk(_DYCK, length)


def enumerate_schroeder2(length: int) -> Iterator[SchroederPath]:
    """2-colored Schroeder paths of the given length.

    Depth-first with step order R < F < W < D at each abscissa.
    """
    if length % 2 != 0:
        raise ValueError("Schroeder paths have even length")
    for steps in _walk(_SCHROEDER, length):
        yield SchroederPath(steps)


def enumerate_labeled_schroeder2(length: int) -> Iterator[LabeledSchroederPath]:
    """All labeled 2-colored paths obeying the label ceilings of the
    matching bijection; step sequences first, label vectors in
    lexicographic order within each path."""
    for path in enumerate_schroeder2(length):
        caps = [
            (None,) if s is None else range(1, _CEILING[s](h) + 1)
            for s, h in zip(path.steps, path.heights)
        ]
        for labels in product(*caps):
            yield LabeledSchroederPath(path, labels)


# -- height-dependent path weights --------------------------------------------------


class FlajoletWeights(NamedTuple):
    """Weights per step kind, indexed by starting height.

    rise a_k, fall b_k, level c_k; level2 covers the second color of long
    level steps for 2-colored Schroeder paths.
    """

    rise: Callable[[int], Polynomial]
    fall: Callable[[int], Polynomial]
    level: Callable[[int], Polynomial]
    level2: Callable[[int], Polynomial] = lambda k: Polynomial.zero()


def flajolet_weight(path, w: FlajoletWeights) -> Polynomial:
    """Product of per-step weights over a Motzkin/Dyck tuple or a
    SchroederPath."""
    weight = {RISE: w.rise, FALL: w.fall, "L": w.level, LL1: w.level, LL2: w.level2}
    steps = path.steps if isinstance(path, SchroederPath) else path
    factors = []
    h = 0
    for s in steps:
        if s is None:
            continue
        factors.append(weight[s](h))
        h += _HEIGHT_CHANGE[s]
    return Polynomial.product(factors)


def flajolet_check(order: int, w: FlajoletWeights) -> bool:
    """Desk-scale master-theorem check for the given weights.

    Sums path weights exhaustively and compares against the matching
    continued fractions: J for Motzkin (beta_i = a_{i-1} b_i, gamma_i = c_i),
    S for Dyck (alpha_i = a_{i-1} b_i), and T for 2-colored Schroeder
    (alpha_i = a_{i-1} b_i, delta_i = c_{i-1} + c2_{i-1}).
    """
    # Each weight is looked up by many paths; build it once.
    w = FlajoletWeights(*map(lru_cache(maxsize=None), w))

    def path_sum(enumerate_paths, steps_per_n: int) -> Series:
        return Series(order, [
            Polynomial.sum(flajolet_weight(p, w) for p in enumerate_paths(steps_per_n * n))
            for n in range(order + 1)
        ])

    alpha = lambda i: w.rise(i - 1) * w.fall(i)
    if path_sum(enumerate_motzkin, 1) != contfrac.expand_J(w.level, alpha, order):
        return False
    if path_sum(enumerate_dyck, 2) != contfrac.expand_S(alpha, order):
        return False
    delta = lambda i: w.level(i - 1) + w.level2(i - 1)
    return path_sum(enumerate_schroeder2, 2) == contfrac.expand_T(
        contfrac.TCoeffs(alpha, delta), order
    )


# -- the bijection ----------------------------------------------------------------------


def matching_to_path(sm: SuperMatching) -> LabeledSchroederPath:
    """Decorated matching -> labeled 2-colored Schroeder path.

    Pure openers map to rises (label 1); pure closers to falls; wiggly
    pairs to color-1 and dashed pairs to color-2 long levels.  A closing
    vertex is labeled by the rank of its opener among the arches started
    but unfinished before the step, except that a dashed pair closing its
    own arch is labeled h+1.
    """
    pm = sm.base
    size = 2 * pm.n
    steps: list[Optional[str]] = []
    labels: list[Optional[int]] = []
    active: list[int] = []  # open arches' openers; each append is past all: increasing
    i = 1
    while i <= size:
        if i in sm.wiggly:
            j = pm.partner[i]
            steps += [LL1, None]
            labels += [active.index(j) + 1, None]
            active.remove(j)
            active.append(i + 1)
            i += 2
        elif i in sm.dashed:
            steps += [LL2, None]
            if pm.partner[i] == i + 1:
                labels += [len(active) + 1, None]
            else:
                j = pm.partner[i + 1]
                labels += [active.index(j) + 1, None]
                active.remove(j)
                active.append(i)
            i += 2
        elif pm.is_opener(i):
            steps.append(RISE)
            labels.append(1)
            active.append(i)
            i += 1
        else:
            j = pm.partner[i]
            steps.append(FALL)
            labels.append(active.index(j) + 1)
            active.remove(j)
            i += 1
    return LabeledSchroederPath(SchroederPath(steps), labels)


def path_to_matching(lp: LabeledSchroederPath) -> SuperMatching:
    """Inverse of matching_to_path; raises ValueError on label-bound
    violations."""
    path = lp.path
    size = path.length
    partner = [0] * (size + 1)
    wiggly: list[int] = []
    dashed: list[int] = []
    active: list[int] = []

    def close(opener_rank: int, closer: int, step: str):
        if not 1 <= opener_rank <= len(active):
            raise ValueError(f"label {opener_rank} out of range at step {closer} ({step})")
        j = active.pop(opener_rank - 1)
        partner[j] = closer
        partner[closer] = j

    i = 1
    while i <= size:
        s = lp.path.steps[i - 1]
        xi = lp.labels[i - 1]
        if s == RISE:
            if xi != 1:
                raise ValueError(f"rise label must be 1 at step {i}")
            active.append(i)
            i += 1
        elif s == FALL:
            close(xi, i, s)
            i += 1
        elif s == LL1:
            close(xi, i, s)
            active.append(i + 1)
            wiggly.append(i)
            i += 2
        elif s == LL2:
            if xi == len(active) + 1:
                partner[i] = i + 1
                partner[i + 1] = i
            else:
                close(xi, i + 1, s)
                active.append(i)
            dashed.append(i)
            i += 2
        else:
            raise ValueError(f"undefined step at abscissa {i}")
    return SuperMatching(PerfectMatching(tuple(partner)), wiggly, dashed)


def verify_heights(sm: SuperMatching, path: SchroederPath) -> bool:
    """Whether each defined height of path, sm's ``matching_to_path(sm).path``,
    counts the arches of sm started but not yet finished there."""
    pm = sm.base
    # Each vertex opens an arch (+1) or finishes one (-1).
    counts = accumulate((1 if j > i else -1 for i, j in enumerate(pm.partner[1:], 1)), initial=0)
    return path.length == 2 * pm.n and all(
        h is None or h == count for h, count in zip(path.heights, counts)
    )


def statistics_table(pm: PerfectMatching) -> tuple[tuple[int, int, int], ...]:
    """(qne(i), cr(i), ne(i)) for each vertex i = 1..2n of pm, at entry
    i - 1, from their definitions in ``matchings``.  A decorated matching's
    statistics are those of its base, so one table serves every
    decoration of pm."""
    return tuple(
        (matchings.qne(i, pm), matchings.cr(i, pm), matchings.ne(i, pm))
        for i in range(1, 2 * pm.n + 1)
    )


def verify_statistics(
    sm: SuperMatching, table: Optional[tuple[tuple[int, int, int], ...]] = None
) -> bool:
    """Check the statistic translation along the bijection, against table,
    the ``statistics_table`` of sm's base (computed here when None).

    Pure openers: qne(i) = h_{i-1}.  Pure closers and wiggly pairs:
    cr(i) = h_{i-1} - label, ne(i) = label - 1.  Dashed pairs:
    cr(i+1) = h_{i-1} + 1 - label, ne(i+1) = label - 1.
    """
    pm = sm.base
    if table is None:
        table = statistics_table(pm)
    elif len(table) != 2 * pm.n:
        raise ValueError(f"a table of {len(table)} vertices for a matching of {2 * pm.n}")
    lp = matching_to_path(sm)
    heights = lp.path.heights
    for i in range(1, 2 * pm.n + 1):
        s = lp.path.steps[i - 1]
        if s is None:
            continue
        h = heights[i - 1]
        xi = lp.labels[i - 1]
        if s == RISE:
            if table[i - 1][0] != h:
                return False
        elif s in (FALL, LL1):
            if table[i - 1][1:] != (h - xi, xi - 1):
                return False
        else:
            if table[i][1:] != (h + 1 - xi, xi - 1):
                return False
    return True


def label_summed_weights(w: IndexedWeights) -> FlajoletWeights:
    """Sum the matching weights over labels at fixed path shape.

    Falls at height k collect the anti-diagonal sum of the pure-closer
    weights, color-1 levels the wiggly sums, color-2 levels the dashed
    sums; rises keep the straddle-indexed opener weight."""
    return FlajoletWeights(
        rise=lambda k: w.a(k),
        fall=lambda k: star(w.b, k - 1),
        level=lambda k: star(w.f, k - 1),
        level2=lambda k: star(w.g, k),
    )
