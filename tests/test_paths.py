from itertools import groupby
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardcf import matchings
from wardcf.cli import run
from wardcf.contfrac import TCoeffs, expand_T, named_family
from wardcf.matchings import (
    IndexedWeights,
    PerfectMatching,
    SuperMatching,
    enumerate_matchings,
    enumerate_super,
    master_poly_T,
    super_weight,
)
from wardcf.paths import (
    FlajoletWeights,
    LabeledSchroederPath,
    SchroederPath,
    enumerate_dyck,
    enumerate_labeled_schroeder2,
    enumerate_motzkin,
    enumerate_schroeder2,
    flajolet_check,
    flajolet_weight,
    format_path,
    label_summed_weights,
    matching_to_path,
    parse_path,
    path_to_matching,
    satisfies_bounds,
    statistics_table,
    verify_heights,
    verify_statistics,
)
from wardcf.poly import Polynomial, var

# The running example: arches (1,4)(2,8)(3,5)(6,12)(7,11)(9,10),
# wiggly line at 5, dashed lines at 3 and 9.
EXAMPLE = SuperMatching(
    PerfectMatching.from_pairs([(1, 4), (2, 8), (3, 5), (6, 12), (7, 11), (9, 10)]),
    wiggly=[5],
    dashed=[3, 9],
)


# -- path structures ---------------------------------------------------------------


def test_schroeder_path_heights():
    p = SchroederPath(("R", "R", "D", None, "W", None, "R", "F", "D", None, "F", "F"))
    assert p.heights == (0, 1, 2, None, 2, None, 2, 3, 2, None, 2, 1, 0)
    assert p.n == 6


def test_schroeder_path_validation():
    with pytest.raises(ValueError, match="path dips below zero"):
        SchroederPath(("F", "R"))
    with pytest.raises(ValueError, match="path must end at height zero"):
        SchroederPath(("R", "R"))
    with pytest.raises(ValueError, match="long level step must skip one abscissa"):
        SchroederPath(("R", "F", "W", "F"))
    with pytest.raises(ValueError, match="long level step must skip one abscissa"):
        SchroederPath(("R", "D"))  # long level at the final abscissa
    with pytest.raises(ValueError, match="path length must be even"):
        SchroederPath(("R", "F", "R"))
    with pytest.raises(ValueError, match="bad step None at abscissa 1"):
        SchroederPath(("R", None, "F", "F"))  # stray None
    with pytest.raises(ValueError, match="bad step 'L' at abscissa 2"):
        SchroederPath(("R", "F", "L", "L"))  # a Motzkin step


def test_enumeration_counts():
    assert [len(list(enumerate_dyck(2 * n))) for n in range(5)] == [1, 1, 2, 5, 14]
    assert [len(list(enumerate_motzkin(n))) for n in range(5)] == [1, 1, 2, 4, 9]
    # 1-colored Schroeder numbers via color-blind counting: each path with
    # k long levels appears 2^k times among the 2-colored paths.
    onecolor = []
    for n in range(4):
        total = 0
        for p in enumerate_schroeder2(2 * n):
            k = sum(1 for s in p.steps if s in ("W", "D"))
            total += 1 if k == 0 else 0
        onecolor.append(total)
    assert onecolor == [1, 1, 2, 5]  # Dyck paths are the 0-level subset
    large = [
        sum(
            1
            for p in enumerate_schroeder2(2 * n)
            if all(s != "D" for s in p.steps)
        )
        for n in range(4)
    ]
    assert large == [1, 2, 6, 22]  # one color of long levels allowed


def test_enumeration_order():
    # Depth-first, steps tried R < F < L (Motzkin), R < F (Dyck) and
    # R < F < W < D (Schroeder) at each abscissa.
    assert ["".join(p) for p in enumerate_motzkin(4)] == [
        "RRFF", "RFRF", "RFLL", "RLFL", "RLLF", "LRFL", "LRLF", "LLRF", "LLLL",
    ]
    assert ["".join(p) for p in enumerate_dyck(6)] == [
        "RRRFFF", "RRFRFF", "RRFFRF", "RFRRFF", "RFRFRF",
    ]
    assert ["".join(s or "." for s in p.steps) for p in enumerate_schroeder2(4)] == [
        "RRFF", "RFRF", "RFW.", "RFD.", "RW.F", "RD.F",
        "W.RF", "W.W.", "W.D.", "D.RF", "D.W.", "D.D.",
    ]
    # Within each path, label vectors in lexicographic order; paths with a
    # color-1 level at height 0 carry no labels and are skipped.
    assert [format_path(lp) for lp in enumerate_labeled_schroeder2(4)] == [
        "RRFF; labels=[1,1,1,1]", "RRFF; labels=[1,1,2,1]", "RFRF; labels=[1,1,1,1]",
        "RFD.; labels=[1,1,1,.]", "RW.F; labels=[1,1,.,1]", "RD.F; labels=[1,1,.,1]",
        "RD.F; labels=[1,2,.,1]", "D.RF; labels=[1,.,1,1]", "D.D.; labels=[1,.,1,.]",
    ]


def test_counts_match_continued_fractions():
    # Catalan / Motzkin / Schroeder counts equal the all-ones fractions.
    one = lambda i: Polynomial.one()
    s = expand_T(TCoeffs(one, one), 4)
    for n in range(5):
        assert Polynomial.const(
            sum(1 for p in enumerate_schroeder2(2 * n) if all(x != "D" for x in p.steps))
        ) == s.coefficient(n)


# -- Flajolet weights -----------------------------------------------------------------


def symbolic_weights():
    return FlajoletWeights(
        rise=lambda k: var("a", k),
        fall=lambda k: var("b", k),
        level=lambda k: var("c", k),
        level2=lambda k: var("d", k),
    )


def test_flajolet_weight_basics():
    w = symbolic_weights()
    assert flajolet_weight((), w) == Polynomial.one()
    assert flajolet_weight(("L",), w) == var("c", 0)
    assert flajolet_weight(("R", "F"), w) == var("a", 0) * var("b", 1)


def test_flajolet_check_symbolic():
    assert flajolet_check(4, symbolic_weights())


def test_flajolet_check_zero_weights():
    zero = lambda k: Polynomial.zero()
    w = FlajoletWeights(rise=zero, fall=zero, level=zero, level2=zero)
    assert flajolet_check(3, w)


def test_flajolet_check_ward_weights():
    # The label-summed weights of the decorated-matching fraction.
    w = label_summed_weights(IndexedWeights.symbolic())
    assert flajolet_check(4, w)


# -- the bijection -----------------------------------------------------------------------


def test_example_path_steps_labels_heights():
    lp = matching_to_path(EXAMPLE)
    assert lp.path.steps == ("R", "R", "D", None, "W", None, "R", "F", "D", None, "F", "F")
    assert lp.labels == (1, 1, 1, None, 2, None, 1, 1, 3, None, 2, 1)
    assert lp.path.heights == (0, 1, 2, None, 2, None, 2, 3, 2, None, 2, 1, 0)
    assert satisfies_bounds(lp)


def test_example_round_trip():
    lp = matching_to_path(EXAMPLE)
    assert path_to_matching(lp) == EXAMPLE


def test_single_arch_cases():
    bare = SuperMatching(PerfectMatching.from_pairs([(1, 2)]))
    lp = matching_to_path(bare)
    assert lp.path.steps == ("R", "F")
    assert lp.labels == (1, 1)

    dashed = SuperMatching(PerfectMatching.from_pairs([(1, 2)]), dashed=[1])
    lp2 = matching_to_path(dashed)
    assert lp2.path.steps == ("D", None)
    assert lp2.labels == (1, None)  # same-arch label h0 + 1 = 1
    assert path_to_matching(lp2) == dashed


def test_exhaustive_round_trip_and_image():
    for n in range(5):
        seen = set()
        for sm in enumerate_super(n):
            lp = matching_to_path(sm)
            assert satisfies_bounds(lp)
            assert path_to_matching(lp) == sm
            assert lp not in seen
            seen.add(lp)
        legal = set(enumerate_labeled_schroeder2(2 * n))
        assert seen == legal  # image is exactly the bound-respecting paths
        for lp in legal:
            assert matching_to_path(path_to_matching(lp)) == lp


@st.composite
def decorated_matchings(draw, max_n=40):
    """A matching that pairs off a shuffled vertex list, with random legal
    wiggly lines and then random legal dashed lines on free vertices."""
    n = draw(st.integers(0, max_n))
    order = draw(st.permutations(range(1, 2 * n + 1)))
    pm = PerfectMatching.from_pairs(zip(order[::2], order[1::2]))
    wiggly = [
        i for i in range(1, 2 * n)
        if pm.is_closer(i) and pm.is_opener(i + 1) and draw(st.booleans())
    ]
    taken = {v for i in wiggly for v in (i, i + 1)}
    dashed = [
        i for i in range(1, 2 * n)
        if pm.is_opener(i) and pm.is_closer(i + 1) and not taken & {i, i + 1}
        and draw(st.booleans())
    ]
    return SuperMatching(pm, wiggly, dashed)


@given(decorated_matchings())
@settings(max_examples=150, deadline=None)
def test_round_trip_far_past_the_exhaustive_sizes(sm):
    # Deep paths: a labeling slip that only happens with many arches open
    # never shows in the exhaustive sizes above.
    lp = matching_to_path(sm)
    assert satisfies_bounds(lp)
    assert verify_heights(sm, lp.path)
    assert path_to_matching(lp) == sm


@st.composite
def labeled_paths(draw, max_length=80):
    """A labeled Schroeder path from a random walk of its own: at each
    abscissa a step after which the walk can still return to the axis, and
    a label within the step's bound at its starting height h (a rise 1, a
    fall or a color-1 level 1..h, a color-2 level 1..h+1)."""
    length = 2 * draw(st.integers(0, max_length // 2))
    steps, labels, h = [], [], 0
    while len(steps) < length:
        left = length - len(steps)
        allowed = {"R": h + 2 <= left, "F": h >= 1, "W": 1 <= h <= left - 2, "D": h <= left - 2}
        kind = draw(st.sampled_from([k for k, ok in allowed.items() if ok]))
        steps.append(kind)
        labels.append(draw(st.integers(1, {"R": 1, "F": h, "W": h, "D": h + 1}[kind])))
        if kind in "WD":
            steps.append(None)
            labels.append(None)
        h += {"R": 1, "F": -1}.get(kind, 0)
    return LabeledSchroederPath(SchroederPath(steps), labels)


@given(labeled_paths())
@settings(max_examples=150, deadline=None)
def test_inverse_round_trip_far_past_the_exhaustive_sizes(lp):
    assert satisfies_bounds(lp)
    assert matching_to_path(path_to_matching(lp)) == lp


def test_path_to_matching_rejects_bad_labels():
    # fall at height 1 labeled 2: out of range
    path = SchroederPath(("R", "F"))
    with pytest.raises(ValueError):
        path_to_matching(LabeledSchroederPath(path, (1, 2)))
    with pytest.raises(ValueError):
        path_to_matching(LabeledSchroederPath(path, (2, 1)))


@pytest.mark.parametrize("labels", [(True, True), (1, 1.0)])
def test_labels_must_be_ints(labels):
    # (True, True) would pass satisfies_bounds and format as
    # "labels=[True,True]", which parse_path rejects.
    with pytest.raises(ValueError, match="a label is an int"):
        LabeledSchroederPath(SchroederPath(("R", "F")), labels)


def test_verify_heights_and_statistics():
    assert verify_heights(EXAMPLE, matching_to_path(EXAMPLE).path)
    assert verify_statistics(EXAMPLE)
    bare = SuperMatching(PerfectMatching.from_pairs([(1, 2)]))
    assert verify_heights(bare, matching_to_path(bare).path)
    for n in range(5):
        for sm in enumerate_super(n):
            assert verify_heights(sm, matching_to_path(sm).path)
            assert verify_statistics(sm)
    # The nested matching rises to height 2; the path of two arches in a
    # row does not.  Each side fails against the other's path.
    nested = SuperMatching(PerfectMatching.from_pairs([(1, 4), (2, 3)]))
    in_a_row = SuperMatching(PerfectMatching.from_pairs([(1, 2), (3, 4)]))
    assert not verify_heights(nested, matching_to_path(in_a_row).path)
    assert not verify_heights(in_a_row, matching_to_path(nested).path)
    # A shorter path is not the matching's, though its heights fit a prefix.
    assert not verify_heights(in_a_row, matching_to_path(bare).path)


def test_statistics_table_serves_every_decoration_of_its_base():
    for n in range(5):
        for pm, decorations in groupby(enumerate_super(n), key=lambda sm: sm.base):
            table = statistics_table(pm)
            assert len(table) == 2 * n
            for sm in decorations:
                assert verify_statistics(sm, table) is verify_statistics(sm) is True


def test_statistics_table_of_another_base_fails():
    for n in range(2, 4):
        bases = list(enumerate_matchings(n))
        for pm in bases:
            decorations = [sm for sm in enumerate_super(n) if sm.base == pm]
            for other in bases:
                if other != pm:
                    table = statistics_table(other)
                    assert not all(verify_statistics(sm, table) for sm in decorations)
    with pytest.raises(ValueError, match="a table of 2 vertices for a matching of 12"):
        verify_statistics(EXAMPLE, statistics_table(PerfectMatching.from_pairs([(1, 2)])))


def test_lemma42_takes_the_statistics_once_per_base(monkeypatch, capsys):
    # One table per base matching asks qne at most once per vertex; asking
    # it per decorated matching would be many times more.
    calls = []
    real = matchings.qne

    def counted(i, pm):
        calls.append(i)
        return real(i, pm)

    monkeypatch.setattr(matchings, "qne", counted)
    assert run(["verify", "--suite", "lemma4.2", "--n", "4"]) == 0
    assert capsys.readouterr().out.startswith("PASS: lemma4.2: ")
    bound = sum(prod(range(1, 2 * m, 2)) * (2 * m + 1) for m in range(5))
    assert 0 < len(calls) <= bound == 1069


def test_statistics_on_example_vertex_8():
    from wardcf.matchings import cr, ne

    pm = EXAMPLE.base
    lp = matching_to_path(EXAMPLE)
    assert lp.path.heights[7] == 3 and lp.labels[7] == 1
    assert cr(8, pm) == 2 and ne(8, pm) == 0


def test_label_sum_identity():
    # Summing matching weights equals summing path weights with
    # label-summed step weights.
    iw = IndexedWeights.symbolic()
    fw = label_summed_weights(iw)
    for n in range(4):
        lhs = master_poly_T(n, iw)
        rhs = Polynomial.sum(
            flajolet_weight(p, fw) for p in enumerate_schroeder2(2 * n)
        )
        assert lhs == rhs


def test_label_summed_weights_values():
    iw = IndexedWeights.symbolic()
    fw = label_summed_weights(iw)
    assert fw.fall(1) == var("b", 0, 0)
    assert fw.level2(0) == var("g", 0, 0)
    assert fw.level(1) == var("f", 0, 0)
    assert fw.level2(1) == var("g", 0, 1) + var("g", 1, 0)
    # these are exactly the fraction coefficients
    seq = named_family("master-T")
    assert seq.delta(2) == fw.level(1) + fw.level2(1)
    assert seq.alpha(1) == fw.rise(0) * fw.fall(1)


# -- text format ---------------------------------------------------------------------------


def test_path_text_round_trip():
    lp = matching_to_path(EXAMPLE)
    text = format_path(lp)
    assert text == "RRD.W.RFD.FF; labels=[1,1,1,.,2,.,1,1,3,.,2,1]"
    assert parse_path(text) == lp
    empty = matching_to_path(SuperMatching(PerfectMatching.from_pairs([])))
    assert parse_path(format_path(empty)) == empty


def test_parse_path_accepts_only_ascii_digits():
    assert parse_path("RF; labels=[1,1]") == matching_to_path(
        SuperMatching(PerfectMatching.from_pairs([(1, 2)]))
    )
    with pytest.raises(ValueError, match="bad path text"):
        parse_path("RF; labels=[\uff11,1]")
