"""Independence guard: an oracle must not call the code it is checked
against, and a wrong oracle must make its suite fail.

Each oracle runs at n = 3 under an in-process ``sys.setprofile`` hook that
records the module and name of every Python function entered.  The table
names, per oracle, the ``wardcf`` modules and the functions it must not
enter, and one function it must enter (so that a hook that saw nothing
cannot pass).
"""

import sys

import pytest

from wardcf import contfrac, eulerian, matchings, paths, trees, ward
from wardcf.cli import SUITES, run
from wardcf.contfrac import JCoeffs, TCoeffs
from wardcf.poly import Polynomial, Series, var

PACKAGE = {f"wardcf.{m}" for m in
           ("contfrac", "matchings", "paths", "trees", "eulerian", "ward", "hankel", "cli")}


def besides(*allowed):
    """Every wardcf module except ``allowed`` (poly is always allowed)."""
    return PACKAGE - {f"wardcf.{m}" for m in allowed}


def compose_witness(n):
    """The round trip of closed-form-ux at order n: the EGF of W_k(x,x,z,w)
    composed with the EGF of its Lagrange inverse.  Both series are built
    here, outside the hook, so the call checks Series.compose alone."""
    ps = [p.substitute({ward.U: var("x")}) for p in ward.generalized_ward_cf(n)]
    inverse = ward._egf([Polynomial.one()] + [-c for c in ward.invert_sequence(ps, n)])
    forward = ward._egf(ps)
    return lambda: forward.compose(inverse)


# (oracle, call at n = 3, modules it must not enter, functions it must not
#  enter, a function it must enter)
GUARDS = [
    ("poly_18var", lambda: matchings.poly_18var(3), besides("matchings"),
     {"enumerate_super", "super_weight"}, "_prefix_walk"),
    ("poly_12var", lambda: matchings.poly_12var(3), besides("matchings"),
     {"enumerate_super", "poly_18var", "substitute"}, "_prefix_walk"),
    ("generalized_ward_oracle", lambda: matchings.generalized_ward_oracle(3),
     besides("matchings"), {"enumerate_super"}, "_prefix_walk"),
    ("count_Mprime", lambda: matchings.count_Mprime(3, 1), besides("matchings"),
     {"enumerate_super", "enumerate_augmented"}, "_prefix_walk"),
    ("count_augmented", lambda: matchings.count_augmented(3, 1), besides("matchings"),
     {"enumerate_super", "enumerate_augmented"}, "_prefix_walk"),
    ("master_poly_T", lambda: matchings.master_poly_T(3, matchings.IndexedWeights.symbolic()),
     besides("matchings"), set(), "enumerate_super"),
    ("ward_poly", lambda: ward.ward_poly(3), besides("ward"),
     {"expand_T", "generalized_ward_cf"}, "ward_triangle"),
    ("enumerate_labeled_schroeder2", lambda: list(paths.enumerate_labeled_schroeder2(6)),
     besides("paths"), {"matching_to_path", "path_to_matching"}, "_walk"),
    ("enumerate_phylo", lambda: list(trees.enumerate_phylo(3, 2)), besides("trees"),
     set(), "enumerate_phylo"),
    ("multivariate_ward", lambda: trees.multivariate_ward(3), besides("trees"),
     set(), "multivariate_ward"),
    ("E2_reversed", lambda: eulerian.E2_reversed(3), besides("eulerian"),
     {"enumerate_stirling_perms"}, "E2_poly"),
    ("closed-form-ux", compose_witness(3), PACKAGE,
     {"compositional_inverse", "reciprocal"}, "compose"),
]


def entered(call):
    """(module, function name) of every Python function entered by call()."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add((frame.f_globals.get("__name__"), frame.f_code.co_name))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return seen


@pytest.mark.parametrize("name, call, modules, functions, witness", GUARDS,
                         ids=[g[0] for g in GUARDS])
def test_oracle_stays_independent(name, call, modules, functions, witness):
    # The wiggly counts are cached per n; start from an empty cache so that
    # the count oracles do their work under the hook.
    matchings._wiggly_counts.cache_clear()
    seen = entered(call)
    assert witness in {fn for _, fn in seen}, f"{name}: the hook saw no {witness}"
    assert not {mod for mod, _ in seen} & modules, f"{name} entered {modules & {m for m, _ in seen}}"
    assert not {fn for mod, fn in seen if mod in PACKAGE | {"wardcf.poly"}} & functions


def add_one(original):
    return lambda *args: original(*args) + 1


WRONG_ORACLES = [
    ("thm1.1", matchings, "count_augmented"),
    ("thm1.2", matchings, "generalized_ward_oracle"),
    ("cor2.3", matchings, "poly_18var"),
    ("cor2.3", matchings, "poly_12var"),
    ("ward-euler", eulerian, "count_Mprime"),
    ("thm2.1", matchings, "master_poly_T"),
    ("closed-form-ux", ward, "closed_form_u_eq_x"),
]


@pytest.mark.parametrize("suite, module, attr", WRONG_ORACLES)
def test_wrong_oracle_fails_its_suite(capsys, monkeypatch, suite, module, attr):
    monkeypatch.setattr(module, attr, add_one(getattr(module, attr)))
    code = run(["verify", "--suite", suite, "--n", "3"])
    out = capsys.readouterr().out
    assert code == 1, out
    assert out.startswith(f"FAIL: {suite}: "), out


def add_t(original):
    """original with the term t added to the series it returns."""

    def broken(*args, **kwargs):
        series = original(*args, **kwargs)
        return series + Series.t(series.order)

    return broken


def alpha_2_plus_one(original):
    """A family lookup whose alpha_2 is one larger."""

    def broken(name):
        seq = original(name)
        return TCoeffs(lambda i: seq.alpha(i) + (1 if i == 2 else 0), seq.delta)

    return broken


def gamma_1_plus_one(original):
    """The contraction with gamma_1 one larger."""

    def broken(seq):
        j = original(seq)
        return JCoeffs(lambda n: j.gamma(n) + (1 if n == 1 else 0), j.beta)

    return broken


def first_label_plus_one(original):
    """The path map with the label of its first step one larger."""

    def broken(sm):
        lp = original(sm)
        labels = list(lp.labels)
        if labels:
            labels[0] += 1
        return paths.LabeledSchroederPath(lp.path, labels)

    return broken


def first_item_twice(original):
    """An enumeration that yields its first item twice."""

    def broken(*args):
        items = original(*args)
        for first in items:
            yield first
            yield first
            break
        yield from items

    return broken


def leaves_1_and_2_swapped(original):
    """The tree map with leaves 1 and 2 exchanged in every tree that has both."""

    def swap(node):
        if isinstance(node, int):
            return {1: 2, 2: 1}.get(node, node)
        return tuple(swap(c) for c in node)

    def broken(sm):
        tree = original(sm)
        return trees.PhyloTree(swap(tree.root)) if tree.n else tree

    return broken


def not_divisible_by_w(original):
    """The closed form with x z^m / w added, a division by w that is not exact."""

    def broken(m):
        return original(m) + (var("x") * var("z") ** m).div_var(ward.W)

    return broken


# (suite, module, attribute, how to break it): one side of each identity made
# wrong by one term, weight, label, statistic, leaf, repeated object or
# inexact division.
BROKEN_SIDES = [
    ("flajolet", contfrac, "expand_J", add_t),
    ("appendixB", ward, "named_family", alpha_2_plus_one),
    ("contraction", contfrac, "contract_T_to_J", gamma_1_plus_one),
    ("euler-identity", contfrac, "expand_T", add_t),
    ("bijection-schroeder", paths, "matching_to_path", first_label_plus_one),
    ("bijection-schroeder", paths, "enumerate_labeled_schroeder2", first_item_twice),
    ("bijection-phylo", trees, "augmented_to_tree", leaves_1_and_2_swapped),
    ("lemma4.2", matchings, "qne", add_one),
    ("thm1.1", trees, "enumerate_phylo", first_item_twice),
    ("closed-form-ux", ward, "closed_form_u_eq_x", not_divisible_by_w),
]
BROKEN_SIDE_IDS = [
    suite if [case[0] for case in BROKEN_SIDES].count(suite) == 1 else f"{suite}-{attr}"
    for suite, _, attr, _ in BROKEN_SIDES
]


@pytest.mark.parametrize("suite, module, attr, breaker", BROKEN_SIDES, ids=BROKEN_SIDE_IDS)
def test_broken_side_fails_its_suite(capsys, monkeypatch, suite, module, attr, breaker):
    monkeypatch.setattr(module, attr, breaker(getattr(module, attr)))
    code = run(["verify", "--suite", suite, "--n", "3"])
    out = capsys.readouterr().out
    assert code == 1, out
    assert out.startswith(f"FAIL: {suite}: "), out


def test_every_suite_has_a_failing_case():
    covered = {case[0] for case in WRONG_ORACLES + BROKEN_SIDES}
    assert covered == set(SUITES)
