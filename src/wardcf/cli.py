"""Command-line surface: triangles, fraction expansion, named verification
suites, Hankel scans, and series inversion.

Exit codes: 0 success, 1 verification failure, 2 usage error.  The
environment variable WARDCF_MAX_N caps enumeration sizes (default 6);
symbolic checks are not capped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable

from . import contfrac, eulerian, hankel, matchings, paths, trees, ward
from .poly import T_VAR, Polynomial, VarId, parse_poly, var

DEFAULT_MAX_N = 6


def _max_n() -> int:
    raw = os.environ.get("WARDCF_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"bad WARDCF_MAX_N value {raw!r}, need an integer") from None
    _require_at_least("WARDCF_MAX_N", cap, 0)
    return cap


def _parse_var(text: str) -> VarId:
    p = parse_poly(text)
    if len(p.terms) != 1:
        raise ValueError(f"not a variable: {text!r}")
    ((mono, coeff),) = p.items()
    if coeff != 1 or mono.degree != 1:
        raise ValueError(f"not a variable: {text!r}")
    return mono.variables()[0]


def _parse_bindings(pairs: list[str]) -> dict[VarId, Polynomial]:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ValueError(f"--set needs var=value, got {item!r}")
        name, value = item.split("=", 1)
        if not name.strip():
            raise ValueError(f"--set {item!r}: the variable name is missing")
        v = _parse_var(name.strip())
        if v is T_VAR:
            raise ValueError(f"--set cannot bind {v}, the series variable")
        if v in out:
            raise ValueError(f"--set binds {v} twice")
        p = parse_poly(value.strip())
        if p.contains_var(T_VAR):
            raise ValueError(f"--set {item!r}: the value contains {T_VAR}, the series variable")
        out[v] = p
    return out


def _substitute_all(
    polys: list[Polynomial], bindings: dict[VarId, Polynomial], what: str
) -> list[Polynomial]:
    """Apply the --set bindings to every polynomial; a binding for a
    variable none of them has is a usage error."""
    present = set().union(*(p.variables() for p in polys))
    for v in bindings:
        if v not in present:
            raise ValueError(f"--set {v}: {v} does not occur in {what}")
    return [p.substitute(bindings) for p in polys]


def _require_at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{flag} must be at least {least}, got {value}")


# -- triangle -------------------------------------------------------------------


def _triangle_rows(family: str, rows: int) -> list[list[int]]:
    if family == "ward":
        return ward.ward_triangle(rows)
    if family == "eulerian2":
        return eulerian.eulerian2_triangle(rows)
    if family == "stirling2assoc":
        return [
            [trees.count_assoc_stirling(n, k) for k in range(n + 1)]
            for n in range(rows + 1)
        ]
    raise ValueError(f"unknown triangle family {family!r}")


def _cmd_triangle(args) -> int:
    _require_at_least("--rows", args.rows, 0)
    tri = _triangle_rows(args.family, args.rows)
    if args.format == "csv":
        print("n,k,value")
        for n, row in enumerate(tri):
            for k, value in enumerate(row):
                print(f"{n},{k},{value}")
    elif args.format == "json":
        print(json.dumps({"family": args.family, "rows": tri}))
    else:
        width = max(len(str(v)) for row in tri for v in row)
        for row in tri:
            print(" ".join(str(v).rjust(width) for v in row))
    return 0


# -- expand ---------------------------------------------------------------------


# Characters of coefficient text written at once (the text is ASCII).
_WRITE_SLICE = 1 << 16


def _cmd_expand(args) -> int:
    _require_at_least("--order", args.order, 0)
    seq = contfrac.named_family(args.family)
    series = contfrac.expand_T(seq, args.order)
    bindings = _parse_bindings(args.set or [])
    coeffs = _substitute_all(list(series.coeffs), bindings, f"the expansion to order {args.order}")
    # One coefficient at a time, and each text in slices: the whole line
    # can be megabytes, and one coefficient alone more than a hundred KB.
    write = sys.stdout.write
    for n, c in enumerate(coeffs):
        if n:
            write(", ")
        text = str(c)
        for start in range(0, len(text), _WRITE_SLICE):
            write(text[start : start + _WRITE_SLICE])
    write("\n")
    return 0


# -- verification suites -----------------------------------------------------------

SuiteResult = tuple[bool, str]


def _suite_thm11(n: int) -> SuiteResult:
    x = var("x")
    series = contfrac.expand_T(contfrac.named_family("ward"), n)
    for m in range(n + 1):
        cf = series.coefficient(m)
        tri = ward.ward_poly(m)
        if cf != tri:
            return False, f"fraction vs triangle at n={m}: {cf} vs {tri}"
        phylo = Polynomial.sum(
            sum(1 for _ in trees.enumerate_phylo(m, k)) * x**k
            for k in range(m + 1)
        )
        if phylo != tri:
            return False, f"tree count vs triangle at n={m}: {phylo} vs {tri}"
        augmented = Polynomial.sum(
            matchings.count_augmented(m, l) * x ** (m - l) for l in range(m + 1)
        )
        if augmented != tri:
            return False, f"decorated matchings vs triangle at n={m}: {augmented} vs {tri}"
    return True, f"fraction = triangle = trees = matchings for n <= {n}"


def _suite_thm12(n: int) -> SuiteResult:
    x = var("x")
    series = contfrac.expand_T(contfrac.tfraction_5var(), n)
    for m in range(n + 1):
        oracle = matchings.generalized_ward_oracle(m)
        cf = series.coefficient(m)
        if oracle != cf:
            return False, f"matching count vs fraction at n={m}: {oracle} vs {cf}"
        merged = oracle.substitute({VarId("w'"): var("w"), VarId("w''"): Polynomial.zero()})
        merged2 = oracle.substitute({VarId("w'"): Polynomial.zero(), VarId("w''"): var("w")})
        if merged != merged2:
            return False, f"weights not a function of w'+w'' at n={m}"
        special = oracle.substitute(
            {
                VarId("u"): x,
                VarId("z"): Polynomial.zero(),
                VarId("w'"): Polynomial.one(),
                VarId("w''"): Polynomial.zero(),
            }
        )
        if special != ward.ward_poly(m):
            return False, f"specialization to the plain polynomials fails at n={m}"
    return True, f"five-variable matching count matches its fraction for n <= {n}"


def _suite_thm21(n: int) -> SuiteResult:
    w = matchings.IndexedWeights.symbolic()
    series = contfrac.expand_T(contfrac.named_family("master-T"), n)
    for m in range(n + 1):
        oracle = matchings.master_poly_T(m, w)
        cf = series.coefficient(m)
        if oracle != cf:
            return False, f"decorated-matching sum vs fraction at n={m}"
    return True, f"symbolic decorated-matching fraction verified for n <= {n}"


def _suite_cor23(n: int) -> SuiteResult:
    s18 = contfrac.expand_T(contfrac.tfraction_18var(), n)
    s12 = contfrac.expand_T(contfrac.tfraction_12var(), n)
    s12a = contfrac.expand_T(contfrac.tfraction_12var_bis1(), n)
    s12b = contfrac.expand_T(contfrac.tfraction_12var_bis2(), n)
    xp, x, xpp = var("x'"), var("x"), var("x''")
    for m in range(n + 1):
        p18 = matchings.poly_18var(m)
        if p18 != s18.coefficient(m):
            return False, f"18-variable count vs fraction at n={m}"
        p12 = matchings.poly_12var(m)
        if p12 != s12.coefficient(m):
            return False, f"12-variable count vs fraction at n={m}"
        if p12.substitute({VarId("u'"): xp}) != s12a.coefficient(m):
            return False, f"u'=x' collapse vs fraction at n={m}"
        collapsed = p12.substitute({VarId("u'"): xp, VarId("u"): x, VarId("u''"): xpp})
        if collapsed != s12b.coefficient(m):
            return False, f"u=x, u''=x'' collapse vs fraction at n={m}"
    return True, f"18- and 12-variable specializations verified for n <= {n}"


def _suite_bijection_schroeder(n: int) -> SuiteResult:
    # The round trip makes the map injective, and every image is a valid
    # path within the label bounds, so equal counts make it a bijection
    # without holding either side in memory.
    for m in range(n + 1):
        images = 0
        for sm in matchings.enumerate_super(m):
            lp = paths.matching_to_path(sm)
            if not paths.satisfies_bounds(lp):
                return False, f"label bounds violated: {matchings.format_matching(sm)}"
            if not paths.verify_heights(sm, lp.path):
                return False, f"height mismatch: {matchings.format_matching(sm)}"
            if paths.path_to_matching(lp) != sm:
                return False, f"round trip failed: {matchings.format_matching(sm)}"
            images += 1
        legal = sum(1 for _ in paths.enumerate_labeled_schroeder2(2 * m))
        if images != legal:
            return False, (
                f"image count mismatch at n={m}:"
                f" {images} decorated matchings vs {legal} labeled paths"
            )
    return True, f"decorated matchings <-> labeled paths verified for n <= {n}"


def _suite_bijection_phylo(n: int) -> SuiteResult:
    tri = ward.ward_triangle(n)
    for m in range(n + 1):
        by_wiggly: dict[int, int] = {}
        for sm in matchings.enumerate_augmented(m):
            tree = trees.augmented_to_tree(sm)
            if trees.tree_to_augmented(tree) != sm:
                return False, f"round trip failed: {matchings.format_matching(sm)}"
            by_wiggly[len(sm.wiggly)] = by_wiggly.get(len(sm.wiggly), 0) + 1
        # Every wiggly count 0..m, so that a class of matchings the
        # enumeration never yields fails too.
        for l in range(m + 1):
            if by_wiggly.get(l, 0) != tri[m][m - l]:
                return False, f"count mismatch at n={m}, {l} wiggly lines"
    return True, f"decorated matchings <-> trees verified for n <= {n}"


def _suite_lemma42(n: int) -> SuiteResult:
    # enumerate_super yields the decorations of each base matching in a
    # row, and they all share its statistics: one table per base.
    for m in range(n + 1):
        base = table = None
        for sm in matchings.enumerate_super(m):
            if sm.base is not base:
                base, table = sm.base, paths.statistics_table(sm.base)
            if not paths.verify_statistics(sm, table):
                return False, f"statistic translation failed: {matchings.format_matching(sm)}"
    return True, f"per-vertex statistic translation verified for n <= {n}"


def _suite_appendixB(n: int) -> SuiteResult:
    ws = ward.generalized_ward_cf(n)
    for name, check in [
        ("nonlinear recurrence", ward.check_prop_B1),
        ("linear recurrence", ward.check_cor_B2),
        ("Riccati recurrence", ward.check_cor_B3),
        ("Riccati series identity", ward.check_cor_B4),
    ]:
        if not check(ws):
            return False, f"{name} fails at order {n}"
    return True, f"differential recurrences verified to order {n}"


def _suite_ward_euler(n: int) -> SuiteResult:
    cap = _max_n()
    if cap < n:
        print(f"note: closer/opener check clamped to {cap} by WARDCF_MAX_N")
    for m in range(n + 1):
        if not eulerian.ward_euler_identity(m):
            return False, f"reversed-polynomial identity fails at n={m}"
    for m in range(min(n, cap) + 1):
        if not eulerian.clop_equals_eulerian(m):
            return False, f"closer/opener count vs descents fails at n={m}"
    if not eulerian.e2_reversed_tfraction_check(n):
        return False, f"reversed-polynomial fraction fails at order {n}"
    return True, f"second-order Eulerian identities verified for n <= {n}"


def _suite_flajolet(n: int) -> SuiteResult:
    w = paths.FlajoletWeights(
        rise=lambda k: var("a", k),
        fall=lambda k: var("b", k),
        level=lambda k: var("c", k),
        level2=lambda k: var("d", k),
    )
    if not paths.flajolet_check(n, w):
        return False, f"symbolic path/fraction identity fails at order {n}"
    w2 = paths.label_summed_weights(matchings.IndexedWeights.symbolic())
    if not paths.flajolet_check(n, w2):
        return False, f"label-summed weights fail at order {n}"
    return True, f"path generating functions match fractions to order {n}"


def _suite_contraction(n: int) -> SuiteResult:
    x, z = var("x"), var("z")
    cases = [
        contfrac.named_family("semifactorial"),
        contfrac.TCoeffs(lambda i: x, lambda i: z if i % 2 == 1 else Polynomial.zero()),
    ]
    for idx, seq in enumerate(cases):
        j = contfrac.contract_T_to_J(seq)
        if contfrac.expand_J(j.gamma, j.beta, n) != contfrac.expand_T(seq, n):
            return False, f"contraction case {idx} differs at order {n}"
    return True, f"even-level contraction verified to order {n}"


def _suite_euler_identity(n: int) -> SuiteResult:
    x = var("x")
    for name, alpha in [
        ("factorials", lambda i: Polynomial.const(i)),
        ("powers", lambda i: x**i),
    ]:
        if not contfrac.euler_identity_check(alpha, n):
            return False, f"partial-product fraction ({name}) fails at order {n}"
    return True, f"partial-product fractions verified to order {n}"


def _suite_closed_form(n: int) -> SuiteResult:
    _require_at_least("--n", n, 1)
    if not ward.check_closed_form_u_eq_x(n):
        return False, f"u=x closed form fails at order {n}"
    return True, f"u=x closed form and its series verified to order {n}"


# name -> (runner, n clamped to WARDCF_MAX_N before the call); ward-euler
# is not clamped and caps only its enumeration part itself.
SUITES: dict[str, tuple[Callable[[int], SuiteResult], bool]] = {
    "thm1.1": (_suite_thm11, True),
    "thm1.2": (_suite_thm12, True),
    "thm2.1": (_suite_thm21, True),
    "cor2.3": (_suite_cor23, True),
    "bijection-schroeder": (_suite_bijection_schroeder, True),
    "bijection-phylo": (_suite_bijection_phylo, True),
    "lemma4.2": (_suite_lemma42, True),
    "appendixB": (_suite_appendixB, False),
    "ward-euler": (_suite_ward_euler, False),
    "flajolet": (_suite_flajolet, True),
    "contraction": (_suite_contraction, False),
    "euler-identity": (_suite_euler_identity, False),
    "closed-form-ux": (_suite_closed_form, False),
}


def _cmd_verify(args) -> int:
    _require_at_least("--n", args.n, 0)
    cap = _max_n()
    name = args.suite
    runner, capped = SUITES[name]
    n = min(args.n, cap) if capped else args.n
    if capped and n < args.n:
        print(f"note: n clamped to {n} by WARDCF_MAX_N")
    ok, detail = runner(n)
    print(f"{'PASS' if ok else 'FAIL'}: {name}: {detail}")
    return 0 if ok else 1


# -- hankel -----------------------------------------------------------------------


_HANKEL_SEQS = {
    "ward": hankel.ward_sequence,
    "generalized-ward": hankel.generalized_ward_sequence,
    "eulerian2-reversed": hankel.e2_reversed_sequence,
}


def _cmd_hankel(args) -> int:
    _require_at_least("--size", args.size, 1)
    r_max = args.rmax if args.rmax is not None else args.size
    if not 1 <= r_max <= args.size:
        raise ValueError(f"--rmax must be within 1..{args.size}, got {r_max}")
    if args.size > hankel.LARGE_SECTION_BUDGET and not args.allow_large:
        raise ValueError(
            f"size {args.size} exceeds the desk budget"
            f" {hankel.LARGE_SECTION_BUDGET}; pass --allow-large to run anyway"
        )
    section = hankel.hankel_section(_HANKEL_SEQS[args.family], args.size)
    ok, counterexample = hankel.all_minors_nonneg(section, r_max)
    report = {
        "sequence": args.family,
        "m": args.size,
        "r_max": r_max,
        "ok": ok,
    }
    if counterexample is not None:
        rows, cols, minor = counterexample
        report["counterexample"] = {
            "rows": list(rows),
            "cols": list(cols),
            "minor": str(minor),
        }
    print(json.dumps(report))
    return 0 if ok else 1


# -- invert -----------------------------------------------------------------------


def _cmd_invert(args) -> int:
    _require_at_least("--order", args.order, 1)
    bindings = _parse_bindings(args.set or [])
    sequence = _substitute_all(
        ward.generalized_ward_cf(args.order), bindings, f"W_0..W_{args.order}"
    )
    values = ward.invert_sequence(sequence, args.order)
    for i, value in enumerate(values, start=1):
        print(f"x{i} = {value}")
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wardcf",
        description="Exact combinatorics of Ward-type polynomial families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tri = sub.add_parser("triangle", help="print a number triangle")
    p_tri.add_argument("--family", required=True, choices=["ward", "eulerian2", "stirling2assoc"])
    p_tri.add_argument("--rows", required=True, type=int)
    p_tri.add_argument("--format", default="pretty", choices=["csv", "json", "pretty"])
    p_tri.set_defaults(func=_cmd_triangle)

    p_exp = sub.add_parser("expand", help="expand a named continued fraction")
    p_exp.add_argument("--family", required=True, choices=sorted(contfrac.FAMILIES))
    p_exp.add_argument("--order", required=True, type=int)
    p_exp.add_argument("--set", action="append", metavar="VAR=VALUE")
    p_exp.set_defaults(func=_cmd_expand)

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_ver.add_argument("--n", required=True, type=int)
    p_ver.set_defaults(func=_cmd_verify)

    p_han = sub.add_parser("hankel", help="scan Hankel minors for nonnegativity")
    p_han.add_argument("--family", required=True, choices=sorted(_HANKEL_SEQS))
    p_han.add_argument("--size", required=True, type=int)
    p_han.add_argument("--rmax", type=int, default=None)
    p_han.add_argument("--allow-large", action="store_true")
    p_han.set_defaults(func=_cmd_hankel)

    p_inv = sub.add_parser("invert", help="series inversion of the four-variable family")
    p_inv.add_argument("--order", required=True, type=int)
    p_inv.add_argument("--set", action="append", metavar="VAR=VALUE")
    p_inv.set_defaults(func=_cmd_invert)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, KeyError, OverflowError) as exc:
        print(f"wardcf: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
