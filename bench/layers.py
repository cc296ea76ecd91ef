"""Layers of ``wardcf`` as the traced run sees them, and the per-layer
prediction table.

``GROUPS`` assigns traced functions (``module.qualname``) to metric groups.
A wrapped function outside every group is still traced, under its own name,
and reported by no metric.  A group's ``.calls`` and ``.items`` counters are
read at the group's boundary: a call made from inside a span of the same
group (``expand_S`` calling ``expand_T``, ``enumerate_super`` drawing from
``enumerate_matchings``) is not counted again.  A metric ``<p>.self_s`` sums
the self time of every group named ``<p>`` or ``<p>.<anything>``.

``TABLE`` is the prediction table: for each layer, the end-to-end metric it
should move, on which workload, and the workloads on which each of its
metrics is nonzero.  Every other workload must read exactly 0; the traced
run checks this, so a function the tracer failed to bind shows up as a
zero where the table predicts work.
"""

from __future__ import annotations

from workloads import WORKLOADS

GROUPS: dict[str, tuple[str, ...]] = {
    "cli.run": ("cli.run", "cli.main", "cli.build_parser"),
    "poly.poly_mul": ("poly.Polynomial.__mul__",),
    "poly.poly_add": (
        "poly.Polynomial.__add__", "poly.Polynomial.__sub__", "poly.Polynomial.__rsub__",
        "poly.Polynomial.__neg__", "poly.Polynomial.sum",
    ),
    "poly.var": ("poly.var", "poly.Polynomial.variable"),
    "poly.series_mul": ("poly.Series.__mul__",),
    "poly.reciprocal": ("poly.Series.reciprocal",),
    "poly.compose": ("poly.Series.compose",),
    "poly.inverse": ("poly.Series.compositional_inverse",),
    "poly.format": ("poly.Polynomial.__str__", "poly.Series.__str__"),
    "poly.parse": ("poly.parse_poly", "poly.Polynomial.parse"),
    "poly.substitute": ("poly.Polynomial.substitute",),
    "contfrac.expand": ("contfrac.expand_T", "contfrac.expand_S", "contfrac.expand_J"),
    "matchings.enumerate": (
        "matchings.enumerate_matchings", "matchings.enumerate_super",
        "matchings.enumerate_augmented",
    ),
    "matchings.stat": (
        "matchings.cr", "matchings.ne", "matchings.qne", "matchings.is_record",
        "matchings.is_antirecord", "matchings.crossing_total", "matchings.nesting_total",
        "matchings.clop_count",
    ),
    "matchings.super_weight": ("matchings.super_weight",),
    "matchings.oracle": (
        "matchings.master_poly_T", "matchings.master_poly_S", "matchings.poly_18var",
        "matchings.poly_12var", "matchings.generalized_ward_oracle",
        "matchings.count_augmented", "matchings.count_Mprime",
    ),
    "paths.enumerate": (
        "paths.enumerate_motzkin", "paths.enumerate_dyck", "paths.enumerate_schroeder2",
        "paths.enumerate_labeled_schroeder2",
    ),
    "paths.bijection": (
        "paths.matching_to_path", "paths.path_to_matching", "paths.verify_heights",
        "paths.verify_statistics", "paths.satisfies_bounds",
    ),
    "paths.flajolet": ("paths.flajolet_check", "paths.flajolet_weight", "paths.label_summed_weights"),
    "trees.enumerate": ("trees.enumerate_phylo", "trees.enumerate_partitions_min2"),
    "trees.bijection": (
        "trees.augmented_to_tree", "trees.tree_to_augmented", "trees.arch_system_of",
        "trees.binary_tree_of", "trees.contract_wiggly", "trees.tree_to_binary",
        "trees.binary_to_arch_system", "trees.arch_system_to_matching",
    ),
    "eulerian.enumerate": ("eulerian.enumerate_stirling_perms",),
    "eulerian": (
        "eulerian.descents", "eulerian.eulerian2", "eulerian.eulerian2_by_enumeration",
        "eulerian.eulerian2_triangle", "eulerian.E2_poly", "eulerian.E2_reversed",
        "eulerian.ward_euler_identity", "eulerian.clop_equals_eulerian",
        "eulerian.e2_reversed_tfraction_check",
    ),
    "ward.cf": ("ward.generalized_ward_cf",),
    "ward.invert": (
        "ward.invert_sequence", "ward.invert_generalized_ward",
        "ward.multivariate_ward_via_inversion",
    ),
    "ward.checks": (
        "ward.check_prop_B1", "ward.check_cor_B2", "ward.check_cor_B3", "ward.check_cor_B4",
        "ward.check_closed_form_u_eq_x", "ward.closed_form_u_eq_x",
    ),
    "hankel.section": (
        "hankel.hankel_section", "hankel.ward_sequence", "hankel.generalized_ward_sequence",
        "hankel.e2_reversed_sequence",
    ),
    "hankel.scan": ("hankel.all_minors_nonneg",),
}

GROUP_OF = {fn: group for group, fns in GROUPS.items() for fn in fns}

ALL = WORKLOADS
ENUMERATE = ("enumerate",)

# (layer, end-to-end metric it moves, where it moves (flat where),
#  [(metric, unit, better, workloads on which it is nonzero)])
TABLE = [
    ("wardcf.cli", "wall_s", "all; these show which verb moved", [
        ("cli.expand_s", "s", "lower", ("expand",)),
        ("cli.verify_s", "s", "lower", ("expand", "enumerate", "invert")),
        ("cli.invert_s", "s", "lower", ("invert",)),
        ("cli.hankel_s", "s", "lower", ("hankel",)),
        ("cli.cpu_s", "s", "lower", ALL),
        ("cli.run.self_s", "s", "lower", ALL),
    ]),
    ("wardcf.poly kernel", "wall_s",
     "expand, invert, enumerate (symbolic weights); flat on hankel", [
        ("poly.poly_mul.calls", "count", "lower", ALL),
        ("poly.poly_mul.mono_products", "count", "lower", ALL),
        ("poly.poly_mul.terms_out", "count", "lower", ALL),
        ("poly.poly_mul.self_s", "s", "lower", ALL),
        ("poly.poly_add.calls", "count", "lower", ALL),
        ("poly.poly_add.self_s", "s", "lower", ALL),
        ("poly.var.calls", "count", "lower", ALL),
        ("poly.var.self_s", "s", "lower", ALL),
    ]),
    ("wardcf.poly series", "wall_s",
     "invert (compose), expand (reciprocal); flat on enumerate", [
        ("poly.series_mul.self_s", "s", "lower", ("expand", "invert")),
        ("poly.reciprocal.calls", "count", "lower", ALL),
        ("poly.reciprocal.self_s", "s", "lower", ALL),
        ("poly.compose.calls", "count", "lower", ("invert",)),
        ("poly.compose.self_s", "s", "lower", ("invert",)),
        ("poly.inverse.self_s", "s", "lower", ("invert",)),
    ]),
    ("wardcf.poly text", "wall_s, job_geomean_s", "expand; flat on enumerate, hankel", [
        ("poly.format.self_s", "s", "lower", ("expand", "invert")),
        ("poly.format.bytes", "B", "lower", ("expand", "invert")),
        ("poly.parse.calls", "count", "lower", ("expand", "invert")),
        ("poly.parse.self_s", "s", "lower", ("expand", "invert")),
        ("poly.substitute.self_s", "s", "lower", ("expand", "enumerate", "invert")),
    ]),
    ("wardcf.contfrac", "wall_s",
     "expand; hankel through calls (11 for the gw size-6 job); flat on enumerate", [
        ("contfrac.expand.calls", "count", "lower", ALL),
        ("contfrac.expand.levels", "count", "lower", ALL),
        ("contfrac.expand.terms_out", "count", "lower", ALL),
        ("contfrac.expand.self_s", "s", "lower", ALL),
    ]),
    ("wardcf.matchings", "wall_s", "enumerate; zero on the other three", [
        ("matchings.enumerate.items", "count", "lower", ENUMERATE),
        ("matchings.enumerate.self_s", "s", "lower", ENUMERATE),
        ("matchings.stat.calls", "count", "lower", ENUMERATE),
        ("matchings.stat.self_s", "s", "lower", ENUMERATE),
        ("matchings.super_weight.calls", "count", "lower", ENUMERATE),
        ("matchings.oracle.calls", "count", "lower", ENUMERATE),
        ("matchings.oracle.terms_out", "count", "lower", ENUMERATE),
        ("matchings.oracle.self_s", "s", "lower", ENUMERATE),
        ("matchings.profile_ratio", "ratio", "higher", ENUMERATE),
    ]),
    ("wardcf.paths", "wall_s", "enumerate; zero elsewhere", [
        ("paths.enumerate.items", "count", "lower", ENUMERATE),
        ("paths.enumerate.self_s", "s", "lower", ENUMERATE),
        ("paths.bijection.calls", "count", "lower", ENUMERATE),
        ("paths.bijection.self_s", "s", "lower", ENUMERATE),
        ("paths.flajolet.self_s", "s", "lower", ENUMERATE),
    ]),
    ("wardcf.trees", "wall_s", "enumerate; zero elsewhere", [
        ("trees.enumerate.items", "count", "lower", ENUMERATE),
        ("trees.enumerate.self_s", "s", "lower", ENUMERATE),
        ("trees.bijection.calls", "count", "lower", ENUMERATE),
        ("trees.bijection.self_s", "s", "lower", ENUMERATE),
    ]),
    # No CLI verb enumerates Stirling permutations at this commit: ward-euler
    # counts closer/opener adjacencies over matchings and uses the E2
    # recurrence.  The count is kept so that a change that starts (or stops)
    # enumerating them shows.
    ("wardcf.eulerian", "job_geomean_s", "enumerate, hankel (e2-reversed sequence)", [
        ("eulerian.enumerate.items", "count", "lower", ()),
        ("eulerian.self_s", "s", "lower", ("enumerate", "hankel")),
    ]),
    ("wardcf.ward", "wall_s", "invert; expand (appendixB)", [
        ("ward.cf.calls", "count", "lower", ("expand", "invert", "hankel")),
        ("ward.invert.self_s", "s", "lower", ("invert",)),
        ("ward.checks.self_s", "s", "lower", ("expand", "invert")),
    ]),
    ("wardcf.hankel", "wall_s; rss_growth_mb moves peak_rss_mb", "hankel; zero elsewhere", [
        ("hankel.section.self_s", "s", "lower", ("hankel",)),
        ("hankel.scan.self_s", "s", "lower", ("hankel",)),
        ("hankel.minors_checked", "count", "lower", ("hankel",)),
        ("hankel.scan.rss_growth_mb", "MB", "lower", ("hankel",)),
    ]),
    ("tracer", "-", "all", [
        ("trace.overhead_ratio", "ratio", "lower", ALL),
        ("trace.errors", "count", "lower", ()),
    ]),
]

PER_LAYER = [metric for _, _, _, metrics in TABLE for metric in metrics]


def pattern_violations(workload: str, values: dict[str, float]) -> list[str]:
    """Metrics whose zero/nonzero reading on ``workload`` contradicts TABLE."""
    out = []
    for name, _, _, nonzero_on in PER_LAYER:
        expect = workload in nonzero_on
        if (values[name] != 0) != expect:
            out.append(f"{name} = {values[name]} on {workload}, table predicts "
                       f"{'nonzero' if expect else 'zero'}")
    return out
