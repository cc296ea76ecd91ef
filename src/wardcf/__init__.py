"""Exact combinatorics of Ward-type polynomial families.

Continued-fraction expansion, perfect-matching and lattice-path
enumeration, phylogenetic-tree bijections, second-order Eulerian numbers,
series inversion, and coefficientwise Hankel total positivity checks,
all over exact rational arithmetic.
"""

from .contfrac import JCoeffs, TCoeffs, expand_J, expand_S, expand_T, named_family
from .matchings import (
    IndexedWeights,
    PerfectMatching,
    SuperMatching,
    enumerate_matchings,
    enumerate_super,
    master_poly_T,
)
from .poly import Fraction, Monomial, Polynomial, Series, VarId, parse_poly, var
from .ward import generalized_ward_cf, invert_sequence, ward_poly, ward_triangle

__all__ = [
    "Fraction",
    "IndexedWeights",
    "JCoeffs",
    "Monomial",
    "PerfectMatching",
    "Polynomial",
    "Series",
    "SuperMatching",
    "TCoeffs",
    "VarId",
    "enumerate_matchings",
    "enumerate_super",
    "expand_J",
    "expand_S",
    "expand_T",
    "generalized_ward_cf",
    "invert_sequence",
    "master_poly_T",
    "named_family",
    "parse_poly",
    "var",
    "ward_poly",
    "ward_triangle",
]
