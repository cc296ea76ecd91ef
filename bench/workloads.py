"""The benchmark's workloads: fixed lists of ``wardcf`` CLI jobs.

A job is the argument list of one ``python -m wardcf.cli`` run.  The seed
chooses the order of the jobs and the one-digit rationals p/q used in the
``--set`` bindings; the oracle's evaluation point is derived from the same
seed (see ``oracle.point``).  The job lists themselves are fixed, so every
seed does the same mathematical work up to those rationals.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Why each workload exists; BENCHMARK.json carries the same reasons.
WHY = {
    "expand": "contfrac and the integer poly kernel: T/J-fraction expansion, reciprocals"
    " and canonical formatting of large outputs; matchings and hankel idle",
    "enumerate": "verify suites that enumerate decorated matchings, Schroeder paths and"
    " phylogenetic trees and multiply symbolic weights in poly; contfrac about 1%",
    "invert": "series compose and compositional inverse with Fraction coefficients"
    " (factorial denominators): the poly kernel used on rationals",
    "hankel": "all-minors Hankel scans: packed-key minor cache and its memory, with"
    " 2m-1 fraction expansions per section; poly about 10%",
}

WORKLOADS = tuple(WHY)


def set_value(rng: random.Random) -> Fraction:
    """A one-digit positive rational p/q with q > 1, for a ``--set`` binding."""
    return Fraction(rng.randint(1, 9), rng.randint(2, 9))


def _text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else str(value)


def jobs(workload: str, seed: int) -> list[list[str]]:
    """The argument lists of one pass over ``workload``, in seeded order."""
    rng = random.Random(f"wardcf-bench:{workload}:{seed}")
    if workload == "expand":
        w = _text(set_value(rng))
        out = [
            ["expand", "--family", "master-T", "--order", "6"],
            ["expand", "--family", "generalized-ward", "--order", "12", "--set", f"w={w}"],
            ["expand", "--family", "ward", "--order", "30"],
            ["expand", "--family", "eulerian2-reversed", "--order", "30"],
            ["verify", "--suite", "contraction", "--n", "20"],
            ["verify", "--suite", "euler-identity", "--n", "20"],
            ["verify", "--suite", "appendixB", "--n", "10"],
        ]
    elif workload == "enumerate":
        sizes = [
            ("thm2.1", 5), ("cor2.3", 5), ("thm1.1", 6), ("thm1.2", 5),
            ("bijection-schroeder", 5), ("lemma4.2", 5), ("bijection-phylo", 5),
            ("ward-euler", 6), ("flajolet", 5),
        ]
        out = [["verify", "--suite", s, "--n", str(n)] for s, n in sizes]
    elif workload == "invert":
        z = _text(set_value(rng))
        out = [
            ["invert", "--order", "7"],
            ["invert", "--order", "6", "--set", f"z={z}"],
            ["invert", "--order", "8", "--set", "u=x"],
            ["verify", "--suite", "closed-form-ux", "--n", "8"],
        ]
    elif workload == "hankel":
        out = [
            ["hankel", "--family", "generalized-ward", "--size", "6"],
            ["hankel", "--family", "generalized-ward", "--size", "5"],
            ["hankel", "--family", "ward", "--size", "8", "--allow-large"],
            ["hankel", "--family", "eulerian2-reversed", "--size", "8", "--allow-large"],
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(out)
    return out
