"""Run one ``wardcf`` CLI job with the package traced from the outside.

    cd src && python <bench>/tracer.py OUT JOB_ID -- <wardcf arguments>

Before the job starts, every public function and method of every
``wardcf`` module is replaced by a wrapper that records a span (name,
start, end, parent span) and the counters of its layer (see ``layers``).
The replacement is rebound wherever the package holds a reference to the
original: module globals (so ``from .poly import parse_poly`` aliases),
class attributes (so operator aliases such as ``__radd__ = __add__``) and
module-level dicts of functions.  A generator function's wrapper records
one span per ``next()`` and counts the items it yields.

Spans stay in memory until the job exits; then OUT.json gets the span name
table, the counters and the error count, and OUT.bin the span arrays (see
``load``).  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time
from array import array
from collections import Counter
from itertools import combinations
from math import comb

import layers

MODULES = ("poly", "contfrac", "matchings", "paths", "trees", "eulerian", "ward", "hankel", "cli")

# Value types whose methods are O(1) accessors called millions of times per
# job from inside the enumeration and kernel layers (is_opener, Monomial
# products, VarId ordering).  They are not wrapped: their time stays in the
# self time of the traced caller.
UNTRACED_CLASSES = {"poly.VarId", "poly.Monomial", "matchings.PerfectMatching",
                    "matchings.SuperMatching"}

# Operator methods that are traced where a traced class defines them.
OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__neg__", "__pow__", "__str__"}

SPAN_ARRAYS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"))


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _terms(result) -> int:
    return len(result.terms) if hasattr(result, "terms") else int(bool(result))


def _minors_checked(args, result) -> int:
    """Minors the scan examined: all r x r pairs for r <= r_max, or those up
    to and including the counterexample, in the scan's order."""
    h, r_max = args[0], args[1]
    ok, counterexample = result
    if ok:
        return sum(comb(h.m, r) ** 2 for r in range(1, r_max + 1))
    rows, cols, _ = counterexample
    r = len(rows)
    subsets = list(combinations(range(h.m), r))
    before = sum(comb(h.m, k) ** 2 for k in range(1, r))
    return before + subsets.index(rows) * len(subsets) + subsets.index(cols) + 1


def _count_mul(args, kwargs, result, c, token):
    other = args[1]
    c["poly.poly_mul.mono_products"] += len(args[0].terms) * _terms(other)
    if result is not NotImplemented:
        c["poly.poly_mul.terms_out"] += len(result.terms)


def _count_format(args, kwargs, result, c, token):
    c["poly.format.bytes"] += len(result)


def _count_expand(fn):
    signature = inspect.signature(fn)

    def count(args, kwargs, result, c, token):
        bound = signature.bind(*args, **kwargs).arguments
        depth = bound.get("depth")
        c["contfrac.expand.levels"] += bound["order"] + 1 if depth is None else depth
        c["contfrac.expand.terms_out"] += sum(len(p.terms) for p in result.coeffs)

    return count


def _count_oracle(args, kwargs, result, c, token):
    c["matchings.oracle.terms_out"] += _terms(result)


def _count_scan(args, kwargs, result, c, rss_before):
    c["hankel.minors_checked"] += _minors_checked(args, result)
    # ru_maxrss is a high-water mark: growth past the peak before the call
    c["hankel.scan.rss_growth_mb"] += _maxrss_mb() - rss_before


def _hooks(name: str, fn):
    """Extra counters read at the boundary of ``name``: (before, after).
    ``before()`` runs before the call; its result is ``after``'s token."""
    if name == "poly.Polynomial.__mul__":
        return None, _count_mul
    if layers.GROUP_OF.get(name) == "poly.format":
        return None, _count_format
    if layers.GROUP_OF.get(name) == "contfrac.expand":
        return None, _count_expand(fn)
    if layers.GROUP_OF.get(name) == "matchings.oracle":
        return None, _count_oracle
    if name == "hankel.all_minors_nonneg":
        return _maxrss_mb, _count_scan
    return None, None


class Tracer:
    """Span and counter store for one job, plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = {key: array(code) for key, code in SPAN_ARRAYS}
        self.stack = [-1]
        self.depth: Counter = Counter()
        self.counters: Counter = Counter()
        self.errors = 0
        self.wrapped: dict = {}

    def wrap(self, fn, name: str):
        """The traced replacement for ``fn``, one per original function."""
        if fn in self.wrapped:
            return self.wrapped[fn]
        nid = len(self.names)
        self.names.append(name)
        group = layers.GROUP_OF.get(name, name)
        before, after = _hooks(name, fn)
        names, parents = self.spans["name"], self.spans["parent"]
        starts, ends = self.spans["start"], self.spans["end"]
        stack, depth, counters = self.stack, self.depth, self.counters
        clock = time.perf_counter
        tracer = self

        def enter() -> int:
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            depth[group] += 1
            starts.append(clock())
            return idx

        def leave(idx: int) -> None:
            ends[idx] = clock()
            stack.pop()
            depth[group] -= 1

        if inspect.isgeneratorfunction(fn):
            items = f"{group}.items"

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        outer = not depth[group]
                        idx = enter()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        except BaseException:
                            tracer.errors += 1
                            raise
                        finally:
                            leave(idx)
                        if outer:
                            counters[items] += 1
                        yield item
                finally:
                    it.close()
        else:
            calls = f"{group}.calls"

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                outer = not depth[group]
                token = before() if before is not None and outer else None
                idx = enter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    tracer.errors += 1
                    raise
                finally:
                    leave(idx)
                if outer:
                    counters[calls] += 1
                    if after is not None:
                        after(args, kwargs, result, counters, token)
                return result

        self.wrapped[fn] = traced
        return traced

    def install(self) -> None:
        """Wrap the public functions and methods of every ``wardcf`` module
        and rebind every reference the package holds to an original."""
        modules = [importlib.import_module(f"wardcf.{m}") for m in MODULES]
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if f"{short}.{obj.__qualname__}" not in UNTRACED_CLASSES:
                        self._wrap_class(obj, short)
                elif _is_function(obj):
                    self.wrap(obj, f"{short}.{obj.__qualname__}")
        for mod in modules + [importlib.import_module("wardcf")]:
            for attr, obj in list(vars(mod).items()):
                if _is_function(obj) and obj in self.wrapped:
                    setattr(mod, attr, self.wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if _is_function(value) and value in self.wrapped:
                            obj[key] = self.wrapped[value]

    def _wrap_class(self, cls, short: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            if not inspect.isfunction(fn):
                continue
            traced = self.wrap(fn, f"{short}.{fn.__qualname__}")
            setattr(cls, attr, kind(traced) if kind else traced)

    def write(self, out: str, job: str) -> None:
        header = {
            "job": job,
            "names": self.names,
            "groups": [layers.GROUP_OF.get(n, n) for n in self.names],
            "counters": dict(self.counters),
            "errors": self.errors,
            "spans": len(self.spans["name"]),
        }
        with open(out + ".bin", "wb") as f:
            for key, _ in SPAN_ARRAYS:
                self.spans[key].tofile(f)
        with open(out + ".json", "w") as f:
            json.dump(header, f)


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def load(out: str) -> tuple[dict, dict[str, array]]:
    """Read back what ``Tracer.write`` wrote: the header and the span arrays."""
    with open(out + ".json") as f:
        header = json.load(f)
    spans = {}
    with open(out + ".bin", "rb") as f:
        for key, code in SPAN_ARRAYS:
            spans[key] = array(code)
            spans[key].fromfile(f, header["spans"])
    return header, spans


def self_times(header: dict, spans: dict[str, array]) -> Counter:
    """Self time per group: each span's duration minus its children's."""
    start, end, parent, name = spans["start"], spans["end"], spans["parent"], spans["name"]
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    groups = header["groups"]
    out: Counter = Counter()
    for i in range(n):
        out[groups[name[i]]] += end[i] - start[i] - child[i]
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py OUT JOB_ID -- <wardcf arguments>", file=sys.stderr)
        return 2
    out, job, cli_args = argv[0], argv[1], argv[3:]
    sys.path.insert(0, os.getcwd())
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("wardcf.cli")
    code = cli.run(cli_args)
    sys.stdout.flush()
    tracer.write(out, job)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
