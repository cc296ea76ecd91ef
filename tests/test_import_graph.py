"""The package's import graph, read from the source with ``ast``.

Every ``wardcf`` module imports at its top level only, so the graph below is
the whole of it; ``matchings`` states the counting side of the identities and
imports nothing of the package but ``poly``; and the graph has no cycle.
Importing ``wardcf.cli``, which every command-line run pays, pulls in
neither ``dataclasses`` nor ``inspect``: the value types are NamedTuples,
and they stay immutable.  Every function and class the package defines is
used somewhere in the repository, and all but an allow-list of them are
reached from the command line, from import time or from a demo.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wardcf
from wardcf import contfrac, hankel, matchings, paths, trees
from wardcf.poly import Polynomial

SRC = Path(wardcf.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def tree(module):
    return ast.parse((SRC / f"{module}.py").read_text(), f"{module}.py")


def package_imports(node):
    """The ``wardcf`` modules an import statement names, relative or not."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = ".".join(filter(None, ["wardcf" if node.level else "", node.module]))
        names = [f"{base}.{a.name}" for a in node.names] if base == "wardcf" else [base]
    else:
        return set()
    return {name.split(".")[1] for name in names if name.startswith("wardcf.")}


def graph():
    return {
        m: set().union(*(package_imports(n) for n in ast.walk(tree(m))))
        for m in MODULES
    }


def test_sources_parse_as_python_3_10():
    # pyproject.toml states requires-python >= 3.10.
    for p in sorted(p for t in ("src", "tests", "demos") for p in (ROOT / t).rglob("*.py")):
        ast.parse(p.read_text(), str(p), feature_version=(3, 10))


def test_no_import_inside_a_function():
    found = []
    for m in MODULES:
        for fn in ast.walk(tree(m)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{m}.py:{n.lineno} in {fn.name}"
                    for n in ast.walk(fn)
                    if isinstance(n, (ast.Import, ast.ImportFrom))
                ]
    assert not found, found


def test_matchings_imports_only_poly():
    assert graph()["matchings"] == {"poly"}


def test_package_imports_are_acyclic():
    edges = graph()
    assert set().union(*edges.values()) <= set(MODULES)
    done, path = set(), []

    def visit(m):
        assert m not in path, " -> ".join(path[path.index(m):] + [m])
        if m in done:
            return
        path.append(m)
        for dep in sorted(edges[m]):
            visit(dep)
        path.pop()
        done.add(m)

    for m in MODULES:
        visit(m)


# -- what importing the CLI costs -------------------------------------------------------

IMPORT_CLI = """
import sys
start = set(sys.modules)
import wardcf.cli
print(" ".join(sorted(set(sys.modules) - start)))
"""


def test_cli_import_adds_neither_dataclasses_nor_inspect():
    # A fresh interpreter, compared with its own start-up set of modules.
    done = subprocess.run([sys.executable, "-c", IMPORT_CLI], cwd=SRC.parent,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "wardcf.cli" in added
    assert not added & {"dataclasses", "inspect"}


def _one(*_):
    return Polynomial.one()


VALUES = {
    "JCoeffs": (contfrac.JCoeffs(_one, _one), "gamma"),
    "TCoeffs": (contfrac.TCoeffs(_one, _one), "delta"),
    "IndexedWeights": (matchings.IndexedWeights.symbolic(), "a"),
    "FlajoletWeights": (paths.FlajoletWeights(_one, _one, _one), "level2"),
    "ArchSystem": (trees.ArchSystem(1, ()), "arches"),
    "BinNode": (trees.BinNode(1, 2), "right_wiggly"),
    "HankelSection": (hankel.hankel_section(_one, 2), "moments"),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_types_reject_field_assignment(name):
    value, field = VALUES[name]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    assert getattr(value, field) is before


# -- dead code ----------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "demos", "bench")
_DOTTED = r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*"


def references(node):
    """The names a module uses: names, attributes, imported names, and the
    parts of every string that is a (dotted) identifier, as a tracer's
    ``"poly.Polynomial.__mul__"`` or a ``monkeypatch.setattr`` target."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield from n.name.split(".")
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            if re.fullmatch(_DOTTED, n.value):
                yield from n.value.split(".")


def test_every_definition_is_referenced():
    sources = [p for t in TREES for p in sorted((ROOT / t).rglob("*.py"))]
    used = set()
    for p in sources:
        used.update(references(ast.parse(p.read_text(), str(p))))
    defined = {
        f"{p.relative_to(ROOT)}:{n.lineno} {n.name}"
        for p in sorted((ROOT / "src" / "wardcf").glob("*.py"))
        for n in ast.walk(ast.parse(p.read_text(), str(p)))
        if is_def(n) and not is_dunder(n.name) and n.name not in used
    }
    assert not defined, sorted(defined)


# -- reachability -------------------------------------------------------------------------

# Definitions in src that neither a command-line run nor a demo reaches, each
# kept for a reason.  The list is exact: a name that becomes reached, or stops
# being defined, fails the test as surely as a new unreached one.
UNREACHED = {
    "matchings.parse_matching": "text round trip of format_matching",
    "paths.parse_path": "text round trip of format_path",
    "trees.parse_tree": "text round trip of serialize_tree",
    "trees.multivariate_ward": "tree side of a multivariate-ward suite, against "
                               "ward.multivariate_ward_via_inversion",
    "eulerian.enumerate_stirling_perms": "E2 by descents of Stirling permutations, "
                                         "a second side for ward-euler",
    "eulerian.descents": "E2 by descents of Stirling permutations",
    "eulerian.eulerian2_by_enumeration": "E2 by descents of Stirling permutations",
}


def used_names(nodes):
    """The names and attribute names that nodes use.  String constants are
    not followed: a parser choice such as ``"eulerian2"`` runs nothing."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for node in nodes
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def header(node):
    """What a def or class statement evaluates when it runs: decorators,
    default values and base classes (annotations are not evaluated)."""
    if isinstance(node, ast.ClassDef):
        return node.decorator_list + node.bases + node.keywords
    return node.decorator_list + node.args.defaults + [d for d in node.args.kw_defaults if d]


def is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def unreached_definitions():
    """Module-level functions, classes and methods of src that no root
    reaches by name.  The roots are ``cli.main``, every statement that runs
    when a module is imported and every name a demo uses.  A reached
    definition reaches the names in its body, a reached class its dunder
    methods, and a name reaches every definition of that name."""
    defs, by_name, roots = {}, {}, {"main"}
    for p in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(p.read_text(), str(p)).body:
            if not is_def(stmt):
                roots |= used_names([stmt])
                continue
            members = {f"{p.stem}.{stmt.name}": stmt}
            if isinstance(stmt, ast.ClassDef):
                roots |= used_names(s for s in stmt.body if not is_def(s))
                members.update((f"{p.stem}.{stmt.name}.{s.name}", s)
                               for s in stmt.body if is_def(s))
            for qualname, node in members.items():
                roots |= used_names(header(node))
                defs[qualname] = node
                by_name.setdefault(node.name, set()).add(qualname)
    for p in sorted((ROOT / "demos").glob("*.py")):
        roots |= used_names([ast.parse(p.read_text(), str(p))])

    reached, todo = set(), list(roots)
    while todo:
        for qualname in by_name.get(todo.pop(), set()) - reached:
            reached.add(qualname)
            body = defs[qualname].body
            if isinstance(defs[qualname], ast.ClassDef):
                # Its other statements ran at import.  Dunder methods run
                # implicitly; the other methods are reached by name.
                body = [s for s in body if is_def(s) and is_dunder(s.name)]
            todo += used_names(body)
    return {q for q, node in defs.items() if q not in reached and not is_dunder(node.name)}


def test_src_holds_only_what_a_verb_or_demo_runs():
    unreached = unreached_definitions()
    assert unreached - set(UNREACHED) == set(), "reached by no verb or demo"
    assert set(UNREACHED) - unreached == set(), "allow-listed but reached or gone"
