"""The package's import graph, read from the source with ``ast``.

Every ``wardcf`` module imports at its top level only, so the graph below is
the whole of it; ``matchings`` states the counting side of the identities and
imports nothing of the package but ``poly``; and the graph has no cycle.
"""

import ast
from pathlib import Path

import wardcf

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
