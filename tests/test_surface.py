"""Every top-level name of the package has a caller outside the tests.

A name N defined in module M counts as used when some module imports N
from M, when some code reads an attribute ``.N``, or when M reads N
outside N's own definition.  The code searched is the package, the
README's library example and the benchmark's scripts in ``bench/``; a
test is not a caller.  Python's own scope analysis (``symtable``) tells a
read of M's N from a read of a local variable that shares its name.  Code
that only a test needs lives in ``tests/``, as an oracle.
"""

import ast
import re
import symtable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = {p.stem: p.read_text(encoding="utf-8") for p in sorted((ROOT / "src" / "minksmooth").glob("*.py"))}

# Names only the benchmark tracer wraps, by its string table: each stays
# until that table drops it
TRACED_ONLY = {("polytope", "lattice_points"), ("ratpoly", "bgcd")}


def _callers():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^## Library\n.*?^```python\n(.*?)^```", readme, re.M | re.S)
    bench = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py"))]
    return [ast.parse(source) for source in [*SOURCES.values(), example, *bench]]


def _names(source):
    """The names a module defines at its top level, other than by import,
    and those it reads at its top level or as globals inside any top-level
    definition but their own."""

    def reads(table):
        names = {s.get_name() for s in table.get_symbols() if s.is_referenced() and s.is_global()}
        return names.union(*map(reads, table.get_children()))

    # without the future import annotations count as reads: a type alias
    # that only annotations name is still read
    module = symtable.symtable(source.replace("from __future__ import annotations", ""), "module", "exec")
    symbols = module.get_symbols()
    defined = {s.get_name() for s in symbols if s.is_assigned() and not s.is_imported()}
    used = {s.get_name() for s in symbols if s.is_referenced()}
    return defined, used.union(*(reads(child) - {child.get_name()} for child in module.get_children()))


def unused_names():
    callers = _callers()
    attributes = {n.attr for tree in callers for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    imports = [n for tree in callers for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    unused = []
    for module, source in SOURCES.items():
        imported = {
            alias.name
            for n in imports
            if n.module == f"minksmooth.{module}" or (n.level == 1 and n.module == module)
            for alias in n.names
        }
        defined, used = _names(source)
        unused += [(module, name) for name in defined - used - imported - attributes]
    return sorted(unused)


def test_every_top_level_name_has_a_caller_outside_the_tests():
    assert len(SOURCES) > 1
    assert unused_names() == sorted(TRACED_ONLY)


def test_traced_only_names_are_still_traced():
    tracing = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    (table,) = [n.value for n in tracing.body if isinstance(n, ast.Assign) and n.targets[0].id == "TARGETS"]
    assert TRACED_ONLY <= {(row.elts[0].value, row.elts[1].value) for row in table.elts}


def test_a_local_variable_is_not_a_caller():
    # a local det, in a function or a comprehension, is not the module's
    # det, and neither is the recursive call in det's own body
    local = "def det(m):\n    return det(m[1:])\n\ndef area(v, u):\n    det = v[0] * u[1]\n    return det\n"
    assert _names(local) == ({"det", "area"}, set())
    assert _names(local + "\nareas = [det for det in (1, 2)]\n")[1] == set()
    assert _names(local + "\nclass C:\n    def f(self):\n        return [det(v) for v in ()]\n")[1] == {"det"}


def test_no_module_imports_sympy():
    # the planar elimination runs on zpoly's integer kernel; sympy is a
    # test oracle only, so no import of it, at the top or in a function.
    # Its polynomials are integer lists, a gcd over Q[x]/(f) integer rows
    # over one denominator, so no module imports fractions either
    for module, source in SOURCES.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] in ("sympy", "fractions")], module


def _package_imports():
    """Each import of one package module by another, at the top or inside a
    function: (importer, imported, inside a function)."""
    edges = []
    for module, source in SOURCES.items():
        tree = ast.parse(source)
        functions = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
        nested = {id(n) for f in functions for n in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module.split(".")[0]] if node.module else [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("minksmooth"):
                parts = node.module.split(".")
                targets = [parts[1]] if len(parts) > 1 else [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                targets = [a.name.split(".")[1] for a in node.names if a.name.startswith("minksmooth.")]
            else:
                continue
            edges += [(module, target, id(node) in nested) for target in targets]
    return edges


def test_package_imports_run_one_way():
    # every module imports only modules below it, at the top or inside a
    # function, so the graph of imports has no cycle
    below = {module: set() for module in SOURCES}
    for module, target, _ in _package_imports():
        assert target in SOURCES, (module, target)
        below[module].add(target)
    order = []
    while below:
        ready = sorted(m for m, targets in below.items() if targets <= set(order))
        assert ready, f"import cycle among {sorted(below)}"
        order += ready
        for m in ready:
            del below[m]


def test_numeric_imports_no_module_of_the_package():
    # the search takes W, the witnesses take integer lists: numeric needs
    # numpy and nothing of the package
    assert [edge for edge in _package_imports() if edge[0] == "numeric"] == []


def test_imports_inside_functions_are_only_the_deferred_ones():
    # cli loads potential only for its command, pipeline the modules only
    # analyze runs, and numpy's module loads only where points are computed
    deferred = {(module, target) for module, target, inside in _package_imports() if inside}
    assert deferred == {
        ("cli", "potential"),
        ("pipeline", "fibration"),
        ("pipeline", "potential"),
        ("pipeline", "smoothing"),
        ("pipeline", "numeric"),
        ("potential", "numeric"),
    }
