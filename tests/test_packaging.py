import ast
import os
import re

import dgla

PACKAGE_DIR = os.path.dirname(dgla.__file__)
REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_package_holds_only_python_sources():
    # Generated or compiled artefacts (.pyx, .c, .so, logs) stay out of
    # src/dgla: there is one kernel implementation, _kernels.py.
    stray = []
    for dirpath, dirnames, filenames in os.walk(PACKAGE_DIR):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for fn in filenames:
            if not fn.endswith(".py"):
                stray.append(os.path.relpath(os.path.join(dirpath, fn),
                                             PACKAGE_DIR))
    assert stray == []
    assert os.path.isfile(os.path.join(PACKAGE_DIR, "_kernels.py"))


def test_public_names_resolve():
    assert len(dgla.__all__) == len(set(dgla.__all__))
    missing = [name for name in dgla.__all__ if not hasattr(dgla, name)]
    assert missing == []


def unused_imports(source):
    """The names a module imports and never reads (from __future__ aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_caught():
    source = "import os\nfrom math import gcd, lcm\nfrom x import y as z\nlcm(os.sep)\n"
    assert unused_imports(source) == [(2, "gcd"), (3, "z")]


def test_modules_use_every_name_they_import():
    # src/dgla, the tests and the benchmark harness; the package's
    # __init__.py imports names to re-export them
    unused = {}
    for directory in (PACKAGE_DIR, os.path.join(REPO_DIR, "tests"),
                      os.path.join(REPO_DIR, "perfbench")):
        for fn in sorted(os.listdir(directory)):
            path = os.path.join(directory, fn)
            if fn.endswith(".py") and path != os.path.join(PACKAGE_DIR, "__init__.py"):
                with open(path, encoding="utf-8") as fh:
                    found = unused_imports(fh.read())
                if found:
                    unused[os.path.relpath(path, REPO_DIR)] = found
    assert unused == {}


def read_tree(fn):
    with open(os.path.join(PACKAGE_DIR, fn), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def package_sources():
    return [fn for fn in sorted(os.listdir(PACKAGE_DIR)) if fn.endswith(".py")]


def imports_gcd(tree):
    """Whether a module takes gcd from math: from math import gcd (under
    any name), or math.gcd read off an imported math."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "math" \
                and any(alias.name == "gcd" for alias in node.names):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "gcd" \
                and isinstance(node.value, ast.Name) and node.value.id == "math":
            return True
    return False


def test_gcd_imports_are_caught():
    assert imports_gcd(ast.parse("from math import lcm, gcd as g\n"))
    assert imports_gcd(ast.parse("import math\nmath.gcd(4, 6)\n"))
    assert not imports_gcd(ast.parse("from math import lcm\nfrom .linalg import gcd\n"))


def test_only_linalg_and_report_reduce_with_gcd():
    # linalg owns the integer form (scaled, lowest, common_factor); report
    # keeps one gcd of its own to render p/q without building a Fraction
    users = [fn for fn in package_sources() if imports_gcd(read_tree(fn))]
    assert users == ["linalg.py", "report.py"]


def test_kernels_touch_no_fraction():
    nodes = list(ast.walk(read_tree("_kernels.py")))
    modules = {node.module for node in nodes if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in nodes if isinstance(node, ast.Import)
                for alias in node.names}
    attrs = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    assert "fractions" not in modules
    assert not attrs & {"numerator", "denominator"}


def names_read(tree):
    """The names and attribute names a module reads, leaving out each read
    inside the def or class of the same name: a function's recursive call
    or a class naming itself does not make it used."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in enclosing:
                found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in enclosing:
                found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_unread_names_are_caught():
    source = ("def f(n):\n    return f(n - 1) + g(n)\n"
              "class C:\n    x = C.y\n"
              "h.k = y\n")
    assert names_read(ast.parse(source)) == {"n", "g", "h", "y"}


def names_read_outside_the_tests():
    """The names read in src/dgla (the re-exports of __init__.py aside) and
    by the benchmark harness, each outside its own def (names_read)."""
    read = set()
    for fn in package_sources():
        if fn != "__init__.py":
            read |= names_read(read_tree(fn))
    bench = os.path.join(REPO_DIR, "perfbench")
    for fn in sorted(os.listdir(bench)):
        if fn.endswith(".py"):
            with open(os.path.join(bench, fn), encoding="utf-8") as fh:
                read |= names_read(ast.parse(fh.read()))
    return read


def top_level_definitions(tree):
    """The functions and classes a module defines at its top level."""
    return [node.name for node in tree.body if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def test_top_level_definitions_are_found():
    source = ("def f():\n    def g():\n        pass\n"
              "class C:\n    def m(self):\n        pass\n"
              "async def h():\n    pass\n"
              "x = 1\n")
    assert top_level_definitions(ast.parse(source)) == ["f", "C", "h"]


def test_every_top_level_definition_has_a_caller_outside_the_tests():
    # a function or class at the top level of a src/dgla module is read
    # somewhere in the package outside its own def or by the benchmark
    # harness, so no kernel entry or helper exists only for the tests
    read = names_read_outside_the_tests()
    unread = [(fn, name) for fn in package_sources()
              for name in top_level_definitions(read_tree(fn)) if name not in read]
    assert unread == []


def test_every_public_name_has_a_caller_outside_the_tests():
    # a name dgla exports is read somewhere in the package outside its own
    # def (the re-exports of __init__.py aside), by the benchmark harness,
    # or in the README; API that only the tests reach does not ship
    read = names_read_outside_the_tests()
    with open(os.path.join(REPO_DIR, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    unread = [name for name in dgla.__all__ if name not in read
              and not re.search(r"\b%s\b" % re.escape(name), readme)]
    assert unread == []


# What tests/reference.py may take from dgla: types to build and compare
# results with, and constants.  Every rank, span membership and matrix
# product of the oracle is its own Fraction arithmetic, never the code it
# cross-checks.
REFERENCE_IMPORTS = {"FormalElement", "ONE", "ValidationIssue", "ValidationReport", "ZERO"}


def test_reference_oracle_imports_only_types_and_constants():
    with open(os.path.join(REPO_DIR, "tests", "reference.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dgla":
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names
                         if alias.name.split(".")[0] == "dgla"}
    assert imported == REFERENCE_IMPORTS
