import ast
import os

import dgla

PACKAGE_DIR = os.path.dirname(dgla.__file__)


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
    # __init__.py imports names to re-export them
    unused = {}
    for fn in sorted(os.listdir(PACKAGE_DIR)):
        if fn.endswith(".py") and fn != "__init__.py":
            with open(os.path.join(PACKAGE_DIR, fn), encoding="utf-8") as fh:
                found = unused_imports(fh.read())
            if found:
                unused[fn] = found
    assert unused == {}


def read_tree(fn):
    with open(os.path.join(PACKAGE_DIR, fn), encoding="utf-8") as fh:
        return ast.parse(fh.read())


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
    sources = [fn for fn in sorted(os.listdir(PACKAGE_DIR)) if fn.endswith(".py")]
    users = [fn for fn in sources if imports_gcd(read_tree(fn))]
    assert users == ["linalg.py", "report.py"]


def test_kernels_touch_no_fraction():
    nodes = list(ast.walk(read_tree("_kernels.py")))
    modules = {node.module for node in nodes if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in nodes if isinstance(node, ast.Import)
                for alias in node.names}
    attrs = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    assert "fractions" not in modules
    assert not attrs & {"numerator", "denominator"}
