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
