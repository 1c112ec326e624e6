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
