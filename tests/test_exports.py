"""The package's exports and import graph: a name deleted from a module must
leave `__all__` too, no module imports a name it never uses, and importing
the package must not load scipy."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import qiprune


def test_every_export_is_listed_once_and_resolves():
    assert [name for name, n in Counter(qiprune.__all__).items() if n > 1] == []
    assert [name for name in qiprune.__all__ if not hasattr(qiprune, name)] == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by import statements anywhere in `tree` that no Name node
    reads and `__all__` does not list."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    src = Path(qiprune.__file__).resolve().parent
    unused = {path.name: _unused_imports(ast.parse(path.read_text())) for path in sorted(src.glob("*.py"))}
    assert {name: found for name, found in unused.items() if found} == {}


def test_unused_import_check_catches_dead_imports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from .circuit import CNOT_MATRIX, run\n"
        "__all__ = ['run']\n"
        "def f():\n"
        "    import scipy.linalg\n"
        "    return np.zeros(1)\n"
    )
    assert _unused_imports(tree) == ["CNOT_MATRIX (line 3)", "os (line 2)", "scipy (line 6)"]


def test_import_loads_numpy_alone_and_verify_imports_scipy_itself():
    # a fresh interpreter: other tests import scipy into this process
    code = (
        "import sys\n"
        "import qiprune, qiprune.cli\n"
        "assert 'scipy.linalg' not in sys.modules, 'import qiprune loaded scipy.linalg'\n"
        "failed = [r.name for r in qiprune.verify.check_all(0) if not r.passed]\n"
        "assert failed == [], failed\n"
        "assert 'scipy.linalg' in sys.modules\n"
    )
    env = dict(os.environ)
    src = str(Path(qiprune.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
