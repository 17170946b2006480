"""The package's exports and import graph: a name deleted from a module must
leave `__all__` too, and importing the package must not load scipy."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import qiprune


def test_every_export_is_listed_once_and_resolves():
    assert [name for name, n in Counter(qiprune.__all__).items() if n > 1] == []
    assert [name for name in qiprune.__all__ if not hasattr(qiprune, name)] == []


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
