"""Every demo runs end to end as a script; demos 03 and 04 train a baseline
(adjoint gradients) and take a few seconds each."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script",
    [
        "01_deformed_algebra.py",
        "02_overlap_geometry.py",
        "03_prune_bas_classifier.py",
        "04_prune_tfim_vqe.py",
        "05_verification_suite.py",
    ],
)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
