"""The demo that drives the quasilinear solver through the public API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_anisotropic_waves_demo_exits_0(tmp_path):
    # the one demo that reaches advance, transport_step and
    # trace_characteristics as a user would; the other demos stay manual
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "anisotropic_waves.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "angle-dependent speed" in proc.stdout
