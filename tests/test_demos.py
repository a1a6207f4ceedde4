"""Every demo runs through the public API and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# each demo and a line of its last section
_DEMOS = {
    "anisotropic_waves": "local speed at the launch point",
    "potential_gallery": "small-energy check of cE",
    "semilinear_energy": "drift ratios between successive refinements",
    "slow_time_reduction": "fitted order in epsilon",
    "wavebreaking_markers": "alpha(exact)",
}


@pytest.mark.parametrize("demo", sorted(_DEMOS))
def test_demo_exits_0(tmp_path, demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert _DEMOS[demo] in proc.stdout
