"""The narrative scripts in demos/ run to the end and print their story.

Each demo runs in its own interpreter, as a reader would run it.  Left
out: qsd_threshold.py, which takes about 13 s; the state-diffusion run at
threshold it narrates is the one criterion 8 of the acceptance suite
already checks (tests/test_acceptance.py).
"""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
RUN = ["entanglement_criteria", "modulation_sweep", "photon_number_orbits",
       "stochastic_validation", "variance_minima"]


def test_every_demo_is_listed():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(RUN + ["qsd_threshold"])


@pytest.mark.parametrize("name", RUN)
def test_demo_runs(tmp_path, name):
    res = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
    assert not list(tmp_path.iterdir())
