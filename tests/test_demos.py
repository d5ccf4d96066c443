"""The narrative scripts in demos/ and README's Python examples run to the end.

Each demo runs in its own interpreter, as a reader would run it.  Left
out: qsd_threshold.py, which takes about 13 s; the state-diffusion run at
threshold it narrates is the one criterion 8 of the acceptance suite
already checks (tests/test_acceptance.py).
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
README_PYTHON = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
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


def test_readme_has_python_examples():
    assert README_PYTHON


@pytest.mark.parametrize("block", range(len(README_PYTHON)))
def test_readme_python_example_runs(tmp_path, block):
    res = subprocess.run([sys.executable, "-c", README_PYTHON[block]], cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert not list(tmp_path.iterdir())
