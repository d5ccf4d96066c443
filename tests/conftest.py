"""Shared pytest set-up."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    # pyproject's pythonpath reaches this interpreter only; the tests that
    # run `python -m modnopo.cli` in a subprocess need it in the environment.
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if SRC not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, paths)])
