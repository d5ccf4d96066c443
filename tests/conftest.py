"""Shared pytest set-up."""

import os
import pkgutil
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
PACKAGE = "modnopo"


def _extend(name: str, sep: str, entries: list) -> None:
    """Add the entries missing from the environment list name, first."""
    have = os.environ.get(name, "").split(sep)
    os.environ[name] = sep.join([*(e for e in entries if e not in have), *filter(None, have)])


def pytest_configure(config):
    # pyproject's pythonpath reaches this interpreter only; the tests that
    # run `python -m modnopo.cli` in a subprocess need it in the environment.
    _extend("PYTHONPATH", os.pathsep, [SRC])
    # So does its RuntimeWarning filter.  A -W entry matches a whole module
    # name, so there is one per module of the package, and one for __main__,
    # the name the cli module runs under with `python -m`.
    modules = [PACKAGE, "__main__", *(f"{PACKAGE}.{m.name}" for m in
                                      pkgutil.iter_modules([str(Path(SRC) / PACKAGE)]))]
    _extend("PYTHONWARNINGS", ",", [f"error::RuntimeWarning:{m}" for m in modules])
