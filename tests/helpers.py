"""Helpers shared by several test modules: digests, float bits, a pump table."""

import hashlib
import math

import numpy as np

from modnopo import ModelParams, TabulatedPeriodic


def sha256(items) -> str:
    """sha256 over (name, value) pairs: each name, then an array's bytes or
    any other value's repr."""
    h = hashlib.sha256()
    for name, val in items:
        h.update(name.encode())
        h.update(np.ascontiguousarray(val).tobytes() if isinstance(val, np.ndarray)
                 else repr(val).encode())
    return h.hexdigest()


def bits(values) -> np.ndarray:
    """The float64 bit patterns of values, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.uint64)


def tabulated_pump() -> ModelParams:
    """A two-harmonic tabulated pump at 1.6 times threshold."""
    x = np.arange(128) * (2.0 * math.pi / 128)
    f_th = 25.0 / 5e-4
    samples = f_th * (1.6 + 0.9 * np.cos(x) + 0.3 * np.sin(2.0 * x))
    return ModelParams(gamma=1.0, gamma3=25.0, k=5e-4,
                       modulation=TabulatedPeriodic(period=math.pi, samples=tuple(samples)))
