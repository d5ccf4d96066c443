"""Physical parameters, pump-modulation profiles, and derived constants.

Everything downstream (semiclassical orbits, linearized variances,
positive-P ensembles, quantum state diffusion) consumes the types defined
here.  Internally all rates are expressed in units of the subharmonic
damping rate gamma (so gamma = 1 in every standard setup) and time in units
of 1/gamma; the JSON configuration interface speaks dimensionless ratios
only.

The model: two degenerate-loss subharmonic cavity modes pumped through a
fast-decaying pump mode that has been adiabatically eliminated.  What
survives of the pump is an effective time-dependent amplitude

    eps(t) = f(t) * k / gamma3,

an effective two-photon nonlinearity lam = k**2 / gamma3, and the threshold
pump amplitude f_th = gamma * gamma3 / k.  The pump phase phi_L and coupling
phase phi_K are carried only to report the optimal quadrature angle; the
dynamics is integrated in the phase-cancelled frame where the coupling is
real and positive.
"""

from __future__ import annotations

import enum
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import InvalidParameterError

# Minimum pump-to-subharmonic damping ratio for the adiabatic elimination
# to be trustworthy; below this a warning is raised (not an error).
ADIABATIC_RATIO_WARN = 10.0

# Tabulated profiles need enough samples for the cubic periodic spline to
# be smooth at ODE-integrator accuracy.
MIN_TABULATED_SAMPLES = 64

# |mean(f)/f_th - 1| below this counts as sitting exactly at threshold.
AT_THRESHOLD_BAND = 1e-9


@dataclass(frozen=True)
class Harmonic:
    """Harmonically modulated pump amplitude f(t) = fbar + f1*cos(delta*t + phi).

    fbar : mean amplitude (same unit as f_th)
    f1   : modulation depth, >= 0.  f1 > fbar is allowed: the instantaneous
           amplitude then changes sign during the cycle.
    delta: modulation angular frequency (units of gamma), > 0
    phi  : modulation phase offset (radians); t = 0 sits at the cosine
           maximum when phi = 0
    """

    fbar: float
    f1: float = 0.0
    delta: float = 1.0
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not (self.f1 >= 0.0):
            raise InvalidParameterError(f"modulation depth f1 must be >= 0, got {self.f1}")
        if not (self.delta > 0.0):
            raise InvalidParameterError(f"modulation frequency delta must be > 0, got {self.delta}")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.delta

    def value(self, t):
        """f(t); accepts scalars or arrays."""
        t = np.asarray(t, dtype=float)
        return self.fbar + self.f1 * np.cos(self.delta * t + self.phi)

    def mean(self) -> float:
        """Average of f over one period (the cosine integrates to zero)."""
        return self.fbar

    def integral(self, t0, t1):
        """Exact integral of f over [t0, t1] from the closed-form antiderivative."""
        t0 = np.asarray(t0, dtype=float)
        t1 = np.asarray(t1, dtype=float)
        osc = (self.f1 / self.delta) * (
            np.sin(self.delta * t1 + self.phi) - np.sin(self.delta * t0 + self.phi)
        )
        return self.fbar * (t1 - t0) + osc


@dataclass(frozen=True)
class TabulatedPeriodic:
    """Periodic pump profile given by uniform samples of f over one period.

    samples[k] = f(k * period / len(samples)); the wrap point f(period) is
    implied equal to samples[0] and must not be duplicated.  Evaluation uses
    a periodic cubic spline, so at least MIN_TABULATED_SAMPLES samples are
    required to keep interpolation error below integrator tolerances.
    """

    period: float
    samples: tuple
    # Derived interpolants; excluded from equality/hash so the profile
    # compares by its defining data.
    _spline: CubicSpline = field(init=False, repr=False, compare=False, default=None)
    _antideriv: CubicSpline = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if not (self.period > 0.0):
            raise InvalidParameterError(f"period must be > 0, got {self.period}")
        samples = tuple(float(s) for s in self.samples)
        if len(samples) < MIN_TABULATED_SAMPLES:
            raise InvalidParameterError(
                f"need at least {MIN_TABULATED_SAMPLES} samples per period, got {len(samples)}"
            )
        object.__setattr__(self, "samples", samples)
        n = len(samples)
        grid = np.linspace(0.0, self.period, n + 1)
        values = np.asarray(samples + (samples[0],))
        spline = CubicSpline(grid, values, bc_type="periodic")
        object.__setattr__(self, "_spline", spline)
        object.__setattr__(self, "_antideriv", spline.antiderivative())

    @property
    def delta(self) -> float:
        """Fundamental angular frequency 2*pi/period."""
        return 2.0 * math.pi / self.period

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return self._spline(np.mod(t, self.period))

    def mean(self) -> float:
        # Uniform periodic samples: the plain mean equals the trapezoid
        # average because the wrap point is shared.
        return float(np.mean(self.samples))

    def integral(self, t0, t1):
        """Integral of f over [t0, t1] via the spline antiderivative plus
        whole-period mean contributions."""
        return self._cumulative(t1) - self._cumulative(t0)

    def _cumulative(self, t):
        t = np.asarray(t, dtype=float)
        wraps = np.floor(t / self.period)
        frac = t - wraps * self.period
        per_period = self._antideriv(self.period)  # == mean() * period
        return self._antideriv(frac) + wraps * per_period


@dataclass(frozen=True)
class ModelParams:
    """Physical rates and pump profile of the modulated two-mode oscillator.

    gamma  : subharmonic damping rate (the internal unit; use 1.0)
    gamma3 : pump-mode damping rate; gamma3/gamma >= 10 for the eliminated-
             pump model to apply (warning below that)
    k      : down-conversion coupling
    modulation : Harmonic or TabulatedPeriodic pump profile
    phi_L, phi_K : pump and coupling phases (radians), reported through the
             optimal quadrature angle only
    """

    gamma: float
    gamma3: float
    k: float
    modulation: Harmonic | TabulatedPeriodic
    phi_L: float = 0.0
    phi_K: float = 0.0

    def __post_init__(self) -> None:
        for name in ("gamma", "gamma3", "k"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise InvalidParameterError(f"{name} must be a finite positive rate, got {v!r}")
        if self.gamma3 / self.gamma < ADIABATIC_RATIO_WARN:
            warnings.warn(
                f"gamma3/gamma = {self.gamma3 / self.gamma:.3g} < {ADIABATIC_RATIO_WARN:g}: "
                "pump-mode elimination is questionable at this ratio",
                stacklevel=2,
            )


class Regime(enum.Enum):
    BELOW_THRESHOLD = "below"
    AT_THRESHOLD = "at"
    ABOVE_THRESHOLD = "above"


@dataclass(frozen=True)
class DerivedParams:
    """Constants derived from ModelParams, plus effective-pump helpers.

    lam     : effective nonlinearity k**2/gamma3
    f_th    : threshold pump amplitude gamma*gamma3/k
    eps_bar : period-averaged effective pump k*mean(f)/gamma3
    period  : modulation period
    """

    gamma: float
    lam: float
    f_th: float
    eps_bar: float
    period: float
    theta_opt: float
    _profile: Harmonic | TabulatedPeriodic = field(repr=False, compare=False)
    _eps_scale: float = field(repr=False, compare=False)

    def eps(self, t):
        """Effective pump eps(t) = k*f(t)/gamma3."""
        return self._eps_scale * self._profile.value(t)

    def eps_integral(self, t0, t1):
        """Integral of eps over [t0, t1], exact up to profile interpolation."""
        return self._eps_scale * self._profile.integral(t0, t1)


def derive_params(p: ModelParams) -> DerivedParams:
    """Compute lam, f_th, eps_bar, and the period from their definitions."""
    lam = p.k**2 / p.gamma3
    f_th = p.gamma * p.gamma3 / p.k
    eps_scale = p.k / p.gamma3
    return DerivedParams(
        gamma=p.gamma,
        lam=lam,
        f_th=f_th,
        eps_bar=eps_scale * p.modulation.mean(),
        period=p.modulation.period,
        theta_opt=-(p.phi_L + p.phi_K),
        _profile=p.modulation,
        _eps_scale=eps_scale,
    )


def pump_amplitude(m: Harmonic | TabulatedPeriodic, t):
    """Instantaneous pump amplitude f(t)."""
    return m.value(t)


def regime_classify(p: ModelParams, band: float = AT_THRESHOLD_BAND) -> Regime:
    """Compare the period-averaged pump against threshold.

    The AT_THRESHOLD band only distinguishes exactly marginal setups from
    finite offsets; band is relative on mean(f)/f_th.
    """
    d = derive_params(p)
    ratio = p.modulation.mean() / d.f_th
    if abs(ratio - 1.0) < band:
        return Regime.AT_THRESHOLD
    return Regime.ABOVE_THRESHOLD if ratio > 1.0 else Regime.BELOW_THRESHOLD


# --------------------------------------------------------------------------
# Configuration interface: dimensionless ratios, as documented in README.
# Defaults reproduce the reference figure-caption parameter set.

CONFIG_DEFAULTS = {
    "gamma3_over_gamma": 25.0,
    "k_over_gamma": 5e-4,
    "fbar_over_fth": 3.0,
    "f1_over_fbar": 0.0,
    "delta_over_gamma": 2.0,
    "phi": 0.0,
    "phi_L": 0.0,
    "phi_K": 0.0,
}


def params_from_ratios(
    gamma3_over_gamma: float = 25.0,
    k_over_gamma: float = 5e-4,
    fbar_over_fth: float = 3.0,
    f1_over_fbar: float = 0.0,
    delta_over_gamma: float = 2.0,
    phi: float = 0.0,
    phi_L: float = 0.0,
    phi_K: float = 0.0,
    lam_over_gamma: float | None = None,
) -> ModelParams:
    """Build ModelParams from dimensionless ratios with gamma = 1.

    lam_over_gamma, when given, overrides k_over_gamma via
    k = sqrt(lam * gamma3): convenient for stochastic runs that are
    parameterized by the nonlinearity-to-damping ratio directly.
    """
    gamma = 1.0
    gamma3 = gamma3_over_gamma * gamma
    if lam_over_gamma is not None:
        k = math.sqrt(lam_over_gamma * gamma * gamma3)
    else:
        k = k_over_gamma * gamma
    f_th = gamma * gamma3 / k
    fbar = fbar_over_fth * f_th
    f1 = f1_over_fbar * fbar
    if f1 < 0:  # negative depth == half-period phase shift
        f1, phi = -f1, phi + math.pi
    modulation = Harmonic(fbar=fbar, f1=f1, delta=delta_over_gamma * gamma, phi=phi)
    return ModelParams(gamma=gamma, gamma3=gamma3, k=k, modulation=modulation,
                       phi_L=phi_L, phi_K=phi_K)


def config_to_params(cfg: dict) -> ModelParams:
    """Validate a configuration mapping and convert it to ModelParams.

    Unknown keys are rejected so that typos do not silently fall back to
    defaults; all known keys are optional.
    """
    unknown = sorted(set(cfg) - set(CONFIG_DEFAULTS))
    if unknown:
        raise InvalidParameterError(
            f"unknown configuration keys: {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(CONFIG_DEFAULTS))}"
        )
    merged = dict(CONFIG_DEFAULTS)
    for key, value in cfg.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise InvalidParameterError(f"configuration key {key} must be a number, got {value!r}")
        merged[key] = float(value)
    return params_from_ratios(**merged)


def read_config(path: str | Path) -> dict:
    """Read a JSON configuration file as a mapping (see CONFIG_DEFAULTS)."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise InvalidParameterError("configuration file must contain a JSON object")
    return cfg


def load_config(path: str | Path) -> ModelParams:
    """Read a JSON configuration file and convert it to ModelParams."""
    return config_to_params(read_config(path))
