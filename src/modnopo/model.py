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
pump amplitude f_th = gamma * gamma3 / k.  The dynamics is integrated in
the phase-cancelled frame where the coupling is real and positive, so the
pump and coupling phases drop out of every result.
"""

from __future__ import annotations

import enum
import inspect
import json
import math
import sys
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError

# Minimum pump-to-subharmonic damping ratio for the adiabatic elimination
# to be trustworthy; below this a warning is raised (not an error).
ADIABATIC_RATIO_WARN = 10.0

# Tabulated profiles need enough samples for the cubic periodic spline to
# be smooth at ODE-integrator accuracy.
MIN_TABULATED_SAMPLES = 64

# |fbar/f_th - 1| below this counts as sitting exactly at threshold.
AT_THRESHOLD_BAND = 1e-9


def _tridiagonal(dl: list, d: list, du: list):
    """Eliminate the tridiagonal matrix with sub-, main and superdiagonals
    dl, d and du as LAPACK's reference dgtsv does where it interchanges no
    rows, and refuse a matrix where it would.  A periodic spline's system
    on evenly spaced knots never needs one: it is strictly diagonally
    dominant, diagonal about 4h against off-diagonals about h, so every
    pivot stays at or above about 3.73h.  The elimination depends on the
    matrix alone, so it is done once and applied to each right-hand side by
    _tridiagonal_solve.  Returns (fact, d, du): each step's multiplier and
    the upper triangle.
    """
    d = list(d)
    fact = []
    for i in range(len(d) - 1):
        if abs(d[i]) < abs(dl[i]) or d[i] == 0.0:
            raise InvalidParameterError(
                "the spline's knot system needs a row interchange or is singular")
        fact.append(dl[i] / d[i])
        d[i + 1] = d[i + 1] - fact[-1] * du[i]
    if d[-1] == 0.0:
        raise InvalidParameterError("the spline's knot system is singular")
    return fact, d, du


def _tridiagonal_solve(factors, b: list) -> np.ndarray:
    """dgtsv's forward and back sweeps over one right-hand side b."""
    fact, d, du = factors
    cur = b[0]
    y = [cur]
    for f, nxt in zip(fact, b[1:]):
        cur = nxt - f * cur
        y.append(cur)
    x2 = y[-1] / d[-1]
    x1 = (y[-2] - du[-1] * x2) / d[-2]
    x = [x2, x1]
    for yi, ui, di in zip(y[-3::-1], du[-2::-1], d[-3::-1]):
        # dgtsv's term for the second superdiagonal, zero without
        # interchanges, still turns -0.0 into 0.0 and inf into nan
        x2, x1 = x1, ((yi - ui * x1) - 0.0 * x2) / di
        x.append(x1)
    x.reverse()
    return np.fromiter(x, float, len(x))


@lru_cache(maxsize=16)
def _knot_system(n: int, period: float):
    """What the knot slopes' linear system keeps between splines of n
    values over the same period: the factored tridiagonal matrix of the
    (n - 1) system left once the last unknown is condensed out, the
    correction solve s2 and its denominator."""
    dx = np.diff(np.linspace(0.0, period, n + 1))
    m = n - 1
    inner = (2 * (dx[:m - 1] + dx[1:m])).tolist()
    factors = _tridiagonal(dx[1:m].tolist(), [2 * (dx[-1] + dx[0])] + inner,
                           [dx[-1]] + dx[:m - 2].tolist())
    b2 = [0.0] * m
    b2[0], b2[-1] = -dx[0], -dx[-3]
    s2 = _tridiagonal_solve(factors, b2)
    den = 2 * (dx[-1] + dx[-2]) + dx[-2] * s2[0] + dx[-1] * s2[-1]
    return factors, s2, den


class Curve:
    """A periodic function of time stored as a cubic spline through samples.

    Curve(values, period): values[k] sits at k*period/n, the wrap value is
    appended at period, and t is first mapped into the period.  It takes
    at least 3 finite values and a positive finite period whose knots
    strictly increase, and refuses a spline whose coefficients overflow.

    The spline is scipy 1.17.1's CubicSpline(bc_type="periodic"), operation
    for operation, so it has its bits: the same condensed tridiagonal system
    for the knot slopes, solved as LAPACK's dgtsv solves it (its
    elimination cached per number of values and period), the same Hermite
    coefficients c (c[0] the cubic's, c[3] the constant), and PPoly's
    evaluation: t is mapped to t % period % period (the first remainder can
    round up to period), the interval is the last knot at or below t,
    clamped to the end pieces, and the cubic is summed from its constant
    term up, ((0 + c3) + c2*s) + c1*s**2 + c0*s**3, with powers taken as
    repeated products.  At one float the same sum runs on plain lists, free of
    numpy's per-call overhead; at_float() hands it out prebuilt, as a
    function of one float.  The lists and the antiderivative are built on
    first use.
    """

    __slots__ = ("period", "knots", "coeffs", "_knot_list", "_pieces", "_anti")

    def __init__(self, values, period: float) -> None:
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 3:
            raise InvalidParameterError(
                f"a periodic curve needs a 1-d array of at least 3 values, got shape "
                f"{values.shape}")
        if not 0.0 < period < math.inf:
            raise InvalidParameterError(
                f"a curve's knots must be finite and strictly increasing, got period {period}")
        if not np.isfinite(values).all():
            raise InvalidParameterError("a curve's values must be finite")
        x = np.linspace(0.0, period, values.size + 1)
        dx = np.diff(x)
        if not (dx > 0.0).all():
            raise InvalidParameterError("a curve's knots must be strictly increasing")
        values = np.append(values, values[0])
        # the knot slopes s: the condensed-out unknown s_last, the others
        # from the condensed system corrected by it, and the first's wrap.
        # Subnormal knot spacing can overflow them; that is refused below.
        factors, s2, den = _knot_system(dx.size, period)
        with np.errstate(over="ignore", invalid="ignore"):
            slope = np.diff(values) / dx
            b = [3 * (dx[0] * slope[-1] + dx[-1] * slope[0])]
            b += (3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])).tolist()
            s1 = _tridiagonal_solve(factors, b[:-1])
            s_last = (b[-1] - dx[-2] * s1[0] - dx[-1] * s1[-1]) / den
            s = np.append(s1 + s_last * s2, s_last)
            s = np.append(s, s[0])
            t = (s[:-1] + s[1:] - 2 * slope) / dx
            self.coeffs = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], values[:-1]))
        if not np.isfinite(self.coeffs).all():
            raise InvalidParameterError(
                f"a curve's spline coefficients must be finite: its values change too fast "
                f"for its knot spacing {dx[0]:.3g}")
        self.knots = x
        self.period = period
        self._knot_list = self._anti = None

    def __call__(self, t):
        """The curve at t; a float t gives a float, anything else an array."""
        if isinstance(t, float):
            return self.at_float()(float(t))
        period = self.period
        shape = np.shape(t)
        # t % period % period: the second remainder only maps a first one
        # that rounded up to period back to 0
        t = np.mod(np.asarray(t, dtype=float).ravel(), period)
        t[t == period] = 0.0
        i, s = self._locate(t)
        c0, c1, c2, c3 = self.coeffs.take(i, axis=1)
        ss = s * s
        return ((((0.0 + c3) + c2 * s) + c1 * ss) + c0 * (ss * s)).reshape(shape)

    def at_float(self):
        """The curve as a function of one Python float, with self(t)'s bits
        and none of its dispatch: the ODE right-hand sides evaluate through
        it at every stage."""
        x = self._knot_list
        if x is None:
            c = self.coeffs
            x = self._knot_list = self.knots.tolist()
            # 0.0 + c[3] is the running sum's first step, which turns -0.0
            # into 0.0; the last piece is listed twice, so that t at the
            # last knot finds it
            self._pieces = list(zip(x, (c[3] + 0.0).tolist(), *c[2::-1].tolist()))
            self._pieces.append(self._pieces[-1])
        pieces, period = self._pieces, self.period

        def at(t):
            t = t % period % period
            xi, c3, c2, c1, c0 = pieces[bisect_right(x, t) - 1]
            s = t - xi
            ss = s * s
            return ((c3 + c2 * s) + c1 * ss) + c0 * (ss * s)

        return at

    def _locate(self, t: np.ndarray):
        """Each t's piece, the last knot at or below t clamped to the end
        pieces (searchsorted's, as PPoly finds it), and t's offset into it.

        The piece is first guessed from the mean knot spacing and checked;
        searchsorted places the t it misses.  On the linspace knots of a
        periodic curve it misses about 0.1% of them (one t in 870 in
        perfbench's closed_curves workload), and it saves a binary search for the rest.
        """
        x = self.knots
        last = x.size - 2
        # knots a subnormal span apart overflow the scale: Python's division
        # gives inf there without a numpy warning, and the cap keeps 0 * scale 0
        guess = (t - x[0]) * min((last + 1) / float(x[-1] - x[0]), sys.float_info.max)
        i = np.fmin(np.fmax(guess, 0.0), last).astype(np.intp)
        left = x.take(i)
        wrong = ((t < left) & (i > 0)) | ((t >= x.take(i + 1)) & (i < last))
        if wrong.any():
            i[wrong] = np.clip(np.searchsorted(x, t[wrong], side="right") - 1, 0, last)
            left = x.take(i)
        return i, t - left

    def running_integral(self, t):
        """Integral of the curve from 0 to t: the antiderivative over
        the last partial period plus the whole periods before it.

        The antiderivative is PPoly's: each coefficient divided by its new
        power, and each piece's constant the previous piece's value at its
        right end, summed in evaluation order.  It gives NaN where t less
        its whole periods rounds outside [0, period].
        """
        if self._anti is None:
            c = self.coeffs / np.array([[4.0], [3.0], [2.0], [1.0]])
            s = np.diff(self.knots)[:-1]
            ss = s * s
            sss = ss * s
            # PPoly's sum starts 0.0 + k[-1], which is k[-1]: k is never -0.0
            k = [0.0]
            for p3, p2, p1, p0 in zip((c[3, :-1] * s).tolist(), (c[2, :-1] * ss).tolist(),
                                      (c[1, :-1] * sss).tolist(),
                                      (c[0, :-1] * (sss * s)).tolist()):
                k.append((((k[-1] + p3) + p2) + p1) + p0)
            anti = np.vstack((c, k))
            self._anti = anti, float(self._quartic(anti, np.asarray(self.period)))
        anti, per_period = self._anti
        t = np.asarray(t, dtype=float)
        wraps = np.floor(t / self.period)
        return self._quartic(anti, t - wraps * self.period) + wraps * per_period

    def _quartic(self, a: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The antiderivative with coefficients a at t; NaN outside the knots."""
        flat = t.ravel()
        i, s = self._locate(flat)
        ss = s * s
        sss = ss * s
        a0, a1, a2, a3, a4 = a.take(i, axis=1)
        out = ((((0.0 + a4) + a3 * s) + a2 * ss) + a1 * sss) + a0 * (sss * s)
        out[~((flat >= self.knots[0]) & (flat <= self.knots[-1]))] = np.nan
        return out.reshape(t.shape)

    def minimum(self) -> float:
        """Exact minimum over a period: it sits at a knot or where the
        derivative vanishes.

        The roots are PPoly.roots' on the derivative a*s**2 + b*s + c of
        each piece: the closed-form quadratic of scipy's croots_poly1 (the
        linear root where a is 0), one Newton step, and the piece's closed
        interval.  A flat piece has no root but its knots.
        """
        x = self.knots
        a, b, c = 3.0 * self.coeffs[0], 2.0 * self.coeffs[1], self.coeffs[2]
        lin = np.flatnonzero((a == 0.0) & (b != 0.0))
        quad = np.flatnonzero(a != 0.0)
        A, B, C = a[quad], b[quad], c[quad]
        disc = B * B - 4 * A * C
        real = ~(disc < 0.0)
        quad, A, B, C = quad[real], A[real], B[real], C[real]
        d = np.sqrt(disc[real])
        with np.errstate(divide="ignore", invalid="ignore"):
            double = -B / (2 * A)
            near = np.where(B < 0.0, (2 * C) / (-B + d), (-B - d) / (2 * A))
            far = np.where(B < 0.0, (-B + d) / (2 * A), (2 * C) / (-B - d))
        j = np.concatenate((lin, quad, quad))
        w = np.concatenate((-c[lin] / b[lin], np.where(d == 0.0, double, near),
                            np.where(d == 0.0, double, far)))
        A, B, C = a[j], b[j], c[j]
        f = ((0.0 + C) + B * w) + A * (w * w)
        df = (0.0 + B) + (A * w) * 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / df
        w = np.where((df != 0.0) & (np.abs(step) < np.abs(w)), w - step, w) + x[j]
        roots = w[(x[j] <= w) & (w <= x[j + 1])]
        return float(min(np.min(self(x)), np.min(self(roots), initial=np.inf)))


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
        if not (0.0 <= self.f1 < math.inf):
            raise InvalidParameterError(
                f"modulation depth f1 must be finite and >= 0, got {self.f1}")
        if not (0.0 < self.delta < math.inf and self.period < math.inf):
            raise InvalidParameterError(
                f"modulation frequency delta must be finite and > 0 with a finite period "
                f"2*pi/delta, got {self.delta}")
        if not (math.isfinite(self.fbar) and math.isfinite(self.phi)):
            raise InvalidParameterError(
                f"fbar and phi must be finite, got {self.fbar} and {self.phi}")

    @classmethod
    def from_ratios(cls, f_th: float, fbar_over_fth: float, f1_over_fbar: float,
                    delta: float, phi: float) -> Harmonic:
        """fbar = fbar_over_fth*f_th and f1 = f1_over_fbar*fbar, a negative
        depth being the positive one shifted by pi in phi.  Zero and negative
        ratios are legal; one whose fbar or f1 is not finite is refused by
        its name."""
        fbar = fbar_over_fth * f_th
        f1 = f1_over_fbar * fbar
        for key, ratio, name, pump in (("fbar_over_fth", fbar_over_fth, "fbar", fbar),
                                       ("f1_over_fbar", f1_over_fbar, "f1", f1)):
            if not math.isfinite(pump):
                raise InvalidParameterError(
                    f"pump ratio {key}={ratio!r} gives {name}={pump!r}, which is not finite")
        if f1 < 0:
            f1, phi = -f1, phi + math.pi
        return cls(fbar=fbar, f1=f1, delta=delta, phi=phi)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.delta

    def value(self, t):
        """f(t); a float t gives a float, anything else an array."""
        if isinstance(t, float):
            return self.at_float(1.0)(t)
        return self.fbar + self.f1 * np.cos(self.delta * np.asarray(t, dtype=float) + self.phi)

    def at_float(self, scale: float):
        """scale*f as a function of one float, with the bits of scale times
        value's element.  It keeps np.cos, the array path's cosine: math.cos
        agrees with it on this build, but not with a numpy whose float64
        cosine is SIMD code."""
        fbar, f1, delta, phi, cos = self.fbar, self.f1, self.delta, self.phi, np.cos
        return lambda t: scale * (fbar + f1 * float(cos(delta * t + phi)))

    def mean(self) -> float:
        """Average of f over one period (the cosine integrates to zero)."""
        return self.fbar

    def minimum(self) -> float:
        """Smallest value of f over a period."""
        return self.fbar - self.f1

    def swing(self) -> float:
        """Half the peak-to-trough range of f."""
        return self.f1

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
    # Derived interpolant; excluded from equality/hash so the profile
    # compares by its defining data.
    _curve: Curve = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if not 0.0 < self.period < math.inf:
            raise InvalidParameterError(f"period must be > 0 and finite, got {self.period}")
        samples = tuple(float(s) for s in self.samples)
        if len(samples) < MIN_TABULATED_SAMPLES:
            raise InvalidParameterError(
                f"need at least {MIN_TABULATED_SAMPLES} samples per period, got {len(samples)}"
            )
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "_curve", Curve(samples, self.period))

    @property
    def delta(self) -> float:
        """Fundamental angular frequency 2*pi/period."""
        return 2.0 * math.pi / self.period

    def value(self, t):
        """f(t); a float t gives a float, anything else an array."""
        return self._curve(t)

    def at_float(self, scale: float):
        """scale*f as a function of one float, with the bits of scale times
        value's element."""
        curve = self._curve.at_float()
        return lambda t: scale * curve(t)

    def mean(self) -> float:
        # Uniform periodic samples: the plain mean equals the trapezoid
        # average because the wrap point is shared.
        return float(np.mean(self.samples))

    def minimum(self) -> float:
        """Smallest value of the interpolated f over a period."""
        return self._curve.minimum()

    def swing(self) -> float:
        """Half the peak-to-trough range of the samples."""
        return (max(self.samples) - min(self.samples)) / 2.0

    def integral(self, t0, t1):
        """Integral of f over [t0, t1] via the spline antiderivative plus
        whole-period mean contributions."""
        return self._curve.running_integral(t1) - self._curve.running_integral(t0)


@dataclass(frozen=True)
class ModelParams:
    """Physical rates and pump profile of the modulated two-mode oscillator.

    gamma  : subharmonic damping rate (the internal unit; use 1.0)
    gamma3 : pump-mode damping rate; gamma3/gamma >= 10 for the eliminated-
             pump model to apply (warning below that)
    k      : down-conversion coupling
    modulation : Harmonic or TabulatedPeriodic pump profile
    """

    gamma: float
    gamma3: float
    k: float
    modulation: Harmonic | TabulatedPeriodic

    def __post_init__(self) -> None:
        for name in ("gamma", "gamma3", "k"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise InvalidParameterError(f"{name} must be a finite positive rate, got {v!r}")
        if self.gamma3 / self.gamma < ADIABATIC_RATIO_WARN:
            warnings.warn(
                f"gamma3/gamma = {self.gamma3 / self.gamma:.3g} < {ADIABATIC_RATIO_WARN:g}: "
                "pump-mode elimination is questionable at this ratio",
                stacklevel=_outside_caller(),
            )


def _outside_caller() -> int:
    """The stacklevel, for a warnings.warn in the function that calls this,
    of the innermost frame outside this package and the dataclass machinery
    (the generated __init__ runs with this module's globals, replace in
    dataclasses): the caller's own line, not a line of ours."""
    frame, level = sys._getframe(1), 1
    while (frame.f_back is not None
           and frame.f_globals.get("__name__", "").partition(".")[0] in ("modnopo",
                                                                          "dataclasses")):
        frame, level = frame.f_back, level + 1
    return level


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
    _profile: Harmonic | TabulatedPeriodic = field(repr=False, compare=False)
    _eps_scale: float = field(repr=False, compare=False)

    def eps(self, t):
        """Effective pump eps(t) = k*f(t)/gamma3."""
        return self._eps_scale * self._profile.value(t)

    def eps_at_float(self):
        """eps as a function of one Python float, prebuilt, with eps(t)'s
        bits: the ODE right-hand sides evaluate the pump through it."""
        return self._profile.at_float(self._eps_scale)

    @property
    def pump_ratio(self) -> float:
        """fbar/f_th, the period-averaged pump over threshold."""
        return self.eps_bar / self.gamma

    @property
    def eps_min(self) -> float:
        """Smallest effective pump over a period."""
        return self._eps_scale * self._profile.minimum()

    @property
    def eps_peak(self) -> float:
        """Largest |eps| on 512 points of a period: the fastest rate the pump sets."""
        t = np.linspace(0.0, self.period, 512, endpoint=False)
        return float(np.max(np.abs(self.eps(t))))

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
        _profile=p.modulation,
        _eps_scale=eps_scale,
    )


def regime_classify(p: ModelParams) -> Regime:
    """Compare the period-averaged pump against threshold.

    The AT_THRESHOLD band only distinguishes exactly marginal setups from
    finite offsets; AT_THRESHOLD_BAND is relative on the pump ratio
    fbar/f_th (DerivedParams.pump_ratio, eps_bar/gamma).
    """
    ratio = derive_params(p).pump_ratio
    if abs(ratio - 1.0) < AT_THRESHOLD_BAND:
        return Regime.AT_THRESHOLD
    return Regime.ABOVE_THRESHOLD if ratio > 1.0 else Regime.BELOW_THRESHOLD


# --------------------------------------------------------------------------
# Configuration interface: dimensionless ratios, as documented in README.
# Defaults reproduce the reference figure-caption parameter set.

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
    k = sqrt(lam * gamma3) (k_from_lam): convenient for stochastic runs
    that are parameterized by the nonlinearity-to-damping ratio directly.
    gamma3_over_gamma and the coupling's ratio must be finite and > 0, and
    the threshold pump gamma*gamma3/k and the nonlinearity k^2/gamma3 they
    give must be too; each refusal names the ratio.  phi_L and phi_K, the
    pump and coupling phases, are configuration keys that record provenance
    in the output headers only: the phase-cancelled dynamics never reads them.
    """
    gamma = 1.0
    gamma3 = _ratio("gamma3_over_gamma", gamma3_over_gamma) * gamma
    if lam_over_gamma is None:
        key, value = "k_over_gamma", k_over_gamma
        k = _ratio(key, k_over_gamma) * gamma
    else:
        key, value = "lam_over_gamma", lam_over_gamma
        k = k_from_lam(lam_over_gamma, gamma3_over_gamma) * gamma
    f_th = gamma * gamma3 / k if k > 0.0 else math.inf
    lam = k * k / gamma3
    if not (0.0 < f_th < math.inf and 0.0 < lam < math.inf):
        raise InvalidParameterError(
            f"{key}={value!r} with gamma3_over_gamma={gamma3_over_gamma!r} gives a threshold "
            f"pump gamma*gamma3/k={f_th!r} and a nonlinearity k^2/gamma3={lam!r}; both must "
            f"be finite and > 0")
    modulation = Harmonic.from_ratios(f_th, fbar_over_fth, f1_over_fbar,
                                      delta_over_gamma * gamma, phi)
    return ModelParams(gamma=gamma, gamma3=gamma3, k=k, modulation=modulation)


def _ratio(key: str, value: float) -> float:
    """value, if it is a finite ratio > 0; else an error naming key."""
    if not 0.0 < value < math.inf:
        raise InvalidParameterError(f"{key} must be finite and > 0, got {value!r}")
    return value


def k_from_lam(lam_over_gamma: float, gamma3_over_gamma: float) -> float:
    """k/gamma = sqrt(lam/gamma * gamma3/gamma), the coupling whose
    nonlinearity k^2/gamma3 is lam; both ratios are checked first."""
    return math.sqrt(_ratio("lam_over_gamma", lam_over_gamma)
                     * _ratio("gamma3_over_gamma", gamma3_over_gamma))


# Every ratio with a default is a configuration key; lam_over_gamma is not.
CONFIG_DEFAULTS = {name: arg.default
                   for name, arg in inspect.signature(params_from_ratios).parameters.items()
                   if arg.default is not None}


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
        merged[key] = config_number(key, value)
    return params_from_ratios(**merged)


def config_number(key: str, value) -> float:
    """The configuration value of key as a float; anything else is refused."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidParameterError(f"configuration key {key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidParameterError(
            f"configuration key {key} is too large for a float") from None


def read_config(path: str | Path) -> dict:
    """Read a JSON configuration file as a mapping (see CONFIG_DEFAULTS)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:
            # bad UTF-8, bad JSON, or an integer past int()'s digit limit,
            # whose message ends in advice on a Python call: cut at the ';'
            raise InvalidParameterError(
                f"configuration file {path} cannot be read as JSON: {str(exc).split(';')[0]}"
            ) from None
    if not isinstance(cfg, dict):
        raise InvalidParameterError(f"configuration file {path} must contain a JSON object")
    return cfg
