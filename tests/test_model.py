"""Parameter plumbing: pump profiles, derived rates, regimes, config files."""

import dataclasses
import hashlib
import itertools
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from modnopo import (
    CONFIG_DEFAULTS,
    Harmonic,
    InvalidParameterError,
    ModelParams,
    Regime,
    TabulatedPeriodic,
    config_to_params,
    derive_params,
    params_from_ratios,
    regime_classify,
    sweep_vmin,
)
from modnopo import fluctuations
from modnopo.model import Curve, read_config


class TestHarmonic:
    def test_value_and_period(self):
        m = Harmonic(fbar=3.0, f1=1.2, delta=2.0, phi=0.3)
        assert m.period == pytest.approx(math.pi)
        t = np.linspace(0.0, 7.0, 13)
        np.testing.assert_allclose(
            m.value(t), 3.0 + 1.2 * np.cos(2.0 * t + 0.3), rtol=0, atol=1e-15
        )

    def test_mean_is_offset(self):
        assert Harmonic(fbar=2.5, f1=1.0, delta=0.7).mean() == 2.5
        # and half the peak-to-trough range is the depth
        assert Harmonic(fbar=2.5, f1=1.3, delta=0.7, phi=0.2).swing() == 1.3

    def test_integral_against_quadrature(self):
        m = Harmonic(fbar=1.5, f1=0.8, delta=3.0, phi=1.1)
        got = m.integral(0.2, 2.9)
        ref, err = quad(m.value, 0.2, 2.9, epsabs=1e-13)
        assert got == pytest.approx(ref, abs=1e-11)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            Harmonic(fbar=1.0, f1=-0.1, delta=1.0)
        with pytest.raises(InvalidParameterError):
            Harmonic(fbar=1.0, f1=0.1, delta=0.0)
        for bad in (dict(fbar=math.nan), dict(f1=math.inf), dict(delta=math.inf),
                    dict(phi=math.nan)):
            with pytest.raises(InvalidParameterError):
                Harmonic(**{"fbar": 1.0, "f1": 0.1, "delta": 1.0, **bad})

    @given(
        fbar=st.floats(0.0, 10.0),
        f1=st.floats(0.0, 10.0),
        delta=st.floats(0.1, 50.0),
        phi=st.floats(0.0, 2.0 * math.pi),
        t=st.floats(-20.0, 20.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_periodicity_property(self, fbar, f1, delta, phi, t):
        m = Harmonic(fbar=fbar, f1=f1, delta=delta, phi=phi)
        v0 = float(m.value(t))
        v1 = float(m.value(t + m.period))
        assert v1 == pytest.approx(v0, abs=1e-9 * (1.0 + abs(v0)))


class TestTabulatedPeriodic:
    def test_matches_harmonic_samples(self):
        h = Harmonic(fbar=2.0, f1=0.9, delta=2.0, phi=0.0)
        s = np.linspace(0.0, h.period, 257, endpoint=False)
        m = TabulatedPeriodic(period=h.period, samples=h.value(s))
        t = np.linspace(0.0, 3.0 * h.period, 101)
        np.testing.assert_allclose(m.value(t), h.value(t), atol=5e-8)
        assert m.mean() == pytest.approx(2.0, abs=1e-10)
        # the swing is half the samples' spread, short of f1 on this odd grid
        assert m.swing() == float(np.ptp(m.samples)) / 2.0 < h.swing()
        # an even grid at phi = 0 holds both extremes; fbar +- f1 are exact here
        h = Harmonic(fbar=2.0, f1=0.5, delta=2.0)
        m = TabulatedPeriodic(h.period, h.value(np.linspace(0.0, h.period, 64, endpoint=False)))
        assert m.swing() == h.swing() == 0.5

    def test_integral_consistent(self):
        h = Harmonic(fbar=1.0, f1=0.5, delta=1.0)
        s = np.linspace(0.0, h.period, 513, endpoint=False)
        m = TabulatedPeriodic(period=h.period, samples=h.value(s))
        assert m.integral(0.0, 4.0) == pytest.approx(h.integral(0.0, 4.0), abs=1e-7)

    def test_minimum_is_the_spline_minimum(self):
        # the cosine minimum falls between samples (phi shifts it off-grid)
        h = Harmonic(fbar=2.0, f1=0.9, delta=2.0, phi=0.3)
        s = np.linspace(0.0, h.period, 64, endpoint=False)
        m = TabulatedPeriodic(period=h.period, samples=h.value(s))
        dense = m.value(np.linspace(0.0, h.period, 200001))
        assert m.minimum() <= dense.min() < min(m.samples)
        assert m.minimum() == pytest.approx(dense.min(), abs=1e-9)
        assert m.minimum() == pytest.approx(h.minimum(), abs=1e-4)
        flat = TabulatedPeriodic(period=1.0, samples=(3.0,) * 64)
        assert flat.minimum() == 3.0 and flat.swing() == 0.0

    def test_frozen_bytes(self):
        # sha256 of value (array and float), integral and minimum: the
        # spline's storage may change, its bytes may not
        h = Harmonic(fbar=2.0, f1=0.9, delta=2.0, phi=0.3)
        rng = np.random.default_rng(1901)
        digest = hashlib.sha256()
        for n in (64, 513):
            m = TabulatedPeriodic(h.period, h.value(np.linspace(0.0, h.period, n,
                                                                endpoint=False)))
            t = np.concatenate([np.linspace(0.0, h.period, n + 1),
                                rng.uniform(-5.0 * h.period, 8.0 * h.period, 300),
                                [-0.0, np.nextafter(h.period, 0.0), -2.0 * h.period]])
            t1 = t + rng.uniform(0.0, 4.0 * h.period, t.size)
            for val in (m.value(t), [m.value(float(x)) for x in t], m.integral(t, t1),
                        [m.integral(float(a), float(b)) for a, b in zip(t[:50], t1)],
                        m.minimum()):
                digest.update(np.asarray(val, dtype=float).tobytes())
        assert digest.hexdigest() == (
            "8ed5acfe3f01bf15b2fda46344cbf7f77dadec1c8b62ffba340c6d54475db1e5")

    def test_too_few_samples_rejected(self):
        with pytest.raises(InvalidParameterError):
            TabulatedPeriodic(period=1.0, samples=(1.0, 2.0, 1.5))


class TestDerivedParams:
    def test_reference_point_relations(self):
        # gamma3/gamma=25, k/gamma=5e-4: the standard operating point.
        p = params_from_ratios()
        d = derive_params(p)
        assert d.lam == pytest.approx(1e-8, rel=1e-12)
        assert d.f_th == pytest.approx(5e4, rel=1e-12)
        assert d.eps_bar == pytest.approx(3.0, rel=1e-12)  # fbar = 3 f_th
        assert d.period == pytest.approx(math.pi, rel=1e-12)

    def test_eps_tracks_pump_ratio(self):
        p = params_from_ratios(fbar_over_fth=2.0, f1_over_fbar=0.5)
        d = derive_params(p)
        t = np.linspace(0.0, d.period, 17)
        f_over_fth = p.modulation.value(t) / d.f_th
        np.testing.assert_allclose(d.eps(t) / d.gamma, f_over_fth, rtol=1e-12)

    def test_eps_integral_matches_quadrature(self):
        p = params_from_ratios(f1_over_fbar=1.2)
        d = derive_params(p)
        ref, _ = quad(lambda s: float(d.eps(s)), 0.3, 2.7, epsabs=1e-13)
        assert d.eps_integral(0.3, 2.7) == pytest.approx(ref, abs=1e-10)

    def test_lam_override_sets_coupling(self):
        p = params_from_ratios(lam_over_gamma=0.1)
        d = derive_params(p)
        assert d.lam == pytest.approx(0.1)
        assert p.k == pytest.approx(math.sqrt(0.1 * 25.0))

    def test_negative_depth_becomes_phase_flip(self, monkeypatch):
        plus = params_from_ratios(f1_over_fbar=0.4)
        minus = params_from_ratios(f1_over_fbar=-0.4)
        t = np.linspace(0.0, math.pi, 9)
        # flipped depth = half-period shift of the cosine
        np.testing.assert_allclose(
            minus.modulation.value(t),
            plus.modulation.value(t + plus.modulation.period / 2.0),
            rtol=1e-12,
        )
        # a sweep cell at a negative level builds the same pump, bit for bit
        seen = []
        monkeypatch.setattr(fluctuations, "find_vmin", seen.append)
        sweep_vmin(params_from_ratios(phi=0.3), [1.7], [-0.4])
        want = params_from_ratios(fbar_over_fth=1.7, f1_over_fbar=-0.4, phi=0.3).modulation
        assert want.phi != 0.3
        got = seen[0].modulation
        assert (_bits(dataclasses.astuple(got)) == _bits(dataclasses.astuple(want))).all()

    def test_adiabatic_ratio_warning(self):
        with pytest.warns(UserWarning, match="elimination"):
            ModelParams(gamma=1.0, gamma3=5.0, k=1e-3, modulation=Harmonic(fbar=1.0))

    def test_adiabatic_ratio_warning_names_the_callers_line(self):
        # it used to point into the dataclass-generated __init__ ("<string>")
        p = params_from_ratios()
        for build in (lambda: ModelParams(gamma=1.0, gamma3=5.0, k=1e-3,
                                          modulation=Harmonic(fbar=1.0)),
                      lambda: params_from_ratios(gamma3_over_gamma=5.0),
                      lambda: dataclasses.replace(p, gamma3=5.0)):
            with pytest.warns(UserWarning, match="elimination") as caught:
                build()
            assert [w.filename for w in caught] == [__file__]


class TestRegimes:
    def test_three_way_classification(self):
        assert regime_classify(params_from_ratios(fbar_over_fth=0.4)) is Regime.BELOW_THRESHOLD
        assert regime_classify(params_from_ratios(fbar_over_fth=1.0)) is Regime.AT_THRESHOLD
        assert regime_classify(params_from_ratios(fbar_over_fth=2.5)) is Regime.ABOVE_THRESHOLD
        # the at-threshold band is far narrower than a finite offset
        assert regime_classify(params_from_ratios(fbar_over_fth=1.0005)) is Regime.ABOVE_THRESHOLD
        # AT_THRESHOLD_BAND is 1e-9: inside it at a quarter-band, outside at twice it
        for offset, want in ((0.5e-9, Regime.AT_THRESHOLD), (2e-9, Regime.ABOVE_THRESHOLD),
                             (-0.5e-9, Regime.AT_THRESHOLD), (-2e-9, Regime.BELOW_THRESHOLD)):
            assert regime_classify(params_from_ratios(fbar_over_fth=1.0 + offset)) is want

    def test_frozen_band_edges(self):
        # sha256 of the regimes at and around the at-threshold band's edges
        # and at the sweep grid's nearest points to threshold
        ratios = (1.0, 1.0 - 0.5e-9, 1.0 + 0.5e-9, 1.0 - 2e-9, 1.0 + 2e-9, 0.95, 1.05)
        got = [regime_classify(params_from_ratios(fbar_over_fth=r)).value for r in ratios]
        assert hashlib.sha256(repr(got).encode()).hexdigest() == (
            "70b373684203d9c7d483ebe02a16dd97446e94dacc0d3fa417366f05023341e5")

    def test_modulation_depth_does_not_move_the_mean(self):
        # classification depends on the period average only
        p = params_from_ratios(fbar_over_fth=0.8, f1_over_fbar=2.0)
        assert regime_classify(p) is Regime.BELOW_THRESHOLD


class TestPumpHelpers:
    def test_pump_amplitude_dispatch(self):
        m = Harmonic(fbar=2.0, f1=1.0, delta=1.0)
        assert float(m.value(0.0)) == pytest.approx(3.0)


class TestConfig:
    def test_defaults_round_trip(self):
        p = config_to_params({})
        q = params_from_ratios()
        assert p == q
        # the figure-caption set, in the order the CSV header prints it
        assert list(CONFIG_DEFAULTS.items()) == [
            ("gamma3_over_gamma", 25.0), ("k_over_gamma", 5e-4), ("fbar_over_fth", 3.0),
            ("f1_over_fbar", 0.0), ("delta_over_gamma", 2.0), ("phi", 0.0), ("phi_L", 0.0),
            ("phi_K", 0.0)]

    @pytest.mark.parametrize("lam", [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf])
    def test_bad_lam_over_gamma_rejected(self, lam):
        with pytest.raises(InvalidParameterError, match="lam_over_gamma"):
            params_from_ratios(lam_over_gamma=lam)

    @pytest.mark.parametrize("key", ["gamma3_over_gamma", "k_over_gamma"])
    @pytest.mark.parametrize("value", [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf])
    def test_bad_rate_ratio_rejected(self, key, value):
        # k/gamma = 0 used to end in a ZeroDivisionError, NaN ratios in an
        # error that blamed the modulation depth f1
        with pytest.raises(InvalidParameterError, match=f"^{key} must be finite and > 0"):
            params_from_ratios(**{key: value})

    @pytest.mark.parametrize("g3", [0.0, -25.0, math.nan, math.inf])
    def test_bad_gamma3_rejected_before_the_lam_root(self, g3):
        # 0 used to divide by the zero coupling, -25 to fail in math.sqrt
        with pytest.raises(InvalidParameterError, match="^gamma3_over_gamma must be"):
            params_from_ratios(gamma3_over_gamma=g3, lam_over_gamma=0.1)

    @pytest.mark.parametrize("kw,key", [
        ({"k_over_gamma": 1e-320}, "k_over_gamma"),    # f_th overflows
        ({"k_over_gamma": 1e-170}, "k_over_gamma"),    # lam underflows to 0
        ({"k_over_gamma": 1e308}, "k_over_gamma"),     # lam overflows
        ({"gamma3_over_gamma": 1e308}, "k_over_gamma"),
        ({"gamma3_over_gamma": 1e308, "lam_over_gamma": 1e308}, "lam_over_gamma"),
        ({"gamma3_over_gamma": 1e-10, "lam_over_gamma": 1e-320}, "lam_over_gamma"),
    ])
    def test_rates_outside_the_float_range_name_the_ratio(self, kw, key):
        with pytest.raises(InvalidParameterError, match=f"^{key}=.* both must be finite and > 0$"):
            params_from_ratios(**kw)

    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown"):
            config_to_params({"fbar_over_fth": 2.0, "fbar": 2.0})

    def test_non_numeric_rejected(self):
        with pytest.raises(InvalidParameterError):
            config_to_params({"fbar_over_fth": "high"})
        with pytest.raises(InvalidParameterError):
            config_to_params({"fbar_over_fth": True})

    def test_load_config_file(self, tmp_path):
        cfg = dict(CONFIG_DEFAULTS)
        cfg["fbar_over_fth"] = 1.7
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        p = config_to_params(read_config(path))
        assert derive_params(p).eps_bar == pytest.approx(1.7)

    def test_load_config_rejects_non_object(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        with pytest.raises(InvalidParameterError):
            config_to_params(read_config(path))

    @given(
        fbar=st.floats(0.1, 4.0),
        gamma3=st.floats(10.0, 60.0),
        k=st.floats(1e-4, 1e-2),
    )
    @settings(max_examples=40, deadline=None)
    def test_threshold_ratio_property(self, fbar, gamma3, k):
        p = config_to_params(
            {"fbar_over_fth": fbar, "gamma3_over_gamma": gamma3, "k_over_gamma": k}
        )
        d = derive_params(p)
        # eps_bar/gamma must equal fbar/f_th by construction
        assert d.eps_bar / d.gamma == pytest.approx(fbar, rel=1e-10)
        assert d.lam * d.f_th == pytest.approx(p.k * p.gamma, rel=1e-10)


def _bits(values) -> np.ndarray:
    """The float64 bit patterns of values, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.uint64)


def _assert_scipys(curve: Curve, spl: CubicSpline, t: np.ndarray) -> None:
    """curve is spl bit for bit: the coefficients, the curve at the array t
    and at each of its floats, after pickling, the minimum from the
    derivative's roots and, if periodic, the running integral."""
    assert (_bits(curve.coeffs) == _bits(spl.c)).all()
    period = curve.period
    want = _bits(spl(np.mod(t, period)) if period is not None else spl(t))
    assert (_bits(curve(t)) == want).all()
    assert (_bits([curve(float(v)) for v in t]) == want).all()
    back = pickle.loads(pickle.dumps(curve))
    assert (_bits(back(t)) == want).all()
    crit = spl.derivative().roots(extrapolate=False)
    crit = crit[np.isfinite(crit)]  # identically flat pieces give nan
    low = min(np.min(spl(spl.x)), np.min(spl(crit), initial=np.inf))
    assert _bits(curve.minimum()) == _bits(low)
    if period is not None:
        anti = spl.antiderivative()
        wraps = np.floor(t / period)
        want = anti(t - wraps * period) + wraps * float(anti(period))
        assert (_bits(curve.running_integral(t)) == _bits(want)).all()


class TestScalarEvaluation:
    """The scalar branches the ODE right-hand sides take must give the
    array path's bits: a Curve against CubicSpline, and eps at one
    float against eps on an array, for both pump kinds."""

    @pytest.mark.parametrize("periodic", [True, False])
    def test_scalar_cubic_matches_scipy(self, periodic):
        # 2 to 2,049 knots, scipy's special cases included: random values
        # with signed zeros, and "flat" and "zeros" curves whose every piece
        # is identically flat
        rng = np.random.default_rng(1503)
        for n, shape in itertools.product((2, 3, 4, 65, 2049), ("random", "flat", "zeros")):
            y = {"random": rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3),
                 "flat": np.full(n, 1.5), "zeros": np.zeros(n)}[shape]
            y[3::7] = -0.0
            if shape == "random":
                y[::7] = 0.0
            if periodic:
                x = np.linspace(0.0, rng.uniform(0.1, 50.0), n)
                y[-1] = y[0]
                at = Curve(y[:-1], period=x[-1])
            else:
                x = np.cumsum(rng.uniform(0.01, 2.0, n)) - 1.7
                at = Curve(y, knots=x)
            spl = CubicSpline(x, y, bc_type="periodic" if periodic else "not-a-knot")
            span = x[-1] - x[0]
            t = np.concatenate([x, rng.uniform(x[0] - 3 * span, x[-1] + 3 * span, 500),
                                [np.nextafter(x[-1], x[0]), np.nextafter(x[0], x[-1]),
                                 np.nextafter(x[0], -np.inf), -0.0]])
            if periodic:
                # and times whose whole periods round past them: NaN integrals
                ends = np.nextafter(np.arange(1, 400) * x[-1], 0.0)
                late = ends[ends - np.floor(ends / x[-1]) * x[-1] < 0.0]
                assert late.size
                assert np.isnan(at.running_integral(late)).all()
                t = np.concatenate([t, late])
            else:
                # a curve over its knots refuses the times past them
                outside = (t < x[0]) | (t > x[-1])
                for v in t[outside]:
                    with pytest.raises(InvalidParameterError, match="span"):
                        at(float(v))
                with pytest.raises(InvalidParameterError, match="span"):
                    at(t)
                t = t[~outside]
            _assert_scipys(at, spl, t)

    @pytest.mark.parametrize("kind", ["harmonic", "tabulated"])
    def test_eps_matches_array_path(self, kind):
        h = Harmonic(fbar=2.0e4, f1=3.0e4, delta=2.0, phi=0.3)
        knots = np.linspace(0.0, h.period, 129)
        m = h if kind == "harmonic" else TabulatedPeriodic(h.period, h.value(knots[:-1]))
        d = derive_params(ModelParams(gamma=1.0, gamma3=25.0, k=5e-4, modulation=m))
        rng = np.random.default_rng(1504)
        edges = [0.0, np.nextafter(h.period, 0.0), h.period, 5.0 * h.period,
                 -3.0 * h.period + 0.25]
        t = np.concatenate([knots, rng.uniform(-4.0 * h.period, 6.0 * h.period, 400), edges])
        assert type(d.eps(0.5)) is float and type(m.value(np.float64(0.5))) is float
        want = _bits(d.eps(t))
        assert (_bits([d.eps(float(x)) for x in t]) == want).all()
        assert (_bits([d.eps(x) for x in t]) == want).all()

    @pytest.mark.parametrize("kind", ["harmonic", "tabulated"])
    def test_prebuilt_eps_is_eps(self, kind):
        # the function the ODE right-hand sides evaluate the pump through:
        # eps's bits at t = 0, at every knot, just below and at T, at
        # negative times and many periods out
        h = Harmonic(fbar=2.0e4, f1=3.0e4, delta=2.0, phi=0.3)
        T = h.period
        knots = np.linspace(0.0, T, 129)
        m = h if kind == "harmonic" else TabulatedPeriodic(T, h.value(knots[:-1]))
        d = derive_params(ModelParams(gamma=1.0, gamma3=25.0, k=5e-4, modulation=m))
        rng = np.random.default_rng(1505)
        t = np.concatenate([[0.0, -0.0, np.nextafter(T, 0.0), T, -T, -0.25, -7.5 * T],
                            knots, -knots, rng.uniform(-50.0 * T, 50.0 * T, 300),
                            1e4 * T + knots, 1e6 * T + rng.uniform(0.0, T, 20)])
        eps = d.eps_at_float()
        got = [eps(float(x)) for x in t]
        assert all(type(v) is float for v in got)
        assert (_bits(got) == _bits([d.eps(float(x)) for x in t])).all()
        assert (_bits(got) == _bits(d.eps(t))).all()

    def test_tabulated_pump_pickles(self):
        # process pools pickle the parameters, scalar evaluator included
        h = Harmonic(fbar=2.0, f1=0.9, delta=2.0)
        m = TabulatedPeriodic(h.period, h.value(np.linspace(0.0, h.period, 64, endpoint=False)))
        back = pickle.loads(pickle.dumps(m))
        assert back == m and _bits(back.value(1.1)) == _bits(m.value(1.1))


class TestCurveIsScipys:
    """model.Curve builds scipy 1.17.1's CubicSpline itself; scipy stays as
    the reference here, and _assert_scipys compares them bit for bit."""

    def test_unevenly_spaced_knots(self):
        # knot gaps over six decades make dgtsv interchange rows
        rng = np.random.default_rng(2302)
        for n in (4, 5, 40):
            x = np.cumsum(10.0 ** rng.uniform(-3, 3, n))
            y = rng.normal(size=n)
            _assert_scipys(Curve(y, knots=x), CubicSpline(x, y),
                           np.concatenate([x, rng.uniform(x[0], x[-1], 200)]))

    def test_piece_lookup_is_searchsorteds(self):
        # the guessed piece, checked, against searchsorted alone: at and
        # beside every knot, past both ends, on evenly spaced knots (where
        # the guess rarely misses) and uneven ones (where it mostly does)
        rng = np.random.default_rng(2304)
        for x in (np.linspace(0.0, 7.3, 2049), np.linspace(-1.7, 0.4, 5),
                  np.cumsum(10.0 ** rng.uniform(-3, 3, 40))):
            curve = Curve(rng.normal(size=x.size), knots=x)
            t = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
                                rng.uniform(x[0] - 1.0, x[-1] + 1.0, 5000)])
            i, s = curve._locate(t)
            want = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
            assert (i == want).all()
            assert (_bits(s) == _bits(t - x[want])).all()

    def test_tridiagonal_solve_is_lapacks(self):
        # the knot-slope solver against scipy's solve_banded (LAPACK dgtsv):
        # random systems with and without row interchanges, and one where
        # dgtsv's 0.0*x[2] term turns x[0] from -0.0 into 0.0
        from scipy.linalg import solve_banded

        from modnopo.model import _tridiagonal, _tridiagonal_solve

        rng = np.random.default_rng(2303)
        systems = [([0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.5], [-0.0, -0.5, -1.0])]
        for n in (2, 3, 5, 40, 300):
            for weak in (False, True):
                d = rng.uniform(0.1, 4.0, n) * (0.1 if weak else 4.0)
                systems.append((rng.normal(size=n - 1).tolist(), d.tolist(),
                                rng.normal(size=n - 1).tolist(), rng.normal(size=n).tolist()))
        swapped = 0
        for dl, d, du, b in systems:
            factors = _tridiagonal(dl, d, du)
            swapped += any(factors[0])
            ab = np.array([[0.0, *du], d, [*dl, 0.0]])
            want = solve_banded((1, 1), ab, np.array(b))
            assert (_bits(_tridiagonal_solve(factors, b)) == _bits(want)).all()
        assert 0 < swapped < len(systems)

    @pytest.mark.parametrize("name", ["near", "sign_change", "fast", "tabulated"])
    def test_variance_evaluator_curves(self, monkeypatch, name):
        # the ln n0, n0 and memory curves the closed form builds
        import modnopo.fluctuations as fluctuations
        import test_fluctuations

        built = []

        def record(values, period):
            built.append(Curve(values, period))
            return built[-1]

        monkeypatch.setattr(fluctuations, "Curve", record)
        make = test_fluctuations.TestFrozenBytes.POINTS[name][0]
        fluctuations._variance_evaluator.__wrapped__(make())
        assert len(built) == 3
        for curve in built:
            t = np.linspace(-0.3, 2.1, 401) * curve.period
            _assert_scipys(curve, CubicSpline(
                curve.knots, np.append(curve.coeffs[3], curve.coeffs[3, 0]),
                bc_type="periodic"), t)

    @pytest.mark.parametrize("values,period,knots,what", [
        ([1.0, np.nan, 2.0], None, [0.0, 1.0, 2.0], "values must be finite"),
        ([1.0, np.inf], 2.0, None, "values must be finite"),
        ([1.0, 2.0, 3.0], None, [0.0, np.inf, 2.0], "knots must be finite"),
        ([1.0, 2.0], np.nan, None, "knots must be finite"),
        ([1.0, 2.0, 3.0], None, [0.0, 1.0, 1.0], "strictly increasing"),
        ([1.0, 2.0], -1.0, None, "strictly increasing"),
    ])
    def test_refuses_what_scipy_refused(self, values, period, knots, what):
        with pytest.raises(InvalidParameterError, match=what) as err:
            Curve(values, period, knots)
        assert isinstance(err.value, ValueError) and "\n" not in str(err.value)
