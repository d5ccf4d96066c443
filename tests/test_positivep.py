"""Phase-space trajectory ensembles: noise statistics, limits, moments.

The stochastic layer is validated against things it does not know about:
the noise constructor against its target covariances by direct Monte
Carlo, the drift against an independent solve_ivp of the classical
equation, ensemble variances against the linearized analytics, and the
recorded per-trajectory residuals against the moment evolution equations.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from modnopo import (
    DivergenceBudgetError,
    InvalidParameterError,
    check_moment_equations,
    derive_params,
    integrate_variance,
    params_from_ratios,
    periodic_steady_state,
    simulate_ensemble,
)
from modnopo._streams import SALT_PHASE_SPACE, trajectory_stream
from modnopo.positivep import PPState, sample_noise, step_trajectory

LAM = 1e-2  # nonlinearity-to-damping ratio for the stochastic test runs


def _stat_gate(scale, n, k=5.0):
    return k * scale / math.sqrt(n)


class TestNoiseSampler:
    N = 40_000

    def test_cross_and_self_covariances(self):
        rng = np.random.default_rng(42)
        st = PPState(
            alpha1=1.3 + 0.2j, alpha2=0.9 - 0.4j,
            beta1=1.1 - 0.1j, beta2=0.8 + 0.3j, t=0.0,
        )
        eps_t, lam, dt = 2.5, 0.01, 1e-3
        draws = [sample_noise(st, eps_t, lam, dt, rng) for _ in range(self.N)]
        a1 = np.array([w.dW_alpha1 for w in draws])
        a2 = np.array([w.dW_alpha2 for w in draws])
        b1 = np.array([w.dW_beta1 for w in draws])
        b2 = np.array([w.dW_beta2 for w in draws])
        d_a = eps_t - lam * st.alpha1 * st.alpha2
        d_b = eps_t - lam * st.beta1 * st.beta2
        gate = _stat_gate(abs(d_a), self.N)
        # cross-correlations within each group carry the full diffusion
        assert abs(np.mean(a1 * a2) / dt - d_a) < gate
        assert abs(np.mean(b1 * b2) / dt - d_b) < gate
        # self-correlations and group cross-talk vanish
        assert abs(np.mean(a1 * a1) / dt) < 2.0 * gate
        assert abs(np.mean(b2 * b2) / dt) < 2.0 * gate
        assert abs(np.mean(a1 * b2) / dt) < 2.0 * gate
        assert abs(np.mean(a2 * b1) / dt) < 2.0 * gate

    def test_negative_diffusion_branch(self):
        # pump off, strong nonlinearity: d < 0, the root goes imaginary
        # and the cross-correlation must come out negative
        rng = np.random.default_rng(7)
        st = PPState(alpha1=2.0 + 0j, alpha2=2.0 + 0j,
                     beta1=2.0 + 0j, beta2=2.0 + 0j, t=0.0)
        dt = 1e-3
        draws = [sample_noise(st, 0.0, 0.25, dt, rng) for _ in range(self.N)]
        a1 = np.array([w.dW_alpha1 for w in draws])
        a2 = np.array([w.dW_alpha2 for w in draws])
        assert abs(np.mean(a1 * a2) / dt - (-1.0)) < _stat_gate(1.0, self.N)

    def test_bad_dt_rejected(self):
        st = PPState(0j, 0j, 0j, 0j, t=0.0)
        with pytest.raises(ValueError, match="dt"):
            sample_noise(st, 1.0, 0.1, 0.0, np.random.default_rng(0))


class TestDriftLimit:
    def test_stationary_point_is_fixed(self):
        # at the flat-pump attractor the Euler drift cancels identically
        p = params_from_ratios(fbar_over_fth=3.0)
        d = derive_params(p)
        a = math.sqrt(2e8)
        s = PPState(a + 0j, a + 0j, a + 0j, a + 0j, t=0.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = step_trajectory(s, d, 1e-3, rng, with_noise=False)
        assert abs(s.alpha1) == pytest.approx(a, rel=1e-9)
        assert s.alpha2 == s.alpha1 and s.beta1 == s.alpha1

    def test_modulated_transient_matches_ivp(self):
        p = params_from_ratios(fbar_over_fth=2.0, f1_over_fbar=0.5,
                               lam_over_gamma=LAM)
        d = derive_params(p)

        def rhs(t, y):
            return [2.0 * y[0] * (float(d.eps(t)) - p.gamma - d.lam * y[0])]

        ref = solve_ivp(rhs, (0.0, 0.5), [50.0], rtol=1e-11, atol=1e-8,
                        dense_output=True)
        s = PPState(*([math.sqrt(50.0) + 0j] * 4), t=0.0)
        rng = np.random.default_rng(0)
        for _ in range(5000):
            s = step_trajectory(s, d, 1e-4, rng, with_noise=False)
        n_end = (s.alpha1 * s.beta1).real
        assert n_end == pytest.approx(float(ref.sol(0.5)[0]), rel=2e-4)

    def test_vacuum_kick(self):
        # from the origin the drift vanishes; one step gives the pair
        # correlator its diffusion value eps*dt in the mean
        p = params_from_ratios(fbar_over_fth=2.0, lam_over_gamma=LAM)
        d = derive_params(p)
        eps0 = float(d.eps(0.0))
        vac = PPState(0j, 0j, 0j, 0j, t=0.0)
        rng = np.random.default_rng(5)
        dt, m = 1e-3, 40_000
        acc = sum(
            (lambda s: s.alpha1 * s.alpha2)(step_trajectory(vac, d, dt, rng))
            for _ in range(m)
        )
        assert abs(acc.real / m / dt - eps0) < _stat_gate(eps0, m)


class TestScalarIsBatchKernel:
    def test_scalar_steps_reproduce_ensemble_means(self):
        # step_trajectory on each trajectory's own stream retraces the
        # ensemble: same kernel, same start point, same draws
        p = params_from_ratios(fbar_over_fth=2.0, f1_over_fbar=0.5,
                               lam_over_gamma=LAM)
        d = derive_params(p)
        seed, t_grid = 13, np.array([0.0, 0.05])
        ens = simulate_ensemble(p, 2, t_grid, seed=seed, relax=0.0)
        amp = math.sqrt(float(periodic_steady_state(p).interp(0.0)))
        n_plus, R = [], []
        for i in range(2):
            rng = trajectory_stream(seed, i, SALT_PHASE_SPACE)
            s = PPState(*([amp + 0j] * 4), t=0.0)
            while s.t < t_grid[-1] - 0.5 * ens.dt:
                s = step_trajectory(s, d, ens.dt, rng)
            n_plus.append(s.alpha1 * s.beta1 + s.alpha2 * s.beta2)
            R.append((s.alpha1 - s.beta2) * (s.beta1 - s.alpha2))
        assert np.mean(n_plus).real == pytest.approx(ens.n_plus_mean[-1], rel=1e-12)
        assert np.mean(R).real == pytest.approx(ens.R_mean[-1], rel=1e-12)


class TestEnsembleVsAnalytics:
    def test_flat_above_threshold_level(self):
        p = params_from_ratios(fbar_over_fth=2.0, lam_over_gamma=LAM)
        ens = simulate_ensemble(p, 800, np.linspace(0.0, 0.4, 3), seed=7,
                                relax=3.0)
        gate = np.maximum(3.0 * ens.V_stderr, 2.0 * LAM)
        assert np.all(np.abs(ens.V_mean - 0.625) <= gate)
        assert ens.discarded == 0
        np.testing.assert_array_equal(ens.alive, 800)

    def test_flat_below_threshold_level(self):
        p = params_from_ratios(fbar_over_fth=0.5, lam_over_gamma=LAM)
        ens = simulate_ensemble(p, 800, np.linspace(0.0, 0.4, 3), seed=3,
                                relax=3.0)
        gate = np.maximum(3.0 * ens.V_stderr, 2.0 * LAM)
        assert np.all(np.abs(ens.V_mean - 2.0 / 3.0) <= gate)

    def test_modulated_tracks_linearized_variance(self):
        p = params_from_ratios(fbar_over_fth=2.0, f1_over_fbar=0.5,
                               delta_over_gamma=2.0, lam_over_gamma=LAM)
        t_grid = np.linspace(0.0, math.pi, 17)
        ens = simulate_ensemble(p, 1200, t_grid, seed=11, relax=3.0,
                                collect_extended=True)
        want = integrate_variance(p).interp(t_grid)
        gate = np.maximum(3.0 * ens.V_stderr, 2.0 * LAM)
        assert np.all(np.abs(ens.V_mean - want) <= gate)
        # the ensemble obeys its own moment evolution equations
        rep = check_moment_equations(ens, p)
        assert rep.ok, f"frac={rep.frac_within_3}, max|z|={rep.max_abs_z}"
        assert rep.z_scores.shape == (3, t_grid.size - 2)

    def test_residuals_require_extended_run(self):
        p = params_from_ratios(fbar_over_fth=2.0, lam_over_gamma=LAM)
        ens = simulate_ensemble(p, 16, np.linspace(0.0, 0.1, 3), seed=1,
                                relax=0.1)
        with pytest.raises(ValueError, match="extended"):
            check_moment_equations(ens, p)


class TestEnsembleInvariants:
    def test_variance_is_one_plus_correlator(self):
        p = params_from_ratios(fbar_over_fth=2.0, lam_over_gamma=LAM)
        ens = simulate_ensemble(p, 64, np.linspace(0.0, 0.2, 3), seed=2,
                                relax=0.5)
        np.testing.assert_array_equal(ens.V_mean, 1.0 + ens.R_mean)
        np.testing.assert_array_equal(ens.V_stderr, ens.R_stderr)

    def test_mode_symmetry(self):
        # symmetric initial conditions lock the two modes together up to
        # rounding dust; the lock only breaks if the diffusion coefficient
        # changes sign along a trajectory
        p = params_from_ratios(fbar_over_fth=2.0, f1_over_fbar=0.5,
                               lam_over_gamma=LAM)
        ens = simulate_ensemble(p, 512, np.linspace(0.0, 1.0, 5), seed=9,
                                relax=2.0)
        scale = np.max(np.abs(ens.pair1_mean)) + 1.0
        gate = np.maximum(3.0 * ens.pair_diff_stderr, 1e-10 * scale)
        assert np.all(np.abs(ens.pair1_mean - ens.pair2_mean) <= gate)

    def test_workers_do_not_change_results(self):
        p = params_from_ratios(fbar_over_fth=2.0, f1_over_fbar=0.5,
                               lam_over_gamma=LAM)
        t_grid = np.linspace(0.0, 0.3, 4)
        one = simulate_ensemble(p, 600, t_grid, seed=21, relax=0.5)
        four = simulate_ensemble(p, 600, t_grid, seed=21, relax=0.5,
                                 n_workers=4)
        np.testing.assert_array_equal(one.V_mean, four.V_mean)
        np.testing.assert_array_equal(one.V_stderr, four.V_stderr)
        np.testing.assert_array_equal(one.n_plus_mean, four.n_plus_mean)
        np.testing.assert_array_equal(one.Z_mean, four.Z_mean)
        assert one.discarded == four.discarded

    def test_seed_changes_results(self):
        p = params_from_ratios(fbar_over_fth=2.0, lam_over_gamma=LAM)
        t_grid = np.linspace(0.0, 0.2, 3)
        a = simulate_ensemble(p, 64, t_grid, seed=1, relax=0.2)
        b = simulate_ensemble(p, 64, t_grid, seed=2, relax=0.2)
        assert np.any(a.V_mean != b.V_mean)


class TestGuards:
    def test_unstable_step_raises(self):
        # dt far past the stability limit: everything diverges and the
        # run must refuse to report
        p = params_from_ratios(fbar_over_fth=3.0, lam_over_gamma=0.1)
        with pytest.raises(DivergenceBudgetError):
            simulate_ensemble(p, 64, np.linspace(0.0, 2.0, 5), seed=1, dt=0.5)

    def test_input_validation(self):
        p = params_from_ratios(fbar_over_fth=2.0, lam_over_gamma=LAM)
        with pytest.raises(ValueError, match="trajectories"):
            simulate_ensemble(p, 1, np.linspace(0.0, 1.0, 3), seed=0)
        with pytest.raises(ValueError, match="uniform"):
            simulate_ensemble(p, 8, np.array([0.0, 0.1, 0.5]), seed=0)
        with pytest.raises(ValueError, match="grid points"):
            simulate_ensemble(p, 8, np.array([0.0, 0.1]), seed=0,
                              collect_extended=True)
        # a non-positive dt must not silently become the grid spacing
        for dt in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidParameterError, match="dt"):
                simulate_ensemble(p, 8, np.linspace(0.0, 1.0, 3), seed=0, dt=dt)
        # a non-finite relaxation window has no step count
        for relax in (math.nan, math.inf):
            with pytest.raises(InvalidParameterError, match="relax"):
                simulate_ensemble(p, 8, np.linspace(0.0, 1.0, 3), seed=0,
                                  relax=relax)
        for n_workers in (0, -2):
            with pytest.raises(InvalidParameterError, match="n_workers"):
                simulate_ensemble(p, 8, np.linspace(0.0, 1.0, 3), seed=0,
                                  n_workers=n_workers)
