"""Phase-space trajectory ensembles: noise statistics, limits, moments.

The stochastic layer is validated against things it does not know about:
the noise constructor against its target covariances by direct Monte
Carlo, the drift against an independent solve_ivp of the classical
equation, ensemble variances against the linearized analytics, and the
recorded per-trajectory residuals against the moment evolution equations.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from helpers import sha256
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
from modnopo._ensemble import SALT_PHASE_SPACE, draw_noise, step_layout, trajectory_stream
from modnopo import positivep
from modnopo.positivep import BATCH, _classical_start, _run_batch

LAM = 1e-2  # nonlinearity-to-damping ratio for the stochastic test runs


def _stat_gate(scale, n, k=5.0):
    return k * scale / math.sqrt(n)


def _normals(rng, n):
    """n complex pairs of standard normals for each group, shape (2, n)."""
    return rng.standard_normal((2, 2 * n)).view(np.complex128)


def _walk(amps, d, dt, z):
    """Step the (4, B) batch amps from t = 0 through the ensemble's kernel,
    one step per (2, B) block of z; the clock is a running sum, as the
    ensemble's is."""
    amps = np.array(amps, dtype=np.complex128)
    work = positivep._workspace(amps.shape[1])
    t = 0.0
    for zk in z:
        u, _ = positivep._increments(amps, float(d.eps(t)), d.gamma, d.lam, dt, zk, work)
        amps += u.reshape(amps.shape)
        t += dt
    return amps


def _quiet(steps):
    """Noise blocks of one trajectory that are all zero: a step then takes
    the drift alone."""
    return np.zeros((steps, 2, 1), dtype=np.complex128)


class TestNoiseSampler:
    N = 40_000

    def _noise(self, state, eps_t, lam, dt, seed):
        """The kernel's noise part for N copies of state, as its (2, 2, N)
        rows [[alpha1, alpha2], [beta1, beta2]]."""
        amps = np.repeat(np.array(state, dtype=np.complex128)[:, None], self.N, axis=1)
        z = _normals(np.random.default_rng(seed), self.N)
        _, part = positivep._increments(amps, eps_t, 0.0, lam, dt, z,
                                        positivep._workspace(self.N))
        return part

    def test_cross_and_self_covariances(self):
        state = (1.3 + 0.2j, 0.9 - 0.4j, 1.1 - 0.1j, 0.8 + 0.3j)
        eps_t, lam, dt = 2.5, 0.01, 1e-3
        (a1, a2), (b1, b2) = self._noise(state, eps_t, lam, dt, seed=42)
        d_a = eps_t - lam * state[0] * state[1]
        d_b = eps_t - lam * state[2] * state[3]
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
        dt = 1e-3
        (a1, a2), _ = self._noise((2.0,) * 4, 0.0, 0.25, dt, seed=7)
        assert abs(np.mean(a1 * a2) / dt - (-1.0)) < _stat_gate(1.0, self.N)


class TestDriftLimit:
    def test_stationary_point_is_fixed(self):
        # at the flat-pump attractor the Euler drift cancels identically
        p = params_from_ratios(fbar_over_fth=3.0)
        d = derive_params(p)
        a = math.sqrt(2e8)
        alpha1, alpha2, beta1, _ = _walk(np.full((4, 1), a), d, 1e-3, _quiet(50))[:, 0]
        assert abs(alpha1) == pytest.approx(a, rel=1e-9)
        assert alpha2 == alpha1 and beta1 == alpha1

    def test_modulated_transient_matches_ivp(self):
        p = params_from_ratios(fbar_over_fth=2.0, f1_over_fbar=0.5,
                               lam_over_gamma=LAM)
        d = derive_params(p)

        def rhs(t, y):
            return [2.0 * y[0] * (float(d.eps(t)) - p.gamma - d.lam * y[0])]

        ref = solve_ivp(rhs, (0.0, 0.5), [50.0], rtol=1e-11, atol=1e-8,
                        dense_output=True)
        alpha1, _, beta1, _ = _walk(np.full((4, 1), math.sqrt(50.0)), d, 1e-4,
                                    _quiet(5000))[:, 0]
        assert (alpha1 * beta1).real == pytest.approx(float(ref.sol(0.5)[0]), rel=2e-4)

    def test_vacuum_kick(self):
        # from the origin the drift vanishes; one step gives the pair
        # correlator its diffusion value eps*dt in the mean
        p = params_from_ratios(fbar_over_fth=2.0, lam_over_gamma=LAM)
        d = derive_params(p)
        eps0 = float(d.eps(0.0))
        dt, m = 1e-3, 40_000
        z = _normals(np.random.default_rng(5), m)
        alpha1, alpha2 = _walk(np.zeros((4, m)), d, dt, z[None])[:2]
        assert abs(np.mean(alpha1 * alpha2).real / dt - eps0) < _stat_gate(eps0, m)


class TestScalarIsBatchKernel:
    def test_scalar_steps_reproduce_ensemble_means(self):
        # the kernel at B = 1 on each trajectory's own stream retraces the
        # ensemble: same kernel, same start point, same draws
        p = params_from_ratios(fbar_over_fth=2.0, f1_over_fbar=0.5,
                               lam_over_gamma=LAM)
        d = derive_params(p)
        seed, t_grid = 13, np.array([0.0, 0.05])
        ens = simulate_ensemble(p, 2, t_grid, seed=seed, relax=0.0)
        amp = math.sqrt(float(periodic_steady_state(p).interp(0.0)))
        steps = round(t_grid[-1] / ens.dt)
        n_plus, R = [], []
        for i in range(2):
            z = np.empty((steps, 2, 1), dtype=np.complex128)
            draw_noise([trajectory_stream(seed, i, SALT_PHASE_SPACE)], z)
            a1, a2, b1, b2 = _walk(np.full((4, 1), amp), d, ens.dt, z)[:, 0]
            n_plus.append(a1 * b1 + a2 * b2)
            R.append((a1 - b2) * (b1 - a2))
        assert np.mean(n_plus).real == pytest.approx(ens.n_plus_mean[-1], rel=1e-12)
        assert np.mean(R).real == pytest.approx(ens.R_mean[-1], rel=1e-12)


class TestGuardScreen:
    GUARD = 13.5

    def _same_as_moduli(self, amps):
        got = positivep._past_guard(amps, self.GUARD)
        want = (np.abs(amps) > self.GUARD).any(axis=0)
        np.testing.assert_array_equal(np.zeros_like(want) if got is None else got, want)
        return got

    def test_parts_under_half_the_guard_skip_the_moduli(self):
        under = np.nextafter(0.5 * self.GUARD, 0.0)
        amps = np.full((4, 3), complex(under, -under))
        amps[:, 1] = complex(-under, under)
        amps[:, 2] = 0.0
        assert self._same_as_moduli(amps) is None

    @pytest.mark.parametrize("z", [
        complex(13.5, 0.0),                  # exactly at the guard: kept
        complex(0.0, -13.5),
        complex(0.9 * 13.5, 0.9 * 13.5),     # parts inside, modulus past it
        complex(0.5 * 13.5, 0.0),            # exactly half the guard
        complex(10.0 * 13.5, 0.0),           # far past it
        complex(math.inf, 0.0), complex(-math.inf, 1.0), complex(1.0, -math.inf),
        complex(math.nan, 0.0), complex(0.0, math.nan),   # NaN stays alive
        complex(math.inf, math.nan),
    ])
    def test_screened_rule_discards_what_the_moduli_do(self, z):
        # each case alone in a row of an otherwise quiet batch, beside a
        # NaN in another column, and with a NaN in its own column, which
        # must hide it neither from the screen nor from the moduli (a
        # largest modulus over a Python max dropped every value after a NaN)
        for row in range(4):
            amps = np.full((4, 3), 1.0 + 1.0j)
            amps[row, 1] = z
            self._same_as_moduli(amps)
            amps[(row + 1) % 4, 2] = math.nan
            self._same_as_moduli(amps)
            amps[(row + 1) % 4, 1] = math.nan
            self._same_as_moduli(amps)


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

    def test_results_are_frozen(self):
        # the extended fields are set when the result is built, and no
        # field can be reassigned afterwards
        p = params_from_ratios(fbar_over_fth=2.0, lam_over_gamma=LAM)
        ens = simulate_ensemble(p, 16, np.linspace(0.0, 0.1, 3), seed=1, relax=0.1,
                                collect_extended=True)
        assert ens.residual_mean.shape == ens.residual_stderr.shape == (3, 1)
        for field in dataclasses.fields(ens):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ens, field.name, None)


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


class TestStepGroups:
    """Several batches step as one array and still sum batch by batch."""

    P = params_from_ratios(fbar_over_fth=2.0, f1_over_fbar=0.5,
                           delta_over_gamma=2.0, lam_over_gamma=LAM)

    def test_wide_masked_job_is_four_single_batches(self):
        # 900 trajectories: three full batches and one of 132, at a guard
        # that freezes most of them one by one
        args = _masked_batch_args(self.P)
        wide = _run_batch(np.arange(40, 940), *args)
        alone = [_run_batch(np.arange(lo, min(lo + BATCH, 940)), *args)[0]
                 for lo in range(40, 940, BATCH)]
        assert len(wide) == len(alone) == 4
        for got, want in zip(wide, alone):
            assert sorted(got) == sorted(want)
            for key, val in want.items():
                assert np.asarray(got[key]).tobytes() == np.asarray(val).tobytes(), key

    def test_grouping_does_not_change_results(self):
        # 1037 trajectories are 4+1 batches in one worker's jobs and 3+2 in
        # two workers'
        t_grid = np.linspace(0.0, 0.3, 4)
        one = simulate_ensemble(self.P, 1037, t_grid, seed=23, relax=0.3)
        two = simulate_ensemble(self.P, 1037, t_grid, seed=23, relax=0.3,
                                n_workers=2)
        for f in dataclasses.fields(one):
            a, b = getattr(one, f.name), getattr(two, f.name)
            if isinstance(a, np.ndarray):
                assert a.tobytes() == b.tobytes(), f.name
            else:
                assert a == b, f.name

    @pytest.mark.parametrize("n_traj,n_workers,widths", [
        (1037, 1, [1024, 13]),
        (1037, 2, [768, 269]),
        (512, 2, [256, 256]),
        (8192, 2, [1024] * 8),
        (1024, 3, [256] * 4),
    ])
    def test_job_widths(self, monkeypatch, n_traj, n_workers, widths):
        assert self._widths(monkeypatch, n_traj, n_workers) == widths

    def test_jobs_are_bounded_and_fill_the_workers(self, monkeypatch):
        for n_traj in (2, 255, 256, 257, 1024, 1025, 2049, 5000, 9000):
            n_batches = -(-n_traj // BATCH)
            for n_workers in (1, 2, 3, 5, 64):
                widths = self._widths(monkeypatch, n_traj, n_workers)
                assert sum(widths) == n_traj
                assert max(widths) <= 4 * BATCH
                assert all(w % BATCH == 0 for w in widths[:-1])
                assert len(widths) >= min(n_workers, n_batches)

    def _widths(self, monkeypatch, n_traj, n_workers):
        # one grid point and no relaxation: the jobs run without a step
        jobs = []

        def capture(fn, js, workers):
            jobs.extend(js)
            return [fn(j) for j in js]

        monkeypatch.setattr(positivep, "map_ordered", capture)
        simulate_ensemble(self.P, n_traj, [0.0], seed=1, relax=0.0,
                          n_workers=n_workers)
        assert np.concatenate(jobs).tolist() == list(range(n_traj))
        return [j.size for j in jobs]


class TestGuards:
    def test_unstable_step_is_refused(self):
        # dt far past the stability limit, where every trajectory diverges:
        # the drift rate gamma + eps + 2 lam n0 is 1 + 3 + 4 = 8, so the run
        # must refuse before stepping and name the limit 1/8
        p = params_from_ratios(fbar_over_fth=3.0, lam_over_gamma=0.1)
        with pytest.raises(InvalidParameterError, match=r"dt=0\.5 .* dt < 0\.125 "):
            simulate_ensemble(p, 64, np.linspace(0.0, 2.0, 5), seed=1, dt=0.5)

    def test_divergence_over_budget_raises(self, monkeypatch):
        # a stable step, but a guard just above the orbit that freezes most
        # trajectories: the run must refuse to report
        monkeypatch.setattr(positivep, "divergence_guard", lambda d: 13.5)
        p = params_from_ratios(fbar_over_fth=2.0, f1_over_fbar=0.5,
                               delta_over_gamma=2.0, lam_over_gamma=LAM)
        with pytest.raises(DivergenceBudgetError, match="diverged"):
            simulate_ensemble(p, 64, np.linspace(0.0, 0.5, 6), seed=1, relax=0.3)

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


def _moments_digest(ens) -> str:
    return sha256((f.name, getattr(ens, f.name)) for f in dataclasses.fields(ens))


class TestFrozenBytes:
    """Regression freezes: sha256 of every result array of small runs.  The
    first four were taken at commit deb37af before the batch kernel was
    fused, the 1037-trajectory runs and the four masked batches before
    several batches were stepped as one array.  Those above threshold were
    taken again when the classical orbit, their starting point, came to be
    shot instead of iterated; with the earlier orbit's starting amplitude
    each gives its earlier digest.  A rewrite of the kernel or the step
    loop must keep every byte."""

    P = params_from_ratios(fbar_over_fth=2.0, f1_over_fbar=0.5,
                           delta_over_gamma=2.0, lam_over_gamma=LAM)

    def test_plain_ensemble(self):
        # 300 trajectories: a full batch and a partial one
        ens = simulate_ensemble(self.P, 300, np.linspace(0.0, 0.5, 6),
                                seed=1101, relax=0.3)
        assert _moments_digest(ens) == (
            "c658e753b7d1c82ab8410f34d85a16167a72494876fd6c4ed7c028f4cf79c096")

    def test_extended_ensemble(self):
        ens = simulate_ensemble(self.P, 300, np.linspace(0.0, 0.6, 7),
                                seed=1102, relax=0.2, collect_extended=True)
        assert _moments_digest(ens) == (
            "94a9aa3666a6f97fe39cbe71fdac55327dfc8836303220c3246a9c92e3116691")

    def test_below_threshold_from_vacuum(self):
        # every amplitude starts at exactly 0, and the pump changes sign
        # during the cycle, so signed zeros and both square-root branches
        # reach the sums
        p = params_from_ratios(fbar_over_fth=0.5, f1_over_fbar=1.5,
                               delta_over_gamma=2.0, lam_over_gamma=LAM)
        ens = simulate_ensemble(p, 300, np.linspace(0.0, 0.5, 6), seed=1103,
                                relax=0.3)
        assert _moments_digest(ens) == (
            "023516b27c7c81ca2eeb3371a355e4be1595f726b849ac84512aeb002f5046c7")

    def test_masked_batch(self):
        # a guard just above the orbit: all 100 trajectories live through
        # the relaxation, then 79 of them are frozen one by one, so the
        # alive mask multiplies the later updates
        acc = _run_batch(np.arange(40, 140), *_masked_batch_args(self.P))[0]
        np.testing.assert_array_equal(acc["count"], [100, 96, 72, 39, 25, 21])
        assert sha256((k, acc[k]) for k in sorted(acc)) == (
            "799460be981eb7d9cfda966cbffc12bf2f5cb895a4f6aacd17c58f80da6ce8d0")

    def test_four_masked_batches(self):
        # the accumulators of four consecutive full batches at the masked
        # guard, stepped as one array and summed batch by batch
        accs = _run_batch(np.arange(40, 1064), *_masked_batch_args(self.P))
        assert sha256((f"{n}:{k}", acc[k]) for n, acc in enumerate(accs)
                      for k in sorted(acc)) == (
            "4149c3bf68ab0607db6c3f2b376f2ce597ea00b4935d9bb29097ae491fbe160d")

    def test_four_full_batches_and_a_partial(self):
        for n_workers in (1, 2):
            ens = simulate_ensemble(self.P, 1037, np.linspace(0.0, 0.5, 6),
                                    seed=1105, relax=0.3, n_workers=n_workers)
            assert _moments_digest(ens) == (
                "9272f399f6ce9d8dd55d50bfc8e86195ab5285a4396990b12a3bf8e6cdf46a2d")

    def test_four_full_batches_and_a_partial_extended(self):
        for n_workers in (1, 2):
            ens = simulate_ensemble(self.P, 1037, np.linspace(0.0, 0.6, 7),
                                    seed=1106, relax=0.2, n_workers=n_workers,
                                    collect_extended=True)
            assert _moments_digest(ens) == (
                "ed25aa7cca4962842686504719c7c3a8bf16ca37f87331f1046ed5fe52dd99a9")

    def test_benchmark_cli_point(self):
        # the phase_space benchmark's CLI ensemble (delta 4, relax 1, one
        # modulation period on 17 points), cut to four full batches and a
        # partial one; taken before the noise was handed over as complex
        # pairs and the kernel wrote into per-job arrays
        p = params_from_ratios(fbar_over_fth=2.0, f1_over_fbar=0.25,
                               delta_over_gamma=4.0, lam_over_gamma=LAM)
        t_grid = np.linspace(0.0, derive_params(p).period, 17)
        for n_workers in (1, 2):
            ens = simulate_ensemble(p, 1037, t_grid, seed=1107, relax=1.0,
                                    n_workers=n_workers)
            assert _moments_digest(ens) == (
                "1ff2b55bf149ef3e7bd62a90c487d69a10c8185907218e58b7d2532c41283c42")


def _masked_batch_args(p):
    """_run_batch's arguments after the indices for TestFrozenBytes.P on six
    grid points, with a guard of 13.5, just above the orbit."""
    d = derive_params(p)
    t_grid, spi, dt, n_relax, t_start, n_steps = step_layout(
        np.linspace(0.0, 0.5, 6), 1e-3, 0.3, 100, 1)
    eps_steps, t = [], t_start
    for _ in range(n_steps):
        eps_steps.append(float(d.eps(t)))
        t += dt
    return (d, 1104, _classical_start(p, t_start)[0], eps_steps, n_relax, spi,
            t_grid, dt, 13.5, True)
