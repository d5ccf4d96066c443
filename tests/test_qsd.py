"""Truncated-basis diffusion unraveling: operators, generator, ensembles.

The load-bearing check here builds the full master-equation generator as a
dense matrix from the module's own Hamiltonian and jump operators and
verifies that d<A>/dt for the basic observables comes out as the closed
moment forms the rest of the package integrates.  States are kept two
levels clear of the cutoff so ladder truncation cannot leak into the
comparison; agreement is then at rounding level, not statistical.
"""

import math

import numpy as np
import pytest

from modnopo import (
    FockDimensionError,
    InvalidParameterError,
    TruncationError,
    build_operators,
    derive_params,
    expectation,
    params_from_ratios,
    qsd_step,
    simulate_qsd_ensemble,
    vacuum_state,
)
import modnopo.qsd as qsd
from modnopo.qsd import FockState, _step_batch, auto_n_max, ladder

LAM = 0.1  # nonlinearity-to-damping ratio for the stochastic test runs


def _basis_index(n1, n2, n_max):
    return n1 * (n_max + 1) + n2


class TestOperators:
    def test_ladder_smallest(self):
        a = ladder(1).toarray()
        np.testing.assert_array_equal(a, [[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal((a.conj().T @ a).diagonal(), [0.0, 1.0])

    def test_ladder_commutator_below_cutoff(self):
        n_max = 7
        a = ladder(n_max).toarray()
        comm = (a @ a.conj().T - a.conj().T @ a).diagonal().real
        np.testing.assert_allclose(comm[:n_max], 1.0, atol=1e-14)
        assert comm[n_max] == pytest.approx(-n_max)  # truncation edge

    def test_ladder_validation(self):
        with pytest.raises(InvalidParameterError):
            ladder(0)

    def test_pair_jump_lowers_both_modes(self):
        p = params_from_ratios(fbar_over_fth=0.5, lam_over_gamma=LAM)
        d = derive_params(p)
        ops = build_operators(p, 4)
        state = np.zeros(ops.dim, dtype=complex)
        state[_basis_index(1, 1, 4)] = 1.0
        out = ops.lindblad_ops()[2] @ state
        want = np.zeros(ops.dim, dtype=complex)
        want[_basis_index(0, 0, 4)] = math.sqrt(2.0 * d.lam)
        np.testing.assert_allclose(out, want, atol=1e-15)

    def test_build_validation(self):
        p = params_from_ratios()
        with pytest.raises(InvalidParameterError):
            build_operators(p, 1)
        with pytest.raises(FockDimensionError):
            build_operators(p, 250)

    def test_expectations(self):
        p = params_from_ratios(fbar_over_fth=0.5, lam_over_gamma=LAM)
        ops = build_operators(p, 3)
        vac = vacuum_state(ops)
        n1 = np.diag(ops.n1_diag)
        assert expectation(vac, n1) == 0.0
        # equal superposition of |0,0> and |1,1>
        amps = np.zeros(ops.dim, dtype=complex)
        amps[_basis_index(0, 0, 3)] = 1.0 / math.sqrt(2.0)
        amps[_basis_index(1, 1, 3)] = 1.0 / math.sqrt(2.0)
        psi = FockState(amplitudes=amps, t=0.0)
        assert expectation(psi, n1).real == pytest.approx(0.5)
        assert abs(expectation(psi, n1).imag) < 1e-14
        with pytest.raises(FockDimensionError):
            expectation(vac, np.eye(5))


class TestGeneratorConsistency:
    """Module operators reproduce the closed moment evolution forms."""

    def _setup(self):
        p = params_from_ratios(fbar_over_fth=0.8, f1_over_fbar=0.3,
                               delta_over_gamma=1.7, phi=0.4,
                               lam_over_gamma=0.05)
        d = derive_params(p)
        n_max = 6
        ops = build_operators(p, n_max)
        t = 0.37
        eps_t = float(d.eps(t))

        H = ops.hamiltonian(t).toarray()
        Ls = [L.toarray() for L in ops.lindblad_ops()]

        # random state supported two levels below the cutoff, so every
        # operator product in the comparison acts exactly as untruncated
        rng = np.random.default_rng(123)
        amps = rng.standard_normal(ops.dim) + 1j * rng.standard_normal(ops.dim)
        for n1 in range(n_max + 1):
            for n2 in range(n_max + 1):
                if n1 > n_max - 2 or n2 > n_max - 2:
                    amps[_basis_index(n1, n2, n_max)] = 0.0
        amps /= np.linalg.norm(amps)

        rho = np.outer(amps, amps.conj())
        lind = -1j * (H @ rho - rho @ H)
        for L in Ls:
            LdL = L.conj().T @ L
            lind += L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL)

        eye = np.eye(ops.dim)
        A1 = np.kron(ladder(n_max).toarray(), np.eye(n_max + 1))
        A2 = np.kron(np.eye(n_max + 1), ladder(n_max).toarray())
        N1, N2 = A1.conj().T @ A1, A2.conj().T @ A2
        P = A1 @ A2

        def ddt(A):
            return complex(np.trace(A @ lind))

        def e(A):
            return complex(amps.conj() @ (A @ amps))

        return d, eps_t, eye, N1, N2, P, ddt, e

    @staticmethod
    def _agree(lhs, rhs):
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs), abs(rhs)), (lhs, rhs)

    def test_photon_number_equations(self):
        d, eps_t, eye, N1, N2, P, ddt, e = self._setup()
        Pd = P.conj().T
        for N in (N1, N2):
            self._agree(
                ddt(N),
                -2.0 * d.gamma * e(N) - 2.0 * d.lam * e(N1 @ N2)
                + eps_t * e(Pd + P),
            )

    def test_pair_correlator_equation(self):
        d, eps_t, eye, N1, N2, P, ddt, e = self._setup()
        self._agree(
            ddt(P),
            -2.0 * d.gamma * e(P)
            + eps_t * (e(N1) + e(N2) + 1.0)
            - d.lam * e((N1 + N2 + eye) @ P),
        )

    def test_generator_is_trace_free_and_hermitian(self):
        d, eps_t, eye, N1, N2, P, ddt, e = self._setup()
        assert abs(ddt(eye)) < 1e-12
        assert ddt(P.conj().T) == pytest.approx(np.conj(ddt(P)), abs=1e-12)


class TestStepKernel:
    def test_kernel_matches_dense_generator_form(self):
        # the folded per-trajectory coefficients of the fused kernel must
        # reproduce psi + [-iH - 1/2 sum L^dag L + sum <L>* L
        # - 1/2 sum |<L>|^2] psi dt + sum (L - <L>) psi dxi, built densely
        # from the module's Hamiltonian and jump operators
        p = params_from_ratios(fbar_over_fth=0.8, f1_over_fbar=0.3,
                               delta_over_gamma=1.7, phi=0.4,
                               lam_over_gamma=0.05)
        ops = build_operators(p, 4)
        t, dt = 0.37, 1e-2
        rng = np.random.default_rng(7)
        psi = rng.standard_normal((ops.dim, 3)) + 1j * rng.standard_normal((ops.dim, 3))
        psi /= np.linalg.norm(psi, axis=0)
        xi = rng.standard_normal((6, 3))
        got = _step_batch(psi, float(ops.eps(t)), ops, dt, xi)

        H = ops.hamiltonian(t).toarray()
        Ls = [L.toarray() for L in ops.lindblad_ops()]
        for b in range(3):
            v = psi[:, b]
            means = [complex(v.conj() @ L @ v) for L in Ls]
            gen = -1j * H - 0.5 * sum(np.abs(m) ** 2 for m in means) * np.eye(ops.dim)
            want = v.copy()
            for k, (L, m) in enumerate(zip(Ls, means)):
                gen += -0.5 * L.conj().T @ L + np.conj(m) * L
                dxi = math.sqrt(0.5 * dt) * (xi[2 * k, b] + 1j * xi[2 * k + 1, b])
                want += (L @ v - m * v) * dxi
            want += gen @ v * dt
            np.testing.assert_allclose(got[:, b], want, rtol=0, atol=1e-13)


class TestSingleTrajectory:
    def test_vacuum_is_fixed_without_pump(self):
        p = params_from_ratios(fbar_over_fth=0.0, lam_over_gamma=LAM)
        ops = build_operators(p, 4)
        vac = vacuum_state(ops)
        out = qsd_step(vac, ops, 1e-3, np.random.default_rng(0))
        np.testing.assert_array_equal(out.amplitudes, vac.amplitudes)
        assert out.t == pytest.approx(1e-3)

    def test_step_renormalizes(self):
        p = params_from_ratios(fbar_over_fth=0.5, lam_over_gamma=LAM)
        ops = build_operators(p, 6)
        rng = np.random.default_rng(2)
        s = vacuum_state(ops)
        for _ in range(200):
            s = qsd_step(s, ops, 1e-3, rng)
        assert s.norm == pytest.approx(1.0, abs=1e-12)

    def test_short_time_variance_slope(self):
        # from vacuum the first step is deterministic and pulls V down
        # at twice the pump rate
        p = params_from_ratios(fbar_over_fth=0.5, lam_over_gamma=LAM)
        d = derive_params(p)
        ops = build_operators(p, 4)
        dt = 1e-5
        s = qsd_step(vacuum_state(ops), ops, dt, np.random.default_rng(0))
        w = np.abs(s.amplitudes) ** 2
        pair = complex(s.amplitudes.conj() @ (ops.pair @ s.amplitudes))
        v = 1.0 + float(ops.n1_diag @ w + ops.n2_diag @ w) - 2.0 * pair.real
        assert (v - 1.0) / dt == pytest.approx(-2.0 * float(d.eps(0.0)), rel=1e-3)

    def test_tail_breach_raises(self):
        p = params_from_ratios(fbar_over_fth=0.5, lam_over_gamma=LAM)
        ops = build_operators(p, 4)
        amps = np.zeros(ops.dim, dtype=complex)
        amps[_basis_index(4, 4, 4)] = 1.0
        top = FockState(amplitudes=amps, t=0.0)
        with pytest.raises(TruncationError, match="tail"):
            qsd_step(top, ops, 1e-3, np.random.default_rng(0))

    def test_bad_dt_and_dim(self):
        p = params_from_ratios(fbar_over_fth=0.5, lam_over_gamma=LAM)
        ops = build_operators(p, 4)
        with pytest.raises(InvalidParameterError):
            qsd_step(vacuum_state(ops), ops, 0.0, np.random.default_rng(0))
        small = build_operators(p, 3)
        with pytest.raises(FockDimensionError):
            qsd_step(vacuum_state(small), ops, 1e-3, np.random.default_rng(0))


@pytest.fixture(scope="module")
def linear_run():
    p = params_from_ratios(fbar_over_fth=0.2, lam_over_gamma=LAM)
    return p, simulate_qsd_ensemble(
        p, n_traj=96, t_grid=np.linspace(0.0, 1.0, 3), seed=5, n_workers=2
    )


class TestEnsemble:
    def test_linear_regime_level(self, linear_run):
        # below threshold the linearized V = 1/(1 + pump ratio) holds up
        # to corrections of order the nonlinearity ratio
        _, ens = linear_run
        gate = np.maximum(3.0 * ens.V_stderr, LAM)
        assert np.all(np.abs(ens.V_mean - 1.0 / 1.2) <= gate)
        assert ens.discarded == 0

    def test_variance_identity_and_tails(self, linear_run):
        _, ens = linear_run
        recon = 1.0 + ens.n1_mean + ens.n2_mean - 2.0 * np.real(ens.pair_mean)
        np.testing.assert_allclose(ens.V_mean, recon, rtol=1e-12)
        assert float(ens.tail_max.max()) < 1e-6

    def test_mode_symmetry(self, linear_run):
        _, ens = linear_run
        gate = 3.0 * ens.diff_stderr + 1e-12
        assert np.all(np.abs(ens.n1_mean - ens.n2_mean) <= gate)

    def test_cutoff_growth_reruns_identically(self):
        # an undersized starting cutoff must converge to the same answer
        # as starting at the settled cutoff directly
        p = params_from_ratios(fbar_over_fth=0.2, lam_over_gamma=LAM)
        t_grid = np.linspace(0.0, 1.0, 3)
        grown = simulate_qsd_ensemble(p, n_max=6, n_traj=24, t_grid=t_grid, seed=3)
        assert grown.n_max > 6
        direct = simulate_qsd_ensemble(
            p, n_max=grown.n_max, n_traj=24, t_grid=t_grid, seed=3
        )
        np.testing.assert_array_equal(grown.V_mean, direct.V_mean)
        np.testing.assert_array_equal(grown.pair_mean, direct.pair_mean)

    def test_cutoff_robustness(self):
        p = params_from_ratios(fbar_over_fth=0.2, lam_over_gamma=LAM)
        t_grid = np.linspace(0.0, 1.0, 3)
        a = simulate_qsd_ensemble(p, n_max=10, n_traj=64, t_grid=t_grid,
                                  seed=17, n_workers=2)
        b = simulate_qsd_ensemble(p, n_max=14, n_traj=64, t_grid=t_grid,
                                  seed=17, n_workers=2)
        gate = 3.0 * np.sqrt(a.V_stderr**2 + b.V_stderr**2)
        assert np.all(np.abs(a.V_mean - b.V_mean) <= gate)

    def test_step_halving(self):
        p = params_from_ratios(fbar_over_fth=0.2, lam_over_gamma=LAM)
        t_grid = np.linspace(0.0, 1.0, 3)
        a = simulate_qsd_ensemble(p, n_max=10, n_traj=64, t_grid=t_grid,
                                  seed=17, n_workers=2)
        c = simulate_qsd_ensemble(p, n_max=10, n_traj=64, t_grid=t_grid,
                                  seed=8, dt=5e-4, n_workers=2)
        gate = 3.0 * np.sqrt(a.V_stderr**2 + c.V_stderr**2)
        assert np.all(np.abs(a.V_mean - c.V_mean) <= gate)

    def test_each_trajectory_runs_once_at_final_cutoff(self, monkeypatch):
        # the pilot is the first batch: at the settled cutoff the columns
        # handed to the batch runner partition the ensemble exactly
        calls = []
        run_batch = qsd._run_batch

        def recording(indices, ops, *args):
            calls.append((ops.n_max, np.array(indices)))
            return run_batch(indices, ops, *args)

        monkeypatch.setattr(qsd, "_run_batch", recording)
        p = params_from_ratios(fbar_over_fth=0.2, lam_over_gamma=LAM)
        ens = simulate_qsd_ensemble(p, n_max=6, n_traj=100,
                                    t_grid=np.linspace(0.0, 1.0, 3), seed=3,
                                    relax=1.0, n_workers=2)
        assert min(n for n, _ in calls) < ens.n_max  # the cutoff grew
        final = [idx for n, idx in calls if n == ens.n_max]
        assert sum(idx.size for idx in final) == 100
        np.testing.assert_array_equal(np.sort(np.concatenate(final)), np.arange(100))

    def test_workers_do_not_change_results(self):
        # batch layout: a pilot of 32, then 64, then a ragged 4, whatever
        # the worker count; results must agree byte for byte
        p = params_from_ratios(fbar_over_fth=0.2, lam_over_gamma=LAM)
        t_grid = np.linspace(0.0, 1.0, 3)
        runs = [
            simulate_qsd_ensemble(p, n_max=10, n_traj=100, t_grid=t_grid,
                                  seed=4, relax=1.0, n_workers=w)
            for w in (1, 2, 3)
        ]
        fields = ("V_mean", "V_stderr", "n1_mean", "n2_mean", "diff_stderr",
                  "pair_mean", "tail_max")
        for ens in runs[1:]:
            assert ens.n_max == runs[0].n_max
            for f in fields:
                assert getattr(ens, f).tobytes() == getattr(runs[0], f).tobytes(), f

    def test_auto_cutoff(self):
        below = params_from_ratios(fbar_over_fth=0.2, lam_over_gamma=LAM)
        assert auto_n_max(below) == 10
        above = params_from_ratios(fbar_over_fth=2.0, lam_over_gamma=LAM)
        # classical orbit peaks at (r-1)*gamma/lam = 10; integrator noise
        # may push the ceiling up one
        assert auto_n_max(above) in (50, 51)

    def test_input_validation(self):
        p = params_from_ratios(fbar_over_fth=0.2, lam_over_gamma=LAM)
        with pytest.raises(InvalidParameterError, match="trajectories"):
            simulate_qsd_ensemble(p, n_traj=1, t_grid=np.linspace(0, 1, 3))
        with pytest.raises(InvalidParameterError):
            simulate_qsd_ensemble(p, n_traj=8, t_grid=np.array([0.0, 0.1, 0.5]))
        # a non-positive dt must not silently become the grid spacing
        for dt in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidParameterError, match="dt"):
                simulate_qsd_ensemble(p, n_traj=8, t_grid=np.linspace(0, 1, 3), dt=dt)
        # a non-finite relaxation window has no step count
        for relax in (math.nan, math.inf):
            with pytest.raises(InvalidParameterError, match="relax"):
                simulate_qsd_ensemble(p, n_traj=8, t_grid=np.linspace(0, 1, 3),
                                      relax=relax)
        # a worker count below one is refused
        for n_workers in (0, -2):
            with pytest.raises(InvalidParameterError, match="n_workers"):
                simulate_qsd_ensemble(p, n_traj=8, t_grid=np.linspace(0, 1, 3),
                                      n_workers=n_workers)
