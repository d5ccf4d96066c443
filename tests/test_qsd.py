"""Truncated-basis diffusion unraveling: operators, generator, ensembles.

The load-bearing check here builds the full master-equation generator as a
dense matrix from the module's own ladder images and verifies that d<A>/dt
for the basic observables comes out as the closed moment forms the rest of
the package integrates.  States are kept two levels clear of the cutoff so
ladder truncation cannot leak into the comparison; agreement is then at
rounding level, not statistical.  The dense operators are the images of the
identity, one column per basis state, and they equal the Kronecker products
of a dense one-mode ladder bit for bit.
"""

import dataclasses
import inspect
import math
from functools import partial

import numpy as np
import pytest

from helpers import sha256
from modnopo import (
    ConvergenceError,
    FockDimensionError,
    InvalidParameterError,
    build_operators,
    derive_params,
    params_from_ratios,
    simulate_ensemble,
    simulate_qsd_ensemble,
)
import modnopo.qsd as qsd
from modnopo.qsd import _step_batch, auto_n_max, images

LAM = 0.1  # nonlinearity-to-damping ratio for the stochastic test runs
_RUN_BATCH = qsd._run_batch


def _record_batch(log, indices, ops, **kwargs):
    # Logs a call's cutoff and columns, then runs the batch.  Jobs pickle on
    # their way to a worker, so this lives at module level.
    with open(log, "a") as fh:
        fh.write(" ".join(str(int(v)) for v in (ops.n_max, *indices)) + "\n")
    return _RUN_BATCH(indices, ops, **kwargs)


def _basis_index(n1, n2, n_max):
    return n1 * (n_max + 1) + n2


def _ladder(n_max):
    """Dense one-mode annihilation operator on n_max+1 Fock levels."""
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1.0)), k=1).astype(complex)


def _dense(ops):
    """The module's a1, a2, a1 a2 and (a1 a2)^dag as dense matrices: column
    j is the image of basis state j."""
    return tuple(images(np.eye(ops.dim, dtype=complex), ops))


def _dense_model(ops, t):
    """The Hamiltonian and the three jump operators, built densely from the
    module's images: H = i eps(t) (P^dag - P) and sqrt(2 gamma) a1,
    sqrt(2 gamma) a2, sqrt(2 lam) P."""
    A1, A2, P, Pd = _dense(ops)
    root_g, root_l = math.sqrt(2.0 * ops.derived.gamma), math.sqrt(2.0 * ops.derived.lam)
    return 1j * float(ops.derived.eps(t)) * (Pd - P), (root_g * A1, root_g * A2, root_l * P)


class TestOperators:
    P = params_from_ratios(fbar_over_fth=0.5, lam_over_gamma=LAM)

    def test_ladder_smallest(self):
        # n_max = 2, the smallest cutoff build_operators takes
        a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, math.sqrt(2.0)], [0.0, 0.0, 0.0]])
        a1, a2, _, _ = _dense(build_operators(self.P, 2))
        np.testing.assert_array_equal(a1, np.kron(a, np.eye(3)))
        np.testing.assert_array_equal(a2, np.kron(np.eye(3), a))
        np.testing.assert_allclose((a1.conj().T @ a1).diagonal(),
                                   [0, 0, 0, 1, 1, 1, 2, 2, 2], atol=1e-15)

    def test_ladder_commutator_below_cutoff(self):
        n_max = 7
        a1, a2, _, _ = _dense(build_operators(self.P, n_max))
        for a, axis in ((a1, 0), (a2, 1)):
            comm = (a @ a.conj().T - a.conj().T @ a).diagonal().real
            comm = comm.reshape(n_max + 1, n_max + 1)
            # 1 below the lowered mode's cutoff, -n_max at its edge
            np.testing.assert_allclose(np.delete(comm, n_max, axis=axis), 1.0, atol=1e-14)
            np.testing.assert_allclose(np.take(comm, n_max, axis=axis), -n_max)

    def test_dense_operators_are_kron_products(self):
        # the images of the identity equal Kronecker products of a dense
        # one-mode ladder, bit for bit, and the pair its matrix product
        for n_max in (2, 3, 6):
            a, eye = _ladder(n_max), np.eye(n_max + 1, dtype=complex)
            a1, a2 = np.kron(a, eye), np.kron(eye, a)
            want = (a1, a2, a1 @ a2, (a1 @ a2).conj().T)
            for name, got, ref in zip(("a1", "a2", "pair", "pair_dag"),
                                      _dense(build_operators(self.P, n_max)), want):
                # every zero of an image is +0.0, as a zero-started row sum
                # makes it; the conjugate transpose leaves -0.0 imaginary
                # parts in the reference, so it is added to +0 first
                np.testing.assert_array_equal(got, ref)
                assert got.tobytes() == (ref + 0.0).tobytes(), (n_max, name)

    def test_pair_jump_lowers_both_modes(self):
        ops = build_operators(self.P, 4)
        state = np.zeros((ops.dim, 1), dtype=complex)
        state[_basis_index(1, 1, 4)] = 1.0
        a1, a2, pair, pair_dag = images(state, ops)[:, :, 0]
        for out, (n1, n2), amp in ((a1, (0, 1), 1.0), (a2, (1, 0), 1.0),
                                   (pair, (0, 0), 1.0),
                                   (pair_dag, (2, 2), math.sqrt(2.0) * math.sqrt(2.0))):
            want = np.zeros(ops.dim, dtype=complex)
            want[_basis_index(n1, n2, 4)] = amp
            np.testing.assert_array_equal(out, want)

    def test_build_validation(self):
        p = params_from_ratios()
        with pytest.raises(InvalidParameterError):
            build_operators(p, 1)
        with pytest.raises(FockDimensionError):
            build_operators(p, 250)

    def test_expectations(self):
        p = params_from_ratios(fbar_over_fth=0.5, lam_over_gamma=LAM)
        ops = build_operators(p, 3)
        vac = np.zeros(ops.dim, dtype=complex)
        vac[0] = 1.0
        n1 = np.diag(ops.n1_diag)
        assert np.vdot(vac, n1 @ vac) == 0.0
        # equal superposition of |0,0> and |1,1>
        psi = np.zeros(ops.dim, dtype=complex)
        psi[_basis_index(0, 0, 3)] = 1.0 / math.sqrt(2.0)
        psi[_basis_index(1, 1, 3)] = 1.0 / math.sqrt(2.0)
        n1_psi = np.vdot(psi, n1 @ psi)
        assert n1_psi.real == pytest.approx(0.5)
        assert abs(n1_psi.imag) < 1e-14


@pytest.mark.parametrize("n_max", [2, 6, 22])
@pytest.mark.parametrize("batch", [1, 16, 64])
def test_images_are_sparse_products_bit_for_bit(n_max, batch):
    # the operators as the kernel once applied them: CSR matrices built from
    # Kronecker products of the one-mode ladder.  scipy is a test oracle
    # only.  Signed zeros, infinities and NaNs are scattered through the
    # block; an inf times a zero imaginary part gives NaN in both
    import scipy.sparse as sp

    a = sp.diags(np.sqrt(np.arange(1.0, n_max + 1.0)), offsets=1, format="csr",
                 dtype=np.complex128)
    eye = sp.identity(n_max + 1, format="csr", dtype=np.complex128)
    a1, a2 = sp.kron(a, eye, format="csr"), sp.kron(eye, a, format="csr")
    pair = (a1 @ a2).tocsr()
    csr = (a1, a2, pair, pair.conj().T.tocsr())

    ops = build_operators(params_from_ratios(lam_over_gamma=LAM), n_max)
    rng = np.random.default_rng(100 * n_max + batch)
    psi = rng.standard_normal((ops.dim, batch)) + 1j * rng.standard_normal((ops.dim, batch))
    special = [complex(-0.0, -0.0), complex(-0.0, 2.0), complex(1.5, -0.0),
               complex(0.0, -0.0), complex(math.inf, 0.5), complex(0.5, -math.inf),
               complex(math.nan, 1.0), complex(-0.0, math.nan)]
    flat = psi.reshape(-1)
    spots = rng.permutation(flat.size)
    for k, spot in enumerate(spots[:4 * len(special)]):
        flat[spot] = special[k % len(special)]
    with np.errstate(invalid="ignore"):
        got = images(psi, ops)
    assert got.shape == (4, ops.dim, batch)
    for name, img, op in zip(("a1", "a2", "pair", "pair_dag"), got, csr):
        assert img.tobytes() == (op @ psi).tobytes(), name


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

        H, Ls = _dense_model(ops, t)

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
        A1 = np.kron(_ladder(n_max), np.eye(n_max + 1))
        A2 = np.kron(np.eye(n_max + 1), _ladder(n_max))
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
        # from the module's ladder images
        p = params_from_ratios(fbar_over_fth=0.8, f1_over_fbar=0.3,
                               delta_over_gamma=1.7, phi=0.4,
                               lam_over_gamma=0.05)
        ops = build_operators(p, 4)
        t, dt = 0.37, 1e-2
        rng = np.random.default_rng(7)
        psi = rng.standard_normal((ops.dim, 3)) + 1j * rng.standard_normal((ops.dim, 3))
        psi /= np.linalg.norm(psi, axis=0)
        xi = rng.standard_normal((6, 3))
        pairs = np.empty((3, 3), dtype=np.complex128)   # as run_lockstep hands them
        pairs.real, pairs.imag = xi[0::2], xi[1::2]
        got = _step_batch(psi, float(ops.derived.eps(t)), ops, dt, pairs)

        H, Ls = _dense_model(ops, t)
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
    """Single-trajectory physics, run through the ensemble's step kernel."""

    def test_vacuum_is_fixed_without_pump(self):
        p = params_from_ratios(fbar_over_fth=0.0, lam_over_gamma=LAM)
        ens = simulate_qsd_ensemble(p, 8, np.linspace(0.0, 1.0, 3), 0, relax=0.0, n_max=4)
        assert (ens.V_mean == 1.0).all() and (ens.V_stderr == 0.0).all()
        assert (ens.n1_mean == 0.0).all()

    def test_short_time_variance_slope(self):
        # from vacuum every trajectory's first step is deterministic and
        # pulls V down at twice the pump rate
        p = params_from_ratios(fbar_over_fth=0.5, lam_over_gamma=LAM)
        dt = 1e-5
        ens = simulate_qsd_ensemble(p, 8, [0.0, dt], 0, dt=dt, relax=0.0, n_max=4)
        assert (ens.V_stderr == 0.0).all()
        slope = (ens.V_mean[1] - 1.0) / dt
        assert slope == pytest.approx(-2.0 * float(derive_params(p).eps(0.0)), rel=1e-3)


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

    @staticmethod
    def _logged_batches(monkeypatch, tmp_path):
        # Batches run in worker processes, so each call appends a line to a
        # file.  Returns the ensemble and each call's (cutoff, columns).
        log = tmp_path / "calls.txt"
        monkeypatch.setattr(qsd, "_run_batch", partial(_record_batch, log))
        p = params_from_ratios(fbar_over_fth=0.2, lam_over_gamma=LAM)
        ens = simulate_qsd_ensemble(p, n_max=6, n_traj=100,
                                    t_grid=np.linspace(0.0, 1.0, 3), seed=3,
                                    relax=1.0, n_workers=2)
        calls = [(n, np.array(idx, dtype=int))
                 for n, *idx in (map(int, line.split())
                                 for line in log.read_text().splitlines())]
        return ens, calls

    def test_each_trajectory_runs_once_at_final_cutoff(self, monkeypatch, tmp_path):
        # the pilot comes first: at the settled cutoff the columns handed to
        # the batch runner partition the ensemble exactly
        ens, calls = self._logged_batches(monkeypatch, tmp_path)
        assert min(n for n, _ in calls) < ens.n_max  # the cutoff grew
        final = [idx for n, idx in calls if n == ens.n_max]
        assert sum(idx.size for idx in final) == 100
        np.testing.assert_array_equal(np.sort(np.concatenate(final)), np.arange(100))

    def test_pilot_runs_as_two_jobs(self, monkeypatch, tmp_path):
        # at the settled cutoff the pilot's 32 columns arrive as two jobs
        # of 16, then the batches of the layout: 64 and a ragged 4
        ens, calls = self._logged_batches(monkeypatch, tmp_path)
        final = sorted((idx[0], idx[-1] + 1) for n, idx in calls if n == ens.n_max)
        assert final == [(0, 16), (16, 32), (32, 96), (96, 100)]

    @pytest.mark.parametrize("n_max", [6, 14])
    @pytest.mark.parametrize("width,cut", [(32, 16), (24, 16), (17, 8)])
    def test_batch_rows_do_not_depend_on_the_split(self, monkeypatch, n_max, width, cut):
        # the premise of the split pilot and of every freeze: a trajectory's
        # rows keep their bytes when its batch is cut at a multiple of 8
        # into pieces of 8 or more (the cuts simulate_qsd_ensemble makes)
        p = params_from_ratios(fbar_over_fth=1.0, f1_over_fbar=0.5,
                               delta_over_gamma=2.0, lam_over_gamma=LAM)
        dt, n_steps = 1e-3, 300
        eps_steps = np.asarray(derive_params(p).eps(dt * np.arange(n_steps)), dtype=float)
        # a tail bound of 1 never trips, so every piece runs to the end
        monkeypatch.setattr(qsd, "TAIL_TOL", 1.0)
        args = (build_operators(p, n_max), 9, eps_steps, 0, 100, 4, dt)
        whole = qsd._run_batch(np.arange(width), *args)
        head = qsd._run_batch(np.arange(cut), *args)
        tail = qsd._run_batch(np.arange(cut, width), *args)
        assert set(whole) == {"v", "n1", "n2", "pair", "tail", "live", "alive"}
        for key, rows in whole.items():
            joined = np.concatenate([head[key], tail[key]], axis=-1)
            assert joined.tobytes() == rows.tobytes(), key

    @pytest.mark.parametrize("n_max", [22, 199])
    def test_job_layout_is_the_same_at_every_cutoff(self, monkeypatch, n_max):
        # 199 is the largest cutoff MAX_PRODUCT_DIM admits; the batches are
        # 64 wide there too, after the pilot's two halves of 16
        assert (199 + 1) ** 2 <= qsd.MAX_PRODUCT_DIM < (200 + 1) ** 2
        jobs = []

        def record(fn, batches, n_workers):
            jobs.append([(int(b[0]), int(b[-1]) + 1) for b in batches])
            raise RuntimeError("recorded")

        monkeypatch.setattr(qsd, "map_ordered", record)
        # at lam 0.01 gamma the top level decays at 794 gamma, so dt 1e-3 is stable
        p = params_from_ratios(fbar_over_fth=0.3, lam_over_gamma=0.01)
        with pytest.raises(RuntimeError, match="recorded"):
            simulate_qsd_ensemble(p, n_max=n_max, n_traj=200, t_grid=np.linspace(0, 1, 3),
                                  seed=0, dt=1e-3, relax=0.5)
        assert jobs == [[(0, 16), (16, 32), (32, 96), (96, 160), (160, 200)]]

    def test_workers_do_not_change_results(self):
        # batch layouts: a pilot of 32 (two jobs of 16), then 64, then a
        # ragged 4; and a pilot alone whose cutoff grows from 6, the shape
        # of the state_diffusion benchmark.  Whatever the worker count,
        # results must agree byte for byte
        p = params_from_ratios(fbar_over_fth=0.2, lam_over_gamma=LAM)
        t_grid = np.linspace(0.0, 1.0, 3)
        for n_traj, n_max, workers in ((100, 10, (1, 2, 3)), (32, 6, (1, 2))):
            runs = [
                simulate_qsd_ensemble(p, n_max=n_max, n_traj=n_traj, t_grid=t_grid,
                                      seed=4, relax=1.0, n_workers=w)
                for w in workers
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
        # at threshold the cavity is empty, and the headroom of 10 stands
        # alone; at 1.0001 the orbit peaks at (r - 1) gamma/lam = 1e-3
        assert auto_n_max(params_from_ratios(fbar_over_fth=1.0, lam_over_gamma=LAM)) == 10
        assert auto_n_max(params_from_ratios(fbar_over_fth=1.0001, lam_over_gamma=LAM)) == 11
        # at delta 1e13 a period moves ln n0 by less than a rounding of it
        # over 1 - exp(-D) = 1.3e-12, so the orbit's error bound refuses it
        # and the headroom stands alone again
        fast = params_from_ratios(fbar_over_fth=2.0, delta_over_gamma=1e13,
                                  lam_over_gamma=LAM)
        with pytest.raises(ConvergenceError, match="from its periodic state"):
            qsd.classical_orbit(fast)
        assert auto_n_max(fast) == 10
        above = params_from_ratios(fbar_over_fth=2.0, lam_over_gamma=LAM)
        # classical orbit peaks at (r-1)*gamma/lam = 10; integrator noise
        # may push the ceiling up one
        assert auto_n_max(above) in (50, 51)

    def test_input_validation(self):
        p = params_from_ratios(fbar_over_fth=0.2, lam_over_gamma=LAM)
        with pytest.raises(InvalidParameterError, match="trajectories"):
            simulate_qsd_ensemble(p, n_traj=1, t_grid=np.linspace(0, 1, 3), seed=1)
        with pytest.raises(InvalidParameterError):
            simulate_qsd_ensemble(p, n_traj=8, t_grid=np.array([0.0, 0.1, 0.5]),
                                  seed=1)
        # a non-positive dt must not silently become the grid spacing
        for dt in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidParameterError, match="dt"):
                simulate_qsd_ensemble(p, n_traj=8, t_grid=np.linspace(0, 1, 3), seed=1,
                                      dt=dt)
        # a non-finite relaxation window has no step count
        for relax in (math.nan, math.inf):
            with pytest.raises(InvalidParameterError, match="relax"):
                simulate_qsd_ensemble(p, n_traj=8, t_grid=np.linspace(0, 1, 3), seed=1,
                                      relax=relax)
        # a worker count below one is refused
        for n_workers in (0, -2):
            with pytest.raises(InvalidParameterError, match="n_workers"):
                simulate_qsd_ensemble(p, n_traj=8, t_grid=np.linspace(0, 1, 3), seed=1,
                                      n_workers=n_workers)

    def test_cutoff_not_an_integer_from_two_is_refused_before_any_work(self, monkeypatch):
        # -5, 0 and 1 used to run at a cutoff raised to 2 silently, and 6.7
        # or "6" at 6
        def no_work(*args):
            raise AssertionError("operators built for a refused cutoff")

        monkeypatch.setattr(qsd, "build_operators", no_work)
        p = params_from_ratios(fbar_over_fth=0.2, lam_over_gamma=LAM)
        for n_max in (-5, 0, 1, True, 6.7, 6.0, "6"):
            with pytest.raises(InvalidParameterError,
                               match=rf"^n_max must be an integer >= 2, got {n_max!r}$"):
                simulate_qsd_ensemble(p, n_traj=8, t_grid=np.linspace(0, 1, 3), seed=1,
                                      n_max=n_max)

    def test_call_contract_is_positive_ps(self):
        # simulate_ensemble's leading arguments in its order, none of the
        # first four with a default, then the cutoff; the old t_grid=None
        # default was refused on every call
        pp = list(inspect.signature(simulate_ensemble).parameters.values())[:7]
        ours = list(inspect.signature(simulate_qsd_ensemble).parameters.values())
        assert [(a.name, a.default) for a in ours] == [
            *((a.name, a.default) for a in pp), ("n_max", None)]
        p = params_from_ratios(fbar_over_fth=0.3, lam_over_gamma=LAM)
        grid = np.linspace(0.0, 1.0, 3)
        ens = simulate_qsd_ensemble(p, 40, grid, 1, n_max=6)
        assert _ensemble_digest(ens) == _ensemble_digest(simulate_qsd_ensemble(
            p=p, n_traj=40, t_grid=grid, seed=1, n_max=6))
        for partial_call in (lambda: simulate_qsd_ensemble(p, 40, seed=1, n_max=6),
                             lambda: simulate_qsd_ensemble(p, 40, grid, n_max=6)):
            with pytest.raises(TypeError):
                partial_call()
        with pytest.raises(dataclasses.FrozenInstanceError):
            ens.n_max = 7


def _ensemble_digest(ens) -> str:
    return sha256((f.name, getattr(ens, f.name)) for f in dataclasses.fields(ens))


class TestFrozenBytes:
    """Regression freezes: sha256 of every QsdEnsemble field of two small
    runs, taken at commit 33169d0 before the trajectory loop moved into
    _ensemble, and of a run at the benchmark's
    shapes, taken at commit b1d2e25 while the kernel still applied sparse
    matrices.  A rewrite of the loop, the noise draw or the kernel must keep
    every byte."""

    P = params_from_ratios(fbar_over_fth=0.5, f1_over_fbar=1.0,
                           delta_over_gamma=2.0, lam_over_gamma=LAM)

    def test_pilot_and_pooled_ragged_batches(self):
        # a pilot of 32, then 64 and a ragged 4 on two workers
        ens = simulate_qsd_ensemble(self.P, n_max=14, n_traj=100,
                                    t_grid=np.linspace(0.0, 1.0, 3), seed=1201,
                                    relax=1.0, n_workers=2)
        assert ens.n_max == 14
        assert _ensemble_digest(ens) == (
            "55babfa1e02d41a6eac01de9f39d43b3e2a22beb41e5215784c9ed69a93f6dd1")

    def test_grown_cutoff(self):
        # the cutoff grows from 6 to 10; with no relaxation the first record
        # comes before any step
        ens = simulate_qsd_ensemble(self.P, n_max=6, n_traj=40,
                                    t_grid=np.linspace(0.0, 0.6, 4), seed=1202,
                                    relax=0.0)
        assert ens.n_max == 10
        assert _ensemble_digest(ens) == (
            "22945bd3248e34b2336d3a9b80c2a1eff85e0cf8fc22203debaa8c4fcb9cc841")

    def test_benchmark_shapes(self):
        # the state_diffusion benchmark's cutoff and batch widths: at n_max
        # 22 a pilot of two jobs of 16, then one full batch of 64, on two
        # workers
        ens = simulate_qsd_ensemble(self.P, n_max=22, n_traj=96,
                                    t_grid=np.linspace(0.0, 0.5, 3), seed=1204,
                                    relax=1.0, n_workers=2)
        assert ens.n_max == 22
        assert _ensemble_digest(ens) == (
            "ccb466c6d12fa1e8f652c15a4667f704b9b18ad23365cab65b0f4eba785db2e1")
