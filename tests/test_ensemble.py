"""The ordered process pool and the lockstep loop shared by the ensembles.

Jobs must come back in job order, run in worker processes when more than
one worker and one job are asked for (serially in the caller otherwise),
and fail as a serial run would, except that a failure stops the sibling
jobs still stepping.  The job callables the three callers build
must pickle, since that is how they reach the workers.  The lockstep loop
must record each grid point once, in order, and hand every step the
stream's own normals whatever the chunk length.  The shared reducer must
give the bits of the plain per-point loop both routes used to run.  Both
routes refuse through one front (too few trajectories) and one back (too
few survivors at a grid point, too many lost), with one message each.
"""

import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
from functools import partial

import numpy as np
import pytest

import modnopo._ensemble as _ensemble
import modnopo.fluctuations as fluctuations
import modnopo.positivep as positivep
import modnopo.qsd as qsd
import test_positivep
import test_qsd
from modnopo import DivergenceBudgetError, InvalidParameterError, params_from_ratios
from modnopo._ensemble import (SALT_PHASE_SPACE, _usable_cpus, map_ordered, run_lockstep,
                               slice_sums, trajectory_stream)

needs_two_cpus = pytest.mark.skipif(
    _usable_cpus() < 2, reason="the pool is capped at the usable CPUs")


def _square(x):
    return x * x


def _pid(_):
    return os.getpid()


def _refuse(bad, delay, x):
    # job x sleeps delay[x] seconds, then fails if it is in bad
    time.sleep(delay.get(x, 0.0))
    if x in bad:
        raise InvalidParameterError(f"job {x} refused")
    return x


def _mark(directory, x):
    # job 0 is slow, job 1 fails at once, every other job leaves a file
    if x == 1:
        raise InvalidParameterError("job 1 refused")
    time.sleep(1.0 if x == 0 else 0.02)
    open(os.path.join(directory, str(x)), "w").close()


def test_results_come_back_in_job_order():
    jobs = list(range(9))
    assert map_ordered(_square, jobs, n_workers=2) == [x * x for x in jobs]
    assert map_ordered(_square, [], n_workers=2) == []


@needs_two_cpus
def test_jobs_run_in_worker_processes():
    pids = map_ordered(_pid, list(range(4)), n_workers=2)
    assert os.getpid() not in pids


@pytest.mark.parametrize("n_workers,jobs", [(1, [0, 1, 2]), (2, [0])])
def test_one_worker_or_one_job_runs_in_the_caller(n_workers, jobs):
    assert set(map_ordered(_pid, jobs, n_workers)) == {os.getpid()}


@pytest.mark.parametrize("n_workers", [1, 2])
def test_job_error_reaches_caller_with_its_type(n_workers):
    with pytest.raises(InvalidParameterError, match="job 2 refused"):
        map_ordered(partial(_refuse, {2}, {}), list(range(5)), n_workers)


@needs_two_cpus
def test_first_failure_in_job_order_is_raised():
    # job 3 fails first in time, but job 1 fails first in job order
    fn = partial(_refuse, {1, 3}, {1: 0.3})
    with pytest.raises(InvalidParameterError, match="job 1 refused"):
        map_ordered(fn, list(range(6)), n_workers=2)


@needs_two_cpus
def test_failure_cancels_jobs_not_started(tmp_path):
    # the queue behind job 1 would drain while job 0 runs, unless the
    # failure stops it as soon as it happens
    jobs = list(range(40))
    with pytest.raises(InvalidParameterError, match="job 1 refused"):
        map_ordered(partial(_mark, str(tmp_path)), jobs, n_workers=2)
    assert len(list(tmp_path.iterdir())) < 10


@needs_two_cpus
@pytest.mark.parametrize("call", [
    "map_ordered(lambda x: x, list(range(4)), 2)",
    "map_ordered(abs, [1, lambda: 0, 3], 2)",
], ids=["function", "job"])
def test_unpicklable_work_raises_at_once(call):
    # a pickling error inside the pool's feeder thread once left map_ordered
    # waiting for good, so the call runs in a child with a timeout; it must
    # raise before any worker starts and leave none behind to wait for
    code = f"from modnopo._ensemble import map_ordered; {call}"
    start = time.monotonic()
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 1 and "PicklingError" in res.stderr, res.stderr
    assert time.monotonic() - start < 20.0


def _step_or_refuse(bad, x):
    # job bad fails after 0.2 s; the other steps for 10 s unless stopped
    if x == bad:
        time.sleep(0.2)
        raise InvalidParameterError(f"job {x} refused")
    run_lockstep(1, SALT_PHASE_SPACE, [x], 2, 0, 1, 10_001,
                 lambda step, z, alive: time.sleep(1e-3), dict)
    return x


@needs_two_cpus
@pytest.mark.parametrize("bad", [1, 0])
def test_failure_stops_running_siblings(bad):
    # the sibling is inside run_lockstep when the failure sets the pool's
    # stop event; it ends with Aborted, which never reaches the caller,
    # whether it comes before the failed job in job order or after it
    start = time.monotonic()
    with pytest.raises(InvalidParameterError, match=f"job {bad} refused"):
        map_ordered(partial(_step_or_refuse, bad), [0, 1], n_workers=2)
    assert time.monotonic() - start < 3.0


def test_lockstep_stops_once_the_stop_event_is_set(monkeypatch):
    stop = multiprocessing.Event()
    monkeypatch.setattr(_ensemble, "_stop", stop)
    steps = []

    def advance(step, z, alive):
        steps.append(step)
        if step == 4:
            stop.set()

    with pytest.raises(_ensemble.Aborted):
        run_lockstep(1, SALT_PHASE_SPACE, [0], 2, 0, 1, 100, advance, dict)
    assert steps == [0, 1, 2, 3, 4]


def _round_trip(captured, fn, jobs, n_workers):
    # stands in for map_ordered: the job callable and each job cross a
    # pickle round trip, as on their way to a worker process
    captured.append(fn)
    fn = pickle.loads(pickle.dumps(fn))
    return [fn(pickle.loads(pickle.dumps(job))) for job in jobs]


_P = params_from_ratios(fbar_over_fth=0.3, lam_over_gamma=0.1)
_GRID = np.linspace(0.0, 1.0, 3)


@pytest.mark.parametrize("module,run", [
    (fluctuations, lambda: fluctuations.sweep_vmin(_P, [0.5, 1.5], [0.0])),
    (positivep, lambda: positivep.simulate_ensemble(
        _P, 300, _GRID, seed=1, relax=0.5, n_workers=2).n_plus_mean),
    (qsd, lambda: qsd.simulate_qsd_ensemble(
        _P, n_max=6, n_traj=40, t_grid=_GRID, seed=1, relax=0.5,
        n_workers=2).V_mean),
], ids=["sweep", "positivep", "qsd"])
def test_built_jobs_survive_pickling(monkeypatch, module, run):
    expected = run()
    captured = []
    monkeypatch.setattr(module, "map_ordered", partial(_round_trip, captured))
    got = run()
    assert captured
    if isinstance(expected, np.ndarray):
        assert got.tobytes() == expected.tobytes()
    else:
        assert got == expected


@pytest.mark.parametrize("n_relax,spi,n_grid", [
    (0, 1, 4), (0, 3, 4), (5, 1, 4), (5, 3, 4), (2, 4, 1), (0, 2, 1),
])
@pytest.mark.parametrize("chunk", [7, 1024])
def test_lockstep_records_each_grid_point_once(monkeypatch, n_relax, spi, n_grid, chunk):
    monkeypatch.setattr(_ensemble, "NOISE_CHUNK", chunk)
    # the three streams draw as a full block of 2 and a partial one
    monkeypatch.setattr(_ensemble, "DRAW_BLOCK", 2)
    n_steps = n_relax + (n_grid - 1) * spi
    calls = []

    def advance(step, z, alive):
        calls.append(("step", step, z.copy()))
        if step == 2:
            alive[1] = False

    def record():
        # each trajectory's row holds the call's place among all calls
        calls.append(("record",))
        return {"rank": np.full(3, len(calls) - 1)}

    def taken(n):
        return sum(1 for c in calls[:n] if c[0] == "step")

    rows = run_lockstep(7, SALT_PHASE_SPACE, [1, 2, 3], 4, n_relax, spi, n_grid, advance,
                        record)
    steps = [c for c in calls if c[0] == "step"]
    assert [c[1] for c in steps] == list(range(n_steps))
    assert set(rows) == {"rank", "live", "alive"}
    # each grid point once, in order, right after the step that reaches it
    ranks = [n for n, c in enumerate(calls) if c[0] == "record"]
    assert len(ranks) == n_grid
    assert rows["rank"].tolist() == [[n] * 3 for n in ranks]
    assert [taken(n) for n in ranks] == [n_relax + j * spi for j in range(n_grid)]
    assert all(calls[n - 1][0] == "step" for n in ranks if n)
    # the live row is the mask at that point, "alive" the final mask
    want_live = [[True, n_relax + j * spi <= 2, True] for j in range(n_grid)]
    assert rows["live"].tolist() == want_live
    assert rows["alive"].tolist() == [True, n_steps <= 2, True]
    assert all(c[2].dtype == np.complex128 and c[2].shape == (2, 3) for c in steps)
    # the normals are each trajectory's own stream's, drawn in order: pair r
    # of a step holds its normals 2r and 2r + 1 as real and imaginary parts
    for i, s in enumerate((1, 2, 3)):
        want = trajectory_stream(7, s, SALT_PHASE_SPACE).standard_normal((n_steps, 4))
        got = np.array([c[2][:, i] for c in steps], dtype=np.complex128)
        got = got.reshape(n_steps, 2)
        assert got.real.tobytes() == want[:, 0::2].tobytes()
        assert got.imag.tobytes() == want[:, 1::2].tobytes()


def _plain_sums(live, cols, sums, squares):
    # the per-point loop each route ran before the reducer was shared
    n = live.shape[0]
    out = {"count": np.zeros(n, dtype=np.int64)}
    for k, x in sums.items():
        out[f"sum_{k}"] = np.zeros(n, dtype=x.dtype)
    for k, x in squares.items():
        out[f"sq_{k}"] = np.zeros(n, dtype=x.dtype)
    for j in range(n):
        a = live[j][cols]
        out["count"][j] += int(a.sum())
        for k, x in sums.items():
            out[f"sum_{k}"][j] += x[j][cols][a].sum()
        for k, x in squares.items():
            out[f"sq_{k}"][j] += (x[j][cols][a] ** 2).sum()
    return out


def test_slice_sums_match_the_plain_loop():
    rng = np.random.default_rng(2001)
    n, B = 6, 40
    live = rng.random((n, B)) < 0.7
    live[2] = False                 # an all-dead grid point
    z = rng.standard_normal((n, B)) + 1j * rng.standard_normal((n, B))
    x = rng.standard_normal((n, B)) * 10.0 ** rng.integers(-8, 8, (n, B))
    # grid point 4 of columns 8..15 sums to -0.0 over its live entries
    live[4, 8:16] = [True, False] * 4
    x[4, 8:16:2] = -0.0
    z[4, 8:16:2] = complex(-0.0, -0.0)
    sums, squares = {"z": z, "x": x}, {"zr": z.real, "x": x}
    for cols in (slice(8, 16), slice(0, 33), slice(None)):
        got = slice_sums(live, cols, sums, squares)
        want = _plain_sums(live, cols, sums, squares)
        assert set(got) == set(want) == {"count", "sum_z", "sum_x", "sq_zr", "sq_x"}
        for key, val in want.items():
            assert got[key].dtype == val.dtype, key
            assert got[key].tobytes() == val.tobytes(), (cols, key)
        assert got["count"][2] == 0 and got["sum_z"][2] == 0.0
    got = slice_sums(live, slice(8, 16), sums, squares)
    assert got["count"][4] == 4
    # -0.0 summed into zeros is +0.0, in both parts of a complex sum
    assert math.copysign(1.0, got["sum_x"][4]) == 1.0
    assert math.copysign(1.0, got["sum_z"][4].real) == 1.0
    assert math.copysign(1.0, got["sum_z"][4].imag) == 1.0


def test_qsd_skips_a_dead_column(monkeypatch):
    # no frozen run loses a trajectory, so mark one column of the pilot's
    # first job dead at every grid point, with a tail far above the others:
    # it must leave tail_max, the counts and the means alone
    run_batch = qsd._run_batch
    kept = []

    def one_dead(indices, **kwargs):
        rows = run_batch(indices, **kwargs)
        if indices[0] == 0:
            rows["live"][:, 3] = False
            rows["tail"][:, 3] = 0.5
        kept.append(rows)
        return rows

    monkeypatch.setattr(qsd, "_run_batch", one_dead)
    ens = qsd.simulate_qsd_ensemble(_P, n_max=6, n_traj=40, t_grid=_GRID, seed=1,
                                    relax=0.5)
    rows = kept[-3:]   # the final cutoff's jobs: the pilot's two, then 8
    tail = np.concatenate([r["tail"] for r in rows], axis=1)
    live = np.concatenate([r["live"] for r in rows], axis=1)
    v = np.concatenate([r["v"] for r in rows], axis=1)
    assert live.sum(axis=1).tolist() == [39] * _GRID.size
    for j in range(_GRID.size):
        assert ens.tail_max[j] == max(tail[j][live[j]]) < 0.5
        assert ens.V_mean[j] == pytest.approx(v[j][live[j]].mean(), rel=1e-12)
    assert ens.discarded == 0


def test_qsd_refuses_a_run_over_the_budget(monkeypatch):
    # one lost trajectory of 40 is past the 0.1% budget, though every grid
    # point keeps 40 live ones
    run_batch = qsd._run_batch

    def one_lost(indices, **kwargs):
        rows = run_batch(indices, **kwargs)
        if indices[0] == 0:
            rows["alive"][3] = False
        return rows

    monkeypatch.setattr(qsd, "_run_batch", one_lost)
    with pytest.raises(DivergenceBudgetError, match="1 of 40 trajectories"):
        qsd.simulate_qsd_ensemble(_P, n_max=6, n_traj=40, t_grid=_GRID, seed=1,
                                  relax=0.5)


def _clear_live_row(rows):
    rows["live"][1] = False


def _zero_counts(accs):
    for acc in accs:
        acc["count"][1] = 0


@pytest.mark.parametrize("module,empty,run", [
    (positivep, _zero_counts, lambda: positivep.simulate_ensemble(
        _P, 300, _GRID, seed=1, relax=0.5)),
    (qsd, _clear_live_row, lambda: qsd.simulate_qsd_ensemble(
        _P, n_max=6, n_traj=40, t_grid=_GRID, seed=1, relax=0.5)),
], ids=["positivep", "qsd"])
def test_an_emptied_grid_point_is_refused(monkeypatch, module, empty, run):
    # every batch loses grid point 1, so no trajectory survives there
    run_batch = module._run_batch

    def emptied(indices, **kwargs):
        out = run_batch(indices, **kwargs)
        empty(out)
        return out

    monkeypatch.setattr(module, "_run_batch", emptied)
    with pytest.raises(DivergenceBudgetError, match="fewer than 2 surviving"):
        run()


def test_both_routes_refuse_one_trajectory_alike():
    refusals = []
    for run in (lambda: positivep.simulate_ensemble(_P, 1, _GRID, seed=1),
                lambda: qsd.simulate_qsd_ensemble(_P, n_traj=1, t_grid=_GRID, seed=1)):
        with pytest.raises(InvalidParameterError) as info:
            run()
        refusals.append((type(info.value), str(info.value)))
    assert refusals[0] == refusals[1]


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 12345])
def test_both_routes_refuse_a_seed_outside_64_bits(monkeypatch, seed):
    # the streams key on the seed modulo 2**64: -1 ran as 2**64 - 1 and
    # 2**64 + 12345 repeated seed 12345's draws byte for byte
    monkeypatch.setattr(_ensemble, "trajectory_stream", None)   # no stream is built
    for run in (lambda: positivep.simulate_ensemble(_P, 8, _GRID, seed=seed),
                lambda: qsd.simulate_qsd_ensemble(_P, 8, _GRID, seed=seed, n_max=6)):
        with pytest.raises(InvalidParameterError,
                           match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
            run()


def test_seeds_at_the_64_bit_ends_run():
    for seed in (0, 2**64 - 1):
        positivep.simulate_ensemble(_P, 8, _GRID, seed=seed, relax=0.1)
        qsd.simulate_qsd_ensemble(_P, 8, _GRID, seed=seed, relax=0.1, n_max=6)


def test_trajectory_steps_budget_is_checked_up_front():
    # 2^30 trajectories of 1,024 relaxation steps fill the budget; one more
    # trajectory is refused before any job list is built
    layout = [np.zeros(1), 1e-3, 1.024]
    assert _ensemble.MAX_TRAJ_STEPS == 2**40
    assert _ensemble.step_layout(*layout, 2**30, 1)[-1] == 1024
    for n_traj in (2**30 + 1, 10**20):
        with pytest.raises(InvalidParameterError, match="trajectory-steps"):
            _ensemble.step_layout(*layout, n_traj, 1)
    # with one grid point and no relaxation a trajectory takes no step, but
    # its job is still laid out, so it counts as one
    no_steps = [np.zeros(1), 1e-3, -1.0]
    assert _ensemble.step_layout(*no_steps, 2**40, 1)[-1] == 0
    with pytest.raises(InvalidParameterError, match="x 1 steps"):
        _ensemble.step_layout(*no_steps, 2**40 + 1, 1)


def test_both_routes_share_one_divergence_budget():
    # perfbench's gates read the budget under each route's name
    assert positivep.DIVERGENCE_BUDGET is qsd.DIVERGENCE_BUDGET is _ensemble.DIVERGENCE_BUDGET


_FREEZES = [(cls, name)
            for cls in (test_positivep.TestFrozenBytes, test_qsd.TestFrozenBytes)
            for name in sorted(vars(cls)) if name.startswith("test_")]


@pytest.mark.parametrize("cls,name", _FREEZES,
                         ids=[f"{c.__module__}-{n}" for c, n in _FREEZES])
def test_odd_noise_chunk_keeps_every_freeze(monkeypatch, cls, name):
    # every stream draws sequentially, so chunks of 7 steps give the same
    # normals as chunks of 1024, and every frozen digest must still hold
    monkeypatch.setattr(_ensemble, "NOISE_CHUNK", 7)
    getattr(cls(), name)()
