"""The ordered process pool shared by the sweep and both ensembles.

Jobs must come back in job order, run in worker processes when more than
one worker and one job are asked for (serially in the caller otherwise),
and fail as a serial run would.  The job callables the three callers build
must pickle, since that is how they reach the workers.
"""

import os
import pickle
import time
from functools import partial

import numpy as np
import pytest

import modnopo.fluctuations as fluctuations
import modnopo.positivep as positivep
import modnopo.qsd as qsd
from modnopo import InvalidParameterError, params_from_ratios
from modnopo._ensemble import _usable_cpus, map_ordered

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
