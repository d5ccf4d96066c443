"""One-period tail quadrature: panel budget, early stop, exactness, memory.

The closed-form routes integrate one modulation period and sum the rest of
the tail as a geometric series.  These tests pin the cost side (never more
panels than tile one period, bounded memory) and check that the proven
early stop and the row blocks change nothing a float64 can show.
"""

import math
import tracemalloc

import numpy as np
import pytest

from helpers import bits, tabulated_pump
from modnopo import (_tailquad, asymptotic_n0, asymptotic_variance, derive_params,
                     params_from_ratios)
from modnopo.errors import ConvergenceError, InvalidParameterError
from modnopo.fluctuations import _variance_evaluator
from modnopo.semiclassical import asymptotic_log_n0

DELTAS = (0.05, 0.3, 2.0, 15.0, 100.0)
# At fbar = 1.5 f_th these depths put the pump minimum below gamma (0.5),
# below zero (1.2) and far below it (2.0).
DEPTHS = (0.5, 1.2, 2.0)


def _closed_forms(p, t):
    _variance_evaluator.cache_clear()
    return np.exp(asymptotic_log_n0(p, t)), asymptotic_variance(p, t)


def _count_panels(monkeypatch):
    """Wrap periodic_solution so that each call appends (panels, n): for
    each panel run, in order, the times its nodes were called on, and the
    panels that tile one period."""
    seen = []
    inner = _tailquad.periodic_solution

    def counting(t, k_int, b, period, rate, k_min, b_max):
        panels = {}

        def k_counted(t_, s, past):
            # the call at floats for D is not a panel
            if np.ndim(past) > 0:
                panels.setdefault(np.asarray(s).tobytes(), []).extend(np.ravel(t_))
            return k_int(t_, s, past)

        out = inner(t, k_counted, b, period, rate, k_min, b_max)
        seen.append((list(panels.values()),
                     math.ceil(period / min(period / 4.0, 4.0 / rate))))
        # each time runs one unbroken prefix of the panels, once in each
        runs = [sorted(panel) for panel in panels.values()]
        assert runs[0] == sorted(np.ravel(t))
        for before, after in zip(runs, runs[1:]):
            assert len(set(after)) == len(after) and set(after) <= set(before)
        return out

    monkeypatch.setattr(_tailquad, "periodic_solution", counting)
    return seen


@pytest.mark.parametrize("delta", DELTAS)
def test_panels_never_exceed_one_period(monkeypatch, delta):
    seen = _count_panels(monkeypatch)
    p = params_from_ratios(fbar_over_fth=1.5, f1_over_fbar=1.2, delta_over_gamma=delta)
    _closed_forms(p, np.linspace(0.0, derive_params(p).period, 33))
    # the orbit on t, then on V's set-up grid, the memory term and V
    assert len(seen) == 4
    assert all(0 < len(panels) <= budget for panels, budget in seen), seen


def test_rows_leave_once_their_own_bound_holds(monkeypatch):
    # at slow modulation most times stop long before the last one does:
    # 26,424 of 513 times x 110 panels where each time stops on its own
    seen = _count_panels(monkeypatch)
    p = params_from_ratios(fbar_over_fth=2.5, f1_over_fbar=0.5, delta_over_gamma=0.05)
    asymptotic_log_n0(p, np.linspace(0.0, derive_params(p).period, 513))
    (panels, _), = seen
    evaluated = sum(map(len, panels))
    assert evaluated <= 0.6 * 513 * len(panels), (evaluated, len(panels))


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("depth", DEPTHS)
def test_early_stop_matches_full_period(monkeypatch, delta, depth):
    p = params_from_ratios(fbar_over_fth=1.5, f1_over_fbar=depth,
                           delta_over_gamma=delta, phi=0.3)
    t = np.linspace(0.0, derive_params(p).period, 65)
    n0, V = _closed_forms(p, t)
    monkeypatch.setattr(_tailquad, "LOG_STOP", -math.inf)
    n0_full, V_full = _closed_forms(p, t)
    _variance_evaluator.cache_clear()
    np.testing.assert_array_equal(bits(n0), bits(n0_full))
    np.testing.assert_array_equal(bits(V), bits(V_full))


@pytest.mark.parametrize("D", [0.0, -1.0, math.nan])
def test_no_decay_is_refused_before_any_panel(D):
    # no periodic state attracts where D = K(T, T) is not > 0; the period
    # would also be far over WORK_BUDGET, which is checked after
    T = 10.0
    calls = []

    def k_int(t, s, past):
        calls.append(np.ndim(past))
        return D * s / T

    with pytest.raises(ConvergenceError, match="decay D = .* is not > 0"):
        _tailquad.periodic_solution(np.zeros(1), k_int, lambda past: 1.0, period=T,
                                    rate=1e9, k_min=-1.0, b_max=1.0)
    assert calls == [0]  # the float call for D only


def test_early_stop_waits_for_a_rebound(monkeypatch):
    # the kernel falls 60 nats by mid-period, far below the stop share,
    # then climbs back: only the slope bound keeps the second half
    T, D = 10.0, 1.0

    def k_int(t, s, past):
        return D * s / T + 60.0 * np.sin(np.pi * s / T) ** 2

    # rate 8 gives panels 0.5 wide; sin(pi)^2 leaves K(T, T) = D
    kw = dict(period=T, rate=8.0, k_min=-60.0 * np.pi / T, b_max=1.0)
    M, A = _tailquad.periodic_solution(np.zeros(1), k_int, lambda past: 1.0, **kw)
    monkeypatch.setattr(_tailquad, "LOG_STOP", -math.inf)
    M_full, A_full = _tailquad.periodic_solution(np.zeros(1), k_int, lambda past: 1.0, **kw)
    np.testing.assert_array_equal(bits([M, A]), bits([M_full, A_full]))


def test_no_times_give_no_values():
    # an empty grid used to stop at a division by its zero blocks
    p = params_from_ratios(fbar_over_fth=2.5, f1_over_fbar=0.5, delta_over_gamma=2.0)
    n0, V = _closed_forms(p, np.zeros(0))
    _variance_evaluator.cache_clear()
    assert n0.shape == V.shape == (0,)


@pytest.mark.parametrize("period", [0.03, 1.0, 40.0])
def test_flat_pump_gives_inverse_rate(period):
    a = 1.7
    # rate 4 gives panels min(period/4, 1) wide
    M, A = _tailquad.periodic_solution(
        np.zeros(2), lambda t, s, past: a * s, lambda past: 1.0,
        period=period, rate=4.0, k_min=a, b_max=1.0,
    )
    np.testing.assert_allclose(np.exp(M) * A, 1.0 / a, rtol=4e-16, atol=0.0)


def test_times_past_the_pump_integrals_digits_are_refused():
    # flat pump, so n0 and V are constants; at delta = 1e-10 two periods
    # reach rate*(|t| + T) near 1e12 and keep n0 to 7e-7 and V to 6e-6
    p = params_from_ratios(fbar_over_fth=1.5, f1_over_fbar=0.0, delta_over_gamma=1e-10)
    d = derive_params(p)
    t = np.linspace(0.0, 2.0 * d.period, 5)
    n0, V = _closed_forms(p, t)
    np.testing.assert_allclose(n0, (d.eps_bar - d.gamma) / d.lam, rtol=1e-5, atol=0.0)
    np.testing.assert_allclose(V, V[0], rtol=1e-4, atol=0.0)
    # a tenfold longer period moves both past 2^43
    p = params_from_ratios(fbar_over_fth=1.5, f1_over_fbar=0.0, delta_over_gamma=1e-11)
    t = np.linspace(0.0, 2.0 * derive_params(p).period, 5)
    with pytest.raises(InvalidParameterError, match="lost its digits"):
        asymptotic_log_n0(p, t)
    _variance_evaluator.cache_clear()
    with pytest.raises(InvalidParameterError, match="lost its digits"):
        asymptotic_variance(p, t)  # its set-up on one period still runs
    _variance_evaluator.cache_clear()


def test_slow_modulation_variance_memory_stays_small():
    # the quadrature's temporaries are bounded by its row blocks, not the grid
    for delta, points in [(0.05, 513), (2.0, 20001)]:
        p = params_from_ratios(fbar_over_fth=2.5, f1_over_fbar=0.5, delta_over_gamma=delta)
        t = np.linspace(0.0, derive_params(p).period, points)
        _variance_evaluator.cache_clear()
        tracemalloc.start()
        try:
            asymptotic_variance(p, t)
            asymptotic_n0(p, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            _variance_evaluator.cache_clear()
        assert peak < 16 * 2**20, (delta, points, peak)


def _rebound(t):
    # k(tau) = D/T + (60 pi/T) sin(2 pi tau/T): for times near T/2, -K falls
    # 60 nats by mid-period and climbs back; for times near 0 it rises first
    T, D = 10.0, 1.0

    def k_int(t, s, past):
        return D * s / T + 30.0 * (np.cos(2.0 * np.pi * past / T) - np.cos(2.0 * np.pi * t / T))

    return _tailquad.periodic_solution(t, k_int, lambda past: 1.0, period=T, rate=20.0,
                                       k_min=(D - 60.0 * np.pi) / T, b_max=1.0)


BLOCK_CASES = {
    # slow and fast modulation, and a pump minimum far below zero, where
    # k_min < 0 and no period stops early
    "slow": dict(fbar_over_fth=2.5, f1_over_fbar=0.5, delta_over_gamma=0.05),
    "fast": dict(fbar_over_fth=2.5, f1_over_fbar=0.5, delta_over_gamma=2.0),
    "k_min<0": dict(fbar_over_fth=1.5, f1_over_fbar=2.0, delta_over_gamma=2.0),
    "tabulated": None,
    "rebound": None,
}


def _block_outputs(case):
    if case == "rebound":
        return [bits(_rebound(np.linspace(0.0, 10.0, 75)))]
    p = tabulated_pump() if case == "tabulated" else params_from_ratios(**BLOCK_CASES[case])
    t = np.linspace(0.0, 2.0 * derive_params(p).period, 75)
    _variance_evaluator.cache_clear()
    return [bits(f(p, t)) for f in (asymptotic_log_n0, asymptotic_n0, asymptotic_variance)]


@pytest.mark.parametrize("case", BLOCK_CASES)
@pytest.mark.parametrize("rows", [1, 37, _tailquad.BLOCK_ROWS])
def test_block_size_moves_no_bit(monkeypatch, case, rows):
    # nor does a row's early stop: every block size gives the bits of one
    # block that runs the whole period in every row
    monkeypatch.setattr(_tailquad, "BLOCK_ROWS", rows)
    blocked = _block_outputs(case)
    monkeypatch.setattr(_tailquad, "BLOCK_ROWS", 2**31)  # one block on every grid
    monkeypatch.setattr(_tailquad, "LOG_STOP", -math.inf)  # no row stops early
    whole = _block_outputs(case)
    _variance_evaluator.cache_clear()
    for a, b in zip(whole, blocked, strict=True):
        np.testing.assert_array_equal(a, b)


def test_work_budget_refuses_a_period_that_cannot_stop_early(monkeypatch):
    # 100 panels on 2 times are 100 * (2 + 60) units of work
    kw = dict(period=100.0, rate=4.0, b_max=1.0)
    flat = (np.zeros(2), lambda t, s, past: 1.7 * s, lambda past: 1.0)
    monkeypatch.setattr(_tailquad, "WORK_BUDGET", 6200)
    M, A = _tailquad.periodic_solution(*flat, k_min=-1.0, **kw)
    np.testing.assert_allclose(np.exp(M) * A, 1.0 / 1.7, rtol=1e-15, atol=0.0)
    monkeypatch.setattr(_tailquad, "WORK_BUDGET", 6199)
    with pytest.raises(InvalidParameterError, match="100 panels on 2 times, 6.2e\\+03 units"):
        _tailquad.periodic_solution(*flat, k_min=-1.0, **kw)
    # a decay rate that stays positive proves its early stop, so it is let through
    M, A = _tailquad.periodic_solution(*flat, k_min=1.7, **kw)
    np.testing.assert_allclose(np.exp(M) * A, 1.0 / 1.7, rtol=1e-15, atol=0.0)


def test_work_budget_at_its_real_size():
    # the deepest fig1 level at delta = 1e-6 tiles one period with 23.9M
    # panels and used to run for hours; delta = 1e-3 costs 2e7 units at 801
    # points and still runs
    p = params_from_ratios(fbar_over_fth=3.0, f1_over_fbar=1.2, delta_over_gamma=1e-6)
    with pytest.raises(InvalidParameterError, match="23876105 panels on 3 times"):
        asymptotic_log_n0(p, np.zeros(3))
    assert 23877 * (801 + 60) < _tailquad.WORK_BUDGET < 23876105 * (3 + 60)
