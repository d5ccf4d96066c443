"""The four benchmark workloads: seeded inputs, how an op runs, and its gate.

An op is one call of a public entry point: ``modnopo.cli.main`` with
generated arguments, or ``positivep.simulate_ensemble(...,
collect_extended=True)``.  Inputs come from ``random.Random(seed)`` only,
so every process of a run (and every repeat of a seed) builds the same
ops.  Each workload is stratified: the slice of parameter space an op
lands in is fixed by its position in a round, and the seed only moves
the point within that slice (mostly through the modulation phase, which
changes no cost), so a run's cost does not depend on the seed;
state_diffusion's op is fixed outright (see QSD_SEED).  No operating point
repeats within a run.

Gates run after the timed region and need neither the route under test
nor any tolerance looser than the acceptance criteria they mirror.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

# Nominal wall time of one round on a 2-vCPU box at the commit that added
# the benchmark; a run does max(1, round(seconds / ROUND_S)) rounds, so the
# work per run is fixed for a given --seconds.
ROUND_S = {"closed_curves": 11.0, "ode_sweep": 10.0, "phase_space": 13.0,
           "state_diffusion": 14.0}

# closed_curves: delta ladder from slow through resonant to fast.
DELTA_LADDER = (0.05, 0.3, 2.0, 15.0, 100.0)
# ode_sweep: (first pump ratio, step) of the three-ratio grid in each band:
# below threshold, just above it (r <= 1.2) and far above it.
SWEEP_BANDS = {"below": (0.3, 0.2), "near": (1.05, 0.05), "far": (1.8, 0.7)}
SWEEP_LEVELS = "0,0.75,2"
# Identity and closed-form gates: at the commit that added the benchmark
# the closed-form period means are exact to 4e-14 and the flat-pump sweep
# cells within 5e-10 (the ODE period tolerance is 1e-8), so the bounds
# leave room for a different quadrature or solver, not for a wrong one.
PERIOD_MEAN_RTOL = 1e-9
FLAT_SWEEP_ATOL = 1e-7
# phase_space sizes: the CLI ensemble is large enough that the 2*lam/gamma
# floor, not 3*stderr, sets criterion 7's gate; at delta=4 the period, and
# so the steps per trajectory, is half that of delta=2.
PP_LAM, PP_FBAR = 0.01, 2.0
PP_CLI_TRAJ, PP_CLI_GRID, PP_CLI_DELTA = 8192, 17, 4.0
PP_EXT_TRAJ, PP_EXT_GRID = 512, 33
ENSEMBLE_RELAX = 1.0
# state_diffusion: criterion 8's operating point, noise seed and gate.  The
# op does not vary with the run seed: where the automatic cutoff's pilot
# trips depends on the noise, and over ten seeded ops the op time ranged
# 10-21 s (final cutoff 22 or 26), which would make the workload's cost a
# draw of the seed rather than a property of the program.
QSD_LAM, QSD_FBAR, QSD_F1, QSD_SEED = 0.1, 1.0, 0.5, 31415
QSD_TRAJ, QSD_GRID = 32, 33
QSD_DEV_BAND = (0.2, 5.0)
QSD_NMAX_LIMIT = 30


def _phi(rng: random.Random) -> float:
    return round(rng.uniform(0.0, 2.0 * math.pi), 9)


def _cli_op(argv: list[str], csv: str, config: dict | None = None,
            workers: bool = True) -> dict:
    return {"kind": "cli", "argv": argv, "csv": csv, "config": config,
            "workers": workers}


def _closed_round(rng: random.Random, k: int) -> list[dict]:
    ops = []
    for delta in DELTA_LADDER:
        cfg = {"fbar_over_fth": round(2.5 + rng.uniform(-0.01, 0.01), 9),
               "f1_over_fbar": round(0.5 + rng.uniform(-0.02, 0.02), 9),
               "phi": _phi(rng)}
        ops.append(_cli_op(["variance", "--delta", repr(delta)], "variance.csv",
                           cfg, workers=False))
    return ops


def _sweep_round(rng: random.Random, k: int) -> list[dict]:
    ops = []
    for lo, step in SWEEP_BANDS.values():
        lo = round(lo + rng.uniform(-0.002, 0.002), 6)
        grid = f"{lo!r}:{round(lo + 2 * step, 6)!r}:{step!r}"
        ops.append(_cli_op(["sweep", "--fbar-grid", grid, "--f1-levels", SWEEP_LEVELS],
                           "sweep.csv", {"phi": _phi(rng)}))
    return ops


def _phase_round(rng: random.Random, k: int) -> list[dict]:
    cli = _cli_op(
        ["positivep", "--lam", repr(PP_LAM), "--fbar", repr(PP_FBAR),
         "--delta", repr(PP_CLI_DELTA), "--f1", repr(round(rng.uniform(0.0, 0.5), 9)),
         "--traj", str(PP_CLI_TRAJ), "--grid-points", str(PP_CLI_GRID),
         "--relax", repr(ENSEMBLE_RELAX), "--seed", str(rng.randrange(1, 2**31))],
        "positivep.csv", {"phi": _phi(rng)})
    ext = {"kind": "extended",
           "ratios": {"fbar_over_fth": PP_FBAR, "f1_over_fbar": round(rng.uniform(0.0, 0.5), 9),
                      "delta_over_gamma": 2.0, "lam_over_gamma": PP_LAM, "phi": _phi(rng)},
           "n_traj": PP_EXT_TRAJ, "grid": PP_EXT_GRID, "relax": ENSEMBLE_RELAX,
           "seed": rng.randrange(1, 2**31)}
    return [cli, ext]


def _qsd_round(rng: random.Random, k: int) -> list[dict]:
    # round k > 0 (only with a longer --seconds) takes the next noise seed
    return [_cli_op(
        ["qsd", "--lam", repr(QSD_LAM), "--fbar", repr(QSD_FBAR), "--f1", repr(QSD_F1),
         "--traj", str(QSD_TRAJ), "--grid-points", str(QSD_GRID),
         "--relax", repr(ENSEMBLE_RELAX), "--seed", str(QSD_SEED + k)],
        "qsd.csv")]


_ROUNDS = {"closed_curves": _closed_round, "ode_sweep": _sweep_round,
           "phase_space": _phase_round, "state_diffusion": _qsd_round}
WORKLOADS = tuple(_ROUNDS)


def make_ops(workload: str, seed: int, seconds: float) -> list[dict]:
    """The run's op list: whole rounds, each op a distinct operating point."""
    rng = random.Random(f"{workload}:{seed}")
    rounds = max(1, round(seconds / ROUND_S[workload]))
    ops = [op for k in range(rounds) for op in _ROUNDS[workload](rng, k)]
    keys = [json.dumps(op, sort_keys=True) for op in ops]
    if len(set(keys)) != len(keys):
        raise ValueError("generated operating points repeat within the run")
    return ops


def prepare(op: dict, op_dir: Path) -> None:
    """Write the op's input files (its JSON configuration) under op_dir."""
    op_dir.mkdir(parents=True, exist_ok=True)
    if op.get("config") is not None:
        (op_dir / "config.json").write_text(json.dumps(op["config"]), encoding="utf-8")


def cli_argv(op: dict, op_dir: Path, workers: int) -> list[str]:
    argv = list(op["argv"]) + ["--out", str(op_dir)]
    if op.get("config") is not None:
        argv += ["--config", str(op_dir / "config.json")]
    if op["workers"]:
        argv += ["--workers", str(workers)]
    return argv


def extended_call(op: dict, workers: int):
    """criterion-7-style direct ensemble call with the moment recording path."""
    from modnopo.model import derive_params, params_from_ratios
    from modnopo.positivep import simulate_ensemble

    p = params_from_ratios(**op["ratios"])
    t_grid = np.linspace(0.0, derive_params(p).period, op["grid"])
    return simulate_ensemble(p, op["n_traj"], t_grid, seed=op["seed"], relax=op["relax"],
                             n_workers=workers, collect_extended=True)


def digest(op: dict, op_dir: Path, result) -> str:
    """sha256 of the op's CSV, or of an extended ensemble's arrays."""
    h = hashlib.sha256()
    if op["kind"] == "cli":
        h.update((op_dir / op["csv"]).read_bytes())
        return h.hexdigest()
    for arr in (result.t_grid, result.n_plus_mean, result.R_mean, result.Z_mean,
                result.V_mean, result.V_stderr, result.alive, result.n_plus_sq_mean,
                result.n_plus_R_mean, result.residual_mean, result.residual_stderr):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr((result.n_traj, result.discarded, result.dt)).encode())
    return h.hexdigest()


# --- gates --------------------------------------------------------------

def read_csv(path: Path) -> tuple[dict, dict]:
    """(metadata, columns) of a modnopo CSV: `# key: value` lines, header, rows."""
    meta, rows, header = {}, [], None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, val = line[2:].partition(": ")
            meta[key] = val
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    cols = np.array(rows, dtype=float).T
    return meta, dict(zip(header, cols))


def _reference_variance(meta: dict, t: np.ndarray) -> np.ndarray:
    """Linearized V(t) from the ODE route at the CSV's resolved configuration."""
    from modnopo.fluctuations import integrate_variance
    from modnopo.model import config_to_params
    return integrate_variance(config_to_params(json.loads(meta["config"]))).interp(t)


def _lam(cfg: dict) -> float:
    return cfg["k_over_gamma"] ** 2 / cfg["gamma3_over_gamma"]   # gamma = 1


def _gate_closed(op, op_dir, result) -> str | None:
    # Exact period means of the periodic solution, from the photon-number
    # and variance equations: <lam n0> = eps_bar - gamma and
    # <(gamma + eps + lam n0) V> = (3 eps_bar - gamma)/2, gamma = 1.  The
    # rows cover [0, T] with the end point repeated, so the periodic
    # trapezoid mean drops the last row.
    meta, c = read_csv(op_dir / op["csv"])
    cfg = json.loads(meta["config"])
    r, f1 = cfg["fbar_over_fth"], cfg["f1_over_fbar"]
    eps = r * (1.0 + f1 * np.cos(cfg["delta_over_gamma"] * c["t"] + cfg["phi"]))
    lam_n0 = _lam(cfg) * c["n0"]
    m1 = float(np.mean(lam_n0[:-1]))
    m2 = float(np.mean(((1.0 + eps + lam_n0) * c["V"])[:-1]))
    e1 = abs(m1 - (r - 1.0)) / (r - 1.0)
    e2 = abs(m2 - (3.0 * r - 1.0) / 2.0) / ((3.0 * r - 1.0) / 2.0)
    if not max(e1, e2) <= PERIOD_MEAN_RTOL:
        return f"period means off by {e1:.2e} (n0), {e2:.2e} (V)"
    return None


def _gate_sweep(op, op_dir, result) -> str | None:
    _meta, c = read_csv(op_dir / op["csv"])
    ratio, level, v = c["fbar_over_fth"], c["f1_over_fbar"], c["v_min"]
    if v.size != 9 or not np.all(np.isfinite(v)):
        return f"expected 9 finite cells, got {v.tolist()}"
    flat = level == 0.0
    r = ratio[flat]
    want = np.where(r < 1.0, 1.0 / (1.0 + r), 0.75 - 1.0 / (4.0 * r))
    err = float(np.max(np.abs(v[flat] - want)))
    if not err <= FLAT_SWEEP_ATOL:
        return f"flat-pump cells off the stationary value by {err:.2e}"
    for x in np.unique(ratio):
        at = {lv: v[(ratio == x) & (level == lv)][0] for lv in (0.0, 0.75, 2.0)}
        if not at[2.0] < at[0.75] < at[0.0]:
            return f"V_min not ordered by modulation at fbar={x}: {at}"
    return None


def _gate_phase(op, op_dir, result) -> str | None:
    from modnopo.positivep import DIVERGENCE_BUDGET, check_moment_equations
    from modnopo.model import params_from_ratios

    if op["kind"] == "extended":
        if result.discarded > DIVERGENCE_BUDGET * result.n_traj:
            return f"{result.discarded} of {result.n_traj} trajectories discarded"
        rep = check_moment_equations(result, params_from_ratios(**op["ratios"]))
        if not rep.ok:
            return (f"moment equations: {rep.frac_within_3:.3f} within 3 sigma, "
                    f"max |z| {rep.max_abs_z:.2f}")
        return None
    # criterion 7: |V - V_linear| <= max(3 stderr, 2 lam/gamma) everywhere
    meta, c = read_csv(op_dir / op["csv"])
    lam = _lam(json.loads(meta["config"]))
    if c["discarded"].max() > DIVERGENCE_BUDGET * int(meta["traj"]):
        return f"{int(c['discarded'].max())} trajectories discarded"
    dev = np.abs(c["V_mean"] - _reference_variance(meta, c["t"]))
    gate = np.maximum(3.0 * c["V_stderr"], 2.0 * lam)
    if not np.all(dev <= gate):
        i = int(np.argmax(dev - gate))
        return f"V off the linearized curve by {dev[i]:.4f} > {gate[i]:.4f}"
    return None


def _gate_qsd(op, op_dir, result) -> str | None:
    # criterion 8: time-averaged |V - V_linear| within [0.2, 5] lam/gamma,
    # cutoff at most 30
    from modnopo.qsd import DIVERGENCE_BUDGET

    meta, c = read_csv(op_dir / op["csv"])
    lam = _lam(json.loads(meta["config"]))
    t = c["t"]
    dev = np.abs(c["V_mean"] - _reference_variance(meta, t))
    avg = float(np.trapezoid(dev, t) / (t[-1] - t[0]))
    n_max = int(meta["n_max"])
    if n_max > QSD_NMAX_LIMIT:
        return f"cutoff grew to {n_max}"
    lo, hi = QSD_DEV_BAND
    if not lo * lam <= avg <= hi * lam:
        return f"time-averaged deviation {avg:.4f} outside [{lo * lam:.3f}, {hi * lam:.3f}]"
    lost = int(meta["traj"]) - int(c["n_traj"].min())
    if lost > DIVERGENCE_BUDGET * int(meta["traj"]):
        return f"{lost} trajectories discarded"
    return None


GATES = {"closed_curves": _gate_closed, "ode_sweep": _gate_sweep,
         "phase_space": _gate_phase, "state_diffusion": _gate_qsd}
