"""Command-line front end for the modulated-cavity simulation pipelines.

Subcommands map one-to-one onto the compute modules (semiclassical orbit,
linearized variance, modulation sweep, phase-space ensemble, state-diffusion
ensemble, three-way comparison) plus four figure pipelines that bundle the
standard parameter choices.  All outputs are CSV files with `#` provenance
headers; figure pipelines additionally emit a gnuplot script.

The output directory must already exist: this tool never creates paths, so a
typo cannot scatter files.  Runs are deterministic for a fixed seed unless
wall-clock stamping is requested explicitly.  main prints a command's
warning lines once it has succeeded, else its one error line.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidParameterError
from .fluctuations import (
    VALIDITY_MARGIN,
    asymptotic_variance,
    integrate_variance,
    is_trusted,
    linearization_validity,
    sweep_vmin,
)
from .model import (
    CONFIG_DEFAULTS,
    ModelParams,
    Regime,
    config_number,
    config_to_params,
    derive_params,
    k_from_lam,
    read_config,
    regime_classify,
)
from . import positivep, qsd
from .positivep import simulate_ensemble
from .qsd import MAX_PRODUCT_DIM, auto_n_max, simulate_qsd_ensemble
from ._ensemble import step_layout
from .semiclassical import asymptotic_n0
from ._output import metadata_lines, write_csv, write_gnuplot

DEFAULT_SEED = 12345


def _resolve_model(args, overrides=None, desk_lam=None) -> tuple[ModelParams, dict]:
    """Merge defaults, config file, subcommand presets and explicit flags.

    desk_lam is a subcommand's default lambda/gamma: it fixes the coupling
    unless --lam or the config file's k_over_gamma does.
    """
    cfg = dict(CONFIG_DEFAULTS)
    cfg.update(overrides or {})
    file_cfg = read_config(args.config) if args.config else {}
    cfg.update(file_cfg)
    if args.fbar is not None:
        cfg["fbar_over_fth"] = args.fbar
    if args.f1 is not None:
        cfg["f1_over_fbar"] = args.f1
    if args.delta is not None:
        cfg["delta_over_gamma"] = args.delta
    lam = args.lam
    if lam is not None and not (math.isfinite(lam) and lam > 0.0):
        raise InvalidParameterError(f"--lam must be finite and > 0, got {lam}")
    if lam is None and "k_over_gamma" not in file_cfg:
        lam = desk_lam
    if lam is not None:
        # lam/gamma is not itself a config key; it fixes the coupling k.
        cfg["k_over_gamma"] = k_from_lam(
            lam, config_number("gamma3_over_gamma", cfg["gamma3_over_gamma"]))
    return config_to_params(cfg), cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    if not out.is_dir():
        raise FileNotFoundError(f"output directory does not exist: {out}")
    return out


def _meta(args, cfg, extra=None) -> list[str]:
    return metadata_lines(__version__, cfg, args.seed, args.timestamp, extra)


def _period_grid(p: ModelParams, points: int, flag: str, periods: float = 1.0) -> np.ndarray:
    """points times over periods of p's pump, the count given by flag: a
    curve's --points must be 2 or more, an ensemble's --grid-points 1 or more."""
    least = 2 if flag == "--points" else 1
    if not points >= least:
        raise InvalidParameterError(f"need {flag} >= {least}, got {points}")
    if not 0.0 < periods < math.inf:
        raise InvalidParameterError(f"need a finite --periods > 0, got {periods}")
    return np.linspace(0.0, periods * derive_params(p).period, points)


def _orbit(p: ModelParams, t: np.ndarray) -> np.ndarray:
    """n0(t) in any pump regime: the closed form above threshold, else zero."""
    if regime_classify(p) is Regime.ABOVE_THRESHOLD:
        return asymptotic_n0(p, t)
    return np.zeros_like(t)


def _warn_validity(ratios, what: str | None = None) -> list[str]:
    """The warning for the linearization validity ratios under
    VALIDITY_MARGIN, as a list of one line, or of none where every ratio is
    trusted: the ratio of a single point (``what`` None), else how many of
    the ``what`` are untrusted and the smallest ratio."""
    low = [r for r in ratios if not is_trusted(r)]
    if not low:
        return []
    if what is None:
        text = (f"linearization validity ratio {low[0]:.3g} < {VALIDITY_MARGIN:g}; "
                "linearized results are unreliable here")
    else:
        text = (f"{len(low)} of {len(ratios)} {what} have a linearization validity ratio "
                f"< {VALIDITY_MARGIN:g} (smallest {min(low):.3g}); linearized results "
                "are unreliable there")
    return [f"warning: {text}"]


def _variance_curves(ps, t: np.ndarray, what: str | None = None) -> tuple[list, list, list]:
    """V(t) for each parameter set in any pump regime (the closed form above
    threshold, else the ODE), the warning for the untrusted sets, and each
    set's validity ratio.  Every V the command line writes comes from here."""
    curves = [asymptotic_variance(p, t) if regime_classify(p) is Regime.ABOVE_THRESHOLD
              else integrate_variance(p).interp(t) for p in ps]
    ratios = [linearization_validity(p) for p in ps]
    return curves, _warn_validity(ratios, what), ratios


def cmd_semiclassical(args) -> list[str]:
    p, cfg = _resolve_model(args)
    t = _period_grid(p, args.points, "--points", args.periods)
    out = _out_dir(args)
    write_csv(out / "semiclassical.csv", ["t", "n0"], [t, _orbit(p, t)], _meta(args, cfg))
    return []


def cmd_variance(args) -> list[str]:
    p, cfg = _resolve_model(args)
    t = _period_grid(p, args.points, "--points", args.periods)
    out = _out_dir(args)
    (V,), warned, _ = _variance_curves([p], t)
    write_csv(out / "variance.csv", ["t", "V", "n0"], [t, V, _orbit(p, t)], _meta(args, cfg))
    return warned


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ValueError(f"--fbar-grid {text!r} needs three numbers, lo:hi:step") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi and 0.0 < step < math.inf
            and math.isfinite((hi - lo) / step)):
        raise ValueError(f"--fbar-grid {text!r} needs finite lo <= hi and a positive "
                         "finite step")
    n = int(round((hi - lo) / step))
    with np.errstate(over="ignore"):  # rounding scales by 1e12 first
        grid = np.round(np.linspace(lo, lo + n * step, n + 1), 12)
    if not np.isfinite(grid).all():
        raise ValueError(f"--fbar-grid {text!r} holds a pump ratio too large to round "
                         f"to 12 decimals")
    return grid


_SWEEP_FIELDS = ["fbar_over_fth", "f1_over_fbar", "v_min", "t0", "n0_at_t0", "inseparable",
                 "epr", "validity_ratio"]


def _sweep_cells(p: ModelParams, grid, levels, n_workers: int) -> tuple[list, list]:
    """sweep_vmin's cells and the warning for the untrusted ones; an error
    names the first failed cell."""
    cells = sweep_vmin(p, grid, levels, n_workers=n_workers)
    failed = [c for c in cells if c.error is not None]
    if failed:
        c = failed[0]
        raise RuntimeError(f"{len(failed)} of {len(cells)} sweep cells failed, the first "
                           f"at fbar={c.fbar_over_fth} f1={c.f1_over_fbar}: {c.error}")
    return cells, _warn_validity([c.validity_ratio for c in cells], "sweep cells")


def cmd_sweep(args) -> list[str]:
    p, cfg = _resolve_model(args)
    out = _out_dir(args)
    grid = _parse_grid(args.fbar_grid)
    try:
        levels = [float(x) for x in args.f1_levels.split(",")]
    except ValueError:
        raise ValueError(f"--f1-levels {args.f1_levels!r} needs comma-separated "
                         "numbers") from None
    cells, warned = _sweep_cells(p, grid, levels, args.workers)
    extra = {"fbar_grid": args.fbar_grid, "f1_levels": args.f1_levels}
    cols = [[getattr(c, f) for c in cells] for f in _SWEEP_FIELDS]
    write_csv(out / "sweep.csv", _SWEEP_FIELDS, cols, _meta(args, cfg, extra))
    return warned


def _run_flags(args, t: np.ndarray) -> dict:
    """Keywords of both ensembles that come straight from the flags."""
    return {"t_grid": t, "seed": args.seed, "dt": args.dt, "relax": args.relax,
            "n_workers": args.workers}


def cmd_positivep(args) -> list[str]:
    p, cfg = _resolve_model(args)
    out = _out_dir(args)
    t = _period_grid(p, args.grid_points, "--grid-points")
    m = simulate_ensemble(p, n_traj=args.traj, **_run_flags(args, t))
    # worker count deliberately left out: results must not depend on it
    extra = {"dt": m.dt, "traj": m.n_traj}
    cols = [f"{x}_{s}" for x in ("n_plus", "R", "Z", "V") for s in ("mean", "stderr")]
    write_csv(
        out / "positivep.csv",
        ["t", *cols, "n_traj", "discarded"],
        [m.t_grid, *(getattr(m, c) for c in cols), m.alive, m.n_traj - m.alive],
        _meta(args, cfg, extra),
    )
    return []


def cmd_qsd(args) -> list[str]:
    p, cfg = _resolve_model(args)
    out = _out_dir(args)
    t = _period_grid(p, args.grid_points, "--grid-points")
    ens = simulate_qsd_ensemble(p, n_max=args.nmax, n_traj=args.traj,
                                **_run_flags(args, t))
    extra = {"n_max": ens.n_max, "dt": ens.dt, "traj": ens.n_traj}
    cols = ["V_mean", "V_stderr", "n1_mean", "n2_mean"]
    write_csv(
        out / "qsd.csv",
        ["t", *cols, "tail_pop", "n_traj"],
        [ens.t_grid, *(getattr(ens, c) for c in cols), ens.tail_max,
         np.full(t.shape, ens.n_traj - ens.discarded)],
        _meta(args, cfg, extra),
    )
    return []


def cmd_compare(args) -> list[str]:
    # Desk-scale defaults: large enough nonlinearity that the quantum runs
    # are cheap, pump away from threshold so the linearization is trusted.
    p, cfg = _resolve_model(args, overrides={"fbar_over_fth": 2.0}, desk_lam=0.1)
    out = _out_dir(args)
    d = derive_params(p)
    lam_ratio = d.lam / d.gamma
    t = _period_grid(p, args.grid_points, "--grid-points")
    # The state-diffusion request is refused before the positive-P
    # ensemble runs, not after.
    step_layout(t, args.dt, args.relax, args.qsd_traj, args.workers)
    (v_lin,), warned, (ratio,) = _variance_curves([p], t)
    tol = 2.0 * lam_ratio

    def within(dev, stderr) -> int:
        return int(bool((dev <= np.maximum(3.0 * stderr, tol)).all()))

    pp = simulate_ensemble(p, n_traj=args.traj, **_run_flags(args, t))
    dev_pp = np.abs(pp.V_mean - v_lin)
    extra = {
        "lam_over_gamma": lam_ratio,
        "validity_ratio": ratio,
        "policy": "|V - V_linear| <= max(3*stderr, 2*lam/gamma)",
        "pp_within_policy": within(dev_pp, pp.V_stderr),
    }

    qsd_n0 = auto_n_max(p)
    if (qsd_n0 + 1) ** 2 <= MAX_PRODUCT_DIM:
        ens = simulate_qsd_ensemble(p, n_max=qsd_n0, n_traj=args.qsd_traj,
                                    **_run_flags(args, t))
        v_qsd, e_qsd = ens.V_mean, ens.V_stderr
        dev_qsd = np.abs(v_qsd - v_lin)
        extra["qsd_within_policy"] = within(dev_qsd, e_qsd)
        extra["qsd_n_max"] = ens.n_max
    else:
        v_qsd = e_qsd = dev_qsd = np.full_like(t, np.nan)
        extra["qsd_within_policy"] = (
            f"skipped (estimated cutoff {qsd_n0} exceeds dimension budget)"
        )

    write_csv(
        out / "compare.csv",
        [
            "t",
            "V_linear",
            "V_pp",
            "V_pp_stderr",
            "V_qsd",
            "V_qsd_stderr",
            "dev_pp",
            "dev_qsd",
        ],
        [t, v_lin, pp.V_mean, pp.V_stderr, v_qsd, e_qsd, dev_pp, dev_qsd],
        _meta(args, cfg, extra),
    )
    return warned


def _figure(out, name, header, columns, meta, xlabel, ylabel, titles, **plot) -> None:
    """name.csv and its gnuplot script, one line per title from column 2 on."""
    csv = write_csv(out / f"{name}.csv", header, columns, meta)
    write_gnuplot(out / f"{name}.gp", csv.name, xlabel, ylabel, enumerate(titles, 2), meta,
                  **plot)


def _level_figure(args, name, ylabel, curves, periods=1.0, **plot) -> list[str]:
    """One curve per modulation level f1/fbar = 0, 0.4, 1.2 on a period grid;
    ``curves`` maps the levels' parameter sets and the grid to the curves
    and their warning, which this returns."""
    p, cfg = _resolve_model(args)
    t = _period_grid(p, args.points, "--points", periods)
    out = _out_dir(args)
    meta = _meta(args, cfg, {"f1_levels": "0,0.4,1.2"})
    ys, warned = curves([config_to_params(dict(cfg, f1_over_fbar=level))
                         for level in (0.0, 0.4, 1.2)], t)
    _figure(out, name, ["t", *(f"{ylabel}_curve{i}" for i in (1, 2, 3))],
            [t, *ys], meta, "t (1/gamma)", ylabel,
            ["f1=0", "f1=0.4 fbar", "f1=1.2 fbar"], **plot)
    return warned


def cmd_fig1(args) -> list[str]:
    return _level_figure(args, "fig1", "n0",
                         lambda ps, t: ([asymptotic_n0(p, t) for p in ps], []),
                         periods=2.0, logscale_y=True)


def cmd_fig2(args) -> list[str]:
    return _level_figure(args, "fig2", "V",
                         lambda ps, t: _variance_curves(ps, t, "modulation levels")[:2])


def cmd_fig3(args) -> list[str]:
    p, cfg = _resolve_model(args)
    out = _out_dir(args)
    grid = _parse_grid(args.fbar_grid)
    levels = (0.0, 0.75, 2.0)
    meta = _meta(args, cfg, {"fbar_grid": args.fbar_grid, "f1_levels": "0,0.75,2"})
    # one pool for all three levels; the cells come back levels outer
    cells, warned = _sweep_cells(p, grid, levels, args.workers)
    v_min = np.array([c.v_min for c in cells]).reshape(len(levels), grid.size)
    _figure(out, "fig3", ["fbar_over_fth", "v_min_curve1", "v_min_curve2", "v_min_curve3"],
            [grid, *v_min], meta, "fbar/f_th", "V_min",
            ["f1=0", "f1=0.75 fbar", "f1=2 fbar"])
    return warned


def cmd_fig4(args) -> list[str]:
    overrides = {"fbar_over_fth": 1.0, "f1_over_fbar": 0.5}
    p, cfg = _resolve_model(args, overrides, desk_lam=0.1)
    out = _out_dir(args)
    t = _period_grid(p, args.grid_points, "--grid-points")
    (v_lin,), warned, (ratio,) = _variance_curves([p], t)
    ens = simulate_qsd_ensemble(p, n_max=args.nmax, n_traj=args.traj,
                                **_run_flags(args, t))
    meta = _meta(
        args,
        cfg,
        {
            "validity_ratio": ratio,
            "n_max": ens.n_max,
            "dt": ens.dt,
            "traj": ens.n_traj,
        },
    )
    _figure(out, "fig4", ["t", "V_analytic", "V_qsd", "V_qsd_stderr"],
            [t, v_lin, ens.V_mean, ens.V_stderr], meta, "t (1/gamma)", "V",
            ["linearized", "state diffusion"])
    return warned


def _check_flags(args) -> None:
    """Refuse, by its flag and before any work, a count below its least
    value, a seed outside [0, 2**64), a step that is not positive and finite
    and a relaxation window that is not finite."""
    for name, least in (("traj", 2), ("qsd_traj", 2), ("workers", 1), ("nmax", 2)):
        n = getattr(args, name, None)
        if n is not None and n < least:
            raise InvalidParameterError(f"need --{name.replace('_', '-')} >= {least}, got {n}")
    if not 0 <= getattr(args, "seed", 0) < 2**64:
        raise InvalidParameterError(f"need 0 <= --seed < 2**64, got {args.seed}")
    if not 0.0 < getattr(args, "dt", 1.0) < math.inf:
        raise InvalidParameterError(f"need --dt > 0 and finite, got {args.dt}")
    if not math.isfinite(getattr(args, "relax", 0.0)):
        raise InvalidParameterError(f"need --relax finite, got {args.relax}")


class _Parser(argparse.ArgumentParser):
    """A subcommand's parser: main refuses a flag value it cannot read
    (`--nmax 1e3`) as one error line, where argparse exits 2 with usage."""

    def error(self, message):
        raise InvalidParameterError(message)


def _command(sub, name, func, help):
    """A subcommand parser that takes the model flags and runs func."""
    sp = sub.add_parser(name, help=help)
    sp.add_argument("--config", help="JSON configuration file")
    sp.add_argument("--out", default=".", help="existing output directory")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--fbar", type=float, default=None, help="fbar/f_th ratio")
    sp.add_argument("--f1", type=float, default=None, help="f1/fbar ratio")
    sp.add_argument("--delta", type=float, default=None, help="delta/gamma ratio")
    sp.add_argument(
        "--lam", type=float, default=None,
        help="lambda/gamma ratio (overrides k to match)",
    )
    sp.add_argument(
        "--timestamp", action="store_true",
        help="stamp outputs with wall-clock time (breaks byte reproducibility)",
    )
    sp.set_defaults(func=func)
    return sp


def _add_ensemble_flags(sp, traj_default, route):
    """Ensemble flags; the step and relaxation defaults are the route module's."""
    sp.add_argument("--traj", type=int, default=traj_default)
    sp.add_argument("--dt", type=float, default=route.DEFAULT_DT)
    sp.add_argument("--relax", type=float, default=route.RELAX_WINDOW)
    sp.add_argument("--grid-points", type=int, default=129)
    sp.add_argument("--workers", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="modnopo",
        description="Simulations of a two-mode parametric oscillator "
        "with a modulated pump.",
    )
    ap.add_argument("--version", action="version", version=f"modnopo {__version__}")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = _command(sub, "semiclassical", cmd_semiclassical, "periodic photon-number orbit")
    sp.add_argument("--points", type=int, default=801)
    sp.add_argument("--periods", type=float, default=2.0)

    sp = _command(sub, "variance", cmd_variance, "linearized squeezed variance V(t)")
    sp.add_argument("--points", type=int, default=513)
    sp.add_argument("--periods", type=float, default=1.0)

    sp = _command(sub, "sweep", cmd_sweep, "V_min over pump and modulation grids")
    sp.add_argument("--fbar-grid", default="0.1:4:0.05", help="lo:hi:step")
    sp.add_argument("--f1-levels", default="0,0.75,2", help="comma separated")
    sp.add_argument("--workers", type=int, default=1)

    sp = _command(sub, "positivep", cmd_positivep, "phase-space trajectory ensemble")
    _add_ensemble_flags(sp, 2000, positivep)

    sp = _command(sub, "qsd", cmd_qsd, "state-diffusion trajectory ensemble")
    _add_ensemble_flags(sp, 512, qsd)
    sp.add_argument("--nmax", type=int, default=None, help="starting Fock cutoff")

    sp = _command(sub, "compare", cmd_compare, "linearized vs both quantum ensembles")
    _add_ensemble_flags(sp, 4000, positivep)
    sp.add_argument("--qsd-traj", type=int, default=256)

    sp = _command(sub, "fig1", cmd_fig1, "photon-number orbits at three modulations")
    sp.add_argument("--points", type=int, default=801)

    sp = _command(sub, "fig2", cmd_fig2, "variance curves at three modulations")
    sp.add_argument("--points", type=int, default=513)

    sp = _command(sub, "fig3", cmd_fig3, "V_min sweep at three modulation levels")
    sp.add_argument("--fbar-grid", default="0.1:4:0.05", help="lo:hi:step")
    sp.add_argument("--workers", type=int, default=1)

    sp = _command(sub, "fig4", cmd_fig4, "state-diffusion vs linearized overlay")
    _add_ensemble_flags(sp, 512, qsd)
    sp.add_argument("--nmax", type=int, default=None)

    return ap


def main(argv=None) -> int:
    """Run one subcommand.  Its warning lines, the model's warnings first
    (gamma3/gamma under 10, say) and then the lines it returns, are printed
    once each and only once it has succeeded: a refused run prints its one
    error line alone."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            args = build_parser().parse_args(argv)
            _check_flags(args)
            warned = args.func(args)
        except (ValueError, RuntimeError, OSError, MemoryError) as exc:
            print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return 1
    for line in dict.fromkeys([f"warning: {w.message}" for w in caught] + warned):
        print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
