"""Command-line front end for the modulated-cavity simulation pipelines.

Subcommands map one-to-one onto the compute modules (semiclassical orbit,
linearized variance, modulation sweep, phase-space ensemble, state-diffusion
ensemble, three-way comparison) plus four figure pipelines that bundle the
standard parameter choices.  All outputs are CSV files with `#` provenance
headers; figure pipelines additionally emit a gnuplot script.

The output directory must already exist: this tool never creates paths, so a
typo cannot scatter files.  Runs are deterministic for a fixed seed unless
wall-clock stamping is requested explicitly.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .fluctuations import (
    VALIDITY_MARGIN,
    asymptotic_variance,
    integrate_variance,
    linearization_validity,
    sweep_vmin,
)
from .model import (
    CONFIG_DEFAULTS,
    ModelParams,
    Regime,
    config_to_params,
    derive_params,
    read_config,
    regime_classify,
)
from .positivep import simulate_ensemble
from .qsd import MAX_PRODUCT_DIM, auto_n_max, simulate_qsd_ensemble
from .semiclassical import asymptotic_n0
from ._output import metadata_lines, write_csv, write_gnuplot

DEFAULT_SEED = 12345


def _resolve_model(args, overrides=None) -> tuple[ModelParams, dict]:
    """Merge defaults, config file, subcommand presets and explicit flags."""
    cfg = dict(CONFIG_DEFAULTS)
    cfg.update(overrides or {})
    if args.config:
        cfg.update(read_config(args.config))
    if args.fbar is not None:
        cfg["fbar_over_fth"] = args.fbar
    if args.f1 is not None:
        cfg["f1_over_fbar"] = args.f1
    if args.delta is not None:
        cfg["delta_over_gamma"] = args.delta
    if getattr(args, "lam", None) is not None:
        # lam/gamma is not itself a config key; it fixes the coupling k.
        cfg["k_over_gamma"] = math.sqrt(args.lam * cfg["gamma3_over_gamma"])
    return config_to_params(cfg), cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    if not out.is_dir():
        raise FileNotFoundError(f"output directory does not exist: {out}")
    return out


def _meta(args, cfg, extra=None) -> list[str]:
    return metadata_lines(
        __version__, cfg, args.seed, getattr(args, "timestamp", False), extra
    )


def _period_grid(p: ModelParams, points: int, periods: float = 1.0) -> np.ndarray:
    T = derive_params(p).period
    return np.linspace(0.0, periods * T, points)


def _variance_curve(p: ModelParams, t: np.ndarray):
    """V(t) and the matching photon-number orbit in any pump regime."""
    if regime_classify(p) is Regime.ABOVE_THRESHOLD:
        return asymptotic_variance(p, t), asymptotic_n0(p, t)
    traj = integrate_variance(p)
    return traj.interp(t), np.zeros_like(t)


def _warn_validity(p: ModelParams) -> float:
    ratio = linearization_validity(p)
    if ratio < VALIDITY_MARGIN:
        print(
            f"warning: linearization validity ratio {ratio:.3g} < "
            f"{VALIDITY_MARGIN:g}; linearized results are unreliable here",
            file=sys.stderr,
        )
    return ratio


def cmd_semiclassical(args) -> int:
    p, cfg = _resolve_model(args)
    out = _out_dir(args)
    t = _period_grid(p, args.points, args.periods)
    if regime_classify(p) is Regime.ABOVE_THRESHOLD:
        n0 = asymptotic_n0(p, t)
    else:
        n0 = np.zeros_like(t)
    write_csv(out / "semiclassical.csv", ["t", "n0"], [t, n0], _meta(args, cfg))
    return 0


def cmd_variance(args) -> int:
    p, cfg = _resolve_model(args)
    out = _out_dir(args)
    _warn_validity(p)
    t = _period_grid(p, args.points, args.periods)
    V, n0 = _variance_curve(p, t)
    write_csv(out / "variance.csv", ["t", "V", "n0"], [t, V, n0], _meta(args, cfg))
    return 0


def _parse_grid(text: str) -> np.ndarray:
    lo, hi, step = (float(x) for x in text.split(":"))
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < step < math.inf):
        raise ValueError(f"grid {text!r} needs finite lo:hi and a positive finite step")
    n = int(round((hi - lo) / step))
    return np.round(np.linspace(lo, lo + n * step, n + 1), 12)


def _parse_levels(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _sweep_csv(out, name, cells, meta):
    cols = list(
        zip(
            *[
                (
                    c.fbar_over_fth,
                    c.f1_over_fbar,
                    c.v_min,
                    c.t0,
                    c.n0_at_t0,
                    c.inseparable,
                    c.epr,
                    c.validity_ratio,
                )
                for c in cells
            ]
        )
    )
    header = [
        "fbar_over_fth",
        "f1_over_fbar",
        "v_min",
        "t0",
        "n0_at_t0",
        "inseparable",
        "epr",
        "validity_ratio",
    ]
    return write_csv(out / name, header, cols, meta)


def cmd_sweep(args) -> int:
    p, cfg = _resolve_model(args)
    out = _out_dir(args)
    grid = _parse_grid(args.fbar_grid)
    levels = _parse_levels(args.f1_levels)
    cells = sweep_vmin(p, grid, levels, n_workers=args.workers)
    failed = [c for c in cells if c.error is not None]
    for c in failed:
        print(
            f"error: sweep cell fbar={c.fbar_over_fth} f1={c.f1_over_fbar}: {c.error}",
            file=sys.stderr,
        )
    extra = {"fbar_grid": args.fbar_grid, "f1_levels": args.f1_levels}
    _sweep_csv(out, "sweep.csv", cells, _meta(args, cfg, extra))
    return 1 if failed else 0


def cmd_positivep(args) -> int:
    p, cfg = _resolve_model(args)
    out = _out_dir(args)
    t = _period_grid(p, args.grid_points)
    m = simulate_ensemble(
        p,
        n_traj=args.traj,
        t_grid=t,
        seed=args.seed,
        dt=args.dt,
        relax=args.relax,
        n_workers=args.workers,
    )
    # worker count deliberately left out: results must not depend on it
    extra = {"dt": m.dt, "traj": m.n_traj}
    write_csv(
        out / "positivep.csv",
        [
            "t",
            "n_plus_mean",
            "n_plus_stderr",
            "R_mean",
            "R_stderr",
            "Z_mean",
            "Z_stderr",
            "V_mean",
            "V_stderr",
            "n_traj",
            "discarded",
        ],
        [
            m.t_grid,
            m.n_plus_mean,
            m.n_plus_stderr,
            m.R_mean,
            m.R_stderr,
            m.Z_mean,
            m.Z_stderr,
            m.V_mean,
            m.V_stderr,
            m.alive,
            m.n_traj - m.alive,
        ],
        _meta(args, cfg, extra),
    )
    return 0


def cmd_qsd(args) -> int:
    p, cfg = _resolve_model(args)
    out = _out_dir(args)
    t = _period_grid(p, args.grid_points)
    ens = simulate_qsd_ensemble(
        p,
        n_max=args.nmax,
        n_traj=args.traj,
        t_grid=t,
        seed=args.seed,
        dt=args.dt,
        relax=args.relax,
        n_workers=args.workers,
    )
    extra = {"n_max": ens.n_max, "dt": ens.dt, "traj": ens.n_traj}
    n_alive = np.full(t.shape, ens.n_traj - ens.discarded)
    write_csv(
        out / "qsd.csv",
        ["t", "V_mean", "V_stderr", "n1_mean", "n2_mean", "tail_pop", "n_traj"],
        [t, ens.V_mean, ens.V_stderr, ens.n1_mean, ens.n2_mean, ens.tail_max, n_alive],
        _meta(args, cfg, extra),
    )
    return 0


def cmd_compare(args) -> int:
    # Desk-scale defaults: large enough nonlinearity that the quantum runs
    # are cheap, pump away from threshold so the linearization is trusted.
    p, cfg = _resolve_model(args, overrides={"fbar_over_fth": 2.0})
    if getattr(args, "lam", None) is None and args.config is None:
        cfg["k_over_gamma"] = math.sqrt(0.1 * cfg["gamma3_over_gamma"])
        p = config_to_params(cfg)
    out = _out_dir(args)
    d = derive_params(p)
    lam_ratio = d.lam / d.gamma
    ratio = _warn_validity(p)
    t = _period_grid(p, args.grid_points)

    v_lin, _ = _variance_curve(p, t)
    tol = 2.0 * lam_ratio

    pp = simulate_ensemble(
        p, n_traj=args.traj, t_grid=t, seed=args.seed, dt=args.dt,
        n_workers=args.workers,
    )
    dev_pp = np.abs(pp.V_mean - v_lin)
    pp_ok = bool((dev_pp <= np.maximum(3.0 * pp.V_stderr, tol)).all())

    extra = {
        "lam_over_gamma": lam_ratio,
        "validity_ratio": ratio,
        "policy": "|V - V_linear| <= max(3*stderr, 2*lam/gamma)",
        "pp_within_policy": int(pp_ok),
    }

    qsd_n0 = auto_n_max(p)
    if (qsd_n0 + 1) ** 2 <= MAX_PRODUCT_DIM:
        ens = simulate_qsd_ensemble(
            p, n_traj=args.qsd_traj, t_grid=t, seed=args.seed, dt=args.dt,
            n_workers=args.workers,
        )
        v_qsd = ens.V_mean
        e_qsd = ens.V_stderr
        dev_qsd = np.abs(v_qsd - v_lin)
        qsd_ok = bool((dev_qsd <= np.maximum(3.0 * e_qsd, tol)).all())
        extra["qsd_within_policy"] = int(qsd_ok)
        extra["qsd_n_max"] = ens.n_max
    else:
        nan = np.full_like(t, np.nan)
        v_qsd, e_qsd, dev_qsd = nan, nan, nan
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
    return 0


def cmd_fig1(args) -> int:
    p, cfg = _resolve_model(args)
    out = _out_dir(args)
    t = _period_grid(p, args.points, periods=2.0)
    meta = _meta(args, cfg, {"f1_levels": "0,0.4,1.2"})
    curves = []
    for level in (0.0, 0.4, 1.2):
        cfg_i = dict(cfg, f1_over_fbar=level)
        curves.append(asymptotic_n0(config_to_params(cfg_i), t))
    csv = write_csv(
        out / "fig1.csv",
        ["t", "n0_curve1", "n0_curve2", "n0_curve3"],
        [t, *curves],
        meta,
    )
    write_gnuplot(
        out / "fig1.gp",
        csv.name,
        "t (1/gamma)",
        "n0",
        [(2, "f1=0"), (3, "f1=0.4 fbar"), (4, "f1=1.2 fbar")],
        meta,
        logscale_y=True,
    )
    return 0


def cmd_fig2(args) -> int:
    p, cfg = _resolve_model(args)
    out = _out_dir(args)
    t = _period_grid(p, args.points)
    meta = _meta(args, cfg, {"f1_levels": "0,0.4,1.2"})
    curves = []
    for level in (0.0, 0.4, 1.2):
        cfg_i = dict(cfg, f1_over_fbar=level)
        V, _ = _variance_curve(config_to_params(cfg_i), t)
        curves.append(V)
    csv = write_csv(
        out / "fig2.csv",
        ["t", "V_curve1", "V_curve2", "V_curve3"],
        [t, *curves],
        meta,
    )
    write_gnuplot(
        out / "fig2.gp",
        csv.name,
        "t (1/gamma)",
        "V",
        [(2, "f1=0"), (3, "f1=0.4 fbar"), (4, "f1=1.2 fbar")],
        meta,
    )
    return 0


def cmd_fig3(args) -> int:
    p, cfg = _resolve_model(args)
    out = _out_dir(args)
    grid = _parse_grid(args.fbar_grid)
    levels = (0.0, 0.75, 2.0)
    meta = _meta(args, cfg, {"fbar_grid": args.fbar_grid, "f1_levels": "0,0.75,2"})
    columns = [grid]
    for level in levels:
        cells = sweep_vmin(p, grid, [level], n_workers=args.workers)
        failed = [c for c in cells if c.error is not None]
        for c in failed:
            print(f"error: fig3 cell fbar={c.fbar_over_fth}: {c.error}", file=sys.stderr)
        if failed:
            return 1
        columns.append(np.array([c.v_min for c in cells]))
    csv = write_csv(
        out / "fig3.csv",
        ["fbar_over_fth", "v_min_curve1", "v_min_curve2", "v_min_curve3"],
        columns,
        meta,
    )
    write_gnuplot(
        out / "fig3.gp",
        csv.name,
        "fbar/f_th",
        "V_min",
        [(2, "f1=0"), (3, "f1=0.75 fbar"), (4, "f1=2 fbar")],
        meta,
    )
    return 0


def cmd_fig4(args) -> int:
    lam_ratio = 0.01 if args.full else 0.1
    overrides = {"fbar_over_fth": 1.0, "f1_over_fbar": 0.5}
    p, cfg = _resolve_model(args, overrides=overrides)
    if getattr(args, "lam", None) is None:
        cfg["k_over_gamma"] = math.sqrt(lam_ratio * cfg["gamma3_over_gamma"])
        p = config_to_params(cfg)
    out = _out_dir(args)
    ratio = _warn_validity(p)
    t = _period_grid(p, args.grid_points)
    v_lin, _ = _variance_curve(p, t)
    ens = simulate_qsd_ensemble(
        p, n_max=args.nmax, n_traj=args.traj, t_grid=t, seed=args.seed,
        dt=args.dt, n_workers=args.workers,
    )
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
    csv = write_csv(
        out / "fig4.csv",
        ["t", "V_analytic", "V_qsd", "V_qsd_stderr"],
        [t, v_lin, ens.V_mean, ens.V_stderr],
        meta,
    )
    write_gnuplot(
        out / "fig4.gp",
        csv.name,
        "t (1/gamma)",
        "V",
        [(2, "linearized"), (3, "state diffusion")],
        meta,
    )
    return 0


def _add_model_flags(sp):
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


def _add_ensemble_flags(sp, traj_default):
    sp.add_argument("--traj", type=int, default=traj_default)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--relax", type=float, default=5.0)
    sp.add_argument("--grid-points", type=int, default=129)
    sp.add_argument("--workers", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="modnopo",
        description="Simulations of a two-mode parametric oscillator "
        "with a modulated pump.",
    )
    ap.add_argument("--version", action="version", version=f"modnopo {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("semiclassical", help="periodic photon-number orbit")
    _add_model_flags(sp)
    sp.add_argument("--points", type=int, default=801)
    sp.add_argument("--periods", type=float, default=2.0)
    sp.set_defaults(func=cmd_semiclassical)

    sp = sub.add_parser("variance", help="linearized squeezed variance V(t)")
    _add_model_flags(sp)
    sp.add_argument("--points", type=int, default=513)
    sp.add_argument("--periods", type=float, default=1.0)
    sp.set_defaults(func=cmd_variance)

    sp = sub.add_parser("sweep", help="V_min over pump and modulation grids")
    _add_model_flags(sp)
    sp.add_argument("--fbar-grid", default="0.1:4:0.05", help="lo:hi:step")
    sp.add_argument("--f1-levels", default="0,0.75,2", help="comma separated")
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("positivep", help="phase-space trajectory ensemble")
    _add_model_flags(sp)
    _add_ensemble_flags(sp, traj_default=2000)
    sp.set_defaults(func=cmd_positivep)

    sp = sub.add_parser("qsd", help="state-diffusion trajectory ensemble")
    _add_model_flags(sp)
    _add_ensemble_flags(sp, traj_default=512)
    sp.add_argument("--nmax", type=int, default=None, help="starting Fock cutoff")
    sp.set_defaults(func=cmd_qsd)

    sp = sub.add_parser("compare", help="linearized vs both quantum ensembles")
    _add_model_flags(sp)
    _add_ensemble_flags(sp, traj_default=4000)
    sp.add_argument("--qsd-traj", type=int, default=256)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("fig1", help="photon-number orbits at three modulations")
    _add_model_flags(sp)
    sp.add_argument("--points", type=int, default=801)
    sp.set_defaults(func=cmd_fig1)

    sp = sub.add_parser("fig2", help="variance curves at three modulations")
    _add_model_flags(sp)
    sp.add_argument("--points", type=int, default=513)
    sp.set_defaults(func=cmd_fig2)

    sp = sub.add_parser("fig3", help="V_min sweep at three modulation levels")
    _add_model_flags(sp)
    sp.add_argument("--fbar-grid", default="0.1:4:0.05", help="lo:hi:step")
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(func=cmd_fig3)

    sp = sub.add_parser("fig4", help="state-diffusion vs linearized overlay")
    _add_model_flags(sp)
    _add_ensemble_flags(sp, traj_default=512)
    sp.add_argument("--nmax", type=int, default=None)
    sp.add_argument(
        "--full", action="store_true",
        help="realistic-scale nonlinearity (long run, excluded from CI)",
    )
    sp.set_defaults(func=cmd_fig4)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
