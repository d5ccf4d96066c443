"""Command-line pipelines: schemas, metadata, determinism, exit codes.

Each subcommand is driven in-process through main() for speed; the
cross-worker byte-identity of the CLI surface is covered separately by
the acceptance suite, which shells out for real.
"""

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from modnopo import (VALIDITY_MARGIN, Regime, SweepCell, VminResult, classify_entanglement,
                     config_to_params, derive_params, periodic_steady_state, positivep, qsd,
                     regime_classify)
from modnopo.cli import _warn_validity, build_parser, main
from modnopo.fluctuations import is_trusted


def read_output(path):
    """Split a CSV artifact into (meta dict, column dict of float arrays)."""
    meta = {}
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(": ")
            meta[key] = val
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    cols = {}
    for j, name in enumerate(header):
        try:
            cols[name] = np.array([float(r[j]) for r in rows])
        except ValueError:
            cols[name] = np.array([r[j] for r in rows])
    return meta, cols


def test_semiclassical_schema(tmp_path):
    assert main(["semiclassical", "--out", str(tmp_path), "--points", "33",
                 "--f1", "0.4"]) == 0
    meta, cols = read_output(tmp_path / "semiclassical.csv")
    assert meta["modnopo 0.1.0"] == "" or "modnopo" in next(iter(meta))
    assert meta["seed"] == "12345"
    assert meta["wall_clock"] == "disabled (deterministic mode)"
    assert json.loads(meta["config"])["f1_over_fbar"] == 0.4
    assert list(cols) == ["t", "n0"]
    assert cols["t"].size == 33
    assert np.all(cols["n0"] > 0)


def test_variance_schema_and_range(tmp_path):
    assert main(["variance", "--out", str(tmp_path), "--points", "33",
                 "--f1", "1.2"]) == 0
    _, cols = read_output(tmp_path / "variance.csv")
    assert list(cols) == ["t", "V", "n0"]
    # deep modulation: V dips well below vacuum once a period but swings
    # above it elsewhere
    assert np.all(cols["V"] > 0)
    assert cols["V"].min() < 0.30
    assert cols["V"].max() > 1.0


def test_sweep_schema_and_anchors(tmp_path):
    assert main(["sweep", "--out", str(tmp_path), "--fbar-grid", "1.5:2.5:0.5",
                 "--f1-levels", "0,0.75", "--workers", "2"]) == 0
    _, cols = read_output(tmp_path / "sweep.csv")
    assert list(cols) == ["fbar_over_fth", "f1_over_fbar", "v_min", "t0",
                          "n0_at_t0", "inseparable", "epr", "validity_ratio"]
    assert cols["t0"].size == 6
    flat = cols["f1_over_fbar"] == 0.0
    np.testing.assert_allclose(
        np.sort(cols["v_min"][flat]), [7.0 / 12.0, 0.625, 0.65], rtol=1e-6
    )
    assert set(cols["inseparable"]) <= {0.0, 1.0}


def test_positivep_schema(tmp_path):
    assert main(["positivep", "--out", str(tmp_path), "--traj", "64",
                 "--grid-points", "5", "--relax", "1.0", "--lam", "0.01",
                 "--fbar", "2.0"]) == 0
    meta, cols = read_output(tmp_path / "positivep.csv")
    assert list(cols) == ["t", "n_plus_mean", "n_plus_stderr", "R_mean",
                          "R_stderr", "Z_mean", "Z_stderr", "V_mean",
                          "V_stderr", "n_traj", "discarded"]
    np.testing.assert_array_equal(cols["n_traj"], 64)
    np.testing.assert_array_equal(cols["discarded"], 0)
    # the serialized columns keep the exact identity
    np.testing.assert_array_equal(cols["V_mean"], 1.0 + cols["R_mean"])


def test_qsd_schema(tmp_path):
    assert main(["qsd", "--out", str(tmp_path), "--traj", "8",
                 "--grid-points", "3", "--nmax", "10", "--lam", "0.1",
                 "--fbar", "0.3", "--relax", "2.0"]) == 0
    meta, cols = read_output(tmp_path / "qsd.csv")
    assert list(cols) == ["t", "V_mean", "V_stderr", "n1_mean", "n2_mean",
                          "tail_pop", "n_traj"]
    assert int(meta["n_max"]) >= 10
    assert np.all(cols["tail_pop"] < 1e-6)


def test_compare_without_pump_is_exact(tmp_path):
    assert main(["compare", "--out", str(tmp_path), "--fbar", "0.0",
                 "--traj", "16", "--qsd-traj", "8", "--grid-points", "3",
                 "--relax", "0.5"]) == 0
    meta, cols = read_output(tmp_path / "compare.csv")
    # with the pump off every route sits exactly on vacuum
    np.testing.assert_array_equal(cols["V_linear"], 1.0)
    np.testing.assert_array_equal(cols["V_pp"], 1.0)
    np.testing.assert_array_equal(cols["V_qsd"], 1.0)
    assert meta["pp_within_policy"] == "1"
    assert meta["qsd_within_policy"] == "1"


def test_compare_all_routes_live(tmp_path, capsys):
    assert main(["compare", "--out", str(tmp_path), "--fbar", "0.3",
                 "--traj", "200", "--qsd-traj", "16", "--grid-points", "5",
                 "--relax", "3.0"]) == 0
    meta, cols = read_output(tmp_path / "compare.csv")
    assert meta["pp_within_policy"] == "1"
    assert meta["qsd_within_policy"] == "1"
    want = 1.0 / 1.3
    np.testing.assert_allclose(cols["V_linear"], want, rtol=1e-6)
    assert np.all(np.isfinite(cols["V_qsd"]))
    # close enough to threshold that the reliability warning fires
    assert "validity" in capsys.readouterr().err


def test_compare_skips_infeasible_quantum_leg(tmp_path):
    assert main(["compare", "--out", str(tmp_path), "--lam", "1e-3",
                 "--traj", "200", "--qsd-traj", "8", "--grid-points", "5",
                 "--relax", "3.0"]) == 0
    meta, cols = read_output(tmp_path / "compare.csv")
    assert meta["qsd_within_policy"].startswith("skipped (estimated cutoff")
    assert meta["pp_within_policy"] == "1"
    assert np.all(np.isnan(cols["V_qsd"]))
    assert np.all(np.isfinite(cols["V_pp"]))


def test_fig1_flat_curve_and_periodicity(tmp_path):
    assert main(["fig1", "--out", str(tmp_path), "--points", "33"]) == 0
    meta, cols = read_output(tmp_path / "fig1.csv")
    assert list(cols) == ["t", "n0_curve1", "n0_curve2", "n0_curve3"]
    np.testing.assert_allclose(cols["n0_curve1"], 2e8, rtol=1e-6)
    # 33 points span two periods; the halves must repeat
    np.testing.assert_allclose(
        cols["n0_curve3"][:17], cols["n0_curve3"][16:], rtol=1e-6
    )
    assert (tmp_path / "fig1.gp").exists()


def test_fig2_schema(tmp_path):
    assert main(["fig2", "--out", str(tmp_path), "--points", "17"]) == 0
    _, cols = read_output(tmp_path / "fig2.csv")
    assert list(cols) == ["t", "V_curve1", "V_curve2", "V_curve3"]
    np.testing.assert_allclose(cols["V_curve1"], 2.0 / 3.0, rtol=1e-6)
    assert cols["V_curve3"].min() < 0.30


def test_fig3_threshold_anchor(tmp_path):
    assert main(["fig3", "--out", str(tmp_path), "--fbar-grid", "0.5:1.5:0.5",
                 "--workers", "2"]) == 0
    _, cols = read_output(tmp_path / "fig3.csv")
    assert list(cols) == ["fbar_over_fth", "v_min_curve1", "v_min_curve2",
                          "v_min_curve3"]
    at = cols["fbar_over_fth"] == 1.0
    assert cols["v_min_curve1"][at] == pytest.approx(0.5, rel=1e-6)
    # deeper modulation squeezes harder everywhere on this grid
    assert np.all(cols["v_min_curve3"] < cols["v_min_curve2"])
    assert np.all(cols["v_min_curve2"] < cols["v_min_curve1"])


@pytest.mark.parametrize("command", ["sweep", "fig3"])
def test_untrusted_sweep_cells_warn_once(tmp_path, capsys, command):
    levels = ["--f1-levels", "0,2"] if command == "sweep" else []
    # just above threshold, the f1 = 2 fbar cell's validity ratio is 6.12
    assert main([command, "--out", str(tmp_path), "--fbar-grid", "1.05:1.05:0.05",
                 "--lam", "0.001", *levels]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: 1 of "), lines
    assert "smallest 6.12" in lines[0]
    # far above threshold every cell is trusted
    assert main([command, "--out", str(tmp_path), "--fbar-grid", "3:3:1", *levels]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv,first", [
    (["fig2", "--delta", "0.01", "--points", "9"],
     "warning: 2 of 3 modulation levels have a linearization validity ratio < 10 "
     "(smallest 4.06e-305)"),
    (["variance", "--delta", "0.01", "--f1", "1.2", "--points", "9"],
     "warning: linearization validity ratio 4.06e-305 < 10"),
    (["compare", "--fbar", "0.3", "--traj", "32", "--qsd-traj", "8", "--grid-points", "3",
      "--relax", "1"], "warning: linearization validity ratio 7 < 10"),
    (["fig4", "--traj", "8", "--grid-points", "3", "--relax", "0.5", "--nmax", "10"],
     "warning: linearization validity ratio 1.35e-15 < 10"),
])
def test_untrusted_variance_outputs_warn_once(tmp_path, capsys, argv, first):
    # every V the command line writes passes one validity check, which
    # prints one line: fig2 one for its three levels (at delta 0.01 the f1 =
    # 0.4 and 1.2 fbar levels are untrusted), as a sweep does for its cells
    assert main([*argv, "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(first), lines


def test_fig4_schema_and_warning(tmp_path, capsys):
    assert main(["fig4", "--out", str(tmp_path), "--traj", "12",
                 "--grid-points", "3", "--relax", "1.0", "--nmax", "26"]) == 0
    meta, cols = read_output(tmp_path / "fig4.csv")
    assert list(cols) == ["t", "V_analytic", "V_qsd", "V_qsd_stderr"]
    assert int(meta["n_max"]) >= 26
    assert float(meta["validity_ratio"]) < 10.0
    assert "validity" in capsys.readouterr().err
    assert (tmp_path / "fig4.gp").exists()


def test_repeat_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    args = ["qsd", "--traj", "8", "--grid-points", "3", "--nmax", "10",
            "--lam", "0.1", "--fbar", "0.3", "--relax", "1.0"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "qsd.csv").read_bytes() == (b / "qsd.csv").read_bytes()


# Every subcommand at small inputs, above and below threshold: the sha256 of
# its exit code, stdout, stderr and every file it writes.  compare at
# lam 1e-4 skips its state-diffusion leg, and fig1 refuses a pump below
# threshold.
FROZEN_RUNS = {
    "semiclassical": (["semiclassical", "--points", "9", "--f1", "0.4"],
                      "cc262d191182f62ca82711ece70f92d8eb8182b44cd7aa2a815f3fa83be5d8a2"),
    "semiclassical-below": (["semiclassical", "--points", "5", "--fbar", "0.5"],
                            "09aaa384789edcf8b54861905218475cc7e223f32c68018a0a452ef5a3d117b3"),
    "variance": (["variance", "--points", "9", "--f1", "1.2"],
                 "f32d75991eb5c609c76617fceb072e378ed58d6fae6411b1b86e393e3f9e1b31"),
    "variance-below": (["variance", "--points", "5", "--fbar", "0.5", "--f1", "0.4"],
                       "00c02c2ca9ce88d0a8a2a769bdfeaedaaa4f37793b9357d70ff74ee308c462d3"),
    "sweep": (["sweep", "--fbar-grid", "0.5:1.5:0.5", "--f1-levels", "0,0.75"],
              "9efb417496f249301679b4fb516452820009f724beca367ba570f55f9878b45e"),
    "sweep-untrusted": (["sweep", "--fbar-grid", "1.05:1.05:0.05", "--f1-levels", "0,2",
                         "--lam", "0.001"],
                        "dfa2288111ff46d7ca7a36d2315c1fc6f110ad3cf699a6cf86066bd3572a1b10"),
    "positivep": (["positivep", "--traj", "16", "--grid-points", "3", "--relax", "0.5",
                   "--lam", "0.1", "--f1", "0.5"],
                  "d6e61639572661e44690beccc1f52c5c3248615c5d9356bfd216928422ff8c3c"),
    "qsd": (["qsd", "--traj", "8", "--grid-points", "3", "--nmax", "10", "--lam", "0.1",
             "--fbar", "0.3", "--relax", "1"],
            "4fb95b22d0139d29818a64ec49e06e8e23f9ea23ef45f286cec2e1e149cba48d"),
    "compare": (["compare", "--fbar", "0.3", "--traj", "32", "--qsd-traj", "8",
                 "--grid-points", "3", "--relax", "1"],
                "9b32a36ca3ad7d855c054883e1ed70c74f2169105ee4fc2c5b06ac911662ba37"),
    "compare-qsd-skipped": (["compare", "--lam", "1e-4", "--traj", "32", "--qsd-traj", "8",
                             "--grid-points", "3", "--relax", "0.5"],
                            "24a4ccc09ee56571384918bd7c2d6da0629d0593b8ac86b5e8a937177b005b74"),
    "fig1": (["fig1", "--points", "9"],
             "3bf20cc66e42d1587257d447a858772bc960fe075feb99d8fb5378f3b52078f5"),
    "fig1-below": (["fig1", "--fbar", "0.5", "--points", "5"],
                   "ccdf84e2d1c75653aa03be487192d494c2868b758b78d7b512710fed63b56811"),
    "fig2": (["fig2", "--points", "9"],
             "28a3d03814772acbd44b400506fac9104434347881fd214f762da437ecc1bf56"),
    "fig2-below": (["fig2", "--fbar", "0.5", "--points", "5"],
                   "9c9a3c64ac75d92f602d5b7975f6764ab7435934cce3c5b3851d0bd558b366d0"),
    "fig3": (["fig3", "--fbar-grid", "1.05:1.05:0.05", "--lam", "0.001"],
             "9ebda5a1c8fb3298625e5eec203b372be632b04da35f0a1782dacc6608ce77d6"),
    "fig4": (["fig4", "--traj", "8", "--grid-points", "3", "--relax", "0.5", "--nmax", "10"],
             "53cbf0499c2e84e2bc543e9d1af3125dfd98b6e4c6ffce428deabb7959b87c08"),
}


def _run_digest(argv, out, capsys) -> str:
    code = main([*argv, "--out", str(out)])
    std = capsys.readouterr()
    h = hashlib.sha256(f"exit {code}\n{std.out}\0{std.err}\0".encode())
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


@pytest.mark.parametrize("label", list(FROZEN_RUNS))
def test_frozen_subcommand_bytes(tmp_path, capsys, label):
    argv, digest = FROZEN_RUNS[label]
    assert _run_digest(argv, tmp_path, capsys) == digest


def test_timestamp_flag_breaks_reproducibility_knowingly(tmp_path):
    assert main(["variance", "--out", str(tmp_path), "--points", "9",
                 "--timestamp"]) == 0
    meta, _ = read_output(tmp_path / "variance.csv")
    assert meta["wall_clock"] != "disabled (deterministic mode)"
    assert meta["wall_clock"].endswith("+00:00") or "T" in meta["wall_clock"]


def test_config_file_resolution(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"fbar_over_fth": 2.0, "f1_over_fbar": 0.5}))
    assert main(["variance", "--out", str(tmp_path), "--points", "9",
                 "--config", str(cfg)]) == 0
    meta, _ = read_output(tmp_path / "variance.csv")
    echoed = json.loads(meta["config"])
    assert echoed["fbar_over_fth"] == 2.0
    assert echoed["f1_over_fbar"] == 0.5


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"fbar_over_fth": 2.0}))
    assert main(["variance", "--out", str(tmp_path), "--points", "9",
                 "--config", str(cfg), "--fbar", "3.0"]) == 0
    meta, _ = read_output(tmp_path / "variance.csv")
    assert json.loads(meta["config"])["fbar_over_fth"] == 3.0


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"fbar_over_fth": 2.0, "detuning": 1.0}))
    assert main(["variance", "--out", str(tmp_path), "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("ratio,trusted", [
    (math.nan, False), (math.inf, True), (-math.inf, False), (0.0, False),
    (VALIDITY_MARGIN, True), (math.nextafter(VALIDITY_MARGIN, 0.0), False),
])
def test_one_trusted_rule_for_minima_cells_and_warnings(ratio, trusted):
    crit = classify_entanglement(0.5, 0.5)
    vmin = VminResult(v_min=0.5, t0=0.0, n0_at_t0=1.0, period=1.0, criteria=crit,
                      validity_ratio=ratio)
    cell = SweepCell(fbar_over_fth=2.0, f1_over_fbar=0.0, regime="above", v_min=0.5, t0=0.0,
                     n0_at_t0=1.0, inseparable=True, epr=False, validity_ratio=ratio)
    # the warning is one line for an untrusted ratio and nothing at all else
    lines = _warn_validity([ratio])
    warned = len(lines) == 1 and lines[0].startswith(
        f"warning: linearization validity ratio {ratio:.3g} < 10; ")
    assert lines == [] or warned, lines
    assert [is_trusted(ratio), vmin.trusted, cell.trusted, not warned] == [trusted] * 4


def test_non_numeric_config_with_lam_fails_cleanly(tmp_path, capsys):
    # --lam reads gamma3 from the config before the config is checked
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"gamma3_over_gamma": "x"}))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["variance", "--out", str(out), "--config", str(cfg),
                 "--lam", "0.1"]) == 1
    assert _one_error_line(capsys)
    assert not list(out.iterdir())
    # and a bad --lam itself is named, whatever the config
    for lam in ("-0.1", "nan", "0", "inf"):
        assert main(["variance", "--out", str(out), f"--lam={lam}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --lam") and err.count("\n") == 1, lam
        assert not list(out.iterdir())


def test_missing_output_directory_fails(tmp_path, capsys):
    missing = tmp_path / "nope"
    assert main(["variance", "--out", str(missing), "--points", "9"]) == 1
    assert "error:" in capsys.readouterr().err


def _one_error_line(capsys):
    lines = capsys.readouterr().err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


def test_bad_grid_string_fails(tmp_path, capsys):
    # malformed text, zero, negative or non-finite steps or ends, two or
    # four parts, and hi below lo (an empty grid, or one cell at lo)
    for command in ("sweep", "fig3"):
        for grid in ("1::", "1:2:0", "1:2:-0.5", "1:2:nan", "1:inf:0.5", "0:1e308:1e-10",
                     "1:2", "1:2:1:1", "2:1:1", "2:1.6:1"):
            assert main([command, "--out", str(tmp_path), "--fbar-grid", grid]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: grid '{grid}'") and err.count("\n") == 1, grid
            assert not list(tmp_path.iterdir()), grid


@pytest.mark.parametrize("command", ["sweep", "fig3"])
def test_overflowing_pump_ratio_fails_cleanly(tmp_path, capsys, command):
    # rounding 1e300 to 12 decimals overflows; the error used to follow a
    # numpy RuntimeWarning and blame the modulation depth f1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--out", str(tmp_path), "--fbar-grid", "1e300:1e300:1"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "pump ratio" in lines[0]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["sweep", "--fbar-grid", "1e6:1e6:1", "--f1-levels", "0"],
    ["sweep", "--fbar-grid", "1e10:1e10:1", "--f1-levels", "0"],
    ["sweep", "--fbar-grid", "1e150:1e150:1", "--f1-levels", "0"],
    ["variance", "--fbar", "0.5", "--f1", "1e6", "--points", "3"],
], ids=["sweep-1e6", "sweep-1e10", "sweep-1e150", "variance-deep"])
def test_stiff_orbit_is_refused_up_front(tmp_path, argv):
    # the sweeps used to integrate for hours, the variance to fail after
    # 5 s behind solver RuntimeWarnings; a subprocess with a timeout keeps a
    # hang from stalling the suite
    cmd = [sys.executable, "-m", "modnopo.cli", *argv, "--out", str(tmp_path)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=5)
    assert res.returncode == 1
    errors = [ln for ln in res.stderr.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "too stiff" in errors[0], res.stderr
    assert "Warning" not in res.stderr
    assert not list(tmp_path.iterdir())


def test_cli_does_not_import_scipy_integrate():
    # the ODE routes run their own RK45, every spline is model.Curve's own
    # and state diffusion applies its ladder operators as shifted slices, so
    # neither the package nor the command line loads any part of scipy
    code = ("import sys, modnopo, modnopo.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 0 and res.stdout.strip() == "[]", res.stdout + res.stderr


@pytest.mark.parametrize("argv,route", [
    (["variance", "--fbar=-0.999", "--f1", "1.4", "--delta", "40", "--points", "3"],
     "the variance"),
    (["sweep", "--fbar-grid", "1.0001:1.0001:1", "--f1-levels", "0.75"],
     "the photon-number orbit"),
], ids=["variance-weak-damping", "sweep-just-above-threshold"])
def test_hopeless_period_loop_is_refused_after_two_periods(tmp_path, argv, route):
    # both used to run 10,000 periods for 14-23 s and then fail; after two
    # periods the loop predicts its period count from the period decay D
    cmd = [sys.executable, "-m", "modnopo.cli", *argv, "--out", str(tmp_path)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=5)
    assert res.returncode == 1
    errors = [ln for ln in res.stderr.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1, res.stderr
    assert route in errors[0] and "periods to become periodic" in errors[0], errors
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,message", [
    (["variance", "--fbar", "0.5", "--delta", "1e9", "--points", "3"], "from its periodic state"),
    (["sweep", "--fbar-grid", "2:2:1", "--f1-levels", "0", "--delta", "1e12"],
     "from its periodic state"),
    (["variance", "--fbar=-0.95", "--f1", "1.658", "--delta", "0.5", "--points", "3"],
     "in 65 periods, over twice the 27.3 predicted"),
], ids=["variance-fast-modulation", "sweep-fast-modulation", "variance-noise"])
def test_false_or_endless_period_loop_is_refused(tmp_path, argv, message):
    # the fast-modulation inputs used to stop at the second period and exit
    # 0 with V near its vacuum start (1 against 2/3 and 0.625); the third
    # chased integrator noise through all 10,000 periods for minutes, and
    # its 65 periods still take 4-6 s on a 2-vCPU x86 host
    cmd = [sys.executable, "-m", "modnopo.cli", *argv, "--out", str(tmp_path)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=20)
    assert res.returncode == 1
    errors = [ln for ln in res.stderr.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and message in errors[0], res.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["variance", "--periods", "1e12", "--points", "3"],
    ["semiclassical", "--delta", "1e-300", "--f1", "0.5", "--points", "3"],
], ids=["variance-late-times", "semiclassical-endless-period"])
def test_times_past_the_pump_integrals_digits_are_refused(tmp_path, argv):
    # the first exited 0 with V = 0.66622 against 2/3: t - s rounds at
    # rate*t near 4e13; in the second t - s rounds to t at t = T, so the
    # closed form's exponent grew with s and its early stop never fired
    cmd = [sys.executable, "-m", "modnopo.cli", *argv, "--out", str(tmp_path)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=20)
    assert res.returncode == 1
    errors = [ln for ln in res.stderr.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "lost its digits" in errors[0], res.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("points", ["3", "801"])
def test_closed_form_over_its_work_budget_is_refused(tmp_path, points):
    # the f1 = 1.2 fbar level's pump dips below threshold, so its period of
    # 23.9M panels cannot stop early; it used to run for hours
    cmd = [sys.executable, "-m", "modnopo.cli", "fig1", "--delta", "1e-6", "--points", points,
           "--out", str(tmp_path)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=20)
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: closed form") and "budget" in lines[0]
    assert not list(tmp_path.iterdir())


def test_stiff_budget_keeps_pump_ratio_1e3(tmp_path):
    # the digest of the CSV from before the stiffness budget existed
    assert main(["sweep", "--out", str(tmp_path), "--fbar-grid", "1e3:1e3:1",
                 "--f1-levels", "0"]) == 0
    assert hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest() == (
        "448ff8cf963c2e64b1d4da2e2213f79be9cb777cb6bdcb2ad0d34cc2cf06fb4a")


@pytest.mark.parametrize("command", ["semiclassical", "variance", "fig1", "fig2"])
def test_bad_point_grid_fails_cleanly(tmp_path, capsys, command):
    # too few points or a non-finite or empty span used to write a
    # header-only CSV or rows of nan, with exit 0
    bad = [["--points", "0"], ["--points", "1"]]
    if command in ("semiclassical", "variance"):
        bad += [["--periods", p] for p in ("nan", "inf", "0", "-1")]
    for flags in bad:
        assert main([command, "--out", str(tmp_path), *flags]) == 1, flags
        assert _one_error_line(capsys), flags
        assert not list(tmp_path.iterdir())


_FUZZ_SPECIALS = [math.nan, math.inf, -math.inf, 0.0, -1.0]


def _fuzzed(lo, hi):
    # about one draw in four is special, so some runs have none at all
    return st.one_of(*[st.floats(lo, hi)] * 3, st.sampled_from(_FUZZ_SPECIALS))


def _run_checked(argv):
    """Run argv into a fresh directory and check the CLI's contract: exit 0
    with one finite CSV, or exit 1 with one error line and no file.  Returns
    the exit code and, on exit 0, the CSV's meta and columns, on exit 1 the
    error line and None."""
    with tempfile.TemporaryDirectory() as out:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, "--out", out])
        errors = [ln for ln in err.getvalue().splitlines() if ln.startswith("error:")]
        written = list(Path(out).iterdir())
        if code == 0:
            assert not errors and len(written) == 1, argv
            meta, cols = read_output(written[0])
            assert all(np.isfinite(c).all() for c in cols.values()), argv
            return code, meta, cols
        assert code == 1 and len(errors) == 1 and not written, (argv, err.getvalue())
        return code, errors[0], None


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["semiclassical", "variance"]),
    # (fbar, delta), now and then a weakly damped fast point whose variance
    # loop would need tens of thousands of periods, and a growing slow one
    # whose period multiplier exp(-D) overflows float64
    point=st.one_of(*[st.tuples(_fuzzed(0.0, 5.0), _fuzzed(0.5, 50.0))] * 3,
                    st.tuples(st.floats(-1.0, -0.999), st.floats(40.0, 400.0)),
                    st.tuples(st.floats(-5.0, -1.5), st.floats(0.01, 0.05))),
    f1=_fuzzed(0.0, 2.0),
    lam=st.one_of(st.none(), _fuzzed(1e-6, 0.5)),
    points=st.one_of(st.integers(2, 65), st.sampled_from([0, -1])),
)
def test_fuzzed_curve_flags_give_finite_csv_or_one_error(command, point, f1, lam, points):
    fbar, delta = point
    argv = [command, f"--delta={delta!r}", f"--fbar={fbar!r}", f"--f1={f1!r}",
            f"--points={points}"]
    if lam is not None:
        argv.append(f"--lam={lam!r}")
    code, _, cols = _run_checked(argv)
    event(f"exit {code}")
    if code == 0:
        assert cols["t"].size == points, argv


@settings(max_examples=60, deadline=None)
@given(
    # (first pump ratio, delta, cells): a plain draw, a ratio too stiff for
    # the ODE routes, or one cell so close to threshold that from delta 2 up
    # the orbit would need tens of thousands of periods (at delta 1 it
    # converges, slowly, and so do cells just above it)
    grid=st.one_of(
        # a cell at delta 50 and deep modulation takes ~1 s
        st.tuples(_fuzzed(0.05, 4.0), _fuzzed(0.5, 10.0), st.integers(1, 3)),
        st.tuples(st.sampled_from([1e6, 1e10, 1e150]), _fuzzed(0.5, 10.0),
                  st.integers(1, 3)),
        st.tuples(st.just(1.0001), st.floats(2.0, 10.0), st.just(1)),
    ),
    step=_fuzzed(0.05, 1.0),
    f1=_fuzzed(0.0, 2.0),
    lam=st.one_of(st.none(), _fuzzed(1e-6, 0.5)),
)
def test_fuzzed_sweep_flags_give_finite_csv_or_one_error(grid, step, f1, lam):
    lo, delta, cells = grid
    hi = lo + (cells - 1) * step
    argv = ["sweep", f"--fbar-grid={lo!r}:{hi!r}:{step!r}", f"--f1-levels={f1!r}",
            f"--delta={delta!r}"]
    if lam is not None:
        argv.append(f"--lam={lam!r}")
    code, _, cols = _run_checked(argv)
    event(f"exit {code}")
    if code == 0:
        assert cols["v_min"].size == cells, argv


@pytest.mark.parametrize("key", ["gamma3_over_gamma", "k_over_gamma", "fbar_over_fth",
                                 "f1_over_fbar"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf, 1e-320, 1e308])
@pytest.mark.parametrize("lam", [None, "0.1"])
def test_config_ratios_give_finite_csv_or_one_error(key, value, lam):
    # k/gamma = 0, and gamma3/gamma = 0 with --lam, ended in a ZeroDivisionError
    # traceback; gamma3/gamma = -25 with --lam in "math domain error"; NaN
    # ratios, k/gamma = 1e-320 and pump ratios whose pump overflows blamed
    # the modulation depth f1
    with tempfile.TemporaryDirectory() as folder:
        cfg = Path(folder) / "run.json"
        cfg.write_text(json.dumps({key: value}))
        argv = ["variance", "--points", "3", "--config", str(cfg)]
        if lam is not None:
            argv.append(f"--lam={lam}")
        code, error, _ = _run_checked(argv)
    # --lam sets k in place of the file's k_over_gamma
    overridden = key == "k_over_gamma" and lam is not None
    pump_overflow = value == 1e308 and key in ("fbar_over_fth", "f1_over_fbar")
    if not overridden and (not math.isfinite(value) or pump_overflow):
        assert code == 1 and key in error, error


@pytest.mark.parametrize("delta,code", [("1e308", 0), ("1e-320", 1)])
def test_extreme_delta_gives_finite_csv_or_names_delta(delta, code):
    # 1e308 exited 0 after an overflow warning in the spline's piece lookup
    # on knots a subnormal period apart; at 1e-320 the period 2*pi/delta is
    # inf, and the run warned in its time grid and then blamed
    # rate*(|t| + T) = nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, error, _ = _run_checked(["variance", "--points", "3", f"--delta={delta}"])
    assert got == code and (code == 0 or "delta" in error), error


@pytest.mark.parametrize("command", ["variance", "fig2"])
def test_growing_variance_fails_cleanly(tmp_path, capsys, command):
    # past -f_th no periodic state attracts; at delta 0.01 the ODE route's
    # period multiplier, exp(1257), overflowed into an OverflowError traceback,
    # and fig2 warned about the validity of curves it then refused
    assert main([command, "--out", str(tmp_path), "--fbar", "-2", "--delta", "0.01",
                 "--points", "5"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "decay D" in err[0], err
    assert not list(tmp_path.iterdir())


def test_adiabatic_ratio_warning_is_one_line_after_success(tmp_path):
    # gamma3/gamma = 5 used to print Python's "<string>:9: UserWarning: ..."
    # first, even before the error line of a run that then refused
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps({"gamma3_over_gamma": 5}))
    out = tmp_path / "out"
    out.mkdir()
    cmd = [sys.executable, "-m", "modnopo.cli", "variance", "--config", str(cfg),
           "--points", "3", "--out"]
    refused = subprocess.run(cmd + [str(tmp_path / "missing")], capture_output=True,
                             text=True, timeout=60)
    assert (refused.returncode, refused.stderr) == (
        1, f"error: output directory does not exist: {tmp_path / 'missing'}\n")
    ran = subprocess.run(cmd + [str(out)], capture_output=True, text=True, timeout=60)
    assert (ran.returncode, ran.stderr) == (
        0, "warning: gamma3/gamma = 5 < 10: pump-mode elimination is questionable at this "
           "ratio\n")
    assert [path.name for path in out.iterdir()] == ["variance.csv"]


@pytest.mark.parametrize("argv", [
    ["fig4", "--traj", "8", "--grid-points", "3"],
    ["compare", "--traj", "8", "--qsd-traj", "8", "--grid-points", "3", "--fbar", "0.3"],
], ids=["fig4", "compare"])
def test_refused_run_prints_no_warning(tmp_path, capsys, argv):
    # both runs are untrusted (validity ratios 1.35e-15 and 7); the warning
    # used to come before the error line of the ensemble that then refused
    assert main([*argv, "--out", str(tmp_path), "--dt", "nan"]) == 1
    assert _one_error_line(capsys)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["positivep", "qsd", "compare", "fig4"])
@pytest.mark.parametrize("points", ["0", "-3"])
def test_bad_grid_points_are_named(tmp_path, capsys, command, points):
    # 0 used to be refused as an empty t_grid, -3 by numpy's linspace
    assert main([command, "--out", str(tmp_path), "--traj", "8",
                 f"--grid-points={points}"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: need --grid-points >= 1, got {points}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["qsd", "positivep"])
@pytest.mark.parametrize("dt", ["-1", "0", "nan"])
def test_bad_dt_fails_cleanly(tmp_path, capsys, command, dt):
    # a bad step must not fall back to the grid spacing and exit 0
    assert main([command, "--out", str(tmp_path), "--traj", "8",
                 "--grid-points", "3", "--relax", "0.5", "--lam", "0.1",
                 "--fbar", "0.3", "--dt", dt]) == 1
    assert _one_error_line(capsys)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("dt", ["0.3", "2"])
def test_unstable_qsd_step_fails_cleanly(tmp_path, capsys, dt):
    # past dt * (largest loss rate) = 1 the explicit step overshoots: this
    # run used to report V_mean of 32-39 (0.77 is right) with exit 0
    assert main(["qsd", "--out", str(tmp_path), "--lam", "0.1", "--fbar", "0.3",
                 "--traj", "2", "--nmax", "4", "--grid-points", "3",
                 "--dt", dt]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "dt=" in err and "n_max=4" in err and "dt < 0.1042" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("dt,code", [("1", 1), ("0.5", 0)])
def test_unstable_positivep_step_fails_cleanly(tmp_path, capsys, dt, code):
    # dt 1 gives a step of 0.785, past 1/(gamma + eps) = 0.769 below
    # threshold: this run used to report V_mean 0.603 with exit 0 (0.779 is
    # right); dt 0.5 gives 0.393 and still runs
    assert main(["positivep", "--out", str(tmp_path), "--lam", "0.1", "--fbar", "0.3",
                 "--traj", "256", "--grid-points", "3", "--relax", "5",
                 "--dt", dt]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert not err and len(list(tmp_path.iterdir())) == 1
        return
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "dt=0.7854" in err and "dt < 0.7692" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command,route", [
    ("positivep", positivep), ("compare", positivep), ("qsd", qsd), ("fig4", qsd),
])
def test_ensemble_defaults_are_the_modules(monkeypatch, command, route):
    # a changed module default must reach the command line
    args = build_parser().parse_args([command])
    assert (args.dt, args.relax) == (route.DEFAULT_DT, route.RELAX_WINDOW)
    monkeypatch.setattr(route, "DEFAULT_DT", 2.5e-3)
    monkeypatch.setattr(route, "RELAX_WINDOW", 3.5)
    args = build_parser().parse_args([command])
    assert (args.dt, args.relax) == (2.5e-3, 3.5)


@pytest.mark.parametrize("command,flags", [
    ("compare", ["--traj", "16", "--qsd-traj", "4", "--grid-points", "3"]),
    ("fig4", ["--traj", "4", "--grid-points", "3", "--nmax", "6"]),
])
def test_relax_reaches_the_ensembles(tmp_path, command, flags):
    # both subcommands take --relax; it used to be dropped silently
    outputs = []
    for relax in ("0.2", "0.4"):
        out = tmp_path / relax
        out.mkdir()
        assert main([command, "--out", str(out), *flags, "--relax", relax]) == 0
        outputs.append((out / f"{command}.csv").read_bytes())
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize("command,flags", [
    ("compare", ["--traj", "16", "--qsd-traj", "4", "--grid-points", "3"]),
    ("fig4", ["--traj", "4", "--grid-points", "3", "--nmax", "6"]),
])
def test_config_coupling_holds_without_lam(tmp_path, command, flags):
    # the desk-scale lam/gamma = 0.1 fixes the coupling only when neither
    # --lam nor the config file does; fig4 used to drop the config's
    cfg = tmp_path / "run.json"
    runs = [({"k_over_gamma": math.sqrt(0.3 * 25.0)}, math.sqrt(0.3 * 25.0)),
            ({"delta_over_gamma": 2.0}, math.sqrt(0.1 * 25.0))]
    for keys, k in runs:
        cfg.write_text(json.dumps(keys))
        assert main([command, "--out", str(tmp_path), "--config", str(cfg),
                     "--relax", "0.2", *flags]) == 0
        meta, _ = read_output(tmp_path / f"{command}.csv")
        assert json.loads(meta["config"])["k_over_gamma"] == k, keys


def _qsd_step_stable(meta) -> bool:
    # the explicit state-diffusion step damps Fock level (n1, n2) by
    # 1 - dt*(gamma*(n1 + n2) + lam*n1*n2), gamma = 1, largest at the cutoff
    cfg = json.loads(meta["config"])
    lam = cfg["k_over_gamma"] ** 2 / cfg["gamma3_over_gamma"]
    n = int(meta["n_max"])
    return float(meta["dt"]) * (2.0 * n + lam * n * n) < 1.0


def _positivep_step_stable(meta) -> bool:
    # the explicit positive-P step needs dt times the fastest drift rate,
    # gamma + max|eps| + 2 lam n0_max on the classical orbit, below 1
    p = config_to_params(json.loads(meta["config"]))
    d = derive_params(p)
    above = regime_classify(p) is Regime.ABOVE_THRESHOLD
    n0_max = periodic_steady_state(p).max_n0() if above else 0.0
    return float(meta["dt"]) * (d.gamma + d.eps_peak + 2.0 * d.lam * n0_max) < 1.0


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["positivep", "qsd"]),
    dt=st.one_of(st.floats(-2.5, 0.3).map(lambda e: 10.0 ** e),
                 st.sampled_from(_FUZZ_SPECIALS)),
    fbar=st.floats(0.0, 2.0),   # the curve fuzz covers the model flags' specials
    f1=st.floats(0.0, 1.5),
    lam=st.floats(0.1, 0.5),
    traj=st.integers(2, 8),
    points=st.integers(2, 4),
    relax=st.floats(0.0, 0.5),
    nmax=st.integers(2, 8),
)
def test_fuzzed_ensemble_flags_give_finite_csv_or_one_error(command, dt, fbar, f1, lam,
                                                            traj, points, relax, nmax):
    argv = [command, f"--dt={dt!r}", f"--fbar={fbar!r}", f"--f1={f1!r}",
            f"--lam={lam!r}", f"--traj={traj}", f"--grid-points={points}",
            f"--relax={relax!r}"]
    if command == "qsd":
        argv.append(f"--nmax={nmax}")
    code, meta, cols = _run_checked(argv)
    event(f"{command} exit {code}")
    if code == 0:
        assert cols["t"].size == points, argv
        if command == "qsd":
            assert _qsd_step_stable(meta), (argv, meta)
        else:
            assert _positivep_step_stable(meta), (argv, meta)


_SMALL_RUN = {
    "positivep": ["--traj", "8", "--grid-points", "3", "--lam", "0.1", "--fbar", "0.3"],
    "qsd": ["--traj", "8", "--grid-points", "3", "--lam", "0.1", "--fbar", "0.3"],
    "sweep": ["--fbar-grid", "1:2:0.5", "--f1-levels", "0"],
}


@pytest.mark.parametrize("command,flag,value", [
    *[(c, "--relax", v) for c in ("positivep", "qsd") for v in ("nan", "inf", "1e12")],
    *[(c, "--workers", v) for c in ("sweep", "positivep", "qsd") for v in ("0", "-2")],
])
def test_bad_relax_or_workers_fails_cleanly(tmp_path, capsys, command, flag, value):
    # neither may run unrelaxed, overflow, step for hours, or fall back to
    # one worker
    assert main([command, "--out", str(tmp_path), *_SMALL_RUN[command],
                 flag, value]) == 1
    assert _one_error_line(capsys)
    assert not list(tmp_path.iterdir())


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
