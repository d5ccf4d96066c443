"""Command-line pipelines: schemas, metadata, determinism, exit codes.

Each subcommand is driven in-process through main() for speed; the
cross-worker byte-identity of the CLI surface is covered separately by
the acceptance suite, which shells out for real.
"""

import json
import math

import numpy as np
import pytest

from modnopo.cli import main


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


def test_missing_output_directory_fails(tmp_path, capsys):
    missing = tmp_path / "nope"
    assert main(["variance", "--out", str(missing), "--points", "9"]) == 1
    assert "error:" in capsys.readouterr().err


def _one_error_line(capsys):
    lines = capsys.readouterr().err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


def test_bad_grid_string_fails(tmp_path, capsys):
    # malformed text, and zero, negative or non-finite steps or ends
    for grid in ("1::", "1:2:0", "1:2:-0.5", "1:2:nan", "1:inf:0.5"):
        assert main(["sweep", "--out", str(tmp_path), "--fbar-grid", grid]) == 1
        assert _one_error_line(capsys), grid


@pytest.mark.parametrize("command", ["qsd", "positivep"])
@pytest.mark.parametrize("dt", ["-1", "0", "nan"])
def test_bad_dt_fails_cleanly(tmp_path, capsys, command, dt):
    # a bad step must not fall back to the grid spacing and exit 0
    assert main([command, "--out", str(tmp_path), "--traj", "8",
                 "--grid-points", "3", "--relax", "0.5", "--lam", "0.1",
                 "--fbar", "0.3", "--dt", dt]) == 1
    assert _one_error_line(capsys)
    assert not list(tmp_path.iterdir())


_SMALL_RUN = {
    "positivep": ["--traj", "8", "--grid-points", "3", "--lam", "0.1", "--fbar", "0.3"],
    "qsd": ["--traj", "8", "--grid-points", "3", "--lam", "0.1", "--fbar", "0.3"],
    "sweep": ["--fbar-grid", "1:2:0.5", "--f1-levels", "0"],
}


@pytest.mark.parametrize("command,flag,value", [
    *[(c, "--relax", v) for c in ("positivep", "qsd") for v in ("nan", "inf")],
    *[(c, "--workers", v) for c in ("sweep", "positivep", "qsd") for v in ("0", "-2")],
])
def test_bad_relax_or_workers_fails_cleanly(tmp_path, capsys, command, flag, value):
    # neither may run unrelaxed, overflow, or fall back to one worker
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
