"""One fresh benchmark process: set up, run the ops of one pass, report.

Started by run.py, never by hand.  The process measures its own set-up
time from the spawn instant the parent passes in (CLOCK_MONOTONIC is
shared by all processes), so ``setup_s`` covers interpreter start, the
import of modnopo and the generation of the workload's inputs.

Modes:
  setup   set up and exit (an extra set-up sample)
  run     set up, then run every op back to back with one client,
          optionally traced, and write per-op timings and digests;
          with --gates, also check every op's output after the timed region
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from workloads import GATES, cli_argv, digest, extended_call, make_ops, prepare

ROOT = Path(__file__).resolve().parents[1]


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _steal_s() -> float:
    """Host steal time of the virtual machine so far (Linux /proc/stat; 0 elsewhere)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def _run_op(op: dict, op_dir: Path, workers: int):
    """Call the op's entry point; returns (failure text or None, result)."""
    import modnopo.cli  # importable once main() has put src/ on sys.path

    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            if op["kind"] == "cli":
                rc = modnopo.cli.main(cli_argv(op, op_dir, workers))
                result = None
            else:
                rc, result = 0, extended_call(op, workers)
    except Exception as exc:  # an escaping exception is a failed op, not a crash
        return f"{type(exc).__name__}: {exc}", None
    errors = [ln for ln in err.getvalue().splitlines() if ln.startswith("error:")]
    if rc != 0 or errors:
        return f"exit {rc}: {' | '.join(errors)}", None
    return None, result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--gates", action="store_true")
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import modnopo
    import modnopo.cli  # noqa: F401  (the entry point every CLI op calls)

    if not Path(modnopo.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"modnopo imported from {modnopo.__file__}, not this checkout")
    work = Path(args.dir)
    ops = make_ops(args.workload, args.seed, args.seconds)
    op_dirs = [work / f"op{i:03d}" for i in range(len(ops))]
    for op, op_dir in zip(ops, op_dirs):
        prepare(op, op_dir)
    report: dict = {"setup_s": time.monotonic() - args.spawned,
                    "ops_key": hashlib.sha256(json.dumps(ops, sort_keys=True).encode())
                    .hexdigest()[:16]}
    if args.mode == "setup":
        for op_dir in op_dirs:
            shutil.rmtree(op_dir)
        (work / "result.json").write_text(json.dumps(report), encoding="utf-8")
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    results, rows = [], []
    steal0, cpu0, wall0 = _steal_s(), time.process_time(), time.perf_counter()
    for op, op_dir in zip(ops, op_dirs):
        t0 = time.perf_counter()
        failure, result = _run_op(op, op_dir, args.workers)
        rows.append({"wall": time.perf_counter() - t0, "failure": failure})
        results.append(result)
    report["region_wall"] = time.perf_counter() - wall0
    report["cpu_s"] = time.process_time() - cpu0
    report["steal_s"] = _steal_s() - steal0
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.layer_metrics()
        tracer.dump(work / "spans.json")
    csv_bytes = 0
    for op, op_dir, row, result in zip(ops, op_dirs, rows, results):
        if row["failure"] is not None:
            continue
        row["digest"] = digest(op, op_dir, result)
        if op["kind"] == "cli":
            csv_bytes += (op_dir / op["csv"]).stat().st_size
        if args.gates:
            try:
                row["failure"] = GATES[args.workload](op, op_dir, result)
            except Exception as exc:  # a gate that cannot evaluate is a miss
                row["failure"] = f"gate raised {type(exc).__name__}: {exc}"
        shutil.rmtree(op_dir)
    report["csv_bytes"] = csv_bytes
    report["ops"] = rows
    report["env"] = _environment()
    (work / "result.json").write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
