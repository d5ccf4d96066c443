"""Benchmark of the four modnopo routes; see perfbench/README.md.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is a set of fresh processes started one after another:

  probe    sets up only (one more set-up sample)
  timed    the ops at --workers 2, untraced; the first timed pass then runs
           the gates.  --trace 0 runs two timed passes and reports their
           medians; --trace 1 runs one, then an untraced and a traced pass
           at --workers 1, which give trace.overhead_frac and the per-layer
           figures

Every op's output digest must agree across the passes (so across worker
counts in a traced run) and with earlier runs of the same ops on the same
sources in this checkout.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

RUNS_DIR = ROOT / ".perfbench-runs"
TIMED_WORKERS = 2
SPEC = ROOT / "BENCHMARK.json"
DEADLINE_S = 170.0
# BLAS and OpenMP pools stay at one thread, so --workers 2 is the only
# parallelism and the process stays within 2 CPUs.
THREAD_CAPS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def _child(args, run_dir: Path, name: str, start: float, mode: str = "run",
           workers: int = 1, trace: bool = False, gates: bool = False) -> dict:
    work = run_dir / name
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workers", str(workers), "--dir", str(work)]
    cmd += ["--trace"] * trace + ["--gates"] * gates
    env = dict(os.environ, **THREAD_CAPS)
    timeout = DEADLINE_S - (time.monotonic() - start)
    if timeout <= 0:
        raise BenchError(f"no time left for the {name} pass")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:   # run() has killed and reaped the child
        raise BenchError(f"{name} pass timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{name} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def _source_key() -> str:
    """Hash of the modnopo sources, so a changed program starts a new store."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "modnopo").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _digest_store(ops_key: str, digests: list) -> list:
    """Digests of earlier runs of the same ops on the same sources; the
    first run records them."""
    path = RUNS_DIR / f"digests-{_source_key()}-{ops_key}.json"
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    if None not in digests:
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(digests), encoding="utf-8")
        os.replace(tmp, path)
    return digests


def bench(args) -> dict:
    start = time.monotonic()
    run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    probe = _child(args, run_dir, "probe", start, mode="setup")
    first = _child(args, run_dir, "timed1", start, workers=TIMED_WORKERS, gates=True)
    if args.trace:
        baseline = _child(args, run_dir, "untraced-w1", start)
        traced = _child(args, run_dir, "traced-w1", start, trace=True)
        passes = [first, baseline, traced]
    else:   # a second timed pass: the figures are medians over both
        passes = [first, _child(args, run_dir, "timed2", start, workers=TIMED_WORKERS)]
    stored = _digest_store(first["ops_key"], [r.get("digest") for r in first["ops"]])
    failed = 0
    for i, row in enumerate(first["ops"]):
        seen = {p["ops"][i].get("digest") for p in passes} | {stored[i]}
        problems = [p["ops"][i]["failure"] for p in passes if p["ops"][i]["failure"]]
        if len(seen) != 1:
            problems.append("output bytes differ across worker counts or repeats")
        row["problems"] = problems
        failed += bool(problems)
    attempted = len(first["ops"])

    setup = [p["setup_s"] for p in passes] + [probe["setup_s"]]
    if args.trace:
        values = dict(traced["layers"])
        values["cli.csv_bytes"] = traced["csv_bytes"]
        values["trace.overhead_frac"] = traced["region_wall"] / baseline["region_wall"] - 1.0
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p["region_wall"] for p in passes),
            "op_s_p50": statistics.median(r["wall"] for p in passes for r in p["ops"]),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            "ok_frac": 1.0 - failed / attempted,
        }
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(values):
        raise BenchError(f"metrics differ from {SPEC.name}: {sorted(set(units) ^ set(values))}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": first["env"], "setup_samples": setup,
              "ops": first["ops"], "pass_walls": [p["region_wall"] for p in passes],
              "pass_steal_s": [p["steal_s"] for p in passes],
              "metrics": metrics, "run_wall_s": time.monotonic() - start}
    (run_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "record": record}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "modnopo" / "__init__.py").is_file():
        print(f"error: no modnopo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        out = bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rec = out.pop("record")
    print("env: " + json.dumps(rec["env"], sort_keys=True))
    for i, row in enumerate(rec["ops"]):
        status = "ok" if not row["problems"] else "FAILED: " + "; ".join(row["problems"])
        print(f"op {i}: {row['wall']:.3f} s {status}")
    print(f"run: {rec['run_wall_s']:.1f} s in {len(rec['pass_walls']) + 1} processes")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
