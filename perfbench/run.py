"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload predict --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn
    python3 perfbench/run.py --selftest                   # the benchmark's own tests

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the last line of stdout is one JSON object
holding every end-to-end metric of BENCHMARK.json, its times scaled to
the nominal speed of the speed reference (speedref.py); with
``--trace 1`` it holds every per-layer metric, unscaled. The lines
before it name each metric with its unit and sample count, the raw
figures and the environment. A failed correctness check makes the exit
code 1.

BLAS and OpenMP thread counts are fixed before numpy is imported, here
and in every child process: tail latency of the small convolutions is
several times worse with the default thread pools.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import stats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".perfbench_work"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
BLAS_THREADS = "1"
WORKLOAD_NAMES = ("predict", "predict-cli", "train")


def fix_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def environment(seed: int) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for p in sources:
        raw = p.read_bytes()
        digest.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + raw)
        lines += len(raw.splitlines())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k in THREAD_VARS or k.endswith("_NUM_THREADS")},
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "src_files": len(sources),
    }


def end_to_end(out, speed: float = 1.0) -> dict:
    """Times are multiplied, and throughput divided, by `speed` (see speedref)."""
    lat = out.latencies
    return {
        "setup_s": (speed * stats.median(out.setup_s), len(out.setup_s)),
        "latency_p50_ms": (speed * 1e3 * stats.percentile(lat, 50.0), len(lat)),
        "latency_p90_ms": (speed * 1e3 * stats.percentile(lat, 90.0), len(lat)),
        "items_per_s": (out.items / out.busy_s / speed, int(out.items)),
        "peak_rss_mb": (out.peak_rss_mb, 1),
    }


def per_layer(out) -> dict:
    m = {k: (v, out.layer_n.get(k, out.layer_units)) for k, v in out.layers.items()}
    traced = 1e3 * stats.percentile(out.traced_latencies, 50.0)
    m["trace.latency_p50_ms"] = (traced, len(out.traced_latencies))
    m["trace.overhead_ms"] = (traced - 1e3 * stats.percentile(out.latencies, 50.0), len(out.latencies))
    return m


def run_one(args, spec: dict) -> int:
    import speedref
    import workloads
    from tracer import Tracer

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer()
    t0 = time.perf_counter()
    try:
        out = workloads.WORKLOADS[args.workload](args.seed, float(args.seconds), bool(args.trace), work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wall = time.perf_counter() - t0

    kind = "per_layer" if args.trace else "end_to_end"
    raw = {}
    if args.trace:
        measured = per_layer(out)
    else:
        speed = stats.speed_factor(out.reference_s, speedref.NOMINAL_S)
        measured = end_to_end(out, speed)
        raw = {f"raw {k}": v for k, (v, _) in end_to_end(out).items() if k != "peak_rss_mb"}
        raw["speed_factor"] = speed
        raw["reference_ms"] = 1e3 * stats.trimmed_mean(out.reference_s)
        raw["reference_samples"] = float(len(out.reference_s))
    wanted = {m["name"]: m["unit"] for m in spec[kind]}
    problems = list(out.problems)
    if set(measured) != set(wanted):
        problems.append(
            f"metrics differ from BENCHMARK.json {kind}: missing {sorted(set(wanted) - set(measured))}, "
            f"extra {sorted(set(measured) - set(wanted))}"
        )
    for name, (value, _) in measured.items():
        if not math.isfinite(value):
            problems.append(f"{name} is {value}")
    correct = out.failed == 0 and not problems

    env = environment(args.seed)
    err = stats.error_rate(out.failed, out.attempted) if out.attempted else 1.0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  wall {wall:.1f}s  unit: {out.unit}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name in sorted(measured) if args.trace else [m["name"] for m in spec[kind]]:
        value, n = measured[name]
        print(f"  {name:44s} {value:14.4f} {wanted.get(name, '?'):8s} n={n}")
    if not args.trace:
        p = stats.highest_supported_percentile(len(out.latencies))
        if p < 90.0:
            print(f"  note: latency_p90_ms has fewer than {stats.MIN_BEYOND} samples beyond it (p{p:g} has)")
    if raw:
        print(f"  times above are scaled to the nominal reference speed ({speedref.NOMINAL_S * 1e3:g} ms); as measured:")
    for name, value in raw.items():
        print(f"  {name:44s} {value:14.4f}")
    for name, value in sorted(out.extra.items()):
        print(f"  extra {name:38s} {value:14.4f}")
    print(f"  error_rate {err:.4f} ({out.failed} failed of {out.attempted} attempted)")
    for p in problems:
        print(f"  FAILED: {p}")

    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "unit": out.unit,
        "environment": env,
        "metrics": {k: {"value": v, "unit": wanted.get(k), "samples": n} for k, (v, n) in measured.items()},
        "extra": out.extra,
        "raw": raw,
        "attempted": out.attempted,
        "failed": out.failed,
        "error_rate": err,
        "problems": problems,
        "latencies_s": out.latencies,
        "setup_s": out.setup_s,
        "reference_s": out.reference_s,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace:
        fields = ["name", "start", "end", "parent", "unit", "phase"]
        (results / f"{stem}-spans.json").write_text(json.dumps({"fields": fields, "spans": out.spans}))

    line = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": wanted.get(k)} for k, (v, _) in measured.items()},
    }
    print(json.dumps(line))
    return 0 if correct else 1


def run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = subprocess.run(cmd, cwd=ROOT).returncode
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true", help="run the benchmark's own tests")
    args = p.parse_args(argv)

    if args.selftest:
        import unittest

        suite = unittest.defaultTestLoader.discover(str(BENCH_DIR), pattern="test_*.py")
        return 0 if unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful() else 1
    if args.workload is None:
        p.error("--workload is required")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "boneage" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} lacks src/boneage or BENCHMARK.json; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    fix_threads()
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args, spec)
    except Exception:  # a crash is a failed run: report it, print no result
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
