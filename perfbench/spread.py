"""Steadiness check: run one workload with several seeds and report, for each
end-to-end metric, the quartile spread (Q3 - Q1) / median against its bound.

    python3 perfbench/spread.py --workload predict --seeds 1-10

A metric is steady when its spread stays below a third of its bound
(setup_s is exempt from the spread rule; its median is what is compared).
The spreads of the raw times, before scaling to the speed reference
(see speedref.py), are printed beside them for comparison.
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=int)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    raw = {}
    ok = True
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        saved = ROOT / ".perfbench_work" / "results" / f"{args.workload}-seed{seed}-trace0.json"
        for name, v in json.loads(saved.read_text())["raw"].items():
            raw.setdefault(name, []).append(v)
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    print(f"{'metric':18s} {'median':>12s} {'spread':>8s} {'bound':>6s}  steady (< bound/3)  raw median, spread")
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        if len(vals) < 2:
            continue
        spread = stats.quartile_spread(vals)
        steady = m["name"] == "setup_s" or spread < m["bound"] / 3.0
        ok &= steady
        r = raw.get(f"raw {m['name']}", [])
        unscaled = f"{stats.median(r):12.4f} {stats.quartile_spread(r):8.4f}" if len(r) == len(vals) else ""
        print(f"{m['name']:18s} {stats.median(vals):12.4f} {spread:8.4f} {m['bound']:6.2f}  "
              f"{'yes' if steady else 'NO ':18s} {unscaled}")
    out = ROOT / ".perfbench_work" / f"spread-{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"scaled": values, "raw": raw}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
