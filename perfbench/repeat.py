"""Run the benchmark repeatedly and summarise each metric.

    python3 perfbench/repeat.py --workload trace-setcost --seeds 1-10 [--trace 1] [--out FILE]

Runs sequentially, one seed per run, with ``run_seconds`` from
BENCHMARK.json.  For every metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share
of the median, next to the metric's bound.  ``--out`` merges the summary
into a JSON file keyed by workload and mode, e.g. a baseline record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, action="append")
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    for workload in args.workload:
        runs, walls = [], []
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            walls.append(time.perf_counter() - t0)
            if out.returncode != 0:
                print(out.stdout, out.stderr, file=sys.stderr)
                return 1
            lines = out.stdout.strip().splitlines()
            runs.append(json.loads(lines[-1]))
            env = json.loads(lines[0])["env"]
        rows = {"env": env, "seeds": args.seeds, "run_wall_s": max(walls)}
        print(f"{workload} trace={args.trace} seeds={args.seeds[0]}..{args.seeds[-1]} "
              f"failed={[r['failed'] for r in runs]} correct={[r['correct'] for r in runs]} "
              f"longest run {max(walls):.1f} s")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "unit": runs[0]["metrics"][name]["unit"], "runs": len(values)}
            bound = bounds.get(name)
            print(f"  {name:34s} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:7.4f}" + (f"  bound {bound}" if bound else ""))
        summary.setdefault(workload, {})[f"trace{args.trace}"] = rows
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
